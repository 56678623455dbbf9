"""The methods that corrpoly's value types share, written out in source.

A value type subclasses `Value`, or `FrozenValue` when it is immutable,
and declares its fields, in order, as class annotations.  Its own
``__init__`` checks them and sets each one with ``object.__setattr__``,
which keeps an instance's attributes as compact as a dataclass's (writing
``__dict__`` directly would build a full dict per instance).  Its own
``__eq__`` and ``__hash__`` compare and hash the tuple of its field values,
an instance equalling only an instance of the same class; they are written
out per class because a shared generic pair is slower.  `Value` gives the
repr ``Name(field=value, ...)`` and pickles and copies through the
constructor, so a copy starts with empty `functools.cached_property`
caches.  `FrozenValue` also refuses assignment and deletion.
"""


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)  # a class's own: {} for `FrozenValue`
        if fields:
            cls._fields = cls.__match_args__ = fields

    def _field_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        pairs = zip(self._fields, self._field_values())
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __reduce__(self):
        return self.__class__, self._field_values()


class FrozenValue(Value):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
