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

A plain result record is a named tuple, declared as a `typing.NamedTuple`
body under the decorator `record`, which builds it with
`collections.namedtuple`: the same class, without the `typing.ForwardRef`
that `typing.NamedTuple` compiles for each field's annotation at import.
"""

import collections


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


# names in a class body that are not carried over to its record; nor is a
# name bound to None, such as the ``__doc__`` of a body without a docstring,
# which would hide namedtuple's own
_NOT_COPIED = frozenset({"__module__", "__dict__", "__weakref__"})


def record(cls):
    """The class body ``cls`` as a `collections.namedtuple` of the same name
    and module: its annotated names are the fields, in order, the last of
    them take their values in the body as defaults, and its docstring (if
    it has one: else namedtuple's) and methods are set on the record."""
    body = cls.__dict__
    fields = tuple(cls.__annotations__)
    defaults = [body[name] for name in fields if name in body]
    if any(name not in body for name in fields[len(fields) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    tpl = collections.namedtuple(cls.__name__, fields, defaults=defaults, module=cls.__module__)
    for name, value in body.items():
        if name not in fields and name not in _NOT_COPIED and value is not None:
            setattr(tpl, name, value)
    return tpl
