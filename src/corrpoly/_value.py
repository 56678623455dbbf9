"""The methods that corrpoly's value types share, derived from their fields.

A value type subclasses `Value`, or `FrozenValue` when it is immutable,
and declares its fields, in order, as class annotations.  Its own
``__init__`` checks them and ends in one call ``self._set(*values)``,
which sets the fields in declared order with ``object.__setattr__``; that
keeps an instance's attributes as compact as a dataclass's (writing
``__dict__`` directly would build a full dict per instance).  Everything
else comes from the declared fields, read by one per-class getter that
returns their values as a tuple: the repr ``Name(field=value, ...)``,
pickling and copying through the constructor (so a copy starts with empty
`functools.cached_property` caches), and equality, under which an instance
equals only an instance of exactly its class with equal field values.
`FrozenValue` also hashes the tuple of field values and refuses assignment
and deletion; a `Value` that is not frozen is unhashable.  None of the
benchmark's workloads calls a value type's ``__eq__`` or ``__hash__`` in
its set-up or its operations (0 calls over two rounds of each at seed 1),
so one generic pair costs no measured time.

A plain result record is a named tuple, declared as a `typing.NamedTuple`
body under the decorator `record`, which builds it with
`collections.namedtuple`: the same class, without the `typing.ForwardRef`
that `typing.NamedTuple` compiles for each field's annotation at import.
"""

import collections
import operator


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)  # a class's own: {} for `FrozenValue`
        if fields:
            cls._fields = cls.__match_args__ = fields
            get = operator.attrgetter(*fields)
            # attrgetter returns a bare value for one name: the getter's is a 1-tuple
            cls._field_values = get if len(fields) > 1 else staticmethod(lambda x: (get(x),))

    def _set(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __repr__(self):
        pairs = zip(self._fields, self._field_values(self))
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __reduce__(self):
        return self.__class__, self._field_values(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values(self) == self._field_values(other)
        return NotImplemented


class FrozenValue(Value):
    __slots__ = ()

    def __hash__(self):
        return hash(self._field_values(self))

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
