"""Frozen records: procomp's value types, built without ``dataclasses``.

``@record`` gives a class whose body annotates its fields what
``@dataclass(frozen=True, slots=True)`` gave it: an ``__init__`` that
takes the fields by position or keyword, with the body's defaults, and
then runs ``__post_init__``; the dataclass ``repr``; ``==`` and ``hash``
over every field; and ``FrozenInstanceError`` on assigning or deleting an
attribute. Unlike a dataclass, a record with a dict field hashes: the
dict counts by its items, as a ``frozenset``, so equal records hash
equal.

The class is rebuilt with ``__slots__``: an instance holds its fields in
slots and has no ``__dict__`` (so no ``vars()`` and no weak references),
unless its body declares a ``cached_property``, which needs one. A slot
that the body also gives a default cannot keep it as a class attribute,
so the defaults live only in ``__init__``. ``__init__`` stores each field
through its slot's own ``__set__``, and ``__getstate__``/``__setstate__``
do the same, so that ``pickle`` and ``copy`` get past the frozen
``__setattr__``; the state is the fields alone, so a copy computes a
``cached_property`` again on first use. A method that calls ``super()``
with no arguments would see the class before it was rebuilt; no record
does.

``dataclasses`` imports ``inspect`` and builds each method with its own
``exec``, which made defining the records most of procomp's import time.
Here one ``exec`` per shape (field count, and whether ``__post_init__``
runs) compiles an ``__init__``; each class gets a copy of its code with
the parameters renamed to its fields, and the slot setters as globals.
The comparison key is an ``operator.attrgetter`` of the fields, a tuple
since every record has two or more, and the rest is shared.
"""

from functools import cached_property
from operator import attrgetter
from types import CodeType, FunctionType

_MISSING = object()

# (field count, runs __post_init__) -> the code of that shape's __init__
_INIT_CODES: dict[tuple[int, bool], CodeType] = {}


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting an attribute of a record."""


def replace(obj, /, **changes):
    """A copy of record ``obj`` with ``changes``, checked by ``__post_init__``
    as every new record is."""
    return obj.__class__(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{self.__class__.__qualname__}({fields})"


def _eq(self, other):
    return self._key(self) == other._key(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    key = self._key(self)
    try:
        return hash(key)
    except TypeError:  # a dict field: its items count, as a set
        return hash(tuple(frozenset(value.items()) if isinstance(value, dict) else value for value in key))


def _getstate(self):
    return tuple(getattr(self, name) for name in self._fields)


def _setstate(self, values):
    cls = self.__class__
    for name, value in zip(self._fields, values):
        getattr(cls, name).__set__(self, value)


def _init_code(count: int, post_init: bool) -> CodeType:
    """The ``__init__`` of every record of a shape, compiled on first use.

    Parameter ``i`` is stored by global ``_set{i}``, the setter of field
    ``i``'s slot, which each class's function finds in its own globals."""
    code = _INIT_CODES.get((count, post_init))
    if code is None:
        params = "".join(f", _{i}" for i in range(count))
        setters = "".join(f"\n    _set{i}(self, _{i})" for i in range(count))
        if post_init:
            setters += "\n    self.__post_init__()"
        namespace = {}
        exec(f"def __init__(self{params}):{setters}", namespace)
        code = _INIT_CODES[count, post_init] = namespace["__init__"].__code__
    return code


def record(cls):
    """Make ``cls`` a frozen, slotted record."""
    fields = tuple(cls.__annotations__)
    body = dict(cls.__dict__)
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    defaults = []
    for name in fields:
        default = body.pop(name, _MISSING)
        if default is not _MISSING:
            defaults.append(default)
        elif defaults:
            raise TypeError(f"{cls.__qualname__}: field {name!r} without a default follows one with a default")
    cached = any(isinstance(value, cached_property) for value in body.values())
    body["__slots__"] = (*fields, "__dict__") if cached else fields
    body["_fields"] = fields
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    code = _init_code(len(fields), hasattr(cls, "__post_init__")).replace(co_varnames=("self", *fields))
    setters = {f"_set{i}": getattr(cls, name).__set__ for i, name in enumerate(fields)}
    cls.__init__ = FunctionType(code, setters, "__init__", tuple(defaults) or None)
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _repr, _setattr, _delattr
    cls.__getstate__, cls.__setstate__ = _getstate, _setstate
    cls._key = attrgetter(*fields)
    cls.__eq__, cls.__hash__ = _eq, _hash
    return cls
