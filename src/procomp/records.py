"""Frozen records: procomp's value types, built without ``dataclasses``.

``@record`` gives a class whose body annotates its fields what
``@dataclass(frozen=True)`` gave it: an ``__init__`` that takes the fields
by position or keyword, with the body's defaults, and then runs
``__post_init__``; the dataclass ``repr``; ``==`` and ``hash`` over the
fields not declared ``field(compare=False)``; and ``FrozenInstanceError``
on assigning or deleting an attribute. ``dataclasses`` imports
``inspect`` and builds each method with its own ``exec``, which made
defining the records most of procomp's import time. Here one ``exec`` per
class builds its ``__init__`` and comparison key; the rest is shared.
"""

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting an attribute of a record."""


class _Field:
    def __init__(self, default, compare: bool):
        self.default, self.compare = default, compare


def field(*, default=_MISSING, compare: bool = True):
    """A field's default, and whether ``==`` and ``hash`` look at it."""
    return _Field(default, compare)


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
    return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(self._key())


def record(cls=None, /, *, eq: bool = True):
    """Make ``cls`` a frozen record; with ``eq=False`` it keeps ``object``'s
    identity ``==`` and ``hash``."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    cls._fields = tuple(cls.__annotations__)
    namespace, params, body, keys = {"_set": object.__setattr__}, [], [], []
    for name in cls._fields:
        default, compare = cls.__dict__.get(name, _MISSING), True
        if isinstance(default, _Field):
            delattr(cls, name)
            default, compare = default.default, default.compare
        if default is _MISSING:
            params.append(name)
        else:
            setattr(cls, name, default)
            namespace[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        body.append(f"\n    _set(self, {name!r}, {name})")
        if compare:
            keys.append(f"self.{name},")
    if hasattr(cls, "__post_init__"):
        body.append("\n    self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):{''.join(body)}\n"
         f"def _key(self):\n    return ({' '.join(keys)})", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _repr, _setattr, _delattr
    if eq:
        cls._key, cls.__eq__, cls.__hash__ = namespace["_key"], _eq, _hash
    return cls
