"""Value records: the methods a Python 3.11 `@dataclass` writes, without `dataclasses`.

`@record` takes a class's annotations, in order, as its fields, and a value
assigned in the class body as that field's default, shared by every
instance (so it must be immutable; there are no default factories). Only
`__init__` is generated per class: it stores the fields, then calls
`__post_init__` if defined. Every record class shares the other methods,
which read the fields from `__match_args__`: a `Name(field=value!r, ...)`
`__repr__` and an `__eq__` that compares field tuples within one class.
Every record is frozen: it hashes its field tuple and refuses assignment
and deletion.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def record(cls):
    """Class decorator: a frozen record of the class's annotated fields."""
    own = cls.__dict__
    names = tuple(own.get("__annotations__", ()))
    defaults = {f"_dflt_{name}": own[name] for name in names if name in own}
    params = ", ".join(f"{name}=_dflt_{name}" if f"_dflt_{name}" in defaults else name
                       for name in names)
    # __init__ stores into the instance dict, as object.__setattr__ would, but faster.
    body = ["_d = self.__dict__"] + [f"_d[{name!r}] = {name}" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = "\n    ".join([f"def __init__(self, {params}):", *body])
    exec(compile(source, f"<record {cls.__qualname__}>", "exec"), defaults)
    cls.__init__ = defaults["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__repr__, cls.__eq__, cls.__match_args__ = _repr, _eq, names
    cls.__hash__, cls.__setattr__, cls.__delattr__ = _hash, _setattr, _delattr
    return cls


def _fields(obj) -> tuple:
    return tuple([getattr(obj, name) for name in obj.__match_args__])


def _repr(self):
    items = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
    return f"{self.__class__.__qualname__}({items})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _fields(self) == _fields(other)
    return NotImplemented


def _hash(self):
    return hash(_fields(self))


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def replace(obj, /, **changes):
    """A copy of record `obj` with `changes`, built through `__init__`, so
    `__post_init__` checks it again; an unknown field is a TypeError. The
    instance dict holds exactly the fields, as `__init__` stored them."""
    return obj.__class__(**{**obj.__dict__, **changes})
