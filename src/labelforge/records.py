"""Value records: the methods a Python 3.11 `@dataclass` writes, from one `exec`.

`@record` takes a class's annotations, in order, as its fields, and a value
assigned in the class body as that field's default, shared by every
instance (so it must be immutable; there are no default factories). It adds
`__init__` (calling `__post_init__` if defined), a `Name(field=value!r, ...)`
`__repr__`, and an `__eq__` that compares field tuples within one class. A
frozen record, the default, also hashes its field tuple and refuses
assignment and deletion; a mutable one is unhashable. A class may declare
its own `__slots__`; its fields then take no defaults. Unlike
`dataclasses`, this loads no `inspect` and compiles each class once.
"""

from __future__ import annotations


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def record(cls=None, /, *, frozen: bool = True):
    """Class decorator: `@record` or `@record(frozen=False)`."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls, frozen: bool):
    own = cls.__dict__
    names = tuple(own.get("__annotations__", ()))
    defaults = {f"_dflt_{name}": own[name] for name in names
                if name in own and name not in own.get("__slots__", ())}
    params = ", ".join(f"{name}=_dflt_{name}" if f"_dflt_{name}" in defaults else name
                       for name in names)
    # A frozen __init__ stores into the instance dict, as object.__setattr__ would, but faster.
    body = (["_d = self.__dict__"] + [f"_d[{name!r}] = {name}" for name in names] if frozen
            else [f"self.{name} = {name}" for name in names])
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "".join(f"self.{name}," for name in names)  # a tuple's items; one or none work too
    items = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    source = [
        f"def __init__(self, {params}):", *(f"    {line}" for line in body),
        "def __repr__(self):",
        f"    return f'{{self.__class__.__qualname__}}({items})'",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({mine.replace('self.', 'other.')})",
        "    return NotImplemented",
    ]
    if frozen:
        source += [
            "def __hash__(self):", f"    return hash(({mine}))",
            "def __setattr__(self, name, value):",
            "    raise FrozenInstanceError(f'cannot assign to field {name!r}')",
            "def __delattr__(self, name):",
            "    raise FrozenInstanceError(f'cannot delete field {name!r}')",
        ]
    namespace = {**defaults, "FrozenInstanceError": FrozenInstanceError}
    exec(compile("\n".join(source), f"<record {cls.__qualname__}>", "exec"), namespace)
    for name in ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
        if name in namespace:
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, namespace[name])
    if not frozen:
        cls.__hash__ = None
    cls.__match_args__ = names
    return cls


def replace(obj, /, **changes):
    """A copy of record `obj` with `changes`, built through `__init__`, so
    `__post_init__` checks it again; an unknown field is a TypeError."""
    for name in obj.__match_args__:
        changes.setdefault(name, getattr(obj, name))
    return obj.__class__(**changes)
