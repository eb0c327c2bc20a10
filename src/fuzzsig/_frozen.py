"""Base classes of the read-only types that check, compute or cache something.

The plain records are typing.NamedTuple classes. The other value types keep
their attributes in __slots__ and derive from Frozen, or from Value when they
compare by type and fields. Their methods are written out in the source, so
they compile once with it, rather than generated by dataclasses in every
process that imports them.
"""

from __future__ import annotations


class Frozen:
    """Attributes set once, by __init__ through object.__setattr__, and read-only after.

    _fields names the constructor's parameters in order, each kept as the
    attribute of that name. repr shows them, and a copy or a pickle calls the
    class with them again, so it passes __init__'s checks and carries nothing
    else: no kept hash, no cache. Equality is identity.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)


class Value(Frozen):
    """A Frozen equal to an object of its own type whose fields are equal.

    The hash of the fields is kept after the first call. A copy or a pickle
    leaves it out and hashes afresh, since str hashes are salted per process.
    """

    __slots__ = ("_hash",)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._values()))
            return self._hash
