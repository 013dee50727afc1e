"""Trace record types.

An :class:`Access` is an immutable ``__slots__`` record: 56 bytes, about
40 fewer than the frozen dataclass it replaced, and its field reads are
plain slot reads.  ``Access(op, addr, data)`` validates
its fields; :func:`trusted_access` builds the same record without the
checks, for producers that already guarantee them (traced memory).
"""

from __future__ import annotations

import enum


class TraceError(ValueError):
    """Raised on malformed trace records."""


class Op(enum.Enum):
    """Memory operation kind."""

    READ = "R"
    WRITE = "W"

    @classmethod
    def parse(cls, token: str) -> "Op":
        """Parse the single-letter trace token."""
        try:
            return cls(token.upper())
        except ValueError:
            raise TraceError(f"unknown op token {token!r}") from None


class Access:
    """One valued memory access.

    ``data`` is the value written (for writes) or observed (for reads) —
    always exactly ``size`` bytes, little-endian for scalar values.

    Immutable: assigning or deleting a field raises ``AttributeError``.
    Two accesses are equal when their ``(op, addr, data)`` are; an access
    never equals a plain tuple.
    """

    __slots__ = ("op", "addr", "data")
    __match_args__ = ("op", "addr", "data")

    op: Op
    addr: int
    data: bytes

    def __init__(self, op: Op, addr: int, data: bytes) -> None:
        if addr < 0:
            raise TraceError(f"address must be non-negative, got {addr}")
        if not data:
            raise TraceError("access data must be non-empty")
        _set_op(self, op)
        _set_addr(self, addr)
        _set_data(self, data)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        theirs = (other.op, other.addr, other.data)  # type: ignore[attr-defined]
        return (self.op, self.addr, self.data) == theirs

    def __hash__(self) -> int:
        return hash((self.op, self.addr, self.data))

    def __repr__(self) -> str:
        return f"Access(op={self.op!r}, addr={self.addr!r}, data={self.data!r})"

    def __reduce__(self) -> tuple[type[Access], tuple[Op, int, bytes]]:
        return (self.__class__, (self.op, self.addr, self.data))

    @property
    def size(self) -> int:
        """Access width in bytes."""
        return len(self.data)

    @property
    def is_write(self) -> bool:
        """True for stores."""
        return self.op is Op.WRITE

    @classmethod
    def read(cls, addr: int, data: bytes) -> "Access":
        """Convenience constructor for a load."""
        return cls(Op.READ, addr, data)

    @classmethod
    def write(cls, addr: int, data: bytes) -> "Access":
        """Convenience constructor for a store."""
        return cls(Op.WRITE, addr, data)

    def to_line(self) -> str:
        """Serialise to the text trace format: ``R 0xADDR hexdata``."""
        return f"{self.op.value} {self.addr:#x} {self.data.hex()}"

    @classmethod
    def from_line(cls, line: str) -> "Access":
        """Parse a text trace line."""
        parts = line.split()
        if len(parts) != 3:
            raise TraceError(f"malformed trace line: {line!r}")
        op = Op.parse(parts[0])
        try:
            addr = int(parts[1], 0)
        except ValueError:
            raise TraceError(f"bad address in trace line: {line!r}") from None
        try:
            data = bytes.fromhex(parts[2])
        except ValueError:
            raise TraceError(f"bad hex data in trace line: {line!r}") from None
        return cls(op, addr, data)


_new = object.__new__
_set_op = Access.op.__set__  # type: ignore[attr-defined]
_set_addr = Access.addr.__set__  # type: ignore[attr-defined]
_set_data = Access.data.__set__  # type: ignore[attr-defined]


def trusted_access(op: Op, addr: int, data: bytes) -> Access:
    """Build an :class:`Access` without validating its fields.

    Only for callers that already guarantee ``addr >= 0`` and a non-empty
    ``data`` of immutable ``bytes``; the result equals
    ``Access(op, addr, data)`` in every respect.
    """
    access = _new(Access)
    _set_op(access, op)
    _set_addr(access, addr)
    _set_data(access, data)
    return access
