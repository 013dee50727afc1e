"""Instrumented memory for workload kernels.

``TracedMemory`` is a flat little-endian address space; every load/store
appends a valued :class:`~repro.trace.record.Access` to the trace.  Kernels
allocate regions with :meth:`TracedMemory.alloc` and access them through
typed :class:`MemView` wrappers, so kernel code reads like array code while
every element access is metered.

Loads return the actual stored values, which makes workload traces fully
coherent (reads always observe prior writes) — unlike the synthetic
generators, these traces exercise the cache exactly like the real program
would.

Every recorded access is built by :func:`~repro.trace.record.trusted_access`,
which skips ``Access``'s field checks: an access is recorded only after the
bounds check passed, and that check already guarantees the record's
preconditions (``addr >= base >= 0`` and at least one byte of data).
``MemView`` indexing and the typed scalar accessors (``load_u8`` …
``store_u64``) inline that path (bounds check, byte slice, append) rather
than calling through ``load``/``store``: one Python call per access.
"""

from __future__ import annotations

from repro.trace.record import Access, Op, trusted_access

#: Bytes per supported scalar width.
_WIDTHS = (1, 2, 4, 8)

_READ = Op.READ
_WRITE = Op.WRITE


class TracedMemoryError(ValueError):
    """Raised on invalid traced-memory operations."""


def _scalar_load(width: int, signed: bool, doc: str):
    """A fixed-width ``TracedMemory.load`` with the byte path inlined."""

    def load(self: TracedMemory, addr: int) -> int:
        offset = addr - self.base
        if offset < 0 or addr + width > self._next:
            self._check(addr, width)
        value = bytes(self._data[offset : offset + width])
        if self.record:
            self.trace.append(trusted_access(_READ, addr, value))
        return int.from_bytes(value, "little", signed=signed)

    load.__doc__ = doc
    return load


def _scalar_store(width: int, signed: bool, doc: str):
    """A fixed-width ``TracedMemory.store`` with the byte path inlined."""

    def store(self: TracedMemory, addr: int, value: int) -> None:
        if not signed and value < 0:
            raise TracedMemoryError(f"negative value {value} for unsigned store")
        payload = value.to_bytes(width, "little", signed=signed)
        offset = addr - self.base
        if offset < 0 or addr + width > self._next:
            self._check(addr, width)
        self._data[offset : offset + width] = payload
        if self.record:
            self.trace.append(trusted_access(_WRITE, addr, payload))

    store.__doc__ = doc
    return store


class TracedMemory:
    """Flat byte-addressable memory that records every access."""

    def __init__(self, base: int = 0x100000, record: bool = True) -> None:
        if base < 0:
            raise TracedMemoryError(f"base must be non-negative, got {base}")
        self.base = base
        self.record = record
        self.trace: list[Access] = []
        #: Untraced initial-image installs (program inputs, loader tables).
        #: Replay harnesses poke these into the simulated main memory before
        #: running the trace, so cache fills fetch the *true* line contents.
        self.preloads: list[tuple[int, bytes]] = []
        self._data = bytearray()
        self._next = base

    # ------------------------------------------------------------------ #
    # allocation
    # ------------------------------------------------------------------ #
    def alloc(self, size: int, align: int = 64) -> int:
        """Reserve ``size`` zero-initialised bytes; returns the address."""
        if size < 1:
            raise TracedMemoryError(f"size must be >= 1, got {size}")
        if align < 1 or align & (align - 1):
            raise TracedMemoryError(
                f"align must be a positive power of two, got {align}"
            )
        addr = (self._next + align - 1) & ~(align - 1)
        end = addr + size
        needed = end - self.base - len(self._data)
        if needed > 0:
            self._data.extend(bytes(needed))
        self._next = end
        return addr

    @property
    def allocated(self) -> int:
        """Total bytes allocated so far."""
        return self._next - self.base

    # ------------------------------------------------------------------ #
    # raw access
    # ------------------------------------------------------------------ #
    def load_bytes(self, addr: int, size: int) -> bytes:
        """Load ``size`` bytes, recording one access."""
        offset = addr - self.base
        if size < 1 or offset < 0 or addr + size > self._next:
            self._check(addr, size)
        value = bytes(self._data[offset : offset + size])
        if self.record:
            self.trace.append(trusted_access(_READ, addr, value))
        return value

    def store_bytes(self, addr: int, payload: bytes) -> None:
        """Store ``payload``, recording one access."""
        size = len(payload)
        offset = addr - self.base
        if size < 1 or offset < 0 or addr + size > self._next:
            self._check(addr, size)
        self._data[offset : offset + size] = payload
        if self.record:
            self.trace.append(trusted_access(_WRITE, addr, bytes(payload)))

    # ------------------------------------------------------------------ #
    # scalar access
    # ------------------------------------------------------------------ #
    def load(self, addr: int, width: int, signed: bool = False) -> int:
        """Load one little-endian scalar of ``width`` bytes."""
        if width not in _WIDTHS:
            raise TracedMemoryError(f"unsupported width {width}")
        return int.from_bytes(
            self.load_bytes(addr, width), "little", signed=signed
        )

    def store(self, addr: int, value: int, width: int, signed: bool = False) -> None:
        """Store one little-endian scalar of ``width`` bytes."""
        if width not in _WIDTHS:
            raise TracedMemoryError(f"unsupported width {width}")
        if not signed and value < 0:
            raise TracedMemoryError(
                f"negative value {value} for unsigned store"
            )
        self.store_bytes(addr, value.to_bytes(width, "little", signed=signed))

    # Typed scalar accessors keep kernel code terse (one call each).
    load_u8 = _scalar_load(1, False, "Unsigned 8-bit load.")
    store_u8 = _scalar_store(1, False, "Unsigned 8-bit store.")
    load_u32 = _scalar_load(4, False, "Unsigned 32-bit load.")
    store_u32 = _scalar_store(4, False, "Unsigned 32-bit store.")
    load_i32 = _scalar_load(4, True, "Signed 32-bit load.")
    store_i32 = _scalar_store(4, True, "Signed 32-bit store.")
    load_u64 = _scalar_load(8, False, "Unsigned 64-bit load.")
    store_u64 = _scalar_store(8, False, "Unsigned 64-bit store.")

    # ------------------------------------------------------------------ #
    # un-traced initialisation (program input staging)
    # ------------------------------------------------------------------ #
    def preload(self, addr: int, payload: bytes) -> None:
        """Install input data without recording accesses.

        Models data already resident in memory before the measured kernel
        starts (program inputs, lookup tables written by the loader).
        """
        self._check(addr, len(payload))
        offset = addr - self.base
        self._data[offset : offset + len(payload)] = payload
        self.preloads.append((addr, bytes(payload)))

    def peek(self, addr: int, size: int) -> bytes:
        """Read without recording (checksums, verification)."""
        self._check(addr, size)
        offset = addr - self.base
        return bytes(self._data[offset : offset + size])

    # ------------------------------------------------------------------ #
    def _check(self, addr: int, size: int) -> None:
        if size < 1:
            raise TracedMemoryError(f"size must be >= 1, got {size}")
        if addr < self.base or addr + size > self._next:
            raise TracedMemoryError(
                f"access [{addr:#x}, +{size}) outside allocated "
                f"[{self.base:#x}, {self._next:#x})"
            )


class MemView:
    """Typed array view over a ``TracedMemory`` region.

    Indexing loads/stores scalars through the traced memory, so kernels can
    be written as ordinary array code::

        a = MemView(mem, mem.alloc(4 * n), n, width=4)
        a[0] = a[1] + a[2]
    """

    def __init__(
        self,
        mem: TracedMemory,
        addr: int,
        length: int,
        width: int = 4,
        signed: bool = False,
    ) -> None:
        if width not in _WIDTHS:
            raise TracedMemoryError(f"unsupported width {width}")
        if length < 0:
            raise TracedMemoryError(f"length must be >= 0, got {length}")
        self.mem = mem
        self.addr = addr
        self.length = length
        self.width = width
        self.signed = signed

    def __len__(self) -> int:
        return self.length

    def _index_error(self, index: int) -> IndexError:
        return IndexError(f"index {index} out of range for view of {self.length}")

    # Both accessors inline TracedMemory.load/store (see the module
    # docstring); out-of-range addresses take _check's error path.
    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise self._index_error(index)
        mem = self.mem
        width = self.width
        addr = self.addr + index * width
        offset = addr - mem.base
        if offset < 0 or addr + width > mem._next:
            mem._check(addr, width)
        value = bytes(mem._data[offset : offset + width])
        if mem.record:
            mem.trace.append(trusted_access(_READ, addr, value))
        return int.from_bytes(value, "little", signed=self.signed)

    def __setitem__(self, index: int, value: int) -> None:
        if not 0 <= index < self.length:
            raise self._index_error(index)
        if value < 0 and not self.signed:
            raise TracedMemoryError(f"negative value {value} for unsigned store")
        mem = self.mem
        width = self.width
        addr = self.addr + index * width
        payload = value.to_bytes(width, "little", signed=self.signed)
        offset = addr - mem.base
        if offset < 0 or addr + width > mem._next:
            mem._check(addr, width)
        mem._data[offset : offset + width] = payload
        if mem.record:
            mem.trace.append(trusted_access(_WRITE, addr, payload))

    def fill_untraced(self, values) -> None:
        """Initialise the region from ``values`` without recording."""
        payload = b"".join(
            int(value).to_bytes(self.width, "little", signed=self.signed)
            for value in values
        )
        self.mem.preload(self.addr, payload)

    def snapshot(self) -> list[int]:
        """Untraced copy of the region (verification)."""
        raw = self.mem.peek(self.addr, self.length * self.width)
        return [
            int.from_bytes(
                raw[i * self.width : (i + 1) * self.width],
                "little",
                signed=self.signed,
            )
            for i in range(self.length)
        ]
