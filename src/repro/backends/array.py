"""The array simulation backend: a substrate recorder and a pricing fold.

:class:`ArrayCNTCache` reproduces :class:`repro.core.cntcache.CNTCache`
bit for bit — same hit/miss sequences, same per-component femtojoules,
same floating-point addition chains — at an order of magnitude higher
throughput.  A replay runs in two stages:

1. **Record** (:class:`Recorder` -> :class:`Substrate`): decode, line
   split, line lookup, replacement, fill and victim choice, and the
   backing store.  Geometry, replacement and write policy decide every
   hit, fill and eviction; no encoding knob (scheme, W, K, ΔT, FIFO
   depth, drain rate, granularity, fill policy, metadata, logic,
   peripheral or leakage energies) changes one.  So a substrate is keyed
   by :func:`substrate_key` alone, and one recording serves every
   encoding config of that geometry.  The record is compact: one packed
   ``array('i')`` entry per access (``lid << 3 | code``), per-miss
   victim flags, the line value after every array write (in fold
   order), the filled lines interned (one id per miss into a table of
   the distinct lines installed), and popcount streams (the line after
   every access, every fill and every writeback).  One loop records
   every access: a resident line is one dict lookup by line number
   (``addr >> offset bits``) away, a miss chooses its way, flags and
   writes back its victim and interns its fill inline, and a
   line-crossing access sends its chunks back through the same loop.
   A set's resident ways are counted, not flagged: lines are never
   invalidated, so a set fills its ways in order, and LRU fills and
   victims work directly on recency stacks of line ids, as hits do.
2. **Fold** (:class:`ArrayCNTCache`): the pricing — codec,
   Algorithm 1 windows, the deferred FIFO, energies and leakage.  It
   walks the substrate zipped with the trace it was recorded from and
   never touches a line map or a replacement policy.  It takes every
   line value from the substrate, encodes each distinct fill line once
   per fold, and reads the trace only for the DBI re-vote, word
   granularity, line-crossing chunks and fill tags.  One loop prices
   every line access: a miss writes back its victim and installs its
   fill, then takes the hit path; a line-crossing access folds its
   chunks through the same loop.  Misses and window completions are
   priced in the loop's own locals; only special accesses (bypassed
   stores, line crossings) and applied re-encodes cross a call.

:meth:`ArrayCNTCache.run` is record + fold.  A caller pricing many
configs over one trace records once and folds each config over the same
substrate: :meth:`repro.workloads.program.WorkloadRun.substrate` keeps
one recorded substrate per run, so workload jobs, ``simulate`` calls and
oracle bounds that share a run and a geometry record it once.

Representation:

* Cache-line payloads, the sparse backing store and the XOR masks of
  every direction word are little-endian Python big integers, so codec
  encode/invert is one ``^`` and flip counting is one C-level
  ``int.bit_count`` (the paper's ``getNumOfBit1``).
* The Algorithm 1 predictor is collapsed into a precomputed boolean
  matrix ``_th[Wr_num][bit1num]`` — the hardware's ``Th_bit1num`` rows,
  one per write count (quantised write counts are folded in via
  :meth:`repro.core.policy.AdaptivePolicy.effective_wr_num`).
* Per-bit energies are popcount-indexed lookup tables built from the
  Table I vector: ``E[n1] = n1*e_x1 + (L-n1)*e_x0`` in Python floats,
  which is IEEE-identical to the scalar expressions in
  :meth:`repro.cnfet.energy.BitEnergyModel.read_energy`/``write_energy``.
* Cached line state: the fold keeps, per line, the ones the array
  stores, ``popcount(data ^ mask(dirval))``, and updates it wherever
  the data or the direction word changes (fill, data write, DBI re-vote,
  re-encode).  A line-granularity read costs one list index, and the
  leakage tracker's stored-ones total moves by the difference.  With
  the direction word each line caches the word's ones, its XOR mask and
  its metadata-read row, set only where the word changes (at a fill,
  kept with the interned fill's encoding, at a DBI re-vote and at an
  applied re-encode), so no access counts the word's bits or looks its
  mask up.
* Algorithm 1's two counters are one packed int per line (per set for
  ``cnt-shared``), ``hs = A_num * (W + 1) + Wr_num``: an access adds
  ``W + 1``, a write one more, and the window completes when
  ``hs >= W * (W + 1)``, with ``Wr_num = hs - W * (W + 1)``.  The
  history metadata is priced from tables by ``hs``, memoised with the
  energy tables (:func:`_pricing_tables`): the write energy of the counters' stored ones, and
  per direction-word popcount ``d`` a row of metadata-read energies
  ``mr[d + ones(hs)]``, built the first time a line takes that ``d``.
  They hold ``(W + 1) ** 2`` entries each, which is why
  :class:`~repro.core.config.CNTCacheConfig` bounds ``W`` at 256.

Exactness contract: every energy component is accumulated in a local
float with the *same addition sequence* the scalar oracle feeds through
``EnergyStats.add`` (left-fold from 0.0), then assigned — not re-added —
into :attr:`stats`, so the flush is idempotent and the totals match the
oracle to the last ulp.  The fold visits the array events in the
oracle's order (writeback, fill, data access, per-access tail).

The peripheral chain is counted, not accumulated: every addition to it
is the same constant, once per line access, fill, writeback and applied
re-encode, so its value depends only on how many there were.  Both
folds leave it alone, and :meth:`ArrayCNTCache._sync` extends it by the
activations counted since the last sync, one addition each (a
``functools.reduce`` of ``operator.add``: the same left fold, run in C),
so it stays the oracle's left-fold from 0.0.

The ``baseline`` scheme at line granularity without leakage folds as
table lookups over the popcount streams alone, without the trace.  That
is exact because each energy component is its own left-fold: the data
read and data write chains take ``E[popcount]`` of the line after each
read or write in access order, fill and writeback chains take the fill
and victim popcounts in miss order, and the peripheral chain is
counted.  No other component is charged under ``baseline``.

The Hypothesis differential suite in ``tests/backends`` enforces all of
this across schemes, geometries and write policies, for one-off runs and
for many configs folded over one shared substrate.

Observability: the engine emits the same aggregate ``cache.*`` and
``codec.*`` probe counters as the scalar oracle.  Per-access trace
events are scalar-only, so :func:`repro.backends.make_backend` builds
the scalar engine while tracing is active.

Construct instances through ``repro.api.make_cache``.
"""

from __future__ import annotations

import operator
from array import array
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import reduce
from itertools import repeat

from repro.cache.replacement import make_replacement_policy
from repro.core.cntcache import WindowEvent
from repro.core.config import CNTCacheConfig
from repro.core.policy import AdaptivePolicy, EncodingPolicy, make_policy
from repro.core.stats import EnergyStats
from repro.obs import probe
from repro.predictor.history import history_bits
from repro.trace.record import Access, Op

# Counter slots of self._C: EnergyStats field order, then the codec
# applies that inverted at least one partition (probe-only) and the
# re-encodes applied (peripheral activations).
(_ACC, _RDC, _WRC, _HIT, _MISS, _EVC, _WBC,
 _WIN, _DSW, _PFL, _PDR, _FDR, _INV, _REN) = range(14)

# Energy slots of self._E, in ENERGY_COMPONENTS order.
(_DR, _DW, _FI, _WB, _MRD, _MWR, _RE, _LG, _PE, _LK) = range(10)

# Fill-time direction modes.
_FILL_ZERO, _FILL_ONE, _FILL_GREEDY0, _FILL_GREEDY1 = range(4)

# Substrate entry codes (the low three bits of an entry): bit 0 is a
# write, bit 1 a miss, bit 2 a special access.  A line-crossing access
# keeps its chunk count where a line id would be; its chunks are entries
# of ``Substrate.splits``.
_WRITE, _MISS_BIT, _SPECIAL = 1, 2, 4
_CROSS = _SPECIAL
_BYPASS = _SPECIAL | _MISS_BIT | _WRITE

# Per-miss flags.
_VICTIM, _DIRTY = 1, 2


def substrate_key(config: CNTCacheConfig) -> tuple:
    """Everything of ``config`` a recorded substrate depends on.

    Two configs with equal keys see the same hits, fills, evictions and
    backing-store contents on the same trace.  The seed only reaches
    the random replacement policy.
    """
    return (
        config.size,
        config.assoc,
        config.line_size,
        config.replacement,
        config.seed if config.replacement == "random" else 0,
        config.write_policy,
    )


class Substrate:
    """What one replay of a trace decided at one geometry, recorded once.

    Read-only once recorded: any number of folds can walk it.  Counts are
    per line access (a line-crossing access counts once per line).
    """

    __slots__ = (
        "key", "line_size", "assoc", "tag_shift", "counted",
        "entries", "pcs", "splits", "split_pcs", "afters",
        "flags", "fills", "lines", "fill_pcs", "wb_pcs",
        "accesses", "writes", "misses", "evictions", "writebacks",
        "bypasses",
    )

    def __init__(
        self, key: tuple, line_size: int, n_sets: int, assoc: int, counted: bool
    ) -> None:
        self.key = key
        #: Whether the popcount streams were recorded.
        self.counted = counted
        self.line_size = line_size
        self.assoc = assoc
        self.tag_shift = (line_size.bit_length() - 1) + (n_sets.bit_length() - 1)
        wide = n_sets * assoc >= 1 << 28
        count = "I" if line_size * 8 > 0xFFFF else "H"
        #: Per trace access: ``lid << 3 | code``.
        self.entries = array("q" if wide else "i")
        #: Per trace access: popcount of the line after it (0 when special).
        self.pcs = array(count)
        #: Per chunk of a line-crossing access, in order: as ``entries``.
        self.splits = array("q" if wide else "i")
        self.split_pcs = array(count)
        #: Per array write, in fold order (a line crossing's written
        #: chunks in place; a bypassed store has none): the line after it.
        self.afters: list[int] = []
        #: Per fill: ``_VICTIM``/``_DIRTY`` flags of the line it replaced.
        self.flags = bytearray()
        #: Per fill: the index of the installed line in ``lines``.
        self.fills = array("i")
        #: The distinct installed lines, in first-fill order.
        self.lines: list[int] = []
        self.fill_pcs = array(count)
        #: Per writeback: popcount of the evicted line.
        self.wb_pcs = array(count)
        self.accesses = self.writes = self.misses = 0
        self.evictions = self.writebacks = self.bypasses = 0

    @property
    def hits(self) -> int:
        """Line accesses that hit."""
        return self.accesses - self.misses

    def cache_counts(self) -> list[tuple[str, int]]:
        """The ``cache.*`` probe counters the scalar substrate emits."""
        return _cache_counts(
            self.accesses, self.hits, self.misses, self.accesses - self.writes,
            self.writes, self.writebacks, self.bypasses,
        )

    def walk(
        self, trace: Sequence[Access]
    ) -> Iterator[tuple[bool, int, int | None, int | None, int | None, int]]:
        """Replay the logical line contents, one tuple per line access.

        Yields ``(is_write, addr, line, fill, victim, victim_addr)``:
        ``line`` is the line after the access (``None`` for a bypassed
        store), ``fill`` the line a miss installed, and ``victim`` the
        dirty line it evicted (written back from ``victim_addr``), each
        ``None`` when absent.  ``trace`` must be the recorded trace.
        """
        _check_length(self, trace)
        line_size = self.line_size
        off_mask = line_size - 1
        tag_shift, assoc = self.tag_shift, self.assoc
        ob = line_size.bit_length() - 1
        splits, flags = self.splits, self.flags
        fills, lines = self.fills, self.lines
        next_after = iter(self.afters).__next__
        data: dict[int, int] = {}
        tags: dict[int, int] = {}
        chunk_cur = miss_cur = 0
        for access, entry in zip(trace, self.entries):
            addr = access.addr
            if entry & 6 == _CROSS:
                chunks = []
                remaining = len(access.data)
                while remaining > 0:
                    size = min(remaining, line_size - (addr & off_mask))
                    chunks.append((addr, splits[chunk_cur]))
                    chunk_cur += 1
                    addr += size
                    remaining -= size
            else:
                chunks = [(addr, entry)]
            for addr, code in chunks:
                is_write = bool(code & _WRITE)
                if code & 7 == _BYPASS:
                    yield is_write, addr, None, None, None, 0
                    continue
                lid = code >> 3
                fill = victim = None
                victim_addr = 0
                if code & _MISS_BIT:
                    if flags[miss_cur] & _DIRTY:
                        victim = data[lid]
                        victim_addr = (tags[lid] << tag_shift) | (
                            (lid // assoc) << ob
                        )
                    fill = lines[fills[miss_cur]]
                    miss_cur += 1
                    data[lid] = fill
                    tags[lid] = addr >> tag_shift
                if is_write:
                    data[lid] = next_after()
                yield is_write, addr, data[lid], fill, victim, victim_addr


def _check_length(substrate: Substrate, trace: Sequence[Access]) -> None:
    if len(trace) != len(substrate.entries):
        raise ValueError(
            f"the substrate records {len(substrate.entries)} accesses but "
            f"the trace has {len(trace)}; fold it over the trace it was "
            "recorded from"
        )


def _cache_counts(
    accesses: int, hits: int, misses: int, reads: int, writes: int,
    writebacks: int, bypasses: int,
) -> list[tuple[str, int]]:
    """Aggregate ``cache.*`` counters (bypassed stores are write misses
    that touch neither the demand nor the fill counters)."""
    return [
        ("cache.accesses", accesses),
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.demand_reads", reads),
        ("cache.demand_writes", writes - bypasses),
        ("cache.fills", misses - bypasses),
        ("cache.writebacks", writebacks),
        ("cache.bypass_writes", bypasses),
    ]


class Recorder:
    """Stage 1: the substrate cache, recording what it decides.

    Stateful across :meth:`record` calls, so a trace can be recorded in
    pieces (the per-access API does); each call returns the
    :class:`Substrate` of that piece.
    """

    def __init__(self, config: CNTCacheConfig, popcounts: bool = True) -> None:
        self.key = substrate_key(config)
        self._counted = popcounts
        line = config.line_size
        self._line = line
        self._off_bits = line.bit_length() - 1
        self._n_sets = config.n_sets
        self._assoc = config.assoc
        self._wt = config.write_through
        self._wa = config.write_allocate
        n_lines = self._n_sets * self._assoc
        #: Per set: its resident ways.  Lines are never invalidated, so a
        #: set fills its ways in order and ways ``0 .. filled - 1`` hold
        #: lines.
        self.filled = [0] * self._n_sets
        self._dirty = [False] * n_lines
        #: Resident line number (``addr >> offset bits``) -> its line id,
        #: and per line id its line number.
        self._lids: dict[int, int] = {}
        self._line_nos = [0] * n_lines
        #: Logical line contents.
        self.data = [0] * n_lines
        # LRU works on exact recency stacks of line ids (bottom first,
        # initialised to way order), inline; the other policies keep
        # their own state, and FIFO and random ignore hits.
        if config.replacement == "lru":
            assoc = self._assoc
            self._stacks: list[list[int]] | None = [
                list(range(base, base + assoc))
                for base in range(0, n_lines, assoc)
            ]
            self._repl = None
        else:
            self._stacks = None
            self._repl = make_replacement_policy(
                config.replacement, self._n_sets, self._assoc, seed=config.seed
            )
        self._touch_noop = config.replacement in ("fifo", "random")
        #: Sparse backing store: line-aligned address -> line integer.
        self._mem: dict[int, int] = {}
        #: Fill line -> its id in the substrate being recorded.
        self._line_ids: dict[int, int] = {}

    def preload(self, addr: int, payload: bytes) -> None:
        """Install initial memory contents (program image) before a run."""
        line = self._line
        pos, size = 0, len(payload)
        while pos < size:
            cur = addr + pos
            base = cur & -line
            chunk = min(size - pos, base + line - cur)
            self._mem_write(
                cur, chunk, int.from_bytes(payload[pos : pos + chunk], "little")
            )
            pos += chunk

    def record(self, trace: Iterable[Access]) -> Substrate:
        """Replay ``trace`` through the substrate and record every decision."""
        if probe.ENABLED:
            with probe.timer("sim.record"):
                return self._record(trace)
        return self._record(trace)

    def _record(self, trace: Iterable[Access]) -> Substrate:
        sub = Substrate(
            self.key, self._line, self._n_sets, self._assoc, self._counted
        )
        self._line_ids = {}
        self._replay(sub, trace, sub.entries, sub.pcs)
        self._line_ids.clear()
        return sub

    def _replay(
        self,
        sub: Substrate,
        trace: Iterable[Access],
        entries: array,
        pcs: array,
    ) -> None:
        """Record ``trace`` into ``entries``/``pcs``: hits, misses (way
        choice, victim flags and writeback, fill interning) and
        line-crossing accesses, whose chunks go back through this loop
        into ``sub.splits``/``sub.split_pcs``."""
        line = self._line
        counted = self._counted
        off_mask = line - 1
        ob = self._off_bits
        set_mask = self._n_sets - 1
        assoc = self._assoc
        lids, line_nos = self._lids, self._line_nos
        data_l, dirty_l, filled_l = self.data, self._dirty, self.filled
        stacks, repl = self._stacks, self._repl
        touch_noop = self._touch_noop
        wt, wa = self._wt, self._wa
        mem = self._mem
        mem_write = self._mem_write
        line_ids, lines = self._line_ids, sub.lines
        write_op = Op.WRITE
        put, put_pc = entries.append, pcs.append
        put_after = sub.afters.append
        put_flags, put_fill = sub.flags.append, sub.fills.append
        put_fill_pc, put_wb_pc = sub.fill_pcs.append, sub.wb_pcs.append
        start = len(entries)
        writes = misses = evictions = writebacks = bypasses = crossings = 0
        for a in trace:
            addr = a.addr
            payload = a.data
            size = len(payload)
            offset = addr & off_mask
            is_write = a.op is write_op
            if offset + size > line:
                # A line crossing: its chunks count one by one, the entry
                # itself none.
                chunks = []
                pos = 0
                while pos < size:
                    chunk = min(size - pos, line - (addr & off_mask))
                    chunks.append(Access(a.op, addr, payload[pos : pos + chunk]))
                    addr += chunk
                    pos += chunk
                self._replay(sub, chunks, sub.splits, sub.split_pcs)
                put(len(chunks) << 3 | _CROSS | is_write)
                if counted:
                    put_pc(0)
                crossings += 1
                continue
            line_no = addr >> ob
            lid = lids.get(line_no)
            if lid is None:
                # ---- a miss: choose the way, evict, install the fill -- #
                misses += 1
                base = addr - offset
                if is_write:
                    if not wa:
                        # No-write-allocate: the store bypasses the array.
                        writes += 1
                        bypasses += 1
                        mem_write(addr, size, int.from_bytes(payload, "little"))
                        put(_BYPASS)
                        if counted:
                            put_pc(0)
                        continue
                    fill = mem.get(base, 0)
                else:
                    # Valued traces are self-contained: seed the backing
                    # store so all schemes see identical bit streams.  (The
                    # victim written back below lives at another address.)
                    shift = offset * 8
                    fill = mem[base] = (
                        mem.get(base, 0) & ~(((1 << (size * 8)) - 1) << shift)
                    ) | (int.from_bytes(payload, "little") << shift)
                set_index = line_no & set_mask
                filled = filled_l[set_index]
                if stacks is not None:
                    # Free ways sit at the bottom of the recency stack in
                    # way order, so its bottom is the next free way or the
                    # victim.
                    stack = stacks[set_index]
                    lid = stack.pop(0)
                    stack.append(lid)
                else:
                    way = filled if filled < assoc else repl.victim(set_index)
                    repl.fill(set_index, way)
                    lid = set_index * assoc + way
                if filled < assoc:
                    filled_l[set_index] = filled + 1
                    put_flags(0)
                else:
                    evictions += 1
                    victim_no = line_nos[lid]
                    del lids[victim_no]
                    if dirty_l[lid]:
                        dirty_l[lid] = False
                        writebacks += 1
                        victim = data_l[lid]
                        mem[victim_no << ob] = victim
                        if counted:
                            put_wb_pc(victim.bit_count())
                        put_flags(_VICTIM | _DIRTY)
                    else:
                        put_flags(_VICTIM)
                lids[line_no] = lid
                line_nos[lid] = line_no
                data_l[lid] = fill
                fid = line_ids.get(fill)
                if fid is None:
                    fid = line_ids[fill] = len(lines)
                    lines.append(fill)
                put_fill(fid)
                if counted:
                    put_fill_pc(fill.bit_count())
                code = lid << 3 | _MISS_BIT
            else:
                if stacks is not None:
                    stack = stacks[line_no & set_mask]
                    if stack[-1] != lid:
                        stack.remove(lid)
                        stack.append(lid)
                elif not touch_noop:
                    repl.touch(line_no & set_mask, lid % assoc)
                code = lid << 3
            # ---- the data access ------------------------------------- #
            if is_write:
                writes += 1
                value = int.from_bytes(payload, "little")
                shift = offset * 8
                after = (
                    data_l[lid] & ~(((1 << (size * 8)) - 1) << shift)
                ) | (value << shift)
                data_l[lid] = after
                put_after(after)
                if wt:
                    # The store is mirrored to memory; the line stays clean.
                    mem_write(addr, size, value)
                else:
                    dirty_l[lid] = True
                put(code | 1)  # _WRITE (a literal: no global lookup)
                if counted:
                    put_pc(after.bit_count())
            else:
                put(code)
                if counted:
                    put_pc(data_l[lid].bit_count())
        sub.accesses += len(entries) - start - crossings
        sub.writes += writes
        sub.misses += misses
        sub.evictions += evictions
        sub.writebacks += writebacks
        sub.bypasses += bypasses

    def _mem_write(self, addr: int, size: int, value: int) -> None:
        base = addr & -self._line
        shift = (addr - base) * 8
        smask = ((1 << (size * 8)) - 1) << shift
        self._mem[base] = (self._mem.get(base, 0) & ~smask) | (value << shift)


def record_substrate(
    config: CNTCacheConfig,
    trace: Iterable[Access],
    preloads: Iterable[tuple[int, bytes]] = (),
) -> Substrate:
    """Record ``trace`` over ``preloads`` at ``config``'s geometry."""
    recorder = Recorder(config)
    for addr, payload in preloads:
        recorder.preload(addr, payload)
    return recorder.record(trace)


#: The recorder of an instance that folded a shared substrate.
_SPENT = object()


class ArrayCNTCache:
    """Bit-exact integer-packed replay engine for one encoding scheme.

    Implements the :class:`repro.backends.CacheBackend` protocol; the
    scalar :class:`~repro.core.cntcache.CNTCache` is the oracle it is
    differential-tested against.  The substrate recorder is built on
    first use, so an instance that only folds a shared substrate never
    builds replacement state, a line map or a backing store.
    """

    backend_name = "array"

    def __init__(self, config: CNTCacheConfig) -> None:
        self.config = config
        self.policy: EncodingPolicy = make_policy(config)
        self.codec = self.policy.codec
        self.stats = EnergyStats()
        self.model = config.energy
        #: Optional analysis hook, same contract as the scalar backend.
        self.window_observer: Callable[[WindowEvent], None] | None = None
        self._window_events = 0
        self._recorder: Recorder | object | None = None

        # --- geometry -------------------------------------------------- #
        line = config.line_size
        self._line = line
        self._n_sets = config.n_sets
        self._tag_shift = (line.bit_length() - 1) + (self._n_sets.bit_length() - 1)
        self._assoc = config.assoc
        self._lbits = line * 8

        # --- codec geometry -------------------------------------------- #
        self._k = self.codec.n_partitions
        self._pbits = self.codec.partition_bits
        self._pbytes = self.codec.partition_bytes
        self._pmask = (1 << self._pbits) - 1
        #: (bit offset, direction-word bit) of every partition, in order.
        self._parts = [(p * self._pbits, 1 << p) for p in range(self._k)]
        self._masks: dict[int, int] = {0: 0}

        # --- scheme flags ---------------------------------------------- #
        scheme = config.scheme
        self._is_baseline = scheme == "baseline"
        self._is_dbi = scheme == "dbi"
        self._uses_pred = config.uses_predictor
        self._shared = config.shared_history
        self._perline_hist = self._uses_pred and not self._shared
        self._gran_line = config.access_granularity == "line"
        self._meta = config.account_metadata
        self._depth = config.fifo_depth
        self._drain_budget = config.drain_per_access
        self._peri = config.peripheral_fj_per_access
        self._enc_logic = config.encoder_logic_fj
        self._pred_logic = config.predictor_logic_fj
        self._leak = config.leakage
        self._track = self._leak is not None
        self._stored_ones = 0
        self._total_bits = config.size * 8
        self._window = config.window
        self._table_fold = (
            self._is_baseline and self._gran_line and not self._track
        )

        if scheme == "baseline":
            self._fill_mode = _FILL_ZERO
        elif scheme == "static-invert":
            self._fill_mode = _FILL_ONE
        elif scheme in ("fill-greedy", "dbi"):
            self._fill_mode = _FILL_GREEDY0
        elif config.fill_policy == "neutral":
            self._fill_mode = _FILL_ZERO
        elif config.fill_policy == "read-greedy":
            self._fill_mode = _FILL_GREEDY1
        else:  # write-greedy
            self._fill_mode = _FILL_GREEDY0

        # --- history state ------------------------------------------- #
        self._cb = history_bits(config.window) // 2 if self._uses_pred else 0
        n_lines = self._n_sets * self._assoc
        #: Algorithm 1's two counters as one packed state,
        #: ``A_num * (W + 1) + Wr_num``: per line, or per set (cnt-shared).
        #: Counters never exceed the window: they reset when they reach it.
        if self._shared:
            self._hs = [0] * self._n_sets
        elif self._perline_hist:
            self._hs = [0] * n_lines
        else:
            self._hs = []

        # --- Algorithm 1: precomputed Th_bit1num rows ------------------- #
        if self._uses_pred:
            policy = self.policy
            assert isinstance(policy, AdaptivePolicy)
            table = policy.predictor.table
            # The matrix is pure in these values: the policy type fixes
            # the effective_wr_num mapping, the table is determined by
            # (length, window, delta_t, model), the row/column counts by
            # config.window and the partition width.
            key = (
                type(policy).__name__,
                config.window,
                table.window,
                table.length,
                table.delta_t,
                table.model,
                self._pbits,
            )
            th = _TH_CACHE.get(key)
            if th is None:
                th = _TH_CACHE[key] = [
                    table.entry(policy.effective_wr_num(wr)).switch_row(
                        self._pbits
                    )
                    for wr in range(config.window + 1)
                ]
            self._th = th
        else:
            self._th = []

        # --- Table I energy vector -> popcount-indexed tables ----------- #
        model = self.model
        self._e_rd0 = model.e_rd0
        self._e_rd1 = model.e_rd1
        self._e_wr0 = model.e_wr0
        self._e_wr1 = model.e_wr1
        # One memoised bundle: popcount-indexed energies, and the
        # history-metadata tables by packed state (see _pricing_tables).
        (self._rd_full, self._wr_full, self._wr_part, self._mr, self._mwd,
         self._mwf, self._hones, self._hwv, self._mrows) = _pricing_tables(
            model,
            self._lbits,
            self._pbits,
            config.direction_bits_per_line,
            2 * self._cb,
            self._perline_hist,
            self._window if self._uses_pred else 0,
        )
        self._hist_meta = self._uses_pred and self._meta

        # --- pricing state (the substrate's lines as the fold sees them) #
        #: Per line: its tag, reported in every WindowEvent.
        self._tags = [0] * n_lines
        self._data = [0] * n_lines
        self._dirval = [0] * n_lines
        #: Per line, cached with its direction word: the word's ones, its
        #: XOR mask, and its metadata-read row (``_mrow``).
        self._dpc = [0] * n_lines
        self._dmask = [0] * n_lines
        self._drow: list[list[float] | None] = [None] * n_lines
        #: Per line: ones stored in the array, popcount(data ^ mask(dirval)).
        self._ones = [0] * n_lines
        #: Pending re-encodes: (lid, new_dirval) pairs.
        self._queue: deque[tuple[int, int]] = deque()
        self._p_bypass = 0
        # Cursors into the substrate being folded, shared by the chunk
        # folds of line-crossing accesses.
        self._sub: Substrate | None = None
        self._fill_cur = self._split_cur = 0
        #: Per fill line id, once encoded: its direction word, stored ones
        #: and direction caches (see :meth:`_fill_encoding`).
        self._fill_state: list[tuple | None] = []

        # --- accumulators (flushed into stats by _sync) ----------------- #
        self._C = [0] * 14
        self._E = [0.0] * 10
        #: Peripheral activations already added into ``_E[_PE]``.
        self._pe_count = 0

    # ------------------------------------------------------------------ #
    # demand path
    # ------------------------------------------------------------------ #
    def access(self, access: Access) -> bytes:
        """Apply one valued access; returns the logical data read/written."""
        recorder = self._own_recorder()
        line = self._line
        payload = access.data
        addr, consumed = access.addr, 0
        chunks: list[bytes] = []
        # One line at a time, so each read chunk is taken from its line
        # before the next chunk's fill can evict it.
        while consumed < len(payload):
            offset = addr & (line - 1)
            size = min(len(payload) - consumed, line - offset)
            one = (Access(access.op, addr, payload[consumed : consumed + size]),)
            substrate = recorder.record(one)
            self._price(substrate, one)
            if not access.is_write:
                lid = substrate.entries[0] >> 3
                word = (recorder.data[lid] >> (offset * 8)) & (
                    (1 << (size * 8)) - 1
                )
                chunks.append(word.to_bytes(size, "little"))
            addr += size
            consumed += size
        self._sync()
        return payload if access.is_write else b"".join(chunks)

    def run(
        self,
        trace: Iterable[Access],
        finalize: bool = True,
        substrate: Substrate | None = None,
    ) -> EnergyStats:
        """Replay a whole trace; optionally drain pending updates at the end.

        With ``substrate`` — ``trace`` recorded over the run's preloads at
        this config's geometry (:func:`record_substrate`) — this fresh
        instance only folds it; nothing is recorded again.
        """
        accesses = trace if isinstance(trace, Sequence) else list(trace)
        if substrate is None:
            substrate = self._own_recorder().record(accesses)
        elif self._recorder is not None:
            raise ValueError(
                "a shared substrate folds only into a fresh instance (no "
                "preload, access or run before it)"
            )
        else:
            self._recorder = _SPENT
        self._price(substrate, accesses)
        if finalize:
            self.finalize()
        else:
            self._sync()
        return self.stats

    def finalize(self) -> None:
        """Drain every pending re-encode, charging its write energy."""
        queue = self._queue
        while queue:
            self._apply_update(queue.popleft())
        self._sync()
        if probe.ENABLED:
            self._flush_probes()

    def preload(self, addr: int, payload: bytes) -> None:
        """Install initial memory contents (program image) before a run."""
        self._own_recorder().preload(addr, payload)

    def preload_all(self, preloads: Iterable[tuple[int, bytes]]) -> None:
        """Install a whole initial memory image (see :meth:`preload`)."""
        for addr, payload in preloads:
            self.preload(addr, payload)

    def _own_recorder(self) -> Recorder:
        recorder = self._recorder
        if recorder is None:
            # A one-off run records the popcount streams only when its
            # own config folds them.
            recorder = self._recorder = Recorder(
                self.config, popcounts=self._table_fold
            )
        elif not isinstance(recorder, Recorder):
            raise ValueError(
                "this instance folded a shared substrate and has no "
                "substrate state of its own; replay on a fresh instance"
            )
        return recorder

    # ------------------------------------------------------------------ #
    # inspection helpers (tests, verification, reports)
    # ------------------------------------------------------------------ #
    def logical_line(self, set_index: int, way: int) -> bytes:
        """Program-visible contents of a resident line."""
        lid = set_index * self._assoc + way
        return self._own_recorder().data[lid].to_bytes(self._line, "little")

    def stored_line(self, set_index: int, way: int) -> bytes:
        """Array contents of a resident line (encoded domain)."""
        lid = set_index * self._assoc + way
        stored = self._own_recorder().data[lid] ^ self._mask_for(
            self._dirval[lid]
        )
        return stored.to_bytes(self._line, "little")

    def directions_of(self, set_index: int, way: int) -> tuple[bool, ...]:
        """Current direction word of a resident line."""
        dirval = self._dirval[set_index * self._assoc + way]
        return tuple(bool((dirval >> p) & 1) for p in range(self._k))

    @property
    def pending_updates(self) -> int:
        """Re-encodes currently waiting in the FIFOs."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # stage 2: the pricing fold
    # ------------------------------------------------------------------ #
    def _price(self, substrate: Substrate, trace: Sequence[Access]) -> None:
        """Price ``substrate``, recorded from ``trace``, into the totals."""
        if probe.ENABLED:
            probe.counter("sim.folds")
            probe.counter("sim.fold_accesses", substrate.accesses)
            if self._table_fold and substrate.counted:
                probe.counter("sim.table_folds")
            with probe.timer("sim.fold"):
                self._fold_substrate(substrate, trace)
        else:
            self._fold_substrate(substrate, trace)

    def _fold_substrate(
        self, substrate: Substrate, trace: Sequence[Access]
    ) -> None:
        if substrate.key != substrate_key(self.config):
            raise ValueError(
                f"substrate geometry {substrate.key} does not match "
                f"{substrate_key(self.config)}"
            )
        _check_length(substrate, trace)
        if self._table_fold and substrate.counted:
            self._fold_tables(substrate)
        else:
            self._sub = substrate
            self._fill_cur = self._split_cur = 0
            self._fill_state = [None] * len(substrate.lines)
            self._fold(
                trace, substrate.entries, iter(substrate.afters).__next__
            )
            self._sub = None
            self._fill_state = []
        C = self._C
        C[_ACC] += substrate.accesses
        C[_RDC] += substrate.accesses - substrate.writes
        C[_WRC] += substrate.writes
        C[_HIT] += substrate.hits
        C[_MISS] += substrate.misses
        C[_EVC] += substrate.evictions
        C[_WBC] += substrate.writebacks
        self._p_bypass += substrate.bypasses

    def _fold_tables(self, sub: Substrate) -> None:
        """``baseline`` at line granularity: table lookups per event."""
        E = self._E
        rd_full, wr_full = self._rd_full, self._wr_full
        splits, split_pcs = sub.splits, sub.split_pcs
        e_dr, e_dw = E[_DR], E[_DW]
        cur = 0
        # Literal code bits in the loop (4 special, 2 miss, 1 write):
        # a module constant is a global lookup per access.
        for entry, ones in zip(sub.entries, sub.pcs):
            if entry & 4:
                if entry & 2:  # a bypassed store: no array event
                    continue
                end = cur + (entry >> 3)
                for chunk in range(cur, end):
                    code = splits[chunk]
                    if code & _SPECIAL:
                        continue
                    if code & _WRITE:
                        e_dw = e_dw + wr_full[split_pcs[chunk]]
                    else:
                        e_dr = e_dr + rd_full[split_pcs[chunk]]
                cur = end
            elif entry & 1:
                e_dw = e_dw + wr_full[ones]
            else:
                e_dr = e_dr + rd_full[ones]
        E[_DR], E[_DW] = e_dr, e_dw
        e_fi = E[_FI]
        for ones in sub.fill_pcs:
            e_fi = e_fi + wr_full[ones]
        E[_FI] = e_fi
        e_wb = E[_WB]
        for ones in sub.wb_pcs:
            e_wb = e_wb + rd_full[ones]
        E[_WB] = e_wb

    def _fold(
        self,
        trace: Sequence[Access],
        entries: Sequence[int],
        next_after: Callable[[], int],
    ) -> None:
        """Price line accesses: ``entries`` are their codes in ``self._sub``,
        and ``next_after`` yields the substrate's write values in order.

        One path prices every array event: a miss writes back its victim
        and installs its fill, then takes the hit path for its data access;
        the access that completes a window runs Algorithm 1 and queues the
        re-encode it decides.
        """
        C, E = self._C, self._E
        sub = self._sub
        assert sub is not None
        flags_l, fills_l, lines = sub.flags, sub.fills, sub.lines
        fill_state, fill_encoding = self._fill_state, self._fill_encoding
        off_mask = self._line - 1
        tag_shift, assoc = self._tag_shift, self._assoc
        tags_l, data_l = self._tags, self._data
        dirval_l, ones_l = self._dirval, self._ones
        dpc_l, mask_l, row_l = self._dpc, self._dmask, self._drow
        set_direction = self._set_direction
        rd_full, wr_full = self._rd_full, self._wr_full
        mr, mwd, mwf = self._mr, self._mwd, self._mwf
        hwv = self._hwv
        th, parts, pm = self._th, self._parts, self._pmask
        enc_logic, pred_logic = self._enc_logic, self._pred_logic
        e_rd0, e_rd1 = self._e_rd0, self._e_rd1
        e_wr0, e_wr1 = self._e_wr0, self._e_wr1
        is_dbi = self._is_dbi
        uses_pred, perline_hist = self._uses_pred, self._perline_hist
        gran_line, meta = self._gran_line, self._meta
        track = self._track
        window = self._window
        queue, depth = self._queue, self._depth
        drain_budget = self._drain_budget
        apply_update = self._apply_update
        leak = self._leak
        total_bits = self._total_bits
        special = self._fold_special
        observer = self.window_observer
        meta_read = meta and mr is not None
        fill_meta = meta and mwf is not None
        logic = not self._is_baseline
        # The packed history state (per line, or per set for cnt-shared):
        # an access adds ``step``, a write one more, and the access that
        # brings ``A_num`` to the window lifts the state to ``done`` or
        # above, ``Wr_num`` past it.
        hs_l, hdiv = self._hs, (assoc if self._shared else 1)
        step = window + 1
        done = window * step

        # Misses and window completions are priced here, in locals; only
        # special accesses (bypassed stores, line crossings) and applied
        # re-encodes cross a call.  Each energy local holds the *running
        # total* (loaded from E, not a delta), so inline additions extend
        # the exact same left-fold chains the scalar oracle builds; around
        # every call that touches the shared slots the locals (and the
        # fill cursor the chunk fold shares) are stored back and reloaded,
        # preserving the global addition order bit for bit.  The
        # peripheral chain is counted, not added (see _sync).  A line's
        # direction caches (its word's ones, XOR mask and metadata-read
        # row) change only with the word: at a fill, a DBI re-vote and an
        # applied re-encode.  So no access counts the word's bits or looks
        # its mask up, and history metadata is one index into the line's
        # row (read) and one into ``hwv`` (write), by packed state.
        fill_cur = self._fill_cur
        c_inv, c_pdr = C[_INV], C[_PDR]
        e_dr, e_dw, e_fi, e_wb = E[_DR], E[_DW], E[_FI], E[_WB]
        e_mrd, e_mwr, e_lg, e_lk = E[_MRD], E[_MWR], E[_LG], E[_LK]

        for a, entry in zip(trace, entries):
            lid = entry >> 3
            if entry & 6:  # a miss, a bypassed store or a line crossing
                # (literal code bits, as in _fold_tables)
                if entry & 4:
                    self._fill_cur = fill_cur
                    C[_INV], C[_PDR] = c_inv, c_pdr
                    E[_DR], E[_DW], E[_FI], E[_WB] = e_dr, e_dw, e_fi, e_wb
                    E[_MRD], E[_MWR], E[_LG], E[_LK] = e_mrd, e_mwr, e_lg, e_lk
                    special(a, entry, next_after)
                    fill_cur = self._fill_cur
                    c_inv, c_pdr = C[_INV], C[_PDR]
                    e_dr, e_dw, e_fi, e_wb = E[_DR], E[_DW], E[_FI], E[_WB]
                    e_mrd, e_mwr, e_lg, e_lk = E[_MRD], E[_MWR], E[_LG], E[_LK]
                    continue
                # ---- a miss: write the victim back, install the fill -- #
                flags = flags_l[fill_cur]
                fid = fills_l[fill_cur]
                fill_cur += 1
                if flags:  # _VICTIM, perhaps with _DIRTY
                    dirval = dirval_l[lid]
                    ones = ones_l[lid]
                    if track:
                        self._stored_ones -= ones
                        if dirval:
                            c_inv += 1
                    if flags & 2:
                        e_wb = e_wb + rd_full[ones]
                        if dirval:
                            c_inv += 1
                        if meta_read:
                            # The victim's own counters, or its set's.
                            if uses_pred:
                                e_mrd = e_mrd + row_l[lid][hs_l[lid // hdiv]]
                            else:
                                e_mrd = e_mrd + mr[dpc_l[lid]]
                tags_l[lid] = a.addr >> tag_shift
                data_l[lid] = lines[fid]
                # Any pending update for the line this fill replaced is
                # now stale.  This purge is the only way an update goes
                # stale (lines are never invalidated), so every update
                # left to dequeue is live.
                if queue:
                    kept = [update for update in queue if update[0] != lid]
                    if len(kept) != len(queue):
                        c_pdr += len(queue) - len(kept)
                        queue.clear()
                        queue.extend(kept)
                state = fill_state[fid]
                if state is None:
                    state = fill_state[fid] = fill_encoding(lines[fid])
                dirval, ones, dpc, mask, row = state
                dirval_l[lid] = dirval
                ones_l[lid] = ones
                dpc_l[lid] = dpc
                mask_l[lid] = mask
                row_l[lid] = row
                if perline_hist:
                    hs_l[lid] = 0
                e_fi = e_fi + wr_full[ones]
                if dirval:
                    c_inv += 1
                if track:
                    self._stored_ones += ones
                if fill_meta:
                    # Fresh history counters are zero; only D bits carry ones.
                    e_mwr = e_mwr + mwf[dpc]
            # ---- the data access (every miss is a hit once filled) ---- #
            dirval = dirval_l[lid]
            if entry & 1:  # a write
                after = next_after()
                data_l[lid] = after
                new_dirval = dirval
                if is_dbi:
                    new_dirval = self._dbi_new_dirval(
                        dirval, after, a.addr & off_mask, len(a.data)
                    )
                    if new_dirval != dirval:
                        set_direction(lid, new_dirval)
                        if meta and mwd is not None:
                            e_mwr = e_mwr + mwd[dpc_l[lid]]
                stored = after ^ mask_l[lid]
                ones = stored.bit_count()
                if track:
                    self._stored_ones += ones - ones_l[lid]
                    c_inv += (new_dirval != 0) + (dirval != 0)
                ones_l[lid] = ones
                if gran_line:
                    e_dw = e_dw + wr_full[ones]
                    if new_dirval:
                        c_inv += 1
                else:
                    size = len(a.data)
                    shift = (a.addr & off_mask) * 8
                    word = (stored >> shift) & ((1 << (size * 8)) - 1)
                    ones = word.bit_count()
                    e_dw = e_dw + (ones * e_wr1 + (size * 8 - ones) * e_wr0)
                dirval = new_dirval
            elif gran_line:
                e_dr = e_dr + rd_full[ones_l[lid]]
                if dirval:
                    c_inv += 1
            else:
                size = len(a.data)
                shift = (a.addr & off_mask) * 8
                word = ((data_l[lid] ^ mask_l[lid]) >> shift) & (
                    (1 << (size * 8)) - 1
                )
                ones = word.bit_count()
                e_dr = e_dr + (ones * e_rd1 + (size * 8 - ones) * e_rd0)
            # ---- per-access tail: logic, metadata, history ------------ #
            if logic:
                e_lg = e_lg + enc_logic
            if uses_pred:
                hidx = lid // hdiv
                hs = hs_l[hidx]
                if meta:  # read the counters, count the access, write them
                    e_mrd = e_mrd + row_l[lid][hs]
                    hs += step + (entry & 1)
                    e_mwr = e_mwr + hwv[hs]
                else:
                    hs += step + (entry & 1)
                if hs < done:
                    hs_l[hidx] = hs
                else:
                    # ---- Algorithm 1 on the stored line, then reset ---- #
                    h_w = hs - done
                    C[_WIN] += 1
                    e_lg = e_lg + pred_logic
                    if dirval:
                        c_inv += 1
                    stored = data_l[lid] ^ mask_l[lid]
                    row = th[h_w]
                    flipbits = 0
                    for shift, bit in parts:
                        if row[((stored >> shift) & pm).bit_count()]:
                            flipbits |= bit
                    if observer is not None:
                        observer(
                            WindowEvent(
                                index=self._window_events,
                                set_index=lid // assoc,
                                way=lid % assoc,
                                tag=tags_l[lid],
                                wr_num=h_w,
                                window=window,
                                ones=tuple(
                                    ((stored >> shift) & pm).bit_count()
                                    for shift, _ in parts
                                ),
                                directions_before=tuple(
                                    bool(dirval & bit) for _, bit in parts
                                ),
                                flips=tuple(
                                    bool(flipbits & bit) for _, bit in parts
                                ),
                            )
                        )
                        self._window_events += 1
                    hs_l[hidx] = 0
                    if meta:
                        e_mwr = e_mwr + hwv[0]
                    if flipbits:
                        C[_DSW] += 1
                        C[_PFL] += flipbits.bit_count()
                        queue.append((lid, dirval ^ flipbits))
                        if len(queue) > depth:  # full: force out the oldest
                            C[_FDR] += 1
                            E[_MWR] = e_mwr
                            apply_update(queue.popleft())
                            e_mwr = E[_MWR]
            elif meta_read:
                e_mrd = e_mrd + mr[dpc_l[lid]]
            if queue and drain_budget:
                E[_MWR] = e_mwr
                self._drain(drain_budget)
                e_mwr = E[_MWR]
            if track:
                so = self._stored_ones
                e_lk = e_lk + leak.cycle_energy(so, total_bits - so)

        self._fill_cur = fill_cur
        C[_INV], C[_PDR] = c_inv, c_pdr
        E[_DR], E[_DW], E[_FI], E[_WB] = e_dr, e_dw, e_fi, e_wb
        E[_MRD], E[_MWR], E[_LG], E[_LK] = e_mrd, e_mwr, e_lg, e_lk

    def _fold_special(
        self, a: Access, entry: int, next_after: Callable[[], int]
    ) -> None:
        """A bypassed store, or a line-crossing access folded by chunk."""
        if entry & 7 == _BYPASS:
            # No array event: only the per-access tail, without history.
            E = self._E
            if not self._is_baseline:
                E[_LG] = E[_LG] + self._enc_logic
            if self._queue and self._drain_budget:
                self._drain(self._drain_budget)
            if self._track:
                so = self._stored_ones
                E[_LK] = E[_LK] + self._leak.cycle_energy(
                    so, self._total_bits - so
                )
            return
        sub = self._sub
        assert sub is not None
        line = self._line
        payload = a.data
        addr, remaining, consumed = a.addr, len(payload), 0
        chunks = []
        while remaining > 0:
            size = min(remaining, line - (addr & (line - 1)))
            chunks.append(Access(a.op, addr, payload[consumed : consumed + size]))
            addr += size
            consumed += size
            remaining -= size
        cur = self._split_cur
        self._split_cur = cur + len(chunks)
        self._fold(chunks, sub.splits[cur : cur + len(chunks)], next_after)

    # ------------------------------------------------------------------ #
    # deferred updates
    # ------------------------------------------------------------------ #
    def _drain(self, budget: int) -> None:
        queue = self._queue
        for _ in range(min(budget, len(queue))):
            self._apply_update(queue.popleft())

    def _apply_update(self, entry: tuple[int, int]) -> None:
        """Re-encode a line per a queued update (live: see the purge in
        :meth:`_fold`)."""
        lid, new_dirval = entry
        flips = self._dirval[lid] ^ new_dirval
        if not flips:
            return  # nothing to rewrite, but the slot was used
        E = self._E
        enc = self._data[lid] ^ self._set_direction(lid, new_dirval)
        pm = self._pmask
        wr_part = self._wr_part
        energy = 0.0
        for shift, bit in self._parts:
            if flips & bit:
                energy += wr_part[((enc >> shift) & pm).bit_count()]
        ones = enc.bit_count()
        if self._track:
            self._stored_ones += ones - self._ones[lid]
        self._ones[lid] = ones
        self._C[_REN] += 1
        E[_RE] = E[_RE] + energy
        if self._meta and self._mwd is not None:
            E[_MWR] = E[_MWR] + self._mwd[self._dpc[lid]]

    # ------------------------------------------------------------------ #
    # codec helpers (integer domain)
    # ------------------------------------------------------------------ #
    def _fill_encoding(
        self, value: int
    ) -> tuple[int, int, int, int, list[float] | None]:
        """What a fill of ``value`` installs: the direction word, the ones
        the array then stores, and the word's direction caches (its ones,
        XOR mask and metadata-read row)."""
        mode = self._fill_mode
        if mode == _FILL_ZERO:
            dirval = 0
        elif mode == _FILL_ONE:
            dirval = 1
        else:
            dirval = self._greedy(value, mode == _FILL_GREEDY1)
        mask = self._mask_for(dirval)
        dpc = dirval.bit_count()
        row = self._mrow(dpc) if self._hist_meta else None
        return dirval, (value ^ mask).bit_count(), dpc, mask, row

    def _set_direction(self, lid: int, dirval: int) -> int:
        """Give line ``lid`` the direction word ``dirval`` and its
        direction caches; returns the word's XOR mask."""
        mask = self._mask_for(dirval)
        dpc = dirval.bit_count()
        self._dirval[lid] = dirval
        self._dmask[lid] = mask
        self._dpc[lid] = dpc
        if self._hist_meta:
            self._drow[lid] = self._mrow(dpc)
        return mask

    def _mrow(self, dpc: int) -> list[float]:
        """Metadata-read energy by packed history state, for a line whose
        direction word stores ``dpc`` ones: ``mr[dpc + hones[hs]]``.  Built
        the first time some line takes that count, shared by every instance
        of the same window, energies and metadata width."""
        rows = self._mrows
        row = rows[dpc]
        if row is None:
            row = rows[dpc] = list(
                map(self._mr.__getitem__, map(dpc.__add__, self._hones))
            )
        return row

    def _mask_for(self, dirval: int) -> int:
        mask = self._masks.get(dirval)
        if mask is None:
            pm = self._pmask
            mask = 0
            for shift, bit in self._parts:
                if dirval & bit:
                    mask |= pm << shift
            self._masks[dirval] = mask
        return mask

    def _greedy(self, value: int, prefer_ones: bool) -> int:
        """Greedy direction word (2*count vs partition_bits — exact
        integer form of the scalar codec's float-half comparison)."""
        pb, pm = self._pbits, self._pmask
        dirval = 0
        if prefer_ones:
            for shift, bit in self._parts:
                if 2 * ((value >> shift) & pm).bit_count() < pb:
                    dirval |= bit
        else:
            for shift, bit in self._parts:
                if 2 * ((value >> shift) & pm).bit_count() > pb:
                    dirval |= bit
        return dirval

    def _dbi_new_dirval(self, dirval, after, offset, size) -> int:
        """Per-word DBI re-vote over the fully rewritten words."""
        word = self._pbytes
        first_full = (offset + word - 1) // word
        last_full = (offset + size) // word  # exclusive
        pb, pm = self._pbits, self._pmask
        for p in range(first_full, last_full):
            if 2 * ((after >> (p * pb)) & pm).bit_count() > pb:
                dirval |= 1 << p
            else:
                dirval &= ~(1 << p)
        return dirval

    # ------------------------------------------------------------------ #
    # stats flush + observability
    # ------------------------------------------------------------------ #
    def _sync(self) -> None:
        """Assign the accumulator chains into stats (exact, idempotent).

        Each slot holds the same left-fold-from-zero addition chain the
        scalar oracle built through ``EnergyStats.add``, so assignment —
        not re-accumulation — reproduces the oracle bit for bit no matter
        how often it runs.  The peripheral chain adds one constant per
        activation (every line access, fill, writeback and applied
        re-encode), so the folds only count activations and the chain is
        extended here, one addition per activation since the last sync.
        """
        C, E = self._C, self._E
        count = C[_ACC] + C[_MISS] - self._p_bypass + C[_WBC] + C[_REN]
        E[_PE] = reduce(
            operator.add, repeat(self._peri, count - self._pe_count), E[_PE]
        )
        self._pe_count = count
        s = self.stats
        (s.accesses, s.reads, s.writes, s.hits, s.misses, s.evictions,
         s.writebacks, s.windows_completed, s.direction_switches,
         s.partition_flips, s.pending_dropped, s.forced_drains) = self._C[:_INV]
        (s.data_read_fj, s.data_write_fj, s.fill_fj, s.writeback_fj,
         s.metadata_read_fj, s.metadata_write_fj, s.reencode_fj,
         s.logic_fj, s.peripheral_fj, s.leakage_fj) = self._E

    def _flush_probes(self) -> None:
        """Emit the aggregate ``cache.*`` and ``codec.*`` counters the
        scalar oracle emits per access."""
        C = self._C
        bypass = self._p_bypass
        counts = _cache_counts(
            C[_ACC], C[_HIT], C[_MISS], C[_RDC], C[_WRC], C[_WBC], bypass
        )
        if not self._is_baseline:  # the identity codec counts nothing
            # The scalar engine encodes a whole line at every fill,
            # writeback and window completion, at every line-granularity
            # data access, and (leakage tracking) once per victim and
            # twice per data write.
            applies = C[_MISS] - bypass + C[_WBC] + C[_WIN]
            if self._gran_line:
                applies += C[_ACC] - bypass
            if self._track:
                applies += C[_EVC] + 2 * (C[_WRC] - bypass)
            name = self.codec.name
            counts += [
                (f"codec.{name}.applies", applies),
                (f"codec.{name}.bytes", applies * self._line),
                (f"codec.{name}.inverting_applies", C[_INV]),
            ]
        for name, count in counts:
            if count:
                probe.counter(name, count)


#: Memoized tables, shared by every instance with the same parameters.
#: ``BitEnergyModel`` is a frozen dataclass, so it keys cleanly.  The
#: values are read-only lookup tables; sweeps and best-of-N bench runs
#: construct many simulators of a handful of distinct configs, so the
#: caches stay tiny while shaving most of the construction cost.
_TABLE_CACHE: dict[tuple, tuple[list[float], list[float]]] = {}
_TH_CACHE: dict[tuple, list[list[bool]]] = {}
_PRICING_CACHE: dict[tuple, tuple] = {}
_HISTORY_CACHE: dict[tuple, tuple[list[int], list[float]]] = {}
#: Per (model, window, metadata-read width): the ``mrows`` rows by
#: direction-word popcount, each built on first use.
_MROWS_CACHE: dict[tuple, list[list[float] | None]] = {}


def _pricing_tables(
    model, lbits: int, pbits: int, dbits: int, hbits: int, perline: bool,
    window: int,
) -> tuple:
    """Every table a fold prices with, memoised as one bundle (one lookup
    per instance): line, partition and metadata energies by popcount
    (``dbits`` direction bits, ``hbits`` history bits, written per line
    when ``perline``), and for a predictor window ``W`` (0 for none) the
    history tables by packed state ``hs = A_num * (W + 1) + Wr_num``,
    shared by every bundle of the same model and window.

    Every state up to ``(W, W)`` has an entry, reachable or not:
    ``(W + 1) ** 2`` each.  ``hones[hs]`` is the ones the two counters
    store (each an ``hbits // 2``-bit field), ``hwv[hs]`` the energy of
    writing them, and ``mrows[d]``, built by :meth:`ArrayCNTCache._mrow`
    the first time a line's direction word stores ``d`` ones, the
    metadata-read energy ``mr[d + hones[hs]]``.
    """
    key = (model, lbits, pbits, dbits, hbits, perline, window)
    cached = _PRICING_CACHE.get(key)
    if cached is None:
        read_width = dbits + hbits
        full_width = dbits + (hbits if perline else 0)
        hones: list[int] = []
        hwv: list[float] = []
        mrows: list[list[float] | None] = []
        if window:
            history = _HISTORY_CACHE.get((model, window))
            if history is None:
                cmask = (1 << (hbits // 2)) - 1
                hpc = [(h & cmask).bit_count() for h in range(window + 1)]
                hones = [a + w for a in hpc for w in hpc]
                hwt = _energy_tables(model, hbits)[1]
                history = _HISTORY_CACHE[model, window] = (
                    hones, list(map(hwt.__getitem__, hones))
                )
            hones, hwv = history
            mrows = _MROWS_CACHE.setdefault(
                (model, window, read_width), [None] * (dbits + 1)
            )
        cached = _PRICING_CACHE[key] = (
            *_energy_tables(model, lbits),
            _energy_tables(model, pbits)[1],
            _energy_tables(model, read_width)[0] if read_width else None,
            _energy_tables(model, dbits)[1] if dbits else None,
            _energy_tables(model, full_width)[1] if full_width else None,
            hones,
            hwv,
            mrows,
        )
    return cached


def _energy_tables(model, width: int) -> tuple[list[float], list[float]]:
    """Popcount-indexed (read, write) energy tables for a ``width``-bit word.

    Each entry is IEEE-identical to the scalar
    ``ones * e_x1 + zeros * e_x0`` of the Table I vector.
    """
    key = (model, width)
    cached = _TABLE_CACHE.get(key)
    if cached is None:
        cached = (
            [
                float(n) * model.e_rd1 + float(width - n) * model.e_rd0
                for n in range(width + 1)
            ],
            [
                float(n) * model.e_wr1 + float(width - n) * model.e_wr0
                for n in range(width + 1)
            ],
        )
        _TABLE_CACHE[key] = cached
    return cached
