"""The array simulation backend: integer-packed, table-driven replay.

:class:`ArrayCNTCache` reproduces :class:`repro.core.cntcache.CNTCache`
bit for bit — same hit/miss sequences, same per-component femtojoules,
same floating-point addition chains — at an order of magnitude higher
throughput.  The representation changes, the arithmetic does not:

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
* The replay loop decodes tag, set, offset and line crossing inline and
  runs the hit path without a single method call.

Exactness contract: every energy component is accumulated in a local
float with the *same addition sequence* the scalar oracle feeds through
``EnergyStats.add`` (left-fold from 0.0), then assigned — not re-added —
into :attr:`stats`, so the flush is idempotent and the totals match the
oracle to the last ulp.  The Hypothesis differential suite in
``tests/backends`` enforces this across schemes, geometries and write
policies.

Observability: the engine emits the same aggregate ``cache.*`` and
``codec.*`` probe counters as the scalar oracle.  Per-access trace
events are scalar-only, so :func:`repro.backends.make_backend` builds
the scalar engine while tracing is active.

Construct instances through ``repro.api.make_cache``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable

from repro.cache.replacement import (
    FIFOPolicy,
    LRUPolicy,
    RandomPolicy,
    make_replacement_policy,
)
from repro.core.cntcache import WindowEvent
from repro.core.config import CNTCacheConfig
from repro.core.policy import AdaptivePolicy, EncodingPolicy, make_policy
from repro.core.stats import EnergyStats
from repro.obs import probe
from repro.predictor.history import history_bits
from repro.trace.record import Access, Op

# Counter slots of self._C: EnergyStats field order, then the codec
# applies that inverted at least one partition (probe-only).
(_ACC, _RDC, _WRC, _HIT, _MISS, _EVC, _WBC,
 _WIN, _DSW, _PFL, _PDR, _FDR, _INV) = range(13)

# Energy slots of self._E, in ENERGY_COMPONENTS order.
(_DR, _DW, _FI, _WB, _MRD, _MWR, _RE, _LG, _PE, _LK) = range(10)

# Fill-time direction modes.
_FILL_ZERO, _FILL_ONE, _FILL_GREEDY0, _FILL_GREEDY1 = range(4)


class ArrayCNTCache:
    """Bit-exact integer-packed replay engine for one encoding scheme.

    Implements the :class:`repro.backends.CacheBackend` protocol; the
    scalar :class:`~repro.core.cntcache.CNTCache` is the oracle it is
    differential-tested against.
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

        # --- geometry -------------------------------------------------- #
        line = config.line_size
        self._line = line
        self._off_bits = line.bit_length() - 1
        self._n_sets = config.n_sets
        self._idx_bits = self._n_sets.bit_length() - 1
        self._assoc = config.assoc
        self._lbits = line * 8

        # --- codec geometry -------------------------------------------- #
        self._k = self.codec.n_partitions
        self._pbits = self.codec.partition_bits
        self._pbytes = self.codec.partition_bytes
        self._pmask = (1 << self._pbits) - 1
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
        self._wt = config.write_through
        self._wa = config.write_allocate
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

        # --- history counters ------------------------------------------ #
        if self._uses_pred:
            self._cb = history_bits(config.window) // 2
        else:
            self._cb = 0
        self._cmask = (1 << self._cb) - 1
        n_lines = self._n_sets * self._assoc
        if self._perline_hist:
            self._ha = [0] * n_lines
            self._hwn = [0] * n_lines
        else:
            self._ha = self._hwn = []
        if self._shared:
            self._sha = [0] * self._n_sets
            self._shw = [0] * self._n_sets
        else:
            self._sha = self._shw = []

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
                th = [
                    [
                        table.should_switch(policy.effective_wr_num(wr), n1)
                        for n1 in range(self._pbits + 1)
                    ]
                    for wr in range(config.window + 1)
                ]
                _TH_CACHE[key] = th
            self._th = th
        else:
            self._th = []

        # --- Table I energy vector -> popcount-indexed tables ----------- #
        model = self.model
        self._e_rd0 = model.e_rd0
        self._e_rd1 = model.e_rd1
        self._e_wr0 = model.e_wr0
        self._e_wr1 = model.e_wr1
        self._rd_full, self._wr_full = _energy_tables(model, self._lbits)
        _, self._wr_part = _energy_tables(model, self._pbits)
        dbits = config.direction_bits_per_line
        hist_read = 2 * self._cb if self._uses_pred else 0
        read_width = dbits + hist_read
        self._mr = (
            _energy_tables(model, read_width)[0] if read_width else None
        )
        self._mwd = _energy_tables(model, dbits)[1] if dbits else None
        full_width = dbits + (2 * self._cb if self._perline_hist else 0)
        self._mwf = (
            _energy_tables(model, full_width)[1] if full_width else None
        )
        self._hwt = (
            _energy_tables(model, 2 * self._cb)[1] if self._cb else None
        )

        # --- cache state ------------------------------------------------ #
        self._valid = [False] * n_lines
        self._dirty = [False] * n_lines
        self._tags = [0] * n_lines
        self._data = [0] * n_lines
        self._dirval = [0] * n_lines
        self._tmaps: list[dict[int, int]] = [
            {} for _ in range(self._n_sets)
        ]
        self._repl = make_replacement_policy(
            config.replacement, self._n_sets, self._assoc, seed=config.seed
        )
        # Hit-path specialization: exact-LRU recency stacks are mutated
        # inline in _replay (set_index/way are internal, already valid);
        # FIFO and random ignore hits entirely.
        self._lru_stacks = (
            self._repl._stacks
            if isinstance(self._repl, LRUPolicy)
            else None
        )
        self._touch_noop = isinstance(self._repl, (FIFOPolicy, RandomPolicy))
        #: Pending re-encodes: (set_index, way, tag, new_dirval) tuples.
        self._queue: deque[tuple[int, int, int, int]] = deque()
        #: Sparse backing store: line-aligned address -> line integer.
        self._mem: dict[int, int] = {}
        self._p_bypass = 0

        # --- accumulators (flushed into stats by _sync) ----------------- #
        self._C = [0] * 13
        self._E = [0.0] * 10

    # ------------------------------------------------------------------ #
    # demand path
    # ------------------------------------------------------------------ #
    def access(self, access: Access) -> bytes:
        """Apply one valued access; returns the logical data read/written."""
        line = self._line
        ob, ib = self._off_bits, self._idx_bits
        set_mask = self._n_sets - 1
        data = access.data
        is_write = access.op is Op.WRITE
        addr, remaining, consumed = access.addr, access.size, 0
        chunks: list[bytes] = []
        while remaining > 0:
            offset = addr & (line - 1)
            chunk = min(remaining, line - offset)
            payload = data[consumed : consumed + chunk]
            tag = addr >> (ob + ib)
            set_index = (addr >> ob) & set_mask
            self._access_one(
                is_write, addr, tag, set_index, offset, chunk, payload
            )
            if is_write:
                chunks.append(payload)
            else:
                way = self._tmaps[set_index].get(tag)
                if way is None:  # unreachable: reads always allocate
                    chunks.append(payload)
                else:
                    lid = set_index * self._assoc + way
                    word = (self._data[lid] >> (offset * 8)) & (
                        (1 << (chunk * 8)) - 1
                    )
                    chunks.append(word.to_bytes(chunk, "little"))
            addr += chunk
            consumed += chunk
            remaining -= chunk
        self._sync()
        return b"".join(chunks)

    def run(
        self, trace: Iterable[Access], finalize: bool = True
    ) -> EnergyStats:
        """Replay a whole trace; optionally drain pending updates at the end."""
        self._replay(trace)
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

    def preload_all(self, preloads: Iterable[tuple[int, bytes]]) -> None:
        """Install a whole initial memory image (see :meth:`preload`)."""
        for addr, payload in preloads:
            self.preload(addr, payload)

    # ------------------------------------------------------------------ #
    # inspection helpers (tests, verification, reports)
    # ------------------------------------------------------------------ #
    def logical_line(self, set_index: int, way: int) -> bytes:
        """Program-visible contents of a resident line."""
        lid = set_index * self._assoc + way
        return self._data[lid].to_bytes(self._line, "little")

    def stored_line(self, set_index: int, way: int) -> bytes:
        """Array contents of a resident line (encoded domain)."""
        lid = set_index * self._assoc + way
        stored = self._data[lid] ^ self._mask_for(self._dirval[lid])
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
    # the replay loop (decode and hit path inlined)
    # ------------------------------------------------------------------ #
    def _replay(self, trace: Iterable[Access]) -> None:
        C, E = self._C, self._E
        line = self._line
        off_mask = line - 1
        ob = self._off_bits
        tag_shift = ob + self._idx_bits
        set_mask = self._n_sets - 1
        tmaps = self._tmaps
        assoc = self._assoc
        data_l, dirval_l, dirty_l = self._data, self._dirval, self._dirty
        masks = self._masks
        mask_for = self._mask_for
        touch = self._repl.touch
        lru_stacks = self._lru_stacks
        touch_noop = self._touch_noop
        rd_full, wr_full = self._rd_full, self._wr_full
        mr, mwd = self._mr, self._mwd
        hwt = self._hwt
        ha_l, hw_l = self._ha, self._hwn
        sha_l, shw_l = self._sha, self._shw
        peri, enc_logic = self._peri, self._enc_logic
        e_rd0, e_rd1 = self._e_rd0, self._e_rd1
        e_wr0, e_wr1 = self._e_wr0, self._e_wr1
        baseline = self._is_baseline
        is_dbi = self._is_dbi
        uses_pred, shared = self._uses_pred, self._shared
        gran_line, meta = self._gran_line, self._meta
        track, wt = self._track, self._wt
        window, cb, cm = self._window, self._cb, self._cmask
        queue = self._queue
        drain_budget = self._drain_budget
        leak = self._leak
        total_bits = self._total_bits
        access_one = self._access_one
        write_op = Op.WRITE
        meta_read = meta and mr is not None
        logic = not baseline

        # Hot counters and energy components live in locals while the
        # loop runs.  Each local holds the *running total* (loaded from
        # C/E, not a delta), so inline additions extend the exact same
        # left-fold chains the scalar oracle builds; around every call
        # that touches the shared slots (miss path, window completion,
        # drains) the locals are stored back and reloaded, preserving
        # the global addition order bit for bit.
        c_acc, c_rd, c_wr, c_hit = C[_ACC], C[_RDC], C[_WRC], C[_HIT]
        c_inv = C[_INV]
        e_dr, e_dw, e_mrd, e_mwr = E[_DR], E[_DW], E[_MRD], E[_MWR]
        e_lg, e_pe, e_lk = E[_LG], E[_PE], E[_LK]

        for a in trace:
            addr = a.addr
            size = len(a.data)
            offset = addr & off_mask
            tag = addr >> tag_shift
            set_index = (addr >> ob) & set_mask
            cr = offset + size > line
            way = None if cr else tmaps[set_index].get(tag)
            if way is None:
                C[_ACC], C[_RDC], C[_WRC], C[_HIT] = c_acc, c_rd, c_wr, c_hit
                C[_INV] = c_inv
                E[_DR], E[_DW], E[_MRD], E[_MWR] = e_dr, e_dw, e_mrd, e_mwr
                E[_LG], E[_PE], E[_LK] = e_lg, e_pe, e_lk
                if cr:
                    self._access_split(a)
                else:
                    access_one(
                        a.op is write_op, addr, tag, set_index, offset,
                        size, a.data,
                    )
                c_acc, c_rd, c_wr, c_hit = C[_ACC], C[_RDC], C[_WRC], C[_HIT]
                c_inv = C[_INV]
                e_dr, e_dw, e_mrd, e_mwr = E[_DR], E[_DW], E[_MRD], E[_MWR]
                e_lg, e_pe, e_lk = E[_LG], E[_PE], E[_LK]
                continue
            # ---- hit path, inlined ------------------------------------ #
            is_write = a.op is write_op
            c_acc += 1
            c_hit += 1
            if lru_stacks is not None:
                stack = lru_stacks[set_index]
                stack.remove(way)
                stack.append(way)
            elif not touch_noop:
                touch(set_index, way)
            lid = set_index * assoc + way
            dirval = dirval_l[lid]
            if is_write:
                c_wr += 1
                value = int.from_bytes(a.data, "little")
                shift = offset * 8
                smask = ((1 << (size * 8)) - 1) << shift
                before = data_l[lid]
                after = (before & ~smask) | (value << shift)
                data_l[lid] = after
                if wt:
                    self._mem_write(addr, size, value)
                else:
                    dirty_l[lid] = True
                if is_dbi:
                    new_dirval = self._dbi_new_dirval(
                        dirval, after, offset, size
                    )
                    if new_dirval != dirval:
                        dirval_l[lid] = new_dirval
                        changed = True
                    else:
                        changed = False
                else:
                    new_dirval = dirval
                    changed = False
                new_mask = masks.get(new_dirval)
                if new_mask is None:
                    new_mask = mask_for(new_dirval)
                if track:
                    old_mask = masks.get(dirval)
                    if old_mask is None:
                        old_mask = mask_for(dirval)
                    self._stored_ones += (after ^ new_mask).bit_count() - (
                        before ^ old_mask
                    ).bit_count()
                    c_inv += (new_dirval != 0) + (dirval != 0)
                if gran_line:
                    ones = (after ^ new_mask).bit_count()
                    e_dw = e_dw + wr_full[ones]
                    if new_dirval:
                        c_inv += 1
                else:
                    ones = (((after ^ new_mask) & smask) >> shift).bit_count()
                    e_dw = e_dw + (ones * e_wr1 + (size * 8 - ones) * e_wr0)
                dirval = new_dirval
            else:
                c_rd += 1
                mask = masks.get(dirval)
                if mask is None:
                    mask = mask_for(dirval)
                if gran_line:
                    ones = (data_l[lid] ^ mask).bit_count()
                    e_dr = e_dr + rd_full[ones]
                    if dirval:
                        c_inv += 1
                else:
                    shift = offset * 8
                    word = ((data_l[lid] ^ mask) >> shift) & (
                        (1 << (size * 8)) - 1
                    )
                    ones = word.bit_count()
                    e_dr = e_dr + (ones * e_rd1 + (size * 8 - ones) * e_rd0)
                changed = False
            if meta_read:
                mones = dirval.bit_count()
                if uses_pred:
                    if shared:
                        mones += (sha_l[set_index] & cm).bit_count() + (
                            shw_l[set_index] & cm
                        ).bit_count()
                    else:
                        mones += (ha_l[lid] & cm).bit_count() + (
                            hw_l[lid] & cm
                        ).bit_count()
                e_mrd = e_mrd + mr[mones]
            if changed and meta and mwd is not None:
                e_mwr = e_mwr + mwd[dirval.bit_count()]
            e_pe = e_pe + peri
            if logic:
                e_lg = e_lg + enc_logic
            if uses_pred:
                if shared:
                    h_a = sha_l[set_index] + 1
                    h_w = shw_l[set_index] + 1 if is_write else shw_l[set_index]
                    sha_l[set_index] = h_a
                    shw_l[set_index] = h_w
                else:
                    h_a = ha_l[lid] + 1
                    h_w = hw_l[lid] + 1 if is_write else hw_l[lid]
                    ha_l[lid] = h_a
                    hw_l[lid] = h_w
                if meta:
                    hv = (h_a & cm) | ((h_w & cm) << cb)
                    e_mwr = e_mwr + hwt[hv.bit_count()]
                if h_a == window:
                    C[_ACC], C[_RDC] = c_acc, c_rd
                    C[_WRC], C[_HIT], C[_INV] = c_wr, c_hit, c_inv
                    E[_DR], E[_DW], E[_MRD] = e_dr, e_dw, e_mrd
                    E[_MWR], E[_LG], E[_PE], E[_LK] = e_mwr, e_lg, e_pe, e_lk
                    self._window_complete(lid, set_index, way, h_w)
                    c_inv = C[_INV]
                    e_mrd, e_mwr = E[_MRD], E[_MWR]
                    e_lg, e_pe, e_lk = E[_LG], E[_PE], E[_LK]
            if queue and drain_budget:
                E[_MWR], E[_PE] = e_mwr, e_pe
                self._drain(drain_budget)
                e_mwr, e_pe = E[_MWR], E[_PE]
            if track:
                so = self._stored_ones
                e_lk = e_lk + leak.cycle_energy(so, total_bits - so)

        C[_ACC], C[_RDC], C[_WRC], C[_HIT] = c_acc, c_rd, c_wr, c_hit
        C[_INV] = c_inv
        E[_DR], E[_DW], E[_MRD], E[_MWR] = e_dr, e_dw, e_mrd, e_mwr
        E[_LG], E[_PE], E[_LK] = e_lg, e_pe, e_lk

    def _access_split(self, a: Access) -> None:
        """Line-crossing access: decode and apply it chunk by chunk."""
        line = self._line
        ob, ib = self._off_bits, self._idx_bits
        set_mask = self._n_sets - 1
        is_write = a.op is Op.WRITE
        data = a.data
        addr, remaining, consumed = a.addr, a.size, 0
        while remaining > 0:
            offset = addr & (line - 1)
            chunk = min(remaining, line - offset)
            self._access_one(
                is_write,
                addr,
                addr >> (ob + ib),
                (addr >> ob) & set_mask,
                offset,
                chunk,
                data[consumed : consumed + chunk],
            )
            addr += chunk
            consumed += chunk
            remaining -= chunk

    # ------------------------------------------------------------------ #
    # one access, general path (misses, bypasses, slow paths)
    # ------------------------------------------------------------------ #
    def _access_one(
        self, is_write, addr, tag, set_index, offset, size, payload
    ) -> None:
        C, E = self._C, self._E
        C[_ACC] += 1
        if is_write:
            C[_WRC] += 1
        else:
            C[_RDC] += 1
        tmap = self._tmaps[set_index]
        way = tmap.get(tag)
        had_victim = victim_dirty = False
        victim_data = victim_dirval = victim_a = victim_w = 0
        fill_int = 0
        filled = False
        if way is not None:
            C[_HIT] += 1
            self._repl.touch(set_index, way)
            lid = set_index * self._assoc + way
        else:
            C[_MISS] += 1
            if is_write and not self._wa:
                # No-write-allocate: the store bypasses the data array.
                self._p_bypass += 1
                self._mem_write(
                    addr, size, int.from_bytes(payload, "little")
                )
                self._finish_access(is_write=True, lid=-1, set_index=set_index,
                                    way=-1)
                return
            value = int.from_bytes(payload, "little")
            if not is_write:
                # Valued traces are self-contained: seed the backing
                # store so all schemes see identical bit streams.
                self._mem_write(addr, size, value)
            base = set_index * self._assoc
            valid = self._valid
            way = None
            for cand in range(self._assoc):
                if not valid[base + cand]:
                    way = cand
                    break
            if way is None:
                way = self._repl.victim(set_index)
                lid = base + way
                had_victim = True
                victim_tag = self._tags[lid]
                victim_dirty = self._dirty[lid]
                victim_data = self._data[lid]
                victim_dirval = self._dirval[lid]
                if self._perline_hist:
                    victim_a = self._ha[lid]
                    victim_w = self._hwn[lid]
                del tmap[victim_tag]
                if victim_dirty:
                    self._mem[
                        (victim_tag << (self._off_bits + self._idx_bits))
                        | (set_index << self._off_bits)
                    ] = victim_data
            else:
                lid = base + way
            fill_int = self._mem.get(addr - offset, 0)
            valid[lid] = True
            self._dirty[lid] = False
            self._tags[lid] = tag
            self._data[lid] = fill_int
            tmap[tag] = way
            self._repl.fill(set_index, way)
            filled = True
        if had_victim:
            C[_EVC] += 1
            if victim_dirty:
                C[_WBC] += 1
            if self._track:
                self._stored_ones -= (
                    victim_data ^ self._mask_for(victim_dirval)
                ).bit_count()
                if victim_dirval:
                    C[_INV] += 1
        before = self._data[lid]
        if is_write:
            value = int.from_bytes(payload, "little")
            shift = offset * 8
            smask = ((1 << (size * 8)) - 1) << shift
            self._data[lid] = (before & ~smask) | (value << shift)
            if self._wt:
                # The store is mirrored to memory; the line stays clean.
                self._mem_write(addr, size, value)
            else:
                self._dirty[lid] = True
        # Array events, in substrate order: WRITEBACK -> FILL -> DATA.
        if victim_dirty:
            stored = victim_data ^ self._mask_for(victim_dirval)
            ones = stored.bit_count()
            E[_WB] = E[_WB] + self._rd_full[ones]
            if victim_dirval:
                C[_INV] += 1
            E[_PE] = E[_PE] + self._peri
            if self._meta and self._mr is not None:
                mones = victim_dirval.bit_count()
                if self._uses_pred:
                    cm = self._cmask
                    if self._shared:
                        mones += (self._sha[set_index] & cm).bit_count() + (
                            self._shw[set_index] & cm
                        ).bit_count()
                    else:
                        mones += (victim_a & cm).bit_count() + (
                            victim_w & cm
                        ).bit_count()
                E[_MRD] = E[_MRD] + self._mr[mones]
        if filled:
            self._on_fill(lid, set_index, way, fill_int)
        if is_write:
            self._on_data_write(lid, set_index, before, offset, size)
        else:
            self._on_data_read(lid, set_index, offset, size)
        self._finish_access(
            is_write=is_write, lid=lid, set_index=set_index, way=way
        )

    def _finish_access(self, *, is_write, lid, set_index, way) -> None:
        """Per-access tail: peripheral, logic, history, drain, leakage."""
        E = self._E
        E[_PE] = E[_PE] + self._peri
        if not self._is_baseline:
            E[_LG] = E[_LG] + self._enc_logic
        if self._uses_pred and way >= 0:
            if self._shared:
                h_a = self._sha[set_index] + 1
                h_w = self._shw[set_index] + 1 if is_write else self._shw[set_index]
                self._sha[set_index] = h_a
                self._shw[set_index] = h_w
            else:
                h_a = self._ha[lid] + 1
                h_w = self._hwn[lid] + 1 if is_write else self._hwn[lid]
                self._ha[lid] = h_a
                self._hwn[lid] = h_w
            if self._meta:
                cm = self._cmask
                hv = (h_a & cm) | ((h_w & cm) << self._cb)
                E[_MWR] = E[_MWR] + self._hwt[hv.bit_count()]
            if h_a == self._window:
                self._window_complete(lid, set_index, way, h_w)
        if self._queue and self._drain_budget:
            self._drain(self._drain_budget)
        if self._track:
            so = self._stored_ones
            E[_LK] = E[_LK] + self._leak.cycle_energy(
                so, self._total_bits - so
            )

    # ------------------------------------------------------------------ #
    # array events
    # ------------------------------------------------------------------ #
    def _on_fill(self, lid, set_index, way, fill_int) -> None:
        C, E = self._C, self._E
        # Any pending update for the way this line replaced is now stale.
        queue = self._queue
        if queue:
            kept = [
                entry
                for entry in queue
                if not (entry[0] == set_index and entry[1] == way)
            ]
            if len(kept) != len(queue):
                C[_PDR] += len(queue) - len(kept)
                queue.clear()
                queue.extend(kept)
        mode = self._fill_mode
        if mode == _FILL_ZERO:
            dirval = 0
        elif mode == _FILL_ONE:
            dirval = 1
        elif mode == _FILL_GREEDY0:
            dirval = self._greedy(fill_int, False)
        else:
            dirval = self._greedy(fill_int, True)
        self._dirval[lid] = dirval
        if self._perline_hist:
            self._ha[lid] = 0
            self._hwn[lid] = 0
        ones = (fill_int ^ self._mask_for(dirval)).bit_count()
        E[_FI] = E[_FI] + self._wr_full[ones]
        if dirval:
            C[_INV] += 1
        if self._track:
            self._stored_ones += ones
        E[_PE] = E[_PE] + self._peri
        if self._meta and self._mwf is not None:
            # Fresh history counters are zero; only the D bits carry ones.
            E[_MWR] = E[_MWR] + self._mwf[dirval.bit_count()]

    def _on_data_write(self, lid, set_index, before, offset, size) -> None:
        C, E = self._C, self._E
        after = self._data[lid]
        dirval = self._dirval[lid]
        if self._is_dbi:
            new_dirval = self._dbi_new_dirval(dirval, after, offset, size)
        else:
            new_dirval = dirval
        changed = new_dirval != dirval
        if changed:
            self._dirval[lid] = new_dirval
        if self._track:
            self._stored_ones += (
                after ^ self._mask_for(new_dirval)
            ).bit_count() - (before ^ self._mask_for(dirval)).bit_count()
            C[_INV] += (new_dirval != 0) + (dirval != 0)
        new_mask = self._mask_for(new_dirval)
        if self._gran_line:
            ones = (after ^ new_mask).bit_count()
            E[_DW] = E[_DW] + self._wr_full[ones]
            if new_dirval:
                C[_INV] += 1
        else:
            shift = offset * 8
            word = ((after ^ new_mask) >> shift) & ((1 << (size * 8)) - 1)
            ones = word.bit_count()
            E[_DW] = E[_DW] + (
                ones * self._e_wr1 + (size * 8 - ones) * self._e_wr0
            )
        self._charge_meta_read(new_dirval, lid, set_index)
        if changed and self._meta and self._mwd is not None:
            E[_MWR] = E[_MWR] + self._mwd[new_dirval.bit_count()]

    def _on_data_read(self, lid, set_index, offset, size) -> None:
        E = self._E
        dirval = self._dirval[lid]
        mask = self._mask_for(dirval)
        if self._gran_line:
            ones = (self._data[lid] ^ mask).bit_count()
            E[_DR] = E[_DR] + self._rd_full[ones]
            if dirval:
                self._C[_INV] += 1
        else:
            shift = offset * 8
            word = ((self._data[lid] ^ mask) >> shift) & (
                (1 << (size * 8)) - 1
            )
            ones = word.bit_count()
            E[_DR] = E[_DR] + (
                ones * self._e_rd1 + (size * 8 - ones) * self._e_rd0
            )
        self._charge_meta_read(dirval, lid, set_index)

    def _charge_meta_read(self, dirval, lid, set_index) -> None:
        if not self._meta or self._mr is None:
            return
        ones = dirval.bit_count()
        if self._uses_pred:
            cm = self._cmask
            if self._shared:
                ones += (self._sha[set_index] & cm).bit_count() + (
                    self._shw[set_index] & cm
                ).bit_count()
            else:
                ones += (self._ha[lid] & cm).bit_count() + (
                    self._hwn[lid] & cm
                ).bit_count()
        self._E[_MRD] = self._E[_MRD] + self._mr[ones]

    # ------------------------------------------------------------------ #
    # history window + prediction
    # ------------------------------------------------------------------ #
    def _window_complete(self, lid, set_index, way, wr_num) -> None:
        C, E = self._C, self._E
        C[_WIN] += 1
        E[_LG] = E[_LG] + self._pred_logic
        dirval = self._dirval[lid]
        if dirval:
            C[_INV] += 1
        stored = self._data[lid] ^ self._mask_for(dirval)
        row = self._th[wr_num]
        pb, pm, k = self._pbits, self._pmask, self._k
        flipbits = 0
        observer = self.window_observer
        if observer is not None:
            ones_list = []
            for p in range(k):
                n1 = ((stored >> (p * pb)) & pm).bit_count()
                ones_list.append(n1)
                if row[n1]:
                    flipbits |= 1 << p
            observer(
                WindowEvent(
                    index=self._window_events,
                    set_index=set_index,
                    way=way,
                    tag=self._tags[lid],
                    wr_num=wr_num,
                    window=self._window,
                    ones=tuple(ones_list),
                    directions_before=tuple(
                        bool((dirval >> p) & 1) for p in range(k)
                    ),
                    flips=tuple(
                        bool((flipbits >> p) & 1) for p in range(k)
                    ),
                )
            )
            self._window_events += 1
        else:
            for p in range(k):
                if row[((stored >> (p * pb)) & pm).bit_count()]:
                    flipbits |= 1 << p
        if self._shared:
            self._sha[set_index] = 0
            self._shw[set_index] = 0
        else:
            self._ha[lid] = 0
            self._hwn[lid] = 0
        if self._meta:
            E[_MWR] = E[_MWR] + self._hwt[0]
        if not flipbits:
            return
        C[_DSW] += 1
        C[_PFL] += flipbits.bit_count()
        queue = self._queue
        forced = None
        if len(queue) >= self._depth:
            forced = queue.popleft()
        queue.append((set_index, way, self._tags[lid], dirval ^ flipbits))
        if forced is not None:
            C[_FDR] += 1
            self._apply_update(forced)

    # ------------------------------------------------------------------ #
    # deferred updates
    # ------------------------------------------------------------------ #
    def _drain(self, budget: int) -> None:
        applied = 0
        queue = self._queue
        while applied < budget:
            if not queue:
                return
            if self._apply_update(queue.popleft()):
                applied += 1

    def _apply_update(self, entry) -> bool:
        """Re-encode a line per a queued update; False if it went stale."""
        set_index, way, tag, new_dirval = entry
        lid = set_index * self._assoc + way
        if not self._valid[lid] or self._tags[lid] != tag:
            self._C[_PDR] += 1
            return False
        dirval = self._dirval[lid]
        flips = dirval ^ new_dirval
        if not flips:
            return True  # nothing to rewrite, but the slot was used
        E = self._E
        enc = self._data[lid] ^ self._mask_for(new_dirval)
        pb, pm = self._pbits, self._pmask
        wr_part = self._wr_part
        track = self._track
        energy = 0.0
        for p in range(self._k):
            if not (flips >> p) & 1:
                continue
            ones = ((enc >> (p * pb)) & pm).bit_count()
            energy += wr_part[ones]
            if track:
                # The partition inverted: new ones replace old ones.
                self._stored_ones += 2 * ones - pb
        self._dirval[lid] = new_dirval
        E[_RE] = E[_RE] + energy
        E[_PE] = E[_PE] + self._peri
        if self._meta and self._mwd is not None:
            E[_MWR] = E[_MWR] + self._mwd[new_dirval.bit_count()]
        return True

    # ------------------------------------------------------------------ #
    # codec helpers (integer domain)
    # ------------------------------------------------------------------ #
    def _mask_for(self, dirval: int) -> int:
        mask = self._masks.get(dirval)
        if mask is None:
            mask = 0
            pb, pm = self._pbits, self._pmask
            d, p = dirval, 0
            while d:
                if d & 1:
                    mask |= pm << (p * pb)
                d >>= 1
                p += 1
            self._masks[dirval] = mask
        return mask

    def _greedy(self, value: int, prefer_ones: bool) -> int:
        """Greedy direction word (2*count vs partition_bits — exact
        integer form of the scalar codec's float-half comparison)."""
        pb, pm = self._pbits, self._pmask
        dirval = 0
        if prefer_ones:
            for p in range(self._k):
                if 2 * ((value >> (p * pb)) & pm).bit_count() < pb:
                    dirval |= 1 << p
        else:
            for p in range(self._k):
                if 2 * ((value >> (p * pb)) & pm).bit_count() > pb:
                    dirval |= 1 << p
        return dirval

    def _dbi_new_dirval(self, dirval, after, offset, size) -> int:
        """Per-word DBI re-vote over the fully rewritten words."""
        word = self._pbytes
        first_full = (offset + word - 1) // word
        last_full = (offset + size) // word  # exclusive
        if first_full >= last_full:
            return dirval
        greedy = self._greedy(after, False)
        covered = ((1 << (last_full - first_full)) - 1) << first_full
        return (dirval & ~covered) | (greedy & covered)

    # ------------------------------------------------------------------ #
    # backing store (line-aligned integer map)
    # ------------------------------------------------------------------ #
    def _mem_write(self, addr: int, size: int, value: int) -> None:
        base = addr & -self._line
        shift = (addr - base) * 8
        smask = ((1 << (size * 8)) - 1) << shift
        self._mem[base] = (self._mem.get(base, 0) & ~smask) | (value << shift)

    # ------------------------------------------------------------------ #
    # stats flush + observability
    # ------------------------------------------------------------------ #
    def _sync(self) -> None:
        """Assign the accumulator chains into stats (exact, idempotent).

        Each slot holds the same left-fold-from-zero addition chain the
        scalar oracle built through ``EnergyStats.add``, so assignment —
        not re-accumulation — reproduces the oracle bit for bit no matter
        how often it runs.
        """
        s = self.stats
        (s.accesses, s.reads, s.writes, s.hits, s.misses, s.evictions,
         s.writebacks, s.windows_completed, s.direction_switches,
         s.partition_flips, s.pending_dropped, s.forced_drains) = self._C[:_INV]
        (s.data_read_fj, s.data_write_fj, s.fill_fj, s.writeback_fj,
         s.metadata_read_fj, s.metadata_write_fj, s.reencode_fj,
         s.logic_fj, s.peripheral_fj, s.leakage_fj) = self._E

    def _flush_probes(self) -> None:
        """Emit the aggregate ``cache.*`` and ``codec.*`` counters the
        scalar oracle emits per access (bypassed stores are write misses
        that touch neither the demand nor the fill counters)."""
        C = self._C
        bypass = self._p_bypass
        counts = [
            ("cache.accesses", C[_ACC]),
            ("cache.hits", C[_HIT]),
            ("cache.misses", C[_MISS]),
            ("cache.demand_reads", C[_RDC]),
            ("cache.demand_writes", C[_WRC] - bypass),
            ("cache.fills", C[_MISS] - bypass),
            ("cache.writebacks", C[_WBC]),
            ("cache.bypass_writes", bypass),
        ]
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
