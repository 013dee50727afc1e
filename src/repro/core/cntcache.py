"""The CNT-Cache simulator: cache + codec + predictor + FIFOs + energy.

This class realises the architecture of Fig. 1 on top of the substrate
cache.  The substrate stores *logical* bytes; each line's sidecar carries
the scheme state (direction word + window history), and every array event
is metered through the CNFET per-bit energy model in the *encoded* domain —
so the reported femtojoules depend on exactly the bits the array would
physically toggle, including the H&D metadata columns.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.cache.cache import ArrayEvent, EventKind, SetAssociativeCache
from repro.cache.line import CacheLine
from repro.cache.memory import MainMemory
from repro.cnfet.energy import BitEnergyModel
from repro.core.config import CNTCacheConfig
from repro.core.policy import EncodingPolicy, make_policy
from repro.core.stats import ENERGY_COMPONENTS, EnergyStats
from repro.core.update_queue import PendingUpdate, UpdateQueue
from repro.encoding import bits
from repro.encoding.base import DirectionWord
from repro.obs import trace
from repro.predictor.history import LineHistory
from repro.trace.record import Access


class SimulationError(RuntimeError):
    """Raised when the simulator reaches an inconsistent state."""


@dataclass
class LineState:
    """Per-line sidecar: the 'H&D' extension of the cache line."""

    directions: DirectionWord
    history: LineHistory | None


@dataclass(frozen=True)
class WindowEvent:
    """One completed prediction window, as observed by analysis hooks.

    Emitted (when :attr:`CNTCache.window_observer` is set) right after
    Algorithm 1 ran on a line whose window just completed.  ``ones`` holds
    the per-partition '1' populations of the *stored* data the bit counter
    saw; ``flips`` is the predictor's decision.
    """

    index: int  # running event number
    set_index: int
    way: int
    tag: int
    wr_num: int
    window: int
    ones: tuple[int, ...]
    directions_before: DirectionWord
    flips: tuple[bool, ...]


class CNTCache:
    """A simulated CNFET L1 D-Cache under one encoding scheme.

    Parameters
    ----------
    config:
        Geometry + scheme + energy model.
    memory:
        Optional shared backing store (one is created if omitted).

    Use :meth:`access` per trace record, or :meth:`run` for a whole trace;
    read the results from :attr:`stats`.
    """

    def __init__(
        self, config: CNTCacheConfig, memory: MainMemory | None = None
    ) -> None:
        self.config = config
        self.memory = memory if memory is not None else MainMemory()
        self.policy: EncodingPolicy = make_policy(config)
        self.codec = self.policy.codec
        self.cache = SetAssociativeCache(
            size=config.size,
            assoc=config.assoc,
            line_size=config.line_size,
            memory=self.memory,
            replacement=config.replacement,
            seed=config.seed,
            write_through=config.write_through,
            write_allocate=config.write_allocate,
        )
        self.queue = UpdateQueue(config.fifo_depth)
        self.stats = EnergyStats()
        self.model: BitEnergyModel = config.energy
        # Physical width of each history counter (energy accounting); for
        # cnt-shared the *storage* per line is amortised (see config) but
        # the counters themselves keep full width.
        if config.uses_predictor:
            from repro.predictor.history import history_bits

            self._history_bits_each = history_bits(config.window) // 2
        else:
            self._history_bits_each = 0
        # Per-set history counters for the cnt-shared extension.
        self._shared_histories = (
            [LineHistory(config.window) for _ in range(config.n_sets)]
            if config.shared_history
            else None
        )
        #: Optional analysis hook: called with a WindowEvent whenever a
        #: line's prediction window completes (see repro.analysis).
        self.window_observer: Callable[[WindowEvent], None] | None = None
        self._window_events = 0
        # Leakage accounting (extension A9): live stored-one population of
        # the whole data array, updated incrementally; invalid lines count
        # as all-zero cells.
        self._track_content = config.leakage is not None
        self._stored_ones = 0
        self._total_bits = config.size * 8
        # Telescoping trace attribution: stat totals at the last emitted
        # trace event.  Starting from zeros guarantees the per-event
        # energy deltas sum to stats.total_fj at any sampling stride
        # (see repro.obs.trace).
        self._trace_mark: dict[str, float] = dict.fromkeys(
            ("direction_switches", "partition_flips", "windows_completed")
            + ENERGY_COMPONENTS,
            0.0,
        )

    # ------------------------------------------------------------------ #
    # demand path
    # ------------------------------------------------------------------ #
    def access(self, access: Access) -> bytes:
        """Apply one valued access; returns the logical data read/written."""
        chunks: list[bytes] = []
        consumed = 0
        for part_addr, part_size in self._split(access.addr, access.size):
            payload = access.data[consumed : consumed + part_size]
            chunks.append(self._access_one(access.is_write, part_addr, payload))
            consumed += part_size
        return b"".join(chunks)

    def run(
        self, trace: Iterable[Access], finalize: bool = True
    ) -> EnergyStats:
        """Replay a whole trace; optionally drain pending updates at the end."""
        for access in trace:
            self.access(access)
        if finalize:
            self.finalize()
        return self.stats

    def finalize(self) -> None:
        """Drain every pending re-encode, charging its write energy."""
        for update in self.queue.drain_all():
            self._apply_update(update)
        if trace.ACTIVE:
            # The residual event: energy accumulated since the last
            # sampled access (skipped accesses + the drain above), so
            # per-event energies telescope to stats.total_fj exactly.
            trace.emit(
                "finalize",
                index=self.stats.accesses,
                scheme=self.config.scheme,
                pending_dropped=self.stats.pending_dropped,
                **self._trace_deltas(),
            )

    def preload(self, addr: int, payload: bytes) -> None:
        """Install initial memory contents (program image) before a run.

        Fills triggered during the run then fetch true line contents
        instead of zero-filled pages.  Must be called before :meth:`run`.
        """
        self.memory.poke(addr, payload)

    def preload_all(self, preloads: Iterable[tuple[int, bytes]]) -> None:
        """Install a whole initial memory image (see :meth:`preload`)."""
        for addr, payload in preloads:
            self.memory.poke(addr, payload)

    # ------------------------------------------------------------------ #
    # inspection helpers (tests, verification, reports)
    # ------------------------------------------------------------------ #
    def logical_line(self, set_index: int, way: int) -> bytes:
        """Program-visible contents of a resident line."""
        return bytes(self.cache.line_at(set_index, way).data)

    def stored_line(self, set_index: int, way: int) -> bytes:
        """Array contents of a resident line (encoded domain)."""
        line = self.cache.line_at(set_index, way)
        state = self._state(line)
        return self.codec.encode(bytes(line.data), state.directions)

    def directions_of(self, set_index: int, way: int) -> DirectionWord:
        """Current direction word of a resident line."""
        return self._state(self.cache.line_at(set_index, way)).directions

    @property
    def pending_updates(self) -> int:
        """Re-encodes currently waiting in the FIFOs."""
        return len(self.queue)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _split(self, addr: int, size: int) -> list[tuple[int, int]]:
        ranges: list[tuple[int, int]] = []
        line_size = self.config.line_size
        position, remaining = addr, size
        while remaining > 0:
            line_end = (position // line_size + 1) * line_size
            chunk = min(remaining, line_end - position)
            ranges.append((position, chunk))
            position += chunk
            remaining -= chunk
        return ranges

    def _access_one(self, is_write: bool, addr: int, payload: bytes) -> bytes:
        result = self.cache.access(
            is_write, addr, len(payload), payload if payload else None
        )
        self.stats.accesses += 1
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        if result.hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        if result.victim is not None:
            self.stats.evictions += 1
            if result.victim.dirty:
                self.stats.writebacks += 1
            if self._track_content:
                victim_state = result.victim.sidecar
                directions = (
                    victim_state.directions
                    if isinstance(victim_state, LineState)
                    else self.codec.neutral_directions()
                )
                self._stored_ones -= bits.popcount(
                    self.codec.encode(result.victim.data, directions)
                )

        for event in result.events:
            self._process_event(event)

        # Value-independent peripheral energy of the demand activation.
        self.stats.add("peripheral_fj", self.config.peripheral_fj_per_access)

        # Per-access encoder datapath energy (absent in the plain baseline).
        if self.config.scheme != "baseline":
            self.stats.add("logic_fj", self.config.encoder_logic_fj)

        # Window bookkeeping for adaptive schemes.  Bypassed writes
        # (no-write-allocate misses, way < 0) never touched the array.
        if result.way >= 0:
            line = self.cache.line_at(result.set_index, result.way)
            state = self._state(line)
            history = self._history_for(result.set_index, state)
            if history is not None:
                self._record_history(
                    line, state, is_write, result.set_index, result.way,
                    history,
                )

        # Idle-slot drains of the deferred-update FIFOs.
        self._drain(self.config.drain_per_access)

        # Static energy of this cycle (extension A9).
        if self.config.leakage is not None:
            self.stats.add(
                "leakage_fj",
                self.config.leakage.cycle_energy(
                    self._stored_ones, self._total_bits - self._stored_ones
                ),
            )

        if trace.ACTIVE:
            self._trace_access(result, is_write)

        return result.data

    def _trace_deltas(self) -> dict:
        """Energy/decision deltas since the last emitted trace event.

        Advances the telescoping mark, so consecutive emitted events
        partition the run's totals exactly (floating-point subtraction
        of nearby running sums is exact here to well below the 1e-6 fJ
        acceptance bound).
        """
        mark = self._trace_mark
        stats = self.stats
        energy: dict[str, float] = {}
        for name in ENERGY_COMPONENTS:
            value = getattr(stats, name)
            delta = value - mark[name]
            if delta:
                energy[name] = delta
            mark[name] = value
        decisions: dict[str, int] = {}
        for name in (
            "direction_switches", "partition_flips", "windows_completed"
        ):
            value = getattr(stats, name)
            delta = int(value - mark[name])
            if delta:
                decisions[name] = delta
            mark[name] = value
        return {"energy": energy, **decisions}

    def _trace_access(self, result, is_write: bool) -> None:
        """Emit one sampled demand-access trace event (index-based)."""
        index = self.stats.accesses - 1
        if index % trace.EVERY:
            return
        fields = self._trace_deltas()
        directions = None
        if result.way >= 0:
            line = self.cache.line_at(result.set_index, result.way)
            state = line.sidecar
            if isinstance(state, LineState):
                value = 0
                for position, flag in enumerate(state.directions):
                    value |= int(flag) << position
                directions = value
        trace.emit(
            "access",
            index=index,
            set=result.set_index,
            way=result.way,
            hit=result.hit,
            write=is_write,
            scheme=self.config.scheme,
            directions=directions,
            every=trace.EVERY,
            **fields,
        )

    def _process_event(self, event: ArrayEvent) -> None:
        kind = event.kind
        if kind is EventKind.FILL:
            self._on_fill(event)
        elif kind is EventKind.WRITEBACK:
            self._on_writeback(event)
        elif kind is EventKind.DATA_READ:
            self._on_data_read(event)
        elif kind is EventKind.DATA_WRITE:
            self._on_data_write(event)
        else:  # pragma: no cover - exhaustive over EventKind
            raise SimulationError(f"unhandled event kind {kind}")

    def _on_fill(self, event: ArrayEvent) -> None:
        line = event.line
        assert line is not None
        # Any pending update for the way this line replaced is now stale.
        self.stats.pending_dropped += self.queue.discard_line(
            event.set_index, event.way
        )
        directions = self.policy.initial_directions(event.payload)
        history = (
            LineHistory(self.config.window)
            if self.policy.uses_history and not self.config.shared_history
            else None
        )
        line.sidecar = LineState(directions=directions, history=history)
        stored = self.codec.encode(event.payload, directions)
        ones = bits.popcount(stored)
        self.stats.add(
            "fill_fj", self.model.write_energy(ones, len(stored) * 8 - ones)
        )
        if self._track_content:
            self._stored_ones += ones
        self.stats.add("peripheral_fj", self.config.peripheral_fj_per_access)
        self._charge_metadata_write(line.sidecar, full=True)

    def _on_writeback(self, event: ArrayEvent) -> None:
        state = event.sidecar
        directions = (
            state.directions
            if isinstance(state, LineState)
            else self.codec.neutral_directions()
        )
        stored = self.codec.encode(event.payload, directions)
        ones = bits.popcount(stored)
        self.stats.add(
            "writeback_fj",
            self.model.read_energy(ones, len(stored) * 8 - ones),
        )
        self.stats.add("peripheral_fj", self.config.peripheral_fj_per_access)
        if isinstance(state, LineState):
            self._charge_metadata_read(
                state, self._history_for(event.set_index, state)
            )

    def _on_data_read(self, event: ArrayEvent) -> None:
        line = event.line
        assert line is not None
        state = self._state(line)
        if self.config.access_granularity == "line":
            # Full-row activation: every column of the line swings its
            # bitline — the granularity the paper's Eq. 4/5 charge.
            stored = self.codec.encode(bytes(line.data), state.directions)
        else:
            stored = bits.encoded_slice(
                bytes(line.data), state.directions, event.offset, event.size
            )
        ones = bits.popcount(stored)
        self.stats.add(
            "data_read_fj",
            self.model.read_energy(ones, len(stored) * 8 - ones),
        )
        self._charge_metadata_read(
            state, self._history_for(event.set_index, state)
        )

    def _on_data_write(self, event: ArrayEvent) -> None:
        line = event.line
        assert line is not None
        state = self._state(line)
        logical_after = bytes(line.data)
        old_directions = state.directions
        new_directions = self.policy.write_directions(
            logical_after, state.directions, event.offset, event.size
        )
        directions_changed = new_directions != state.directions
        if directions_changed:
            state.directions = new_directions
        if self._track_content:
            assert event.payload_before is not None
            logical_before = (
                logical_after[: event.offset]
                + event.payload_before
                + logical_after[event.offset + event.size :]
            )
            self._stored_ones += bits.popcount(
                self.codec.encode(logical_after, new_directions)
            ) - bits.popcount(
                self.codec.encode(logical_before, old_directions)
            )
        if self.config.access_granularity == "line":
            # Full-row write: the whole updated line is driven back into
            # the row (Eq. 4/5's write term covers all L bits).
            stored = self.codec.encode(logical_after, state.directions)
        else:
            stored = bits.encoded_slice(
                logical_after, state.directions, event.offset, event.size
            )
        ones = bits.popcount(stored)
        self.stats.add(
            "data_write_fj",
            self.model.write_energy(ones, len(stored) * 8 - ones),
        )
        self._charge_metadata_read(
            state, self._history_for(event.set_index, state)
        )
        if directions_changed:
            self._charge_metadata_write(state, full=False)

    # ------------------------------------------------------------------ #
    # history window + prediction
    # ------------------------------------------------------------------ #
    def _history_for(
        self, set_index: int, state: LineState
    ) -> LineHistory | None:
        """The history counters governing a line (per line or per set)."""
        if self._shared_histories is not None:
            return self._shared_histories[set_index]
        return state.history

    def _record_history(
        self,
        line: CacheLine,
        state: LineState,
        is_write: bool,
        set_index: int,
        way: int,
        history: LineHistory,
    ) -> None:
        window_done = history.record(is_write)
        # The incremented counters are written back to the H bits.
        self._charge_history_write(history)
        if not window_done:
            return
        self.stats.windows_completed += 1
        self.stats.add("logic_fj", self.config.predictor_logic_fj)
        stored = self.codec.encode(bytes(line.data), state.directions)
        outcome = self.policy.window_outcome(
            stored, state.directions, history.wr_num
        )
        if self.window_observer is not None and outcome is not None:
            self.window_observer(
                WindowEvent(
                    index=self._window_events,
                    set_index=set_index,
                    way=way,
                    tag=line.tag,
                    wr_num=history.wr_num,
                    window=self.config.window,
                    ones=tuple(self.codec.ones_per_partition(stored)),
                    directions_before=state.directions,
                    flips=outcome.flips,
                )
            )
            self._window_events += 1
        history.reset()
        self._charge_history_write(history)
        if outcome is None or not outcome.any_flip:
            return
        self.stats.direction_switches += 1
        self.stats.partition_flips += sum(outcome.flips)
        forced = self.queue.push(
            PendingUpdate(
                set_index=set_index,
                way=way,
                tag=line.tag,
                new_directions=outcome.new_directions,
            )
        )
        if forced is not None:
            self.stats.forced_drains += 1
            self._apply_update(forced)

    # ------------------------------------------------------------------ #
    # deferred updates
    # ------------------------------------------------------------------ #
    def _drain(self, budget: int) -> None:
        applied = 0
        while applied < budget:
            update = self.queue.pop()
            if update is None:
                return
            if self._apply_update(update):
                applied += 1

    def _apply_update(self, update: PendingUpdate) -> bool:
        """Re-encode a line per a queued update; False if it went stale."""
        line = self.cache.line_at(update.set_index, update.way)
        if not line.valid or line.tag != update.tag:
            self.stats.pending_dropped += 1
            return False
        state = self._state(line)
        flips = tuple(
            old != new
            for old, new in zip(state.directions, update.new_directions)
        )
        if not any(flips):
            return True  # nothing to rewrite, but the slot was used
        logical = bytes(line.data)
        width = self.codec.partition_bytes
        energy = 0.0
        for index, flipped in enumerate(flips):
            if not flipped:
                continue
            stored = bits.encoded_slice(
                logical,
                update.new_directions,
                index * width,
                width,
            )
            ones = bits.popcount(stored)
            energy += self.model.write_energy(ones, width * 8 - ones)
            if self._track_content:
                # The partition inverted: new ones replace old ones.
                self._stored_ones += 2 * ones - width * 8
        state.directions = update.new_directions
        self.stats.add("reencode_fj", energy)
        self.stats.add("peripheral_fj", self.config.peripheral_fj_per_access)
        self._charge_metadata_write(state, full=False)
        return True

    # ------------------------------------------------------------------ #
    # metadata energy
    # ------------------------------------------------------------------ #
    def _metadata_words(
        self, state: LineState, history: LineHistory | None
    ) -> tuple[int, int]:
        """(ones, total_bits) of the metadata columns an access touches."""
        value = 0
        width = len(state.directions) if state.directions else 0
        total = self.config.direction_bits_per_line
        for position, flag in enumerate(state.directions):
            value |= int(flag) << position
        if history is not None:
            counter_bits = self._history_bits_each
            mask = (1 << counter_bits) - 1
            value |= (history.a_num & mask) << width
            width += counter_bits
            value |= (history.wr_num & mask) << width
            total += 2 * counter_bits
        return value.bit_count(), total

    def _charge_metadata_read(
        self, state: LineState, history: LineHistory | None
    ) -> None:
        if not self.config.account_metadata:
            return
        ones, total = self._metadata_words(state, history)
        if total == 0:
            return
        self.stats.add(
            "metadata_read_fj", self.model.read_energy(ones, total - ones)
        )

    def _charge_metadata_write(self, state: LineState, full: bool) -> None:
        """Charge writing the D bits (and H bits when ``full``)."""
        if not self.config.account_metadata:
            return
        direction_bits = self.config.direction_bits_per_line
        if direction_bits == 0 and not full:
            return
        value = 0
        for position, flag in enumerate(state.directions):
            value |= int(flag) << position
        ones = value.bit_count()
        total = direction_bits
        if full and state.history is not None:
            counter_bits = self._history_bits_each
            mask = (1 << counter_bits) - 1
            history_value = (state.history.a_num & mask) | (
                (state.history.wr_num & mask) << counter_bits
            )
            ones += history_value.bit_count()
            total += 2 * counter_bits
        if total == 0:
            return
        self.stats.add(
            "metadata_write_fj", self.model.write_energy(ones, total - ones)
        )

    def _charge_history_write(self, history: LineHistory) -> None:
        if not self.config.account_metadata:
            return
        counter_bits = self._history_bits_each
        if counter_bits == 0:
            return
        mask = (1 << counter_bits) - 1
        value = (history.a_num & mask) | ((history.wr_num & mask) << counter_bits)
        ones = value.bit_count()
        self.stats.add(
            "metadata_write_fj",
            self.model.write_energy(ones, 2 * counter_bits - ones),
        )

    @staticmethod
    def _state(line: CacheLine) -> LineState:
        state = line.sidecar
        if not isinstance(state, LineState):
            raise SimulationError(
                "cache line has no CNT sidecar - was it filled outside CNTCache?"
            )
        return state
