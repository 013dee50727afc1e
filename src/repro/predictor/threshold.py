"""Analytic thresholds of the encoding-direction predictor.

This module implements, symbol for symbol, the energy algebra of
Section III-C:

* Eq. 1 / Eq. 2 — window energy of keeping the data biased toward '1'
  (read-friendly) vs biased toward '0' (write-friendly);
* Eq. 3 — the read-intensive threshold ``Th_rd`` where the two break even;
* Eq. 4 — energy ``E`` of accessing the line with its *current* bits;
* Eq. 5 — energy ``E-bar`` with every bit inverted;
* ``E_encode`` — cost of rewriting the line with re-encoded data;
* Eq. 6 — the break-even 1-bit population ``N1``; and
* the precomputed table ``Th_bit1num[Wr_num]`` the hardware predictor reads.

Equation 6 as published is the *exact* root of ``E = E-bar + E_encode``:
substituting Eq. 4/5 gives ``E - E-bar = (L - 2*N1) * E_save`` with
``E_save = (W - Wr)(E_rd0 - E_rd1) - Wr(E_wr1 - E_wr0)``, and solving
``(L - 2*N1) * E_save = N1*E_wr0 + (L - N1)*E_wr1`` for ``N1`` yields
Eq. 6 verbatim.  We implement both the closed form and a direct numeric
root (:class:`ThresholdTable` uses the numeric route because it also has to
honour the hysteresis margin ``delta_t`` discussed in the paper's draft
text, under which the switch must win by a *fraction* of the current
energy, not merely break even).

All energies are per-window femtojoules for a single partition of ``L``
bits observed over a window of ``W`` accesses of which ``Wr_num`` were
writes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.cnfet.energy import BitEnergyModel


class ThresholdError(ValueError):
    """Raised on invalid threshold-machinery arguments."""


# --------------------------------------------------------------------- #
# Eq. 1 / Eq. 2 / Eq. 3 — the access-pattern classifier
# --------------------------------------------------------------------- #
def window_energy_prefer_ones(
    w: int, th_rd: float, x: int, y: int, model: BitEnergyModel
) -> float:
    """Eq. 1: window energy when data is kept biased toward '1' bits.

    ``x``/``y`` are the average counts of '0'/'1' bits per access in the
    window (the paper assumes ``x < y`` w.l.o.g.); ``th_rd`` of the ``w``
    accesses are reads and the remainder writes.
    """
    _check_window(w, 0)
    reads = th_rd * (x * model.e_rd0 + y * model.e_rd1)
    writes = (w - th_rd) * (x * model.e_wr0 + y * model.e_wr1)
    return reads + writes


def window_energy_prefer_zeros(
    w: int, th_rd: float, x: int, y: int, model: BitEnergyModel
) -> float:
    """Eq. 2: window energy when the same data is inverted ('0'-biased)."""
    _check_window(w, 0)
    reads = th_rd * (y * model.e_rd0 + x * model.e_rd1)
    writes = (w - th_rd) * (y * model.e_wr0 + x * model.e_wr1)
    return reads + writes


def read_intensive_threshold(w: int, model: BitEnergyModel) -> float:
    """Eq. 3: the read count at which both encodings cost the same.

    ``Th_rd = W / (1 + (E_rd0 - E_rd1) / (E_wr1 - E_wr0))``.  With the
    near-balanced deltas of Table I this sits at roughly ``W / 2``.
    """
    _check_window(w, 0)
    return w / (1.0 + model.delta_read / model.delta_write)


# --------------------------------------------------------------------- #
# Eq. 4 / Eq. 5 / E_encode — per-line energies
# --------------------------------------------------------------------- #
def current_encoding_energy(
    length: int, w: int, wr_num: int, n1: float, model: BitEnergyModel
) -> float:
    """Eq. 4: projected window energy of the line's current bits.

    ``length`` is the partition width ``L`` in bits, ``n1`` the number of
    '1' bits currently stored, ``wr_num`` the writes observed in the window.
    """
    _check_line(length, n1)
    _check_window(w, wr_num)
    reads = (w - wr_num) * (n1 * model.e_rd1 + (length - n1) * model.e_rd0)
    writes = wr_num * (n1 * model.e_wr1 + (length - n1) * model.e_wr0)
    return reads + writes


def opposite_encoding_energy(
    length: int, w: int, wr_num: int, n1: float, model: BitEnergyModel
) -> float:
    """Eq. 5: projected window energy with the line's bits inverted."""
    _check_line(length, n1)
    _check_window(w, wr_num)
    reads = (w - wr_num) * (n1 * model.e_rd0 + (length - n1) * model.e_rd1)
    writes = wr_num * (n1 * model.e_wr0 + (length - n1) * model.e_wr1)
    return reads + writes


def encode_switch_energy(length: int, n1: float, model: BitEnergyModel) -> float:
    """``E_encode``: cost of writing back the inverted line.

    After inversion the ``n1`` former '1' bits are written as '0' and the
    ``L - n1`` former '0' bits as '1':
    ``E_encode = N1*E_wr0 + (L - N1)*E_wr1``.
    """
    _check_line(length, n1)
    return n1 * model.e_wr0 + (length - n1) * model.e_wr1


def e_save(w: int, wr_num: int, model: BitEnergyModel) -> float:
    """``E_save = (W - Wr)(E_rd0 - E_rd1) - Wr(E_wr1 - E_wr0)``.

    Positive for read-dominated windows (storing '1's pays off), negative
    for write-dominated windows (storing '0's pays off).
    """
    _check_window(w, wr_num)
    return (w - wr_num) * model.delta_read - wr_num * model.delta_write


def bit1_threshold_eq6(
    length: int, w: int, wr_num: int, model: BitEnergyModel
) -> float:
    """Eq. 6: the break-even '1'-bit population ``N1``.

    ``N1 = L (E_save - E_wr1) / (2 E_save - (E_wr1 - E_wr0))``

    Returns ``+inf``/``-inf`` when the denominator vanishes (the window is
    so balanced that no finite bit population makes switching pay).
    """
    _check_window(w, wr_num)
    if length < 1:
        raise ThresholdError(f"partition length must be >= 1 bit, got {length}")
    save = e_save(w, wr_num, model)
    denominator = 2.0 * save - model.delta_write
    numerator = length * (save - model.e_wr1)
    if denominator == 0.0:
        return math.copysign(math.inf, numerator) if numerator else math.inf
    return numerator / denominator


def should_switch_exact(
    length: int,
    w: int,
    wr_num: int,
    n1: int,
    model: BitEnergyModel,
    delta_t: float = 0.0,
) -> bool:
    """Ground-truth switch decision by direct energy comparison.

    Switch the encoding iff the projected saving beats the re-encode cost
    by at least the hysteresis fraction ``delta_t`` of the current energy:

    ``E - (E_bar + E_encode) > delta_t * E``

    With ``delta_t = 0`` this is exactly the paper's ``E = E_bar + E_encode``
    break-even, and therefore exactly the Eq. 6 threshold (tested in the
    property suite).
    """
    if not 0.0 <= delta_t < 1.0:
        raise ThresholdError(f"delta_t must be in [0, 1), got {delta_t}")
    current = current_encoding_energy(length, w, wr_num, n1, model)
    flipped = opposite_encoding_energy(length, w, wr_num, n1, model)
    switch_cost = encode_switch_energy(length, n1, model)
    return current - (flipped + switch_cost) > delta_t * current


# --------------------------------------------------------------------- #
# the hardware table
# --------------------------------------------------------------------- #
class SwitchRule(enum.Enum):
    """How to compare ``bit1num`` against a table entry."""

    NEVER = "never"
    ALWAYS = "always"
    BELOW = "below"  # switch when bit1num < threshold (read-intensive side)
    ABOVE = "above"  # switch when bit1num > threshold (write-intensive side)


@dataclass(frozen=True)
class ThresholdEntry:
    """One row of the predictor's ``Th_bit1num`` table."""

    rule: SwitchRule
    threshold: float = math.nan

    def switch(self, bit1num: int) -> bool:
        """Apply this entry to a measured '1'-bit population."""
        if self.rule is SwitchRule.NEVER:
            return False
        if self.rule is SwitchRule.ALWAYS:
            return True
        if self.rule is SwitchRule.BELOW:
            return bit1num < self.threshold
        return bit1num > self.threshold

    def switch_row(self, length: int) -> list[bool]:
        """:meth:`switch` of every ``bit1num`` in ``0 .. length``."""
        if self.rule is SwitchRule.NEVER:
            return [False] * (length + 1)
        if self.rule is SwitchRule.ALWAYS:
            return [True] * (length + 1)
        threshold = self.threshold
        if self.rule is SwitchRule.BELOW:
            return [n1 < threshold for n1 in range(length + 1)]
        return [n1 > threshold for n1 in range(length + 1)]


#: Built table rows, shared by every table of the same parameters: the
#: rows are pure in (length, window, model, delta_t) and immutable, and
#: a sweep builds one predictor per config over a handful of them.
_ENTRIES: dict[
    tuple[int, int, BitEnergyModel, float], tuple[ThresholdEntry, ...]
] = {}


class ThresholdTable:
    """The precomputed ``Th_bit1num[0..W]`` table of Algorithm 1.

    The paper observes that, with ``W`` and the four energies fixed, the
    Eq. 6 threshold depends only on ``Wr_num`` — so the hardware holds a
    ``W``-entry lookup table instead of computing Eq. 6 at run time.  We
    build the table by rooting the (linear-in-``N1``) benefit function
    directly, which also absorbs the ``delta_t`` hysteresis margin.
    """

    def __init__(
        self,
        length: int,
        window: int,
        model: BitEnergyModel,
        delta_t: float = 0.0,
    ) -> None:
        if length < 1:
            raise ThresholdError(f"length must be >= 1 bit, got {length}")
        if window < 1:
            raise ThresholdError(f"window must be >= 1 access, got {window}")
        if not 0.0 <= delta_t < 1.0:
            raise ThresholdError(f"delta_t must be in [0, 1), got {delta_t}")
        self.length = length
        self.window = window
        self.model = model
        self.delta_t = delta_t
        key = (length, window, model, delta_t)
        entries = _ENTRIES.get(key)
        if entries is None:
            entries = tuple(
                self._build_entry(wr_num) for wr_num in range(window + 1)
            )
            _ENTRIES[key] = entries
        self._entries = entries

    def _benefit(self, wr_num: int, n1: float) -> float:
        """``(1 - delta_t) * E - E_bar - E_encode`` (switch iff positive)."""
        current = current_encoding_energy(
            self.length, self.window, wr_num, n1, self.model
        )
        flipped = opposite_encoding_energy(
            self.length, self.window, wr_num, n1, self.model
        )
        switch_cost = encode_switch_energy(self.length, n1, self.model)
        return (1.0 - self.delta_t) * current - flipped - switch_cost

    def _build_entry(self, wr_num: int) -> ThresholdEntry:
        at_zero = self._benefit(wr_num, 0.0)
        at_full = self._benefit(wr_num, float(self.length))
        if at_zero <= 0.0 and at_full <= 0.0:
            return ThresholdEntry(SwitchRule.NEVER)
        if at_zero > 0.0 and at_full > 0.0:
            return ThresholdEntry(SwitchRule.ALWAYS)
        # The benefit is linear in N1, so it has exactly one root.
        root = self.length * at_zero / (at_zero - at_full)
        if at_zero > 0.0:
            # Positive (beneficial) side is small N1: read-intensive window.
            return ThresholdEntry(SwitchRule.BELOW, root)
        return ThresholdEntry(SwitchRule.ABOVE, root)

    def entry(self, wr_num: int) -> ThresholdEntry:
        """Table row for a window that observed ``wr_num`` writes."""
        if not 0 <= wr_num <= self.window:
            raise ThresholdError(
                f"wr_num must be in [0, {self.window}], got {wr_num}"
            )
        return self._entries[wr_num]

    def should_switch(self, wr_num: int, bit1num: int) -> bool:
        """Table-driven switch decision (what the hardware evaluates)."""
        if not 0 <= bit1num <= self.length:
            raise ThresholdError(
                f"bit1num must be in [0, {self.length}], got {bit1num}"
            )
        return self.entry(wr_num).switch(bit1num)

    def __len__(self) -> int:
        return len(self._entries)


# --------------------------------------------------------------------- #
# argument checks
# --------------------------------------------------------------------- #
def _check_window(w: int, wr_num: int) -> None:
    if w < 1:
        raise ThresholdError(f"window must be >= 1 access, got {w}")
    if not 0 <= wr_num <= w:
        raise ThresholdError(f"wr_num must be in [0, {w}], got {wr_num}")


def _check_line(length: int, n1: float) -> None:
    if length < 1:
        raise ThresholdError(f"length must be >= 1 bit, got {length}")
    if not 0 <= n1 <= length:
        raise ThresholdError(f"n1 must be in [0, {length}], got {n1}")
