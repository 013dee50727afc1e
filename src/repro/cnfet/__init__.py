"""CNFET device and SRAM-cell energy models.

This package rebuilds the circuit-level substrate of the CNT-Cache paper:
the carbon-nanotube FET (CNFET) device model, a single-ended 6T SRAM cell
built from those devices, and the per-bit read/write energy table
(``Table I`` of the paper, referenced as ``tab:rw-analysis``) that the
adaptive-encoding algorithm consumes.

The public surface is:

* :class:`~repro.cnfet.device.CNFETDevice` — device geometry/electrical model.
* :class:`~repro.cnfet.sram.Sram6TCell` — cell-level energy derivation.
* :class:`~repro.cnfet.energy.BitEnergyModel` — the four per-bit energies
  ``E_rd0``, ``E_rd1``, ``E_wr0``, ``E_wr1`` (in femtojoules) plus helpers.
* :mod:`~repro.cnfet.corners` — process corners, supply scaling and the CMOS
  reference cell used in the Vdd-sweep experiment.

All energies in this package are expressed in **femtojoules (fJ)**.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cnfet.corners import (
        CMOS_REFERENCE,
        Corner,
        cmos_reference_model,
        scale_to_corner,
        scale_to_vdd,
    )
    from repro.cnfet.device import CNFETDevice
    from repro.cnfet.energy import BitEnergyModel, render_table1
    from repro.cnfet.leakage import LeakageModel
    from repro.cnfet.sram import Sram6TCell, SramArrayGeometry
    from repro.cnfet.timing import AccessTiming, SramTimingModel

__all__ = [
    "CNFETDevice",
    "Sram6TCell",
    "SramArrayGeometry",
    "BitEnergyModel",
    "render_table1",
    "SramTimingModel",
    "AccessTiming",
    "LeakageModel",
    "Corner",
    "scale_to_corner",
    "scale_to_vdd",
    "cmos_reference_model",
    "CMOS_REFERENCE",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "CNFETDevice": "repro.cnfet.device",
        "Sram6TCell": "repro.cnfet.sram",
        "SramArrayGeometry": "repro.cnfet.sram",
        "BitEnergyModel": "repro.cnfet.energy",
        "render_table1": "repro.cnfet.energy",
        "SramTimingModel": "repro.cnfet.timing",
        "AccessTiming": "repro.cnfet.timing",
        "LeakageModel": "repro.cnfet.leakage",
        "Corner": "repro.cnfet.corners",
        "scale_to_corner": "repro.cnfet.corners",
        "scale_to_vdd": "repro.cnfet.corners",
        "cmos_reference_model": "repro.cnfet.corners",
        "CMOS_REFERENCE": "repro.cnfet.corners",
    },
)
