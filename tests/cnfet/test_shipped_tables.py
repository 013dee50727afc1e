"""Every energy table the repository ships keeps the Table I physics.

``BitEnergyModel.__post_init__`` already rejects a non-positive energy
and an inverted read or write order.  These asserts pin the rest of what
makes the adaptive encoder meaningful (PAPER.md, Section III):

* every energy is finite;
* the write asymmetry ``E_wr1/E_wr0`` sits in the technology band: the
  abstract's "almost 10X" for CNFET cells, near-symmetric for CMOS;
* the read and write deltas balance within 25%, which keeps Eq. 3's
  ``Th_rd`` at roughly ``W/2``;
* every energy rises strictly with Vdd over the 0.60-1.20 V grid of
  experiment ``f9`` (dynamic energy scales like CV^2).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cnfet.corners import (
    Corner,
    cmos_reference_model,
    scale_to_corner,
    scale_to_vdd,
)
from repro.cnfet.energy import BitEnergyModel
from repro.cnfet.sram import Sram6TCell
from repro.core.presets import preset, preset_names

VDD_GRID = tuple(round(0.60 + 0.05 * step, 2) for step in range(13))
CNFET_BAND = (5.0, 20.0)
CMOS_BAND = (1.0, 2.0)
COMPONENTS = ("e_rd0", "e_rd1", "e_wr0", "e_wr1")


def assert_table(model, band=CNFET_BAND):
    assert all(math.isfinite(getattr(model, name)) for name in COMPONENTS)
    low, high = band
    assert low <= model.write_asymmetry <= high, model
    assert abs(model.delta_read / model.delta_write - 1.0) <= 0.25, model


def assert_vdd_sweep(model_at, band=CNFET_BAND):
    models = [model_at(vdd) for vdd in VDD_GRID]
    for model in models:
        assert_table(model, band)
    for name in COMPONENTS:
        values = [getattr(model, name) for model in models]
        assert all(a < b for a, b in zip(values, values[1:])), (name, values)


@pytest.mark.parametrize("corner", list(Corner), ids=lambda c: c.name)
def test_paper_table1_at_every_corner_over_the_vdd_grid(corner):
    at_corner = scale_to_corner(BitEnergyModel.paper_table1(), corner)
    assert_vdd_sweep(lambda vdd: scale_to_vdd(at_corner, vdd))


def test_cell_derived_table():
    assert_table(BitEnergyModel.from_cell(Sram6TCell()))


@pytest.mark.parametrize("name", preset_names())
def test_every_preset(name):
    assert_table(preset(name).energy)


def test_cmos_reference_over_the_vdd_grid():
    assert_vdd_sweep(cmos_reference_model, CMOS_BAND)


@settings(max_examples=60)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    vdd=st.floats(min_value=0.3, max_value=1.4),
)
def test_uniform_scaling_preserves_all_invariants(scale, vdd):
    # Corner and Vdd scaling multiply all four energies alike, so the
    # asymmetry and the delta balance survive any factor.
    assert_table(scale_to_vdd(BitEnergyModel.paper_table1().scaled(scale), vdd))
