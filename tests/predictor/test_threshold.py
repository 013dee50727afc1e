"""Unit tests for the Eq. 1-6 threshold machinery."""

import math

import pytest

from repro.api import make_cache
from repro.cnfet.energy import BitEnergyModel
from repro.core.config import CNTCacheConfig
from repro.core.policy import make_policy
from repro.predictor.threshold import (
    SwitchRule,
    ThresholdEntry,
    ThresholdError,
    ThresholdTable,
    bit1_threshold_eq6,
    current_encoding_energy,
    e_save,
    encode_switch_energy,
    opposite_encoding_energy,
    read_intensive_threshold,
    should_switch_exact,
    window_energy_prefer_ones,
    window_energy_prefer_zeros,
)


class TestEq123:
    def test_th_rd_roughly_half_window(self, model):
        # Table I has near-balanced deltas, so Th_rd ~ W/2 (paper Sec. III).
        assert read_intensive_threshold(16, model) == pytest.approx(8.0, abs=0.1)

    def test_th_rd_scales_with_window(self, model):
        assert read_intensive_threshold(64, model) == pytest.approx(
            4 * read_intensive_threshold(16, model)
        )

    def test_window_energies_break_even_at_th_rd(self, model):
        """At Th_rd reads, Eq. 1 equals Eq. 2 by construction."""
        w, x, y = 16, 10, 54
        th = read_intensive_threshold(w, model)
        prefer_ones = window_energy_prefer_ones(w, th, x, y, model)
        prefer_zeros = window_energy_prefer_zeros(w, th, x, y, model)
        assert prefer_ones == pytest.approx(prefer_zeros, rel=1e-9)

    def test_read_heavy_window_prefers_ones(self, model):
        w, x, y = 16, 10, 54  # y ones-biased data
        reads = 15.0
        assert window_energy_prefer_ones(w, reads, x, y, model) < (
            window_energy_prefer_zeros(w, reads, x, y, model)
        )

    def test_write_heavy_window_prefers_zeros(self, model):
        w, x, y = 16, 10, 54
        reads = 1.0
        assert window_energy_prefer_zeros(w, reads, x, y, model) < (
            window_energy_prefer_ones(w, reads, x, y, model)
        )

    def test_rejects_bad_window(self, model):
        with pytest.raises(ThresholdError):
            read_intensive_threshold(0, model)


class TestEq456:
    def test_e_save_sign(self, model):
        assert e_save(16, 0, model) > 0  # all reads: storing 1s pays
        assert e_save(16, 16, model) < 0  # all writes: storing 0s pays

    def test_eq4_eq5_swap_roles(self, model):
        """E(n1) under one encoding equals E-bar(L-n1) under the other."""
        length, w, wr = 512, 16, 4
        for n1 in (0, 100, 256, 512):
            assert current_encoding_energy(
                length, w, wr, n1, model
            ) == pytest.approx(
                opposite_encoding_energy(length, w, wr, length - n1, model)
            )

    def test_encode_switch_energy_formula(self, model):
        assert encode_switch_energy(512, 100, model) == pytest.approx(
            100 * model.e_wr0 + 412 * model.e_wr1
        )

    def test_eq6_is_exact_breakeven(self, model):
        """Eq. 6's N1 solves E = E-bar + E_encode exactly."""
        length, w = 512, 16
        for wr in (0, 2, 5, 11, 16):
            n1 = bit1_threshold_eq6(length, w, wr, model)
            if not math.isfinite(n1):
                continue
            lhs = current_encoding_energy(length, w, wr, n1, model)
            rhs = opposite_encoding_energy(
                length, w, wr, n1, model
            ) + encode_switch_energy(length, n1, model)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_should_switch_requires_net_benefit(self, model):
        # Mostly-zero line in an all-read window: switching clearly pays.
        assert should_switch_exact(512, 16, 0, 10, model)
        # Mostly-one line in an all-read window: already optimal.
        assert not should_switch_exact(512, 16, 0, 500, model)

    def test_hysteresis_blocks_marginal_switches(self, model):
        length, w, wr = 512, 16, 2
        threshold = bit1_threshold_eq6(length, w, wr, model)
        marginal = int(threshold) - 1  # just beneficial at dT=0
        assert should_switch_exact(length, w, wr, marginal, model, delta_t=0.0)
        assert not should_switch_exact(
            length, w, wr, marginal, model, delta_t=0.3
        )

    def test_rejects_bad_delta_t(self, model):
        with pytest.raises(ThresholdError):
            should_switch_exact(512, 16, 2, 10, model, delta_t=1.0)


class TestThresholdTable:
    def test_length(self, model):
        table = ThresholdTable(512, 16, model)
        assert len(table) == 17  # wr_num in [0, W]

    def test_read_side_rule_below(self, model):
        table = ThresholdTable(512, 16, model)
        assert table.entry(0).rule is SwitchRule.BELOW

    def test_write_side_rule_above(self, model):
        table = ThresholdTable(512, 16, model)
        assert table.entry(16).rule is SwitchRule.ABOVE

    def test_balanced_window_never_switches(self, model):
        table = ThresholdTable(512, 16, model)
        assert table.entry(8).rule is SwitchRule.NEVER

    def test_matches_eq6_at_zero_hysteresis(self, model):
        table = ThresholdTable(512, 16, model)
        for wr in (0, 1, 2, 5, 11, 14, 16):
            entry = table.entry(wr)
            if entry.rule in (SwitchRule.BELOW, SwitchRule.ABOVE):
                assert entry.threshold == pytest.approx(
                    bit1_threshold_eq6(512, 16, wr, model), rel=1e-9
                )

    def test_matches_exact_decision_everywhere(self, model):
        table = ThresholdTable(512, 16, model)
        for wr in range(17):
            for n1 in range(0, 513, 7):
                assert table.should_switch(wr, n1) == should_switch_exact(
                    512, 16, wr, n1, model
                )

    def test_rejects_out_of_range_wr(self, model):
        table = ThresholdTable(512, 16, model)
        with pytest.raises(ThresholdError):
            table.entry(17)

    def test_rejects_out_of_range_bit1num(self, model):
        table = ThresholdTable(512, 16, model)
        with pytest.raises(ThresholdError):
            table.should_switch(0, 513)

    def test_hysteresis_shrinks_switch_region(self, model):
        plain = ThresholdTable(512, 16, model, delta_t=0.0)
        damped = ThresholdTable(512, 16, model, delta_t=0.2)
        switched_plain = sum(
            plain.should_switch(wr, n1)
            for wr in range(17)
            for n1 in range(0, 513, 16)
        )
        switched_damped = sum(
            damped.should_switch(wr, n1)
            for wr in range(17)
            for n1 in range(0, 513, 16)
        )
        assert switched_damped < switched_plain

    @pytest.mark.parametrize("delta_t", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("window", [2, 16, 64])
    def test_switch_rows_equal_should_switch(self, model, window, delta_t):
        table = ThresholdTable(64, window, model, delta_t=delta_t)
        rules = set()
        for wr in range(window + 1):
            entry = table.entry(wr)
            rules.add(entry.rule)
            assert entry.switch_row(64) == [
                table.should_switch(wr, n1) for n1 in range(65)
            ]
        if delta_t == 0.0 and window == 16:
            assert rules == set(SwitchRule) - {SwitchRule.ALWAYS}

    def test_switch_rows_of_every_rule(self):
        assert ThresholdEntry(SwitchRule.NEVER).switch_row(3) == [False] * 4
        assert ThresholdEntry(SwitchRule.ALWAYS).switch_row(3) == [True] * 4
        assert ThresholdEntry(SwitchRule.BELOW, 1.5).switch_row(3) == [
            True, True, False, False,
        ]
        assert ThresholdEntry(SwitchRule.ABOVE, 2.0).switch_row(3) == [
            False, False, False, True,
        ]

    @pytest.mark.parametrize("scheme", ["cnt", "cnt-quant"])
    @pytest.mark.parametrize("delta_t", [0.0, 0.2])
    @pytest.mark.parametrize("window", [4, 16])
    def test_the_array_engine_rows_equal_should_switch(
        self, scheme, delta_t, window
    ):
        # The engine's Th_bit1num matrix, indexed by the exact write
        # count: quantised counts map through effective_wr_num.
        config = CNTCacheConfig(scheme=scheme, window=window, delta_t=delta_t)
        cache = make_cache(config=config)
        policy = make_policy(config)
        table = policy.predictor.table
        bits = config.line_bits // config.partitions
        assert cache._th == [
            [
                table.should_switch(policy.effective_wr_num(wr), n1)
                for n1 in range(bits + 1)
            ]
            for wr in range(window + 1)
        ]
