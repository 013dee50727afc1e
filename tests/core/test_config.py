"""Unit tests for CNTCacheConfig."""

import pytest

from repro.api import make_cache
from repro.core.config import MAX_WINDOW, SCHEMES, CNTCacheConfig, ConfigError
from repro.trace.record import Access


class TestValidation:
    def test_defaults_valid(self):
        config = CNTCacheConfig()
        assert config.scheme == "cnt"
        assert config.n_sets == 128
        assert config.n_lines == 512

    def test_all_schemes_constructible(self):
        for scheme in SCHEMES:
            CNTCacheConfig(scheme=scheme)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ConfigError):
            CNTCacheConfig(scheme="magic")

    def test_rejects_indivisible_geometry(self):
        with pytest.raises(ConfigError):
            CNTCacheConfig(size=1000)

    def test_rejects_window_one(self):
        with pytest.raises(ConfigError):
            CNTCacheConfig(window=1)

    def test_rejects_window_above_eight_bit_counters(self):
        CNTCacheConfig(window=MAX_WINDOW)
        with pytest.raises(ConfigError):
            CNTCacheConfig(window=MAX_WINDOW + 1)

    @pytest.mark.parametrize("scheme", ["cnt", "cnt-shared"])
    def test_the_largest_window_folds_like_the_scalar_engine(self, scheme):
        # Two hot lines per set (the sets are 512 bytes apart), so W = 256
        # windows complete, per line and per set, and re-encode.
        config = CNTCacheConfig(
            scheme=scheme, window=MAX_WINDOW, size=1024, assoc=2, line_size=32
        )
        trace = [
            Access.write(512 * (i % 2) + 8 * (i % 5), bytes([i % 251] * 8))
            if i % 3 == 0
            else Access.read(512 * (i % 2) + 8 * (i % 7), b"\0" * 8)
            for i in range(3000)
        ]
        array = make_cache(config=config).run(trace)
        scalar = make_cache(config=config, backend="scalar").run(trace)
        assert array.direction_switches > 0
        assert array == scalar

    def test_rejects_partitions_not_dividing_line(self):
        with pytest.raises(ConfigError):
            CNTCacheConfig(partitions=7)

    def test_rejects_bad_delta_t(self):
        with pytest.raises(ConfigError):
            CNTCacheConfig(delta_t=1.0)
        with pytest.raises(ConfigError):
            CNTCacheConfig(delta_t=-0.1)

    def test_rejects_bad_fifo(self):
        with pytest.raises(ConfigError):
            CNTCacheConfig(fifo_depth=0)
        with pytest.raises(ConfigError):
            CNTCacheConfig(drain_per_access=-1)

    def test_rejects_bad_granularity(self):
        with pytest.raises(ConfigError):
            CNTCacheConfig(access_granularity="page")

    def test_rejects_bad_fill_policy(self):
        with pytest.raises(ConfigError):
            CNTCacheConfig(fill_policy="psychic")

    def test_rejects_bad_dbi_word(self):
        with pytest.raises(ConfigError):
            CNTCacheConfig(dbi_word_bytes=7)

    def test_rejects_negative_energies(self):
        with pytest.raises(ConfigError):
            CNTCacheConfig(peripheral_fj_per_access=-1)
        with pytest.raises(ConfigError):
            CNTCacheConfig(encoder_logic_fj=-1)


class TestMetadataAccounting:
    def test_baseline_has_no_metadata(self):
        config = CNTCacheConfig(scheme="baseline")
        assert config.metadata_bits_per_line == 0
        assert config.storage_overhead == 0.0

    def test_whole_line_invert_one_direction_bit(self):
        config = CNTCacheConfig(scheme="invert", window=16)
        assert config.direction_bits_per_line == 1
        assert config.history_bits_per_line == 8
        assert config.metadata_bits_per_line == 9

    def test_cnt_direction_bits_equal_partitions(self):
        config = CNTCacheConfig(scheme="cnt", partitions=16)
        assert config.direction_bits_per_line == 16

    def test_dbi_direction_bits_per_word(self):
        config = CNTCacheConfig(scheme="dbi", dbi_word_bytes=4)
        assert config.direction_bits_per_line == 16
        assert config.history_bits_per_line == 0

    def test_static_invert_one_bit_no_history(self):
        config = CNTCacheConfig(scheme="static-invert")
        assert config.metadata_bits_per_line == 1

    def test_default_overhead_about_3_percent(self):
        config = CNTCacheConfig()
        assert config.storage_overhead == pytest.approx(16 / 512)


class TestVariant:
    def test_variant_changes_one_field(self):
        base = CNTCacheConfig()
        changed = base.variant(window=32)
        assert changed.window == 32
        assert changed.scheme == base.scheme
        assert base.window == 16  # original untouched

    def test_variant_validates(self):
        with pytest.raises(ConfigError):
            CNTCacheConfig().variant(partitions=5)

    def test_describe_mentions_scheme(self):
        assert "cnt" in CNTCacheConfig().describe()
