"""SimJob identity: fingerprints, constructors, config normalization."""

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cnfet.leakage import LeakageModel
from repro.core.config import SCHEMES, CNTCacheConfig
from repro.exec import (
    ENGINE_SCHEMA,
    JobError,
    SimJob,
    audit_job,
    code_fingerprint,
    execute_job,
    l2_job,
    normalize_config,
    oracle_job,
    trace_job,
    workload_job,
)
from repro.exec.job import _IGNORED_FIELDS


class TestFingerprint:
    def test_equal_jobs_equal_fingerprints(self):
        a = workload_job(CNTCacheConfig(), "records", "tiny", 3)
        b = workload_job(CNTCacheConfig(), "records", "tiny", 3)
        assert a == b
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_separates_every_identity_field(self):
        base = workload_job(CNTCacheConfig(), "records", "tiny", 3)
        different = [
            workload_job(CNTCacheConfig(), "stream", "tiny", 3),
            workload_job(CNTCacheConfig(), "records", "small", 3),
            workload_job(CNTCacheConfig(), "records", "tiny", 4),
            workload_job(
                CNTCacheConfig(scheme="invert"), "records", "tiny", 3
            ),
            oracle_job(CNTCacheConfig(), "records", "tiny", 3),
            trace_job("records", "tiny", 3),
        ]
        fingerprints = {job.fingerprint for job in different}
        assert len(fingerprints) == len(different)
        assert base.fingerprint not in fingerprints

    def test_fingerprint_binds_schema_and_code(self):
        job = workload_job(CNTCacheConfig(), "records", "tiny", 3)
        description = job.describe()
        assert description["schema"] == ENGINE_SCHEMA
        assert description["code"] == code_fingerprint()
        assert len(job.fingerprint) == 64

    @given(data=st.data())
    def test_fingerprint_is_the_sha256_of_the_canonical_json(self, data):
        config = CNTCacheConfig(
            scheme=data.draw(st.sampled_from(SCHEMES)),
            window=data.draw(st.integers(2, 256)),
            partitions=data.draw(st.sampled_from((1, 2, 4, 8, 16, 32, 64))),
            delta_t=data.draw(st.floats(0.0, 1.0, exclude_max=True)),
            peripheral_fj_per_access=data.draw(
                st.floats(0.0, 1e12, allow_subnormal=True)
            ),
            leakage=data.draw(st.sampled_from((None, LeakageModel.cnfet()))),
        )
        # Any non-empty name, to cover non-ASCII escaping too.
        workload = data.draw(st.text(min_size=1))
        size = data.draw(st.sampled_from(("tiny", "small", "default")))
        seed = data.draw(st.integers(-(2**70), 2**70))
        build = data.draw(
            st.sampled_from(
                (
                    lambda: workload_job(config, workload, size, seed),
                    lambda: oracle_job(config, workload, size, seed),
                    lambda: l2_job(
                        config, workload, size, seed,
                        l1_size=data.draw(st.integers(1, 2**40)),
                    ),
                    lambda: trace_job(workload, size, seed),
                )
            )
        )
        job = build()
        canonical = json.dumps(
            job.describe(), sort_keys=True, separators=(",", ":")
        )
        assert job.fingerprint == hashlib.sha256(canonical.encode()).hexdigest()

    def test_l2_params_are_part_of_identity(self):
        config = CNTCacheConfig()
        default = l2_job(config, "stream", "tiny", 3)
        bigger_l1 = l2_job(config, "stream", "tiny", 3, l1_size=16 * 1024)
        assert default.fingerprint != bigger_l1.fingerprint

    def test_label_is_human_readable(self):
        job = workload_job(CNTCacheConfig(), "records", "tiny", 3)
        assert job.label == "workload:records/tiny/s3/cnt"
        assert trace_job("fft", "small", 7).label == "trace:fft/small/s7/-"


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(JobError, match="kind"):
            SimJob("banana", "records", "tiny", 3, CNTCacheConfig())

    def test_unknown_size_rejected(self):
        with pytest.raises(JobError, match="size"):
            workload_job(CNTCacheConfig(), "records", "enormous", 3)

    def test_bool_seed_rejected(self):
        with pytest.raises(JobError, match="seed"):
            workload_job(CNTCacheConfig(), "records", "tiny", True)

    def test_trace_job_refuses_config(self):
        with pytest.raises(JobError, match="no config"):
            SimJob("trace", "records", "tiny", 3, CNTCacheConfig())

    def test_workload_job_requires_config(self):
        with pytest.raises(JobError, match="require"):
            SimJob("workload", "records", "tiny", 3, None)

    def test_audit_job_requires_predictor_scheme(self):
        with pytest.raises(JobError, match="predictor"):
            audit_job(
                CNTCacheConfig(scheme="baseline"), "records", "tiny", 3
            )


class TestNormalization:
    def test_baseline_collapses_predictor_knobs(self):
        sweep_point = CNTCacheConfig(scheme="baseline", window=4, delta_t=0.3)
        assert normalize_config(sweep_point) == CNTCacheConfig(
            scheme="baseline"
        )

    def test_cnt_keeps_predictor_knobs(self):
        config = CNTCacheConfig(window=8, partitions=4)
        assert normalize_config(config) == config

    def test_sweep_references_dedupe_to_one_job(self):
        references = {
            workload_job(
                CNTCacheConfig(window=w).variant(scheme="baseline"),
                "records",
                "tiny",
                3,
            ).fingerprint
            for w in (4, 8, 16, 32, 64)
        }
        assert len(references) == 1


class TestNormalizationInvariants:
    """The empirical contract behind ``_IGNORED_FIELDS``.

    For every scheme, a config with *every* ignored field moved off its
    default must simulate bit-identically to the normalized config.  If a
    simulator change makes one of these fields matter, this test fails —
    and the field must be removed from the map (a cache-correctness bug
    otherwise).
    """

    _OFF_DEFAULT = {
        "window": 8,
        "partitions": 4,
        "delta_t": 0.25,
        "dbi_word_bytes": 8,
        "fifo_depth": 4,
        "drain_per_access": 2,
        "fill_policy": "read-greedy",
    }

    @pytest.mark.parametrize("scheme", sorted(_IGNORED_FIELDS))
    def test_ignored_fields_do_not_change_results(self, scheme):
        ignored = _IGNORED_FIELDS[scheme]
        perturbed = CNTCacheConfig(scheme=scheme).variant(
            **{name: self._OFF_DEFAULT[name] for name in ignored}
        )
        normalized = normalize_config(perturbed)
        assert normalized == CNTCacheConfig(scheme=scheme)
        raw = SimJob("workload", "records", "tiny", 3, perturbed)
        canonical = SimJob("workload", "records", "tiny", 3, normalized)
        assert (
            execute_job(raw).canonical() == execute_job(canonical).canonical()
        )

    def test_every_scheme_has_a_normalization_entry_or_none_needed(self):
        # New schemes must take a stance: either list their ignored fields
        # or be added here as "nothing ignorable".
        fully_sensitive = set()
        assert set(SCHEMES) == set(_IGNORED_FIELDS) | fully_sensitive
