"""Run-manifest reader/summarizer unit tests (manifests are frame streams)."""

import json

import pytest

from repro.core.config import CNTCacheConfig
from repro.obs import probe
from repro.obs.manifest import ManifestError, read_manifest, summarize
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    TelemetryWriter,
    config_digest,
    lifecycle_frame,
)


def read_counting(path):
    """``read_manifest(path)`` plus how many lines it counted as torn."""
    with probe.recording(probe.ObsScope()) as scope:
        entries = read_manifest(path)
    return entries, scope.counters.get("obs.torn_lines", 0)


def writer_at(path):
    """The writer ``Obs(manifest=path)`` opens."""
    return TelemetryWriter(path.parent, role="coordinator", path=path)


def frame(record):
    """``record`` as its frame line on disk (stamped like the writer's)."""
    stamped = {"schema": TELEMETRY_SCHEMA, "ts": 1.0, "proc": "c", **record}
    return json.dumps(stamped) + "\n"


HELLO = {"type": "hello", "pid": 7, "host": "h", "interval": 1.0}


def job(
    kind="workload",
    scheme="cnt",
    source="run",
    wall_s=1.0,
    accesses=100,
    total_fj=2000.0,
    counters=None,
    timers=None,
    event="run",
):
    """A synthetic resolution record (the shape lifecycle_frame() builds)."""
    return {
        "type": "lifecycle",
        "event": event,
        "fingerprint": "f" * 16,
        "label": f"{kind}:stream",
        "kind": kind,
        "trace_id": None,
        "span_id": None,
        "workload": "stream",
        "size": "tiny",
        "seed": 3,
        "scheme": scheme,
        "config_digest": "c" * 16,
        "source": source,
        "wall_s": wall_s,
        "queue_wait_s": 0.0,
        "accesses": accesses,
        "energy": {"data_write_fj": total_fj / 2, "data_read_fj": total_fj / 2},
        "energy_fj": total_fj,
        "counters": counters or {},
        "timers": timers or {},
        "events": [],
        "gauges": {},
    }


class TestConfigDigest:
    def test_none_for_configless_jobs(self):
        assert config_digest(None) is None

    def test_deterministic_and_config_sensitive(self):
        a = config_digest(CNTCacheConfig())
        b = config_digest(CNTCacheConfig())
        c = config_digest(CNTCacheConfig(scheme="baseline"))
        assert a == b
        assert a != c
        assert len(a) == 16


class TestWriterReader:
    def test_header_written_lazily_then_entries(self, tmp_path):
        path = tmp_path / "run.jsonl"
        writer = writer_at(path)
        assert not path.exists()  # nothing until the first record
        writer.write(job())
        writer.close()
        entries = read_manifest(path)
        assert [e["type"] for e in entries] == ["hello", "lifecycle"]
        assert {e["schema"] for e in entries} == {TELEMETRY_SCHEMA}
        assert entries[1]["event"] == "run"
        assert writer.frames_written == 2

    def test_rerun_replaces_the_previous_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        for wall_s in (1.0, 2.0):
            with writer_at(path) as writer:
                writer.write(job(wall_s=wall_s))
        entries = read_manifest(path)
        assert [e["type"] for e in entries] == ["hello", "lifecycle"]
        assert entries[1]["wall_s"] == 2.0

    def test_non_finite_entry_is_refused_before_anything_is_written(
        self, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        writer = writer_at(path)
        with probe.recording(probe.ObsScope()) as scope:
            assert writer.write(job(wall_s=float("nan"))) is False
            assert writer.write(job()) is True
            assert writer.write(job(total_fj=float("inf"))) is False
        writer.close()
        entries, torn = read_counting(path)
        assert [e["type"] for e in entries] == ["hello", "lifecycle"]
        assert torn == 0
        assert (writer.frames_written, writer.dropped) == (2, 2)
        assert scope.counters["telemetry.write_errors"] == 2

    def test_read_rejects_bad_header(self, tmp_path):
        # A manifest written before frames were the one record.
        path = tmp_path / "old.jsonl"
        path.write_text(
            json.dumps({"type": "header", "schema": "obs-manifest-v1"})
            + "\n"
            + json.dumps(dict(job(), type="job"))
            + "\n"
        )
        with pytest.raises(ManifestError, match=TELEMETRY_SCHEMA):
            read_manifest(path)

    def test_read_skips_and_counts_non_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(frame(HELLO) + "not json\n")
        entries, torn = read_counting(path)
        assert [e["type"] for e in entries] == ["hello"]
        assert torn == 1

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_skip_mode_drops_bad_lines_keeps_the_rest(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            frame(HELLO)
            + '{"type": <injected frame poison>\n'
            + frame(job())
            + '["not", "a", "dict"]\n'
            + json.dumps(job())  # no schema tag
            + "\n"
            + frame(dict(job(), energy_fj="lots"))
        )
        entries, torn = read_counting(path)
        assert [e["type"] for e in entries] == ["hello", "lifecycle"]
        assert torn == 4

    def test_skip_mode_still_rejects_a_bad_header(self, tmp_path):
        path = tmp_path / "untagged.jsonl"
        path.write_text(json.dumps(job()) + "\n")
        with pytest.raises(ManifestError, match=TELEMETRY_SCHEMA):
            read_manifest(path)


class TestSummarize:
    def test_empty_stream_is_all_zeros(self):
        summary = summarize([])
        assert summary.jobs == 0
        assert summary.accesses == 0
        assert summary.cache_hit_rate == 0.0
        assert summary.accesses_per_s == 0.0
        assert summary.by_scheme == {}
        payload = summary.to_dict()
        assert payload["cache_hit_rate"] == 0.0

    def test_zero_access_jobs_never_divide(self):
        summary = summarize([job(accesses=0, wall_s=0.0, total_fj=0.0)])
        assert summary.jobs == 1
        assert summary.accesses_per_s == 0.0
        # total_fj of 0.0 is falsy in job(); force an energy-carrying
        # entry with zero accesses to hit the fj_per_access guard.
        summary = summarize([job(accesses=0, total_fj=10.0)])
        assert summary.by_scheme["cnt"]["fj_per_access"] == 0.0

    def test_poisoned_numeric_fields_clamp_instead_of_nan(self):
        # Regression: a NaN wall_s (or total_fj/accesses off a merged,
        # foreign-written manifest) used to propagate into every per-kind
        # rate; non-finite inputs must clamp to zero.
        entries = [
            job(wall_s=float("nan"), accesses=100),
            job(wall_s=float("inf"), total_fj=float("nan")),
            job(wall_s="garbage", accesses=None, total_fj=2000.0),
            job(wall_s=2.0, accesses=100, total_fj=1000.0),
        ]
        summary = summarize(entries)
        payload = summary.to_dict()
        # Only the healthy entry's wall time survives the clamp; the
        # NaN total_fj degrades to 0 while the finite ones still sum.
        assert summary.wall_s == pytest.approx(2.0)
        assert summary.total_fj == pytest.approx(2000.0 + 2000.0 + 1000.0)
        by_kind = summary.by_kind["workload"]
        assert by_kind["accesses_per_s"] == pytest.approx(300 / 2.0)
        text = json.dumps(payload)
        assert "NaN" not in text and "Infinity" not in text

    def test_all_zero_wall_per_kind_rates_are_zero(self):
        summary = summarize([job(wall_s=0.0, accesses=100)])
        assert summary.by_kind["workload"]["accesses_per_s"] == 0.0

    def test_gauges_prefer_summary_and_fall_back_to_jobs(self):
        with_summary = summarize([
            dict(job(), gauges={"trace.events": 5.0}),
            {
                "type": "summary",
                "engine": {},
                "wall_s": 1.0,
                "counters": {},
                "timers": {},
                "gauges": {"trace.events": 9.0},
                "dropped_events": 0,
            },
        ])
        assert with_summary.gauges == {"trace.events": 9.0}
        jobs_only = summarize([
            dict(job(), gauges={"trace.events": 5.0}),
            dict(job(), gauges={"trace.dropped": 1.0}),
        ])
        assert jobs_only.gauges == {
            "trace.events": 5.0,
            "trace.dropped": 1.0,
        }
        assert "gauges" in jobs_only.to_dict()

    def test_aggregates_by_kind_source_scheme(self):
        entries = [
            job(kind="workload", scheme="cnt", source="run",
                wall_s=2.0, accesses=100, total_fj=1000.0),
            job(kind="workload", scheme="baseline", source="cache",
                wall_s=1.0, accesses=100, total_fj=2000.0),
            job(kind="oracle", scheme="cnt", source="run",
                wall_s=0.5, accesses=50, total_fj=500.0),
        ]
        summary = summarize(entries)
        assert summary.jobs == 3
        assert summary.by_kind["workload"]["jobs"] == 2
        assert summary.by_kind["oracle"]["wall_s"] == pytest.approx(0.5)
        assert summary.by_source == {"run": 2, "cache": 1}
        assert summary.by_scheme["cnt"]["total_fj"] == pytest.approx(1500.0)
        assert summary.by_scheme["cnt"]["fj_per_access"] == pytest.approx(10.0)
        assert summary.total_fj == pytest.approx(3500.0)
        # No summary entry -> engine counters absent -> source fallback.
        assert summary.cache_hit_rate == pytest.approx(1 / 3)

    def test_summary_entry_counters_are_canonical(self):
        # The session scope already folded the per-job traffic, so job
        # counters must NOT be re-added on top of the summary's.
        entries = [
            job(counters={"cache.accesses": 100}),
            {
                "type": "summary",
                "engine": {"memo_hits": 3, "cache_hits": 1, "executed": 1},
                "wall_s": 1.0,
                "counters": {"cache.accesses": 100},
                "timers": {"exec.batch": 1.0},
                "dropped_events": 0,
            },
        ]
        summary = summarize(entries)
        assert summary.counters == {"cache.accesses": 100}
        assert summary.timers == {"exec.batch": 1.0}
        assert summary.cache_hit_rate == pytest.approx(4 / 5)

    def test_job_counters_are_the_fallback(self):
        entries = [
            job(counters={"cache.accesses": 60}, timers={"phase.sim": 0.5}),
            job(counters={"cache.accesses": 40}),
        ]
        summary = summarize(entries)
        assert summary.counters == {"cache.accesses": 100}
        assert summary.timers == {"phase.sim": 0.5}

    def test_slowest_is_ranked_and_trimmed(self):
        entries = [job(wall_s=float(i)) for i in range(5)]
        summary = summarize(entries, top=3)
        assert [row["wall_s"] for row in summary.slowest] == [4.0, 3.0, 2.0]
        assert set(summary.slowest[0]) == {
            "label", "kind", "source", "wall_s", "accesses",
        }

    def test_failure_entries_are_counted_and_trimmed(self):
        failures = [
            {
                "type": "lifecycle",
                "event": "fail",
                "fingerprint": f"f{i}",
                "label": f"workload:job{i}",
                "kind": "workload",
                "workload": "stream",
                "error": "FaultInjected",
                "message": "injected",
                "attempts": 3,
                "transient": True,
            }
            for i in range(5)
        ]
        summary = summarize(failures, top=3)
        assert summary.jobs == 0
        assert summary.failures == 5
        assert len(summary.failed) == 3
        assert summary.failed[0]["label"] == "workload:job0"
        assert summary.failed[0]["error"] == "FaultInjected"
        payload = summary.to_dict()
        assert payload["failures"] == 5
        assert len(payload["failed"]) == 3


class TestTornTail:
    """A live writer's unterminated final line must never poison a read."""

    def header_and_job(self):
        return frame(HELLO) + frame(job())

    def test_truncated_final_record_skipped_under_both_policies(self, tmp_path):
        # Regression: a reader racing a live writer (or a crash mid-write)
        # sees half a record with no newline; the complete prefix is kept
        # and the torn tail is one counted skip.
        path = tmp_path / "torn.jsonl"
        entry = frame(job())
        path.write_text(self.header_and_job() + entry[: len(entry) // 2])
        entries, torn = read_counting(path)
        assert [e["type"] for e in entries] == ["hello", "lifecycle"]
        assert torn == 1

    def test_unterminated_but_complete_final_record_is_kept(self, tmp_path):
        # A writer that simply hasn't flushed the newline yet: the record
        # itself is whole, so it parses and counts.
        path = tmp_path / "unterminated.jsonl"
        path.write_text(self.header_and_job() + frame(job(wall_s=9.0))[:-1])
        entries = read_manifest(path)
        assert [e["type"] for e in entries] == ["hello", "lifecycle", "lifecycle"]
        assert entries[-1]["wall_s"] == 9.0

    def test_complete_garbage_lines_are_counted_skips(self, tmp_path):
        # Newline-terminated poison is skipped like a torn tail, and
        # counted the same way.
        path = tmp_path / "poison.jsonl"
        path.write_text(self.header_and_job() + "not json\n")
        entries, torn = read_counting(path)
        assert [e["type"] for e in entries] == ["hello", "lifecycle"]
        assert torn == 1


class TestTraceCorrelationIds:
    def test_resolution_record_carries_the_stamped_ids(self):
        from repro.exec.events import ExecEvent
        from repro.exec.job import trace_job
        from repro.exec.worker import execute_job

        job_obj = trace_job("crc32", "tiny", 3)
        result = execute_job(job_obj)
        plain = lifecycle_frame(ExecEvent("run", job_obj, result))
        assert plain["trace_id"] is None and plain["span_id"] is None
        tagged = lifecycle_frame(
            ExecEvent(
                "run", job_obj, result, trace_id="t" * 32, span_id="s" * 16
            )
        )
        assert tagged["trace_id"] == "t" * 32
        assert tagged["span_id"] == "s" * 16
        assert {k: v for k, v in tagged.items() if not k.endswith("_id")} == {
            k: v for k, v in plain.items() if not k.endswith("_id")
        }


class TestMergeOrdering:
    def test_multi_worker_merge_summarizes_order_independently(self, tmp_path):
        # Two workers' manifests describe disjoint job sets; whichever
        # order the coordinator merges them in, the aggregate is the same.
        a = tmp_path / "worker-a.jsonl"
        with writer_at(a) as writer:
            writer.write(job(kind="workload", scheme="cnt",
                             wall_s=2.0, accesses=100, total_fj=1000.0))
            writer.write(job(kind="oracle", scheme="baseline",
                             wall_s=0.5, accesses=50, total_fj=250.0))
        b = tmp_path / "worker-b.jsonl"
        with writer_at(b) as writer:
            writer.write(job(kind="workload", scheme="dbi", source="cache",
                             wall_s=1.0, accesses=200, total_fj=4000.0))
        forward = summarize(read_manifest(a) + read_manifest(b)).to_dict()
        backward = summarize(read_manifest(b) + read_manifest(a)).to_dict()
        assert forward == backward
        assert forward["jobs"] == 3
        assert forward["total_fj"] == pytest.approx(5250.0)
