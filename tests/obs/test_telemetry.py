"""Live fleet telemetry suite: writer, tailing reader, collector, CLI.

The contracts under test:

* the writer is rate-bounded, loss-tolerant (a broken stream retires it
  instead of failing the run) and always emits complete lines;
* the reader consumes only newline-terminated records, so a live
  writer's torn final line is invisible until the next poll;
* the collector's persisted offsets survive restarts without ever
  double-counting a frame, and its energy accounting stays exactly-once
  across at-least-once job re-executions;
* trace ids stamped by a coordinator ride job records into worker
  claims;
* the ``top``/``status``/``metrics``/``trace --fleet`` CLI surfaces all
  work against a real telemetry directory.
"""

import json
import math

import pytest

from repro import records
from repro.exec import BrokerConfig, trace_job
from repro.exec.broker import BrokerStore, chunk_id
from repro.harness.cli import main as cli_main
from repro.obs import probe
from repro.obs.export import fleet_chrome_trace
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA,
    FleetSnapshot,
    ProcessView,
    TelemetryCollector,
    TelemetryError,
    TelemetryWriter,
    locate,
    make_trace_id,
    prometheus_lines,
    read_all_frames,
    span_for,
    telemetry_dir,
)


def frames_on_disk(writer):
    """Every complete frame in the writer's stream, parsed."""
    frames, _, skipped = records.tail_jsonl(writer.path, 0, TELEMETRY_SCHEMA)
    assert skipped == 0
    return frames


# ------------------------------------------------------------------ #
# writer
# ------------------------------------------------------------------ #
class TestWriter:
    def test_hello_precedes_every_stream(self, tmp_path):
        with TelemetryWriter(tmp_path, identity="w1") as writer:
            writer.heartbeat("idle")
        frames = frames_on_disk(writer)
        assert [f["type"] for f in frames] == ["hello", "heartbeat"]
        assert frames[0]["proc"] == "w1"
        assert frames[0]["schema"] == TELEMETRY_SCHEMA
        assert frames[1]["state"] == "idle"

    def test_heartbeats_are_rate_bounded_unless_forced(self, tmp_path):
        writer = TelemetryWriter(tmp_path, identity="w1", interval_s=3600.0)
        assert writer.heartbeat("idle") is True
        assert writer.heartbeat("idle") is False  # within the interval
        assert writer.heartbeats_suppressed == 1
        assert writer.heartbeat("exited", force=True) is True
        writer.close()
        beats = [
            f for f in frames_on_disk(writer) if f["type"] == "heartbeat"
        ]
        assert [b["state"] for b in beats] == ["idle", "exited"]

    def test_lifecycle_validates_event_names(self, tmp_path):
        writer = TelemetryWriter(tmp_path, identity="w1")
        with pytest.raises(TelemetryError):
            writer.lifecycle("reboot")
        writer.lifecycle("claim", fingerprint="f" * 16, label="j")
        writer.close()
        events = [
            f for f in frames_on_disk(writer) if f["type"] == "lifecycle"
        ]
        assert events[0]["event"] == "claim"

    def test_broken_stream_retires_the_writer_silently(self, tmp_path):
        # Point the "directory" at an existing file: the first emit hits
        # an OSError and the writer must go quiet, never raise.
        clash = tmp_path / "not-a-dir"
        clash.write_text("occupied")
        writer = TelemetryWriter(clash, identity="w1")
        writer.lifecycle("claim", fingerprint="f" * 16)  # must not raise
        assert writer.heartbeat("idle", force=True) is False
        assert writer.frames_written == 0
        assert writer.dropped == 3  # hello, claim, heartbeat: each counted

    def test_non_finite_frame_is_dropped_counted_and_the_writer_stays_live(
        self, tmp_path
    ):
        writer = TelemetryWriter(tmp_path, identity="w1")
        with probe.recording(probe.ObsScope()) as scope:
            writer.lifecycle("finish", fingerprint="f" * 16, wall_s=float("nan"))
            writer.lifecycle("finish", fingerprint="f" * 16, wall_s=1.5)
        writer.close()
        assert scope.counters.get("telemetry.write_errors") == 1
        frames = frames_on_disk(writer)  # every line on disk reads back
        assert [f["type"] for f in frames] == ["hello", "lifecycle"]
        assert frames[1]["wall_s"] == 1.5
        assert writer.frames_written == 2

    def test_negative_interval_rejected(self, tmp_path):
        with pytest.raises(TelemetryError):
            TelemetryWriter(tmp_path, interval_s=-1.0)


# ------------------------------------------------------------------ #
# tailing reader
# ------------------------------------------------------------------ #
class TestReadFrames:
    def frame(self, **extra):
        base = {
            "schema": TELEMETRY_SCHEMA,
            "type": "heartbeat",
            "ts": 1.0,
            "proc": "w1",
            "role": "worker",
        }
        base.update(extra)
        return base

    def test_torn_final_line_is_left_for_the_next_poll(self, tmp_path):
        path = tmp_path / "w1.ndjson"
        whole = json.dumps(self.frame()) + "\n"
        torn = json.dumps(self.frame(ts=2.0))
        path.write_text(whole + torn[: len(torn) // 2])
        frames, offset, skipped = records.tail_jsonl(path, 0, TELEMETRY_SCHEMA)
        assert len(frames) == 1
        assert skipped == 0  # torn, not poisoned: simply not consumed
        assert offset == len(whole.encode())
        # The writer finishes the record: the next poll picks it up.
        path.write_text(whole + torn + "\n")
        frames, offset, skipped = records.tail_jsonl(path, offset, TELEMETRY_SCHEMA)
        assert [f["ts"] for f in frames] == [2.0]
        assert skipped == 0

    def test_poisoned_complete_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "w1.ndjson"
        path.write_text(
            json.dumps(self.frame()) + "\n"
            + "not json at all\n"
            + json.dumps({"schema": "other-v1", "type": "heartbeat"}) + "\n"
            + json.dumps(self.frame(ts=2.0)) + "\n"
        )
        frames, _, skipped = records.tail_jsonl(path, 0, TELEMETRY_SCHEMA)
        assert [f["ts"] for f in frames] == [1.0, 2.0]
        assert skipped == 2

    def test_missing_file_reads_empty(self, tmp_path):
        frames, offset, skipped = records.tail_jsonl(
            tmp_path / "absent.ndjson", 0, TELEMETRY_SCHEMA
        )
        assert (frames, offset, skipped) == ([], 0, 0)


# ------------------------------------------------------------------ #
# collector
# ------------------------------------------------------------------ #
class TestCollector:
    def test_restart_resumes_offsets_without_double_counting(self, tmp_path):
        writer = TelemetryWriter(tmp_path, identity="w1", interval_s=0.0)
        writer.heartbeat("running", jobs_done=1)
        writer.lifecycle("finish", fingerprint="a" * 16, scheme="cnt",
                         energy_fj=100.0)
        first = TelemetryCollector(tmp_path)
        assert len(first.poll()) == 3  # hello + heartbeat + lifecycle
        assert first.frames == 3

        # A fresh collector (new process) resumes from persisted state:
        # nothing new on disk means nothing new polled, and the totals
        # carry over instead of resetting or doubling.
        second = TelemetryCollector(tmp_path)
        assert second.poll() == []
        assert second.frames == 3
        assert second.views["w1"].events == {"finish": 1}
        assert second.energy_by_scheme == {"cnt": 100.0}

        # Frames written after the restart are picked up exactly once.
        writer.heartbeat("running", jobs_done=2)
        writer.close()
        assert len(second.poll()) == 1
        assert second.frames == 4

    def test_energy_counted_once_per_fingerprint(self, tmp_path):
        writer = TelemetryWriter(tmp_path, identity="w1")
        for _ in range(2):  # at-least-once: a steal re-runs the job
            writer.lifecycle("finish", fingerprint="a" * 16, scheme="cnt",
                             energy_fj=100.0)
        writer.lifecycle("finish", fingerprint="b" * 16, scheme="cnt",
                         energy_fj=50.0)
        writer.close()
        collector = TelemetryCollector(tmp_path)
        collector.poll()
        assert collector.energy_by_scheme == {"cnt": 150.0}

    def test_energy_totals_do_not_depend_on_arrival_order(self, tmp_path):
        # (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit.
        frames = [
            ("finish", "a" * 16, 0.1),
            ("run", "b" * 16, 0.2),
            ("finish", "c" * 16, 0.3),
        ]
        totals = []
        for name, order in (("forward", frames), ("reversed", frames[::-1])):
            writer = TelemetryWriter(tmp_path / name, identity="w1")
            for event, fingerprint, energy in order:
                writer.lifecycle(event, fingerprint=fingerprint, scheme="cnt",
                                 energy_fj=energy)
            writer.close()
            TelemetryCollector(tmp_path / name).poll()
            # The persisted parts round-trip into a resumed collector.
            totals.append(TelemetryCollector(tmp_path / name).energy_by_scheme)
        assert totals[0] == totals[1] == {"cnt": math.fsum([0.1, 0.2, 0.3])}

    def test_truncated_stream_restarts_from_zero(self, tmp_path):
        writer = TelemetryWriter(tmp_path, identity="w1", interval_s=0.0)
        for _ in range(5):
            writer.heartbeat("running")
        writer.close()
        collector = TelemetryCollector(tmp_path, persist=False)
        assert len(collector.poll()) == 6
        # Rotation/truncation underneath the collector (the new stream is
        # strictly shorter than the consumed offset): offset resets.
        writer.path.write_text("")
        rewrite = TelemetryWriter(tmp_path, identity="w1", interval_s=0.0)
        rewrite.heartbeat("exited")
        rewrite.close()
        assert len(collector.poll()) == 2
        assert collector.views["w1"].state == "exited"

    def test_exited_processes_are_not_alive(self, tmp_path):
        writer = TelemetryWriter(tmp_path, identity="w1", interval_s=0.0)
        writer.heartbeat("running")
        collector = TelemetryCollector(tmp_path, persist=False)
        collector.poll()
        view = collector.views["w1"]
        assert view.alive(view.last_ts)
        writer.heartbeat("exited", force=True)
        writer.close()
        collector.poll()
        assert not view.alive(view.last_ts)


    @pytest.mark.parametrize(
        "field, value",
        [
            ("frames", None),
            ("frames", "x"),
            ("torn_lines", -1),
            ("offsets", None),
            ("offsets", {"w1.ndjson": "x"}),
            ("offsets", {"w1.ndjson": -5}),
            ("energy_by_scheme", {"cnt": "x"}),
            ("energy_seen", 7),
            ("procs", {"w1": None}),
            ("procs", {"w1": {"first_ts": "x"}}),
            ("energy_by_scheme", {"cnt": 100.0}),  # a pre-fsum total
        ],
    )
    def test_bad_state_is_a_counted_fresh_start(self, tmp_path, field, value):
        writer = TelemetryWriter(tmp_path, identity="w1")
        writer.lifecycle("finish", fingerprint="a" * 16, scheme="cnt",
                         energy_fj=100.0)
        writer.close()
        TelemetryCollector(tmp_path).poll()  # persists a good state
        state_path = tmp_path / ".collector-state.json"
        state = json.loads(state_path.read_text())
        state[field] = value
        state_path.write_text(json.dumps(state))
        with probe.recording(probe.ObsScope()) as scope:
            collector = TelemetryCollector(tmp_path)
        assert scope.counters == {"telemetry.state_resets": 1}
        assert (collector.offsets, collector.frames, collector.views) == (
            {}, 0, {},
        )
        assert len(collector.poll()) == 2  # re-reads from the start

    @pytest.mark.parametrize(
        "bad",
        [
            '"ts": "x"',
            '"ts": null',
            '"interval": "x"',
            '"pid": "x"',
            '"pid": true',
            '"energy_fj": "x"',
            '"energy_fj": NaN',
            '"energy_fj": 1e999',
            '"ts": -Infinity',
        ],
    )
    def test_frames_with_unusable_numbers_are_counted_skips(
        self, tmp_path, bad
    ):
        good = {
            "schema": TELEMETRY_SCHEMA,
            "type": "lifecycle",
            "event": "finish",
            "proc": "w1",
            "ts": 1.0,
            "fingerprint": "a" * 16,
            "scheme": "cnt",
            "energy_fj": 100.0,
        }
        poisoned = json.dumps(dict(good, fingerprint="b" * 16))
        poisoned = poisoned[:-1] + ", " + bad + "}"
        (tmp_path / "w1.ndjson").write_text(
            json.dumps(good) + "\n" + poisoned + "\n"
        )
        collector = TelemetryCollector(tmp_path, persist=False)
        with probe.recording(probe.ObsScope()) as scope:
            fresh = collector.poll()
            merged = read_all_frames(tmp_path)
        assert fresh == merged == [good]
        assert scope.counters == {"obs.torn_lines": 2}
        assert collector.torn_lines == 1
        assert collector.energy_by_scheme == {"cnt": 100.0}


# ------------------------------------------------------------------ #
# snapshot + exports
# ------------------------------------------------------------------ #
class TestSnapshot:
    def populate(self, root):
        """A broker root with queue litter + a two-process telemetry bus."""
        for name, count in (("jobs", 2), ("leases", 1), ("quarantine", 1)):
            directory = root / name
            directory.mkdir(parents=True)
            for i in range(count):
                (directory / f"{name}{i}.json").write_text("{}")
        coordinator = TelemetryWriter(
            telemetry_dir(root),
            identity="coord",
            role="coordinator",
            trace_id="t" * 32,
            interval_s=0.0,
        )
        coordinator.heartbeat("draining", queue_depth=2)
        worker = TelemetryWriter(
            telemetry_dir(root), identity="w1", interval_s=0.0
        )
        worker.lifecycle("claim", fingerprint="a" * 16, label="job-a")
        worker.lifecycle("finish", fingerprint="a" * 16, label="job-a",
                         scheme="cnt", energy_fj=10.0, wall_s=0.5)
        worker.heartbeat("running", jobs_done=1, accesses_per_s=1000.0)
        coordinator.close()
        worker.close()

    def test_snapshot_counts_broker_queue_and_fleet(self, tmp_path):
        self.populate(tmp_path)
        collector = TelemetryCollector(tmp_path)  # broker root, located
        collector.poll()
        snapshot = collector.snapshot()
        assert snapshot.queue_depth == 2
        assert snapshot.active_leases == 1
        assert snapshot.quarantined == 1
        assert snapshot.trace_id == "t" * 32
        assert snapshot.jobs_done == 1
        assert [p.identity for p in snapshot.workers] == ["w1"]
        assert [p.identity for p in snapshot.coordinators] == ["coord"]
        payload = snapshot.to_dict()
        assert payload["queue_depth"] == 2
        assert payload["procs"][0]["identity"] in ("coord", "w1")

    def test_render_and_prometheus_shapes(self, tmp_path):
        self.populate(tmp_path)
        collector = TelemetryCollector(tmp_path)
        collector.poll()
        snapshot = collector.snapshot()
        screen = snapshot.render()
        assert "cntcache fleet" in screen
        assert "w1" in screen and "coord" in screen
        assert "2 pending" in screen
        lines = prometheus_lines(snapshot)
        samples = [l for l in lines if not l.startswith("#")]
        # Every sample line is `name{labels} value` or `name value`.
        for line in samples:
            name, value = line.rsplit(" ", 1)
            float(value)
            assert name.startswith("cntcache_")
        assert any(l.startswith("cntcache_broker_queue_depth 2") for l in samples)
        assert any('scheme="cnt"' in l for l in samples)

    def test_bare_directory_has_no_queue_stats(self, tmp_path):
        writer = TelemetryWriter(tmp_path, identity="w1", interval_s=0.0)
        writer.heartbeat("running")
        writer.close()
        collector = TelemetryCollector(tmp_path)
        collector.poll()
        snapshot = collector.snapshot()
        assert snapshot.queue_depth is None
        assert "- pending" in snapshot.render()

    def test_locate_resolves_roots_and_bare_dirs(self, tmp_path):
        (tmp_path / "jobs").mkdir()
        assert locate(tmp_path) == (tmp_path / "telemetry", tmp_path)
        assert locate(tmp_path / "telemetry") == (
            tmp_path / "telemetry", tmp_path,
        )
        bare = tmp_path / "isolated" / "telemetry"
        assert locate(bare) == (bare, None)

    def test_fleet_chrome_trace_pairs_claims_with_finishes(self, tmp_path):
        self.populate(tmp_path)
        collector = TelemetryCollector(tmp_path)
        trace = fleet_chrome_trace(collector.poll())
        events = trace["traceEvents"]
        names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert names == {"coordinator coord", "worker w1"}
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["name"] == "job-a"
        assert spans[0]["dur"] >= 1.0
        counters = [e for e in events if e["ph"] == "C"]
        assert counters and counters[0]["args"] == {"pending": 2.0}
        # Coordinator sorts first: pid 1.
        pid_by_name = {
            e["args"]["name"]: e["pid"] for e in events if e["ph"] == "M"
        }
        assert pid_by_name["coordinator coord"] == 1

    def test_each_transition_counts_once(self, tmp_path):
        # A drain in which job b runs locally, c is stolen from a lost
        # worker and finished by another, d is quarantined and a is a
        # cache hit: the coordinator's own records of the cache hit, the
        # adopt, the reclaim and the quarantine verdict count nothing
        # the workers' records already count.
        from repro.core.config import CNTCacheConfig
        from repro.exec import workload_job
        from repro.exec.events import ExecEvent
        from repro.exec.worker import execute_job
        from repro.obs.telemetry import lifecycle_frame

        config = CNTCacheConfig()
        b, c, d = (
            workload_job(config.variant(scheme=scheme), "records", "tiny", 3)
            for scheme in ("cnt", "baseline", "dbi")
        )
        a = workload_job(config, "records", "tiny", 4)
        ran, finished = execute_job(b), execute_job(c)
        reclaim = {"fingerprint": c.fingerprint, "generation": 1,
                   "lost_worker": "w1", "by": "w2"}
        verdict = {"fingerprint": d.fingerprint, "label": d.label,
                   "generation": 1, "reason": "permanent"}
        failure = {"error": "PoisonJobError", "attempts": 1}
        streams = {
            ("coord", "coordinator"): [
                ExecEvent("publish", detail={"jobs": 3, "published": 3}),
                ExecEvent("cache_hit", a, execute_job(a)),
                ExecEvent("run", b, ran),
                ExecEvent("reclaim", detail=reclaim),
                ExecEvent("adopt", c, finished),
                ExecEvent("quarantined", detail=verdict),
                ExecEvent("fail", d, detail=failure),
                ExecEvent("drain", detail={"jobs": 3}),
            ],
            ("w1", "worker"): [ExecEvent("claim", c, generation=1)],
            ("w2", "worker"): [
                ExecEvent("steal", detail=reclaim),
                ExecEvent("claim", c, generation=2),
                ExecEvent("finish", c, finished, generation=2),
                ExecEvent("claim", d, generation=1),
                ExecEvent(
                    "attempt_failed",
                    d,
                    generation=1,
                    detail={"error": "ValueError", "transient": False},
                ),
                ExecEvent("quarantine", d, detail=verdict),
            ],
        }
        for (identity, role), events in streams.items():
            with TelemetryWriter(
                tmp_path, identity=identity, role=role, interval_s=0.0
            ) as writer:
                for event in events:
                    writer.write(lifecycle_frame(event))
        collector = TelemetryCollector(tmp_path, persist=False)
        collector.poll()
        snapshot = collector.snapshot()
        assert snapshot.jobs_done == 2
        assert snapshot.energy_by_scheme == {
            "cnt": ran.stats.total_fj,
            "baseline": finished.stats.total_fj,
        }
        assert snapshot.render().endswith(
            "lifecycle: 1 reclaim(s), 2 failed attempt(s), "
            "1 quarantine event(s)"
        )

    def test_eta_needs_live_throughput(self):
        snapshot = FleetSnapshot(ts=0.0, procs=[], queue_depth=5)
        assert snapshot.eta_s is None

    def test_eta_counts_the_jobs_coordinators_report_unresolved(self):
        # The queue holds one chunk record; ten of its jobs are left.  A
        # coordinator that stopped heartbeating long ago no longer counts.
        coordinator = ProcessView(
            "c", role="coordinator", state="draining", last_ts=10.0,
            gauges={"unresolved": 10},
        )
        gone = ProcessView("old", role="coordinator", gauges={"unresolved": 99})
        worker = ProcessView(
            "w", state="running", first_ts=6.0, last_ts=10.0, events={"finish": 8}
        )
        procs = [coordinator, gone, worker]
        snapshot = FleetSnapshot(ts=10.0, procs=procs, queue_depth=1)
        assert snapshot.eta_s == pytest.approx(5.0)  # 10 jobs at 2 jobs/s


# ------------------------------------------------------------------ #
# trace correlation through the broker
# ------------------------------------------------------------------ #
class TestTraceCorrelation:
    def test_ids_are_deterministic_per_job_and_wall_unique(self):
        trace_id = make_trace_id("coord")
        assert len(trace_id) == 32
        span = span_for(trace_id, "f" * 16)
        assert len(span) == 16
        assert span == span_for(trace_id, "f" * 16)
        assert span != span_for(trace_id, "e" * 16)

    def test_published_records_carry_ids_into_claims(self, tmp_path):
        config = BrokerConfig(root=tmp_path / "broker", spawn=False)
        store = BrokerStore(config)
        job = trace_job("crc32", "tiny", 3)
        trace_id = make_trace_id("coord")
        store.publish([job], trace_id=trace_id)
        record = json.loads(
            store.job_path(chunk_id([job])).read_text(encoding="utf-8")
        )
        assert record["trace_id"] == trace_id
        assert "span_id" not in record  # derived per job, never stored
        claim = BrokerStore(config).claim("w1")
        assert claim is not None
        assert claim.trace_id == trace_id
        event = claim.event("claim")
        assert event.trace_id == trace_id
        assert event.span_id == span_for(trace_id, job.fingerprint)

    def test_untraced_records_claim_with_no_ids(self, tmp_path):
        config = BrokerConfig(root=tmp_path / "broker", spawn=False)
        store = BrokerStore(config)
        store.publish([trace_job("crc32", "tiny", 3)])
        claim = BrokerStore(config).claim("w1")
        assert claim is not None
        event = claim.event("claim")
        assert claim.trace_id is None and event.span_id is None


# ------------------------------------------------------------------ #
# CLI: top / status / metrics / trace --fleet
# ------------------------------------------------------------------ #
class TestFleetCli:
    def seed(self, tmp_path):
        directory = tmp_path / "telemetry"
        writer = TelemetryWriter(directory, identity="w1", interval_s=0.0)
        writer.lifecycle("claim", fingerprint="a" * 16, label="job-a")
        writer.lifecycle("finish", fingerprint="a" * 16, label="job-a",
                         scheme="cnt", energy_fj=10.0)
        writer.heartbeat("running", jobs_done=1)
        writer.close()
        return directory

    def test_status_json_round_trips(self, tmp_path, capsys):
        directory = self.seed(tmp_path)
        assert cli_main(["status", "--telemetry", str(directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs_done"] == 1
        assert payload["procs"][0]["identity"] == "w1"

    def test_status_human_readable(self, tmp_path, capsys):
        directory = self.seed(tmp_path)
        assert cli_main(["status", "--telemetry", str(directory)]) == 0
        assert "cntcache fleet" in capsys.readouterr().out

    def test_metrics_prom_is_parseable(self, tmp_path, capsys):
        directory = self.seed(tmp_path)
        assert cli_main(
            ["metrics", "--telemetry", str(directory), "--format", "prom"]
        ) == 0
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            if line.startswith("#"):
                continue
            float(line.rsplit(" ", 1)[1])
        assert "cntcache_fleet_jobs_done_total 1" in out

    def test_top_once_renders_without_ansi(self, tmp_path, capsys):
        directory = self.seed(tmp_path)
        assert cli_main(["top", "--telemetry", str(directory), "--once"]) == 0
        out = capsys.readouterr().out
        assert "cntcache fleet" in out
        assert "\x1b" not in out

    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        assert cli_main(["status", "--telemetry", str(tmp_path / "no")]) == 2
        assert "no such directory" in capsys.readouterr().err

    def test_trace_fleet_exports_chrome_json(self, tmp_path, capsys):
        directory = self.seed(tmp_path)
        out = tmp_path / "fleet.json"
        assert cli_main(
            ["trace", "--fleet", str(directory), "--out", str(out)]
        ) == 0
        trace = json.loads(out.read_text(encoding="utf-8"))
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_trace_fleet_rejects_collapsed(self, tmp_path, capsys):
        directory = self.seed(tmp_path)
        assert cli_main(
            ["trace", "--fleet", str(directory), "--export", "collapsed"]
        ) == 2
