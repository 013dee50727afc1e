"""Each rule R001-R008 fires on its seeded-violation fixture with the
exact rule id and line number, and stays quiet where it should."""

from pathlib import Path

from repro.lint import Finding, LintConfig, Severity, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

#: Fixtures carry ``# lint: skip-file`` so production walks ignore them;
#: the tests lint them anyway and without source-tree scoping.
PERMISSIVE = LintConfig(honor_skip_file=False, scope_to_source=False)


def findings_for(*names: str, rules: frozenset[str] | None = None) -> list[Finding]:
    config = LintConfig(
        honor_skip_file=False, scope_to_source=False, enabled_rules=rules
    )
    return lint_paths([FIXTURES / name for name in names], config)


def hits(findings: list[Finding]) -> list[tuple[str, int]]:
    return [(finding.rule_id, finding.line) for finding in findings]


class TestR001:
    def test_fires_on_adhoc_accumulation(self):
        findings = findings_for("r001_accumulation.py")
        assert hits(findings) == [("R001", 13)]
        assert "data_read_fj" in findings[0].message
        assert findings[0].severity is Severity.ERROR

    def test_quiet_on_clean_file(self):
        assert findings_for("r005_hygiene.py", rules=frozenset({"R001"})) == []


class TestR002:
    def test_fires_on_literals(self):
        findings = findings_for("r002_literals.py")
        assert hits(findings) == [("R002", 4), ("R002", 9), ("R002", 10)]
        messages = " ".join(finding.message for finding in findings)
        assert "0.3" in messages
        assert "1200.0" in messages
        assert "logic_fj" in messages

    def test_source_scoping_exempts_non_repro_paths(self):
        config = LintConfig(honor_skip_file=False, scope_to_source=True)
        assert lint_paths([FIXTURES / "r002_literals.py"], config) == []


class TestR003:
    def test_fires_on_unexported_unregistered_codec(self):
        findings = findings_for("badpkg")
        assert hits(findings) == [("R003", 11), ("R003", 11)]
        messages = [finding.message for finding in findings]
        assert any("__all__" in message for message in messages)
        assert any("registry" in message for message in messages)
        assert all("SneakyCodec" in message for message in messages)

    def test_quiet_on_real_encoding_package(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro" / "encoding"
        assert lint_paths([src], LintConfig(enabled_rules=frozenset({"R003"}))) == []


class TestR004:
    def test_fires_on_unvalidated_field_and_missing_post_init(self):
        findings = findings_for("r004_config.py")
        assert hits(findings) == [("R004", 12), ("R004", 21)]
        assert "height" in findings[0].message
        assert "NakedConfig" in findings[1].message

    def test_quiet_on_real_config_module(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"
        config = LintConfig(enabled_rules=frozenset({"R004"}))
        assert lint_paths([src / "config.py"], config) == []


class TestR005:
    def test_fires_on_mutable_default_and_bare_except(self):
        findings = findings_for("r005_hygiene.py")
        assert hits(findings) == [("R005", 5), ("R005", 9)]
        assert "mutable default" in findings[0].message
        assert "bare 'except:'" in findings[1].message


class TestR006:
    def test_fires_on_direct_simulation_in_experiments_module(self):
        findings = findings_for("r006/experiments.py")
        assert hits(findings) == [
            ("R006", 11),
            ("R006", 13),
            ("R006", 14),
            ("R006", 15),
            ("R006", 16),
            ("R006", 17),
        ]
        messages = " ".join(finding.message for finding in findings)
        assert "CNTCache" in messages
        assert "_run_workload" in messages
        assert "replay" in messages
        assert "simulate" in messages
        assert "make_cache" in messages
        assert "SimJob" in messages

    def test_disable_comment_is_the_escape_hatch(self):
        findings = findings_for("r006/experiments.py")
        assert all(finding.line != 22 for finding in findings)

    def test_quiet_outside_experiments_modules(self):
        assert findings_for(
            "r001_accumulation.py", rules=frozenset({"R006"})
        ) == []

    def test_quiet_on_real_experiments_module(self):
        src = (
            Path(__file__).resolve().parents[2]
            / "src" / "repro" / "harness" / "experiments.py"
        )
        config = LintConfig(enabled_rules=frozenset({"R006"}))
        assert lint_paths([src], config) == []

    def test_facade_branch_fires_inside_repro_source(self):
        findings = findings_for("r006/repro/runner_bypass.py")
        assert hits(findings) == [("R006", 13)]
        assert "repro.api.make_cache" in findings[0].message

    def test_facade_branch_allows_replay_and_disable_comment(self):
        findings = findings_for("r006/repro/runner_bypass.py")
        assert all(finding.line not in (19, 23) for finding in findings)

    def test_facade_branch_quiet_outside_repro_source(self):
        # Same bypass patterns, but no ``repro`` path component: user
        # scripts and tests may drive the simulator directly.
        assert findings_for(
            "r005_hygiene.py", rules=frozenset({"R006"})
        ) == []

    def test_quiet_on_real_facade_and_simulator_modules(self):
        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        config = LintConfig(enabled_rules=frozenset({"R006"}))
        paths = [root / "api.py", root / "core" / "cntcache.py"]
        assert lint_paths(paths, config) == []


class TestR007:
    def test_fires_on_broad_catches_and_silent_swallows(self):
        findings = findings_for("r007_swallows.py")
        assert hits(findings) == [
            ("R007", 8),
            ("R007", 16),
            ("R007", 23),
            ("R007", 30),
        ]
        assert "overly-broad 'Exception'" in findings[0].message
        assert "overly-broad 'BaseException'" in findings[1].message
        assert "silently swallows" in findings[2].message
        # A broad catch that also swallows yields one finding: the swallow.
        assert "silently swallows" in findings[3].message

    def test_disable_comment_is_the_escape_hatch(self):
        findings = findings_for("r007_swallows.py")
        assert all(finding.line != 37 for finding in findings)

    def test_bare_except_stays_r005_territory(self):
        assert findings_for(
            "r005_hygiene.py", rules=frozenset({"R007"})
        ) == []

    def test_quiet_outside_repro_source(self):
        # Same swallow patterns, but scoped to source: user scripts and
        # tests may catch broadly.
        config = LintConfig(honor_skip_file=False, scope_to_source=True)
        assert lint_paths([FIXTURES / "r007_swallows.py"], config) == []

    def test_quiet_on_real_engine_and_resilience_modules(self):
        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        config = LintConfig(enabled_rules=frozenset({"R007"}))
        paths = [
            root / "exec" / "engine.py",
            root / "resilience.py",
            root / "faults.py",
        ]
        assert lint_paths(paths, config) == []


class TestR008:
    def test_fires_on_typos_malformed_and_unregistered_names(self):
        findings = findings_for("r008_metrics.py")
        assert hits(findings) == [
            ("R008", 9),
            ("R008", 13),
            ("R008", 14),
            ("R008", 18),
            ("R008", 22),
            ("R008", 42),
        ]
        assert "exec.retires" in findings[0].message
        assert "dotted" in findings[1].message
        assert "dotted" in findings[2].message
        # Both branches of the conditional are checked; only the typo'd
        # one fires.
        assert "cache.missses" in findings[3].message
        assert "NotDotted" in findings[4].message
        # Telemetry names registered this PR: the typo fires, the real
        # names (telemetry_clean) stay quiet.
        assert "broker.queue_depht" in findings[5].message

    def test_disable_comment_is_the_escape_hatch(self):
        findings = findings_for("r008_metrics.py")
        assert all(finding.line != 38 for finding in findings)

    def test_dynamic_names_and_event_kinds_are_exempt(self):
        # The clean_uses block (registered literals, f-strings,
        # trace.emit kinds) and the telemetry_clean block (names this
        # PR registered) must contribute no findings.
        findings = findings_for("r008_metrics.py")
        assert all(
            finding.line < 26 or finding.line == 42 for finding in findings
        )

    def test_quiet_outside_repro_source(self):
        config = LintConfig(honor_skip_file=False, scope_to_source=True)
        assert lint_paths([FIXTURES / "r008_metrics.py"], config) == []

    def test_quiet_on_real_instrumented_modules(self):
        root = Path(__file__).resolve().parents[2] / "src" / "repro"
        config = LintConfig(enabled_rules=frozenset({"R008"}))
        paths = [
            root / "cache" / "cache.py",
            root / "exec" / "engine.py",
            root / "exec" / "worker.py",
            root / "core" / "cntcache.py",
        ]
        assert lint_paths(paths, config) == []


class TestSuppression:
    def test_disable_comment_suppresses_only_its_line(self):
        findings = findings_for("suppressed.py")
        assert hits(findings) == [("R005", 10)]
        assert "loud" in findings[0].message
