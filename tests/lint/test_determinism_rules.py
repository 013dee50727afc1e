"""D001-D005 fire on their seeded fixtures with exact ids and lines."""

from pathlib import Path

from repro.lint import LintConfig, lint_paths

from tests.lint.test_rules import FIXTURES, findings_for, hits

SRC = Path(__file__).resolve().parents[2] / "src"


class TestD001:
    def test_fires_on_wall_clock_reads_only(self):
        findings = findings_for(
            "d001_wallclock.py", rules=frozenset({"D001"})
        )
        assert hits(findings) == [("D001", 9), ("D001", 10), ("D001", 11)]
        messages = " ".join(finding.message for finding in findings)
        assert "time.time" in messages
        assert "datetime.now" in messages

    def test_scoped_out_of_non_simulation_paths(self):
        config = LintConfig(
            honor_skip_file=False,
            scope_to_source=True,
            enabled_rules=frozenset({"D001"}),
        )
        assert lint_paths([FIXTURES / "d001_wallclock.py"], config) == []

    def test_inline_disable_covers_the_sanctioned_engine_read(self):
        engine = SRC / "repro" / "exec" / "engine.py"
        config = LintConfig(enabled_rules=frozenset({"D001"}))
        assert lint_paths([engine], config) == []


class TestD002:
    def test_fires_on_every_entropy_source(self):
        findings = findings_for("d002_random.py", rules=frozenset({"D002"}))
        assert hits(findings) == [
            ("D002", 10),
            ("D002", 11),
            ("D002", 12),
            ("D002", 13),
        ]
        messages = [finding.message for finding in findings]
        assert "module-level RNG" in messages[0]
        assert "without a seed" in messages[1]
        assert "os.urandom" in messages[2]
        assert "uuid" in messages[3]

    def test_seeded_random_is_quiet_in_the_real_tree(self):
        workloads = SRC / "repro" / "workloads"
        config = LintConfig(enabled_rules=frozenset({"D002"}))
        assert lint_paths([workloads], config) == []


class TestD003:
    def test_fires_on_environ_and_getenv(self):
        findings = findings_for("d003_environ.py", rules=frozenset({"D003"}))
        assert hits(findings) == [("D003", 8), ("D003", 9), ("D003", 10)]

    def test_faults_module_is_allow_listed(self):
        faults = SRC / "repro" / "faults.py"
        config = LintConfig(enabled_rules=frozenset({"D003"}))
        assert lint_paths([faults], config) == []


class TestD004:
    def test_fires_on_set_dict_and_loop_var_taint(self):
        findings = findings_for(
            "d004_unordered.py", rules=frozenset({"D004"})
        )
        assert hits(findings) == [("D004", 10), ("D004", 12), ("D004", 14)]
        messages = [finding.message for finding in findings]
        assert "set-derived" in messages[0]
        assert "dict-derived" in messages[1]
        assert "set-derived" in messages[2]

    def test_sorted_values_launder_the_taint(self):
        findings = findings_for(
            "d004_unordered.py", rules=frozenset({"D004"})
        )
        # Lines 15-16 (sorted()/sort_keys canonicalisation) stay quiet.
        assert all(finding.line <= 14 for finding in findings)


class TestD005:
    def test_fires_on_fj_accumulators_in_loops(self):
        findings = findings_for("d005_fsum.py", rules=frozenset({"D005"}))
        assert hits(findings) == [("D005", 9), ("D005", 18)]
        assert "math.fsum" in findings[0].message
        assert "total" in findings[0].message

    def test_counter_and_fsum_patterns_stay_quiet(self):
        findings = findings_for("d005_fsum.py", rules=frozenset({"D005"}))
        assert all(finding.line in (9, 18) for finding in findings)

    def test_real_experiments_module_is_clean(self):
        experiments = SRC / "repro" / "harness" / "experiments.py"
        config = LintConfig(enabled_rules=frozenset({"D005"}))
        assert lint_paths([experiments], config) == []


class TestSuppressionThroughTheNewEngine:
    def test_inline_disable_silences_a_d_rule(self, tmp_path):
        module = tmp_path / "suppressed_d.py"
        module.write_text(
            '"""Fixture."""\n'
            "import os\n"
            "\n"
            'HOME = os.environ["HOME"]  # lint: disable=D003\n'
            'PATH = os.environ["PATH"]\n'
        )
        config = LintConfig(
            honor_skip_file=False,
            scope_to_source=False,
            enabled_rules=frozenset({"D003"}),
        )
        findings = lint_paths([module], config)
        assert [(f.rule_id, f.line) for f in findings] == [("D003", 5)]
