"""Engine mechanics: discovery, skip-file, config validation, CLI."""

import json
from pathlib import Path

import pytest

from repro.harness.cli import main as cntcache_main
from repro.lint import RULES, LintConfig, LintError, lint_paths
from repro.lint.cli import main as lint_main

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


class TestDiscovery:
    def test_skip_file_honored_during_directory_walk(self):
        # Every fixture is skip-filed, so the default walk sees nothing.
        assert lint_paths([FIXTURES]) == []

    def test_skip_file_override_surfaces_the_fixtures(self):
        config = LintConfig(honor_skip_file=False, scope_to_source=False)
        assert len(lint_paths([FIXTURES], config)) >= 8

    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="no such file"):
            lint_paths([FIXTURES / "does_not_exist.py"])

    def test_syntax_error_becomes_r000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        findings = lint_paths([bad])
        assert [finding.rule_id for finding in findings] == ["R000"]
        assert "syntax error" in findings[0].message


class TestConfig:
    def test_unknown_rule_id_rejected_at_run(self):
        with pytest.raises(LintError, match="unknown rule ids"):
            lint_paths([FIXTURES], LintConfig(enabled_rules=frozenset({"R999"})))

    def test_malformed_rule_id_rejected_at_construction(self):
        with pytest.raises(LintError, match="malformed rule ids"):
            LintConfig(enabled_rules=frozenset({"X01"}))

    def test_non_bool_flag_rejected(self):
        with pytest.raises(LintError, match="must be a bool"):
            LintConfig(scope_to_source="yes")


#: A handler that silently swallows its error: R007 fires on line 3.
SWALLOW = "try:\n    pass\nexcept ValueError:\n    pass\n"

#: The rule ids the registry ships, in ``--list-rules`` order.
RULE_IDS = [
    "D001", "D002", "D003", "D004", "D005",
    "R001", "R002", "R003", "R004", "R006", "R007", "R008",
    "S001", "S002",
]


def swallowing_module(tmp_path):
    """A seeded R007 violation under a ``repro`` dir (source scoping)."""
    package = tmp_path / "repro"
    package.mkdir()
    bad = package / "bad.py"
    bad.write_text(SWALLOW, encoding="utf-8")
    return bad


class TestCli:
    def test_green_on_the_real_tree(self):
        # The acceptance gate: `python -m repro.lint src tests` exits 0.
        assert lint_main([str(REPO / "src"), str(REPO / "tests")]) == 0

    def test_red_on_a_violating_file(self, tmp_path, capsys):
        bad = swallowing_module(tmp_path)
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:3: R007 handler for 'ValueError'" in out
        assert out.endswith("lint: 1 finding(s)\n")

    def test_json_format(self, tmp_path, capsys):
        bad = swallowing_module(tmp_path)
        assert lint_main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        (record,) = payload["findings"]
        assert list(payload) == ["findings"]
        assert sorted(record) == ["line", "message", "path", "rule"]
        assert (record["rule"], record["line"]) == ("R007", 3)

    def test_rules_filter(self, tmp_path):
        bad = swallowing_module(tmp_path)
        assert lint_main([str(bad), "--rules", "R001"]) == 0
        assert lint_main([str(bad), "--rules", "R001,R007"]) == 1

    def test_malformed_rules_flag_is_a_usage_error(self, capsys):
        assert lint_main(["--rules", "bogus,R001"]) == 2
        assert "malformed rule ids" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" ", 1)[0] for line in lines] == RULE_IDS
        assert f"R001 {RULES['R001'].summary}" in lines

    def test_cntcache_lint_subcommand_dispatch(self, capsys):
        assert cntcache_main(["lint", "--list-rules"]) == 0
        assert "R001" in capsys.readouterr().out
