"""CLI modes: --changed, baselines, --output, --fix, empty-path exit codes."""

import json
import subprocess

import pytest

from repro.lint.cli import main as lint_main

#: A file with one seeded D003 violation; lives under a ``repro`` dir so
#: source scoping applies without touching the real tree.
VIOLATING = '"""Fixture."""\nimport os\n\nHOME = os.environ["HOME"]\n'
CLEAN = '"""Fixture."""\n\nHOME = "static"\n'


def write_module(root, name, source=VIOLATING):
    package = root / "repro"
    package.mkdir(exist_ok=True)
    target = package / name
    target.write_text(source)
    return target


class TestPathErrors:
    def test_nonexistent_path_exits_2_with_message(self, capsys):
        assert lint_main(["/definitely/not/there"]) == 2
        err = capsys.readouterr().err
        assert "no such file or directory" in err

    def test_directory_without_python_files_exits_2(self, tmp_path, capsys):
        (tmp_path / "data.txt").write_text("not python")
        assert lint_main([str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "no Python files found" in err
        assert str(tmp_path) in err


class TestBaselineFlow:
    def test_ratchet_lifecycle(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        target = write_module(tmp_path, "bad.py")

        # Dirty tree without a baseline: gate fails.
        assert lint_main(["--no-invariants", "repro"]) == 1

        # Accept the debt.
        assert lint_main(
            ["--no-invariants", "--update-baseline", "repro"]
        ) == 0
        assert (tmp_path / "lint-baseline.json").is_file()

        # Baselined debt no longer gates; it is reported as suppressed.
        capsys.readouterr()
        assert lint_main(["--no-invariants", "repro"]) == 0
        assert "1 baselined" in capsys.readouterr().out

        # Debt paid off -> the stale entry itself fails the run...
        target.write_text(CLEAN)
        capsys.readouterr()
        assert lint_main(["--no-invariants", "repro"]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

        # ...until --update-baseline shrinks the file. Ratchet closed.
        assert lint_main(
            ["--no-invariants", "--update-baseline", "repro"]
        ) == 0
        payload = json.loads((tmp_path / "lint-baseline.json").read_text())
        assert payload["entries"] == []
        assert lint_main(["--no-invariants", "repro"]) == 0

    def test_new_findings_still_fail_with_a_baseline(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        write_module(tmp_path, "bad.py")
        assert lint_main(
            ["--no-invariants", "--update-baseline", "repro"]
        ) == 0
        write_module(
            tmp_path,
            "worse.py",
            '"""Fixture."""\nimport os\n\nPATH = os.getenv("PATH")\n',
        )
        assert lint_main(["--no-invariants", "repro"]) == 1

    def test_no_baseline_ignores_the_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_module(tmp_path, "bad.py")
        assert lint_main(
            ["--no-invariants", "--update-baseline", "repro"]
        ) == 0
        assert lint_main(["--no-invariants", "repro"]) == 0
        assert (
            lint_main(["--no-invariants", "--no-baseline", "repro"]) == 1
        )

    def test_conflicting_baseline_flags_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_module(tmp_path, "bad.py")
        assert (
            lint_main(
                ["--no-baseline", "--update-baseline", "repro"]
            )
            == 2
        )


class TestChangedMode:
    @pytest.fixture
    def git_repo(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        git = ["git", "-c", "user.email=t@t", "-c", "user.name=t"]
        subprocess.run(["git", "init", "-q"], check=True)
        write_module(tmp_path, "old.py")
        subprocess.run(["git", "add", "-A"], check=True)
        subprocess.run([*git, "commit", "-qm", "seed"], check=True)
        return tmp_path

    def test_only_changed_files_are_reported(self, git_repo, capsys):
        # old.py carries a committed, unchanged violation; new.py is
        # untracked with the same violation.
        write_module(git_repo, "new.py")
        code = lint_main(
            ["--changed", "--no-invariants", "--no-baseline", "repro"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "new.py" in out
        assert "old.py" not in out

    def test_clean_when_nothing_changed(self, git_repo):
        assert (
            lint_main(
                ["--changed", "--no-invariants", "--no-baseline", "repro"]
            )
            == 0
        )

    def test_modified_tracked_file_is_reported(self, git_repo, capsys):
        write_module(
            git_repo,
            "old.py",
            VIOLATING + 'PATH = os.getenv("PATH")\n',
        )
        code = lint_main(
            ["--changed", "--no-invariants", "--no-baseline", "repro"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "old.py" in out

    def test_outside_a_git_checkout_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nowhere"))
        write_module(tmp_path, "bad.py")
        assert (
            lint_main(
                ["--changed", "--no-invariants", "--no-baseline", "repro"]
            )
            == 2
        )


class TestOutputFormats:
    def test_output_flag_writes_the_report_to_a_file(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        write_module(tmp_path, "bad.py")
        report = tmp_path / "lint.json"
        code = lint_main(
            [
                "--format",
                "json",
                "--output",
                str(report),
                "--no-invariants",
                "--no-baseline",
                "repro",
            ]
        )
        assert code == 1
        assert capsys.readouterr().out == ""
        (finding,) = json.loads(report.read_text())["findings"]
        assert finding["rule"] == "D003"
        assert finding["path"].endswith("bad.py")

    def test_json_format_reports_baseline_stats(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        write_module(tmp_path, "bad.py")
        assert lint_main(
            ["--no-invariants", "--update-baseline", "repro"]
        ) == 0
        capsys.readouterr()
        code = lint_main(
            ["--format", "json", "--no-invariants", "repro"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["baseline"]["suppressed"] == 1
        assert payload["baseline"]["stale"] == []


class TestFixFlag:
    def test_fix_then_lint_in_one_invocation(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        target = write_module(
            tmp_path,
            "tags.py",
            '"""Fixture."""\n\nSCHEMA = "exec-v3"\n',
        )
        code = lint_main(
            ["--fix", "--no-invariants", "--no-baseline", "repro"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fixed S001" in out
        assert "SCHEMA = EXEC.tag" in target.read_text()
