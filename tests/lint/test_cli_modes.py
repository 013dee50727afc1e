"""CLI modes: --changed, --output, --format json, empty-path exit codes."""

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
            ["--changed", "--no-invariants", "repro"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "new.py" in out
        assert "old.py" not in out

    def test_clean_when_nothing_changed(self, git_repo):
        assert (
            lint_main(
                ["--changed", "--no-invariants", "repro"]
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
            ["--changed", "--no-invariants", "repro"]
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
                ["--changed", "--no-invariants", "repro"]
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
                "repro",
            ]
        )
        assert code == 1
        assert capsys.readouterr().out == ""
        (finding,) = json.loads(report.read_text())["findings"]
        assert finding["rule"] == "D003"
        assert finding["path"].endswith("bad.py")

    def test_json_format_reports_findings_and_physics(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        write_module(tmp_path, "clean.py", CLEAN)
        assert lint_main(["--format", "json", "repro"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"findings": [], "physics": []}
