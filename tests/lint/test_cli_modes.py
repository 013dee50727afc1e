"""CLI modes: --output, --format json, empty-path exit codes."""

import json

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
                "repro",
            ]
        )
        assert code == 1
        assert capsys.readouterr().out == ""
        (finding,) = json.loads(report.read_text())["findings"]
        assert finding["rule"] == "D003"
        assert finding["path"].endswith("bad.py")

    def test_json_format_holds_only_findings(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        write_module(tmp_path, "clean.py", CLEAN)
        assert lint_main(["--format", "json", "repro"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"findings": []}
