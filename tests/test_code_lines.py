"""Tests for tools/code_lines.py, the code-line counter CI reports with."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_counts_no_blank_comment_or_docstring_line():
    source = '"""Module doc."""\n\nx = 1\n# note\n\ndef f():\n    """Doc\n    more."""\n    return x\n'
    assert code_lines.code_lines(source) == 3


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_base_prints_each_module_delta(tmp_path, monkeypatch, capsys):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text('"""Doc."""\nx = 1\ny = 2\n')
    (pkg / "gone.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not a module\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "base")
    (pkg / "a.py").write_text('"""Doc."""\nx = 1\n# note\ny = 2\nw = 4\n')
    (pkg / "gone.py").unlink()
    (pkg / "new.py").write_text("v = 5\n")

    monkeypatch.chdir(tmp_path)
    assert code_lines.main(["pkg", "--base", "HEAD"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "lines", "base", "delta"],
        ["a.py", "3", "2", "+1"],
        ["gone.py", "0", "1", "-1"],
        ["new.py", "1", "0", "+1"],
        ["total", "4", "3", "+1"],
    ]
