"""README's examples run as written: the library quick start and every
`bpre` line of the CLI walkthrough, ending with a passing replay."""

import re
import shlex
import shutil
from pathlib import Path

from bpre import cli

ROOT = Path(__file__).resolve().parents[1]


def blocks(section: str, lang: str) -> list:
    """The ```lang blocks of README's `## section`, in order."""
    text = (ROOT / "README.md").read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    found = re.findall(rf"```{lang}\n(.*?)```", body, flags=re.S)
    assert found, f"README section {section!r} has no {lang} block"
    return found


def test_library_quick_start_runs():
    (code,) = blocks("Library quick start", "python")
    exec(compile(code, "README.md", "exec"), {})


def test_cli_walkthrough_runs_and_replays(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    lines = [line for block in blocks("CLI walkthrough", "sh")
             for line in block.splitlines() if line.startswith("bpre ")]
    assert lines[-1].startswith("bpre reproduce ")
    for line in lines:
        capsys.readouterr()
        assert cli.main(shlex.split(line)[1:]) == 0, line
    replay = capsys.readouterr().out.splitlines()
    assert replay and all(row.startswith("PASS ") for row in replay), replay
