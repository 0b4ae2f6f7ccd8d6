"""The README's worked examples, run as written and checked against what it prints."""

import re
import shlex
from pathlib import Path

from surftrack.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# A fenced block: its info string, then its body up to the closing fence.
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
# The session the README walks through; `compare` and `oracle` stand alone.
_SESSION = {"simulate", "reconstruct", "metrics"}


def _wall_time_masked(line: str) -> str:
    return re.sub(r" in \d+(\.\d+)?s$", " in <t>s", line)


def _session_steps() -> list[tuple[list[str], list[str]]]:
    """(argv, printed lines) for each README shell command of the session."""
    steps = []
    for _, body in _FENCE.findall(README):
        if not body.startswith("$ surftrack "):
            continue
        for chunk in re.split(r"^\$ ", body.replace("\\\n", ""), flags=re.M)[1:]:
            command, *printed = chunk.splitlines()
            argv = shlex.split(command)[1:]
            if argv[0] in _SESSION:
                steps.append((argv, printed))
    return steps


def test_library_tour_prints_what_the_readme_says(capsys):
    m = re.search(r"^```python\n(.*?)^```\n\nprints\n\n```\n(.*?)^```$", README, re.M | re.S)
    assert m, "library tour or its 'prints' block not found"
    code, printed = m.groups()
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == printed.splitlines()


def test_cli_session_prints_what_the_readme_says(tmp_path, monkeypatch, capsys):
    steps = _session_steps()
    assert [argv[0] for argv, _ in steps] == ["simulate", "reconstruct", "metrics"]
    monkeypatch.chdir(tmp_path)
    for argv, printed in steps:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        assert [_wall_time_masked(line) for line in out] == [
            _wall_time_masked(line) for line in printed
        ], argv
