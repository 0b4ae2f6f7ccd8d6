"""The demos, run as scripts: each must print exactly what it printed when pinned.

``PRINTED`` holds the sha256 of each demo's stdout.  A demo without a
pinned hash fails, so a new demo is pinned when it is added.  To pin
after a deliberate change, run the demo with the package on the path
and hash what it prints.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

PRINTED = {
    "retention_schedules": "79e6705937acdc4295cd8941327a399f1322f780a3744a3dedbfe23b96fa8fd1",
    "toy_colony": "d1d6717d5ffb3e708419de49c48d1d6d47b7742feba32005937e51d4bebc55a4",
    "treatment_contrast": "21cc034375e2fe52a4320dbba0b461c045ec78033656162ae3c5cd9a637edbda",
}


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_prints_its_pinned_output(capsys, name):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed).hexdigest() == PRINTED.get(name)
