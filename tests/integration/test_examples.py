"""Smoke-run every example script: examples must never rot.

Each example is executed in a subprocess with a generous timeout; a
non-zero exit (including any failed internal assertion) fails the
test.  The two hardware examples -- a network of ``HardwareLSRNode``s
(``embedded_router.py``) and the RTL driver's waveforms
(``hardware_simulation.py``) -- print the same bytes on every run, so
their stdout is also held to ``data/example_outputs.sha256``
(``sha256sum -c`` format, ``<example>.txt`` per line), computed with
the ``src/`` of the commit before the model and the RTL driver became
one backend; CI's ``perf-smoke`` job checks the same file.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)

EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)

PIN_FILE = Path(__file__).parent / "data" / "example_outputs.sha256"


def _pins():
    lines = PIN_FILE.read_text().splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_example_inventory():
    """The deliverable demands at least three runnable examples."""
    assert len(EXAMPLES) >= 3
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_clean(name):
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, (
        f"{name} exited {result.returncode}\n"
        f"stdout:\n{result.stdout[-2000:]}\n"
        f"stderr:\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{name} produced no output"
    pin = _pins().get(name.replace(".py", ".txt"))
    if pin is not None:
        printed = result.stdout.encode()
        assert hashlib.sha256(printed).hexdigest() == pin, name


def test_every_pin_names_an_example():
    assert sorted(_pins()) == ["embedded_router.txt", "hardware_simulation.txt"]
    assert {name.replace(".txt", ".py") for name in _pins()} <= set(EXAMPLES)
