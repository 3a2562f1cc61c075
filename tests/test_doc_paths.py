"""Every test file the docs and the sources name exists.

A test file that is merged or renamed leaves its old path behind in
prose; this scans what a reader follows -- ``DESIGN.md``, ``README.md``,
``docs/*.md``, the repository's skill notes and ``src/`` -- for
``tests/....py`` paths and requires each to exist.  ``CHANGES.md`` and
``EXPERIMENTS.md`` are history, and name files as they were.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_PATH = re.compile(r"(?<![\w/.-])tests/[\w/.-]*\.py\b")


def _documents():
    yield ROOT / "DESIGN.md"
    yield ROOT / "README.md"
    yield from sorted((ROOT / "docs").glob("*.md"))
    yield from sorted((ROOT / ".claude" / "skills").rglob("*.md"))
    yield from sorted((ROOT / "src").rglob("*.py"))


def test_every_named_test_file_exists():
    named = {
        (path.relative_to(ROOT), name)
        for path in _documents()
        if path.is_file()
        for name in TEST_PATH.findall(path.read_text(encoding="utf-8"))
    }
    # the scan reads what it should: DESIGN.md names the kernel suite
    assert (Path("DESIGN.md"), "tests/hdl/test_kernel_equivalence.py") in named
    missing = sorted(
        f"{path}: {name}" for path, name in named if not (ROOT / name).is_file()
    )
    assert missing == []
