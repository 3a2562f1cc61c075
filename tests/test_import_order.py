"""Every module under ``src/repro`` imports as the first one loaded.

A circular import hides as long as something else happens to be
imported first.  A subprocess imports each module in turn, after
clearing every ``repro`` module from ``sys.modules``, and prints the
ones that fail; two of them split the modules between them, since
each import reloads most of the package.  ``__main__`` modules run a
command line when imported and are left out.
"""

import os
import pathlib
import subprocess
import sys

import repro

SCRIPT = """
import importlib, pathlib, sys
root, part, parts = pathlib.Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
names = []
for path in sorted(root.rglob("*.py")):
    dotted = path.relative_to(root.parent).with_suffix("").parts
    if dotted[-1] == "__main__":
        continue
    names.append(".".join(dotted[:-1] if dotted[-1] == "__init__" else dotted))
for name in names[part::parts]:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print(f"{name}: {exc!r}")
print(len(names[part::parts]), "modules")
"""

#: subprocesses the modules are split between
PARTS = 2


def test_every_module_imports_first():
    root = pathlib.Path(repro.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(root.parent))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", SCRIPT, str(root), str(part), str(PARTS)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for part in range(PARTS)
    ]
    outputs = [run.communicate(timeout=300) for run in runs]
    assert [run.returncode for run in runs] == [0] * PARTS, outputs
    imported = 0
    for stdout, _ in outputs:
        *failed, last = stdout.splitlines()
        assert failed == []
        imported += int(last.split()[0])
    assert imported == sum(1 for p in root.rglob("*.py") if p.stem != "__main__")
