"""The per-interpreter half of the reach census (``reach_census.py``).

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that has one; the census puts this directory first on
``PYTHONPATH``.  Unless ``REACH_CENSUS_DIR`` names a directory this
module does nothing.  When it does, every Python function that starts
running in this interpreter (or in a thread it starts) is recorded, and
at exit the ``file:first_line`` of each one under ``src/repro`` is
written to ``<pid>.reached`` in that directory.

The hook sits in the trace slot (``sys.settrace``), not the profile
slot: ``cProfile`` takes the profile slot and would silently drop the
hook.  The global trace function runs once per frame entry and returns
``None``, so no line events are traced.  Anything that does take the
trace slot (a debugger, a coverage tool) is noticed at exit, and the
file then says ``lost`` so the census refuses the leg.
"""

import os

_OUT = os.environ.get("REACH_CENSUS_DIR")

if _OUT:
    import atexit
    import sys
    import threading

    _SOURCE = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src", "repro",
    ) + os.sep
    _codes = set()

    def _record(frame, event, arg):
        _codes.add(frame.f_code)

    def _dump():
        lost = sys.gettrace() is not _record
        sys.settrace(None)
        threading.settrace(None)
        # a frozenset copy is one C call: a daemon thread still tracing
        # cannot change the set while it is read
        codes = frozenset(_codes)
        lines = sorted({
            f"{code.co_filename}:{code.co_firstlineno}"
            for code in codes if code.co_filename.startswith(_SOURCE)
        })
        path = os.path.join(_OUT, f"{os.getpid()}.reached")
        with open(path, "w") as handle:
            if lost:
                handle.write("lost\n")
            handle.writelines(line + "\n" for line in lines)

    sys.settrace(_record)
    threading.settrace(_record)
    atexit.register(_dump)
