"""Telemetry is resolved once, when an object is built.

An object that reports telemetry takes the default ``Telemetry`` in its
``__init__`` (or its network's) and keeps it; per-packet, per-message
and per-event code reads that reference.  So ``get_telemetry()`` may be
called under ``src/repro`` only

* inside an ``__init__``;
* as the fallback of an explicit parameter,
  ``telemetry if telemetry is not None else get_telemetry()``;
* in the analytic cost models, module-level functions with no object
  to keep a reference on.
"""

import ast
import os

import repro

SRC = os.path.dirname(repro.__file__)

#: (module, function) of the analytic models
ANALYTIC = {
    ("core/timing.py", "worst_case_scenario"),
    ("core/timing.py", "cycles_for_counts"),
    ("core/pipeline.py", "pipeline_point"),
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_fallback(parent, call) -> bool:
    """``x if x is not None else get_telemetry()``"""
    if not (isinstance(parent, ast.IfExp) and parent.orelse is call):
        return False
    test = parent.test
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
        and ast.dump(test.left) == ast.dump(parent.body)
    )


def disallowed_lookups(source: str, module: str):
    """(line, enclosing function) of every ``get_telemetry()`` call in
    ``source`` the rule does not allow."""
    tree = ast.parse(source)
    parents = {
        child: node
        for node in ast.walk(tree)
        for child in ast.iter_child_nodes(node)
    }
    found = []
    for call in ast.walk(tree):
        func = getattr(call, "func", None)
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if not isinstance(call, ast.Call) or name != "get_telemetry":
            continue
        if _is_fallback(parents.get(call), call):
            continue
        scope = parents.get(call)
        while scope is not None and not isinstance(scope, _SCOPES):
            scope = parents.get(scope)
        where = getattr(scope, "name", "<lambda>" if scope else "<module>")
        if where != "__init__" and (module, where) not in ANALYTIC:
            found.append((call.lineno, where))
    return sorted(found)


def _modules():
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as fh:
                    yield os.path.relpath(path, SRC), fh.read()


class TestResolvedOnce:
    def test_src_looks_telemetry_up_only_where_allowed(self):
        found = {
            module: calls
            for module, source in _modules()
            if (calls := disallowed_lookups(source, module))
        }
        assert found == {}

    def test_a_seeded_per_hop_lookup_fails(self):
        with open(os.path.join(SRC, "net", "link.py")) as fh:
            source = fh.read()
        assert disallowed_lookups(source, "net/link.py") == []
        hop = '"""Queue a packet for transmission.  Returns False on drop."""'
        assert source.count(hop) == 1
        seeded = source.replace(hop, hop + "\n        get_telemetry()")
        [(_line, where)] = disallowed_lookups(seeded, "net/link.py")
        assert where == "send"

    def test_the_lint_tells_the_shapes_apart(self):
        source = (
            "class C:\n"
            "    def __init__(self, telemetry=None):\n"
            "        self.telemetry = get_telemetry()\n"
            "        self.late = lambda: get_telemetry()\n"
            "    def attach(self, telemetry=None):\n"
            "        tel = telemetry if telemetry is not None else get_telemetry()\n"
            "        other = telemetry if tel is not None else get_telemetry()\n"
            "    def receive(self):\n"
            "        tel = obs.get_telemetry()\n"
            "def worst_case_scenario():\n"
            "    return get_telemetry()\n"
        )
        assert disallowed_lookups(source, "core/timing.py") == [
            (4, "<lambda>"), (7, "attach"), (9, "receive"),
        ]
        assert (11, "worst_case_scenario") in disallowed_lookups(
            source, "net/link.py"
        )
