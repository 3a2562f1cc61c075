#!/usr/bin/env python3
"""Harness contract: every call the benchmark harness makes into
``src/repro``, and whether each one still binds.

Reads (never imports) every file under ``benchmarks/perf`` with ``ast``
and prints, sorted by file and line, one line per thing the harness
relies on:

* a call whose callee it can name -- an imported ``repro`` name, an
  attribute chain on one, or a method called on a variable assigned
  (or annotated) as an instance of an imported class -- with the
  parameters its arguments bind to (``inspect.signature(...).bind``
  over the positional count and keyword names as written)::

      probes.py:381  repro.control.ldp.LDPProcess(topology, nodes)

* an attribute the harness rebinds or wraps from outside
  (``chaos.build_run = ...``, an ``(owner, "name", ...)`` row), and
  for a module function the module's functions that read it as a
  global, without which the rebinding would change nothing::

      workloads.py:341  repro.faults.chaos.build_run rebound, read by run_scenario

* a ``python -m repro <command>`` argv, with the flags it passes::

      probes.py:699  repro chaos --seed --batching -o

Anything the harness names that is gone is a problem: an import that
does not resolve, an attribute a callee or owner lacks, a call that
does not bind, a rebound global no function reads, a command or flag
the CLI does not take.  Problems print to standard error and make the
exit code 1.

    python tools/harness_contract.py             # print the contract
    python tools/harness_contract.py --check tools/harness_contract.txt

``--check`` also exits 1 when the contract and the list differ (a
renamed parameter moves a line, a deleted shim drops one).
"""

from __future__ import annotations

import argparse
import ast
import difflib
import importlib
import inspect
import os
import sys
import types
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(ROOT, "benchmarks", "perf")
LIST = os.path.join(HERE, "harness_contract.txt")


@dataclass(frozen=True)
class Instance:
    """A value the walk knows only by its class."""

    cls: type


@dataclass(frozen=True)
class Method:
    """``cls.name`` called on an instance."""

    cls: type
    name: str


@dataclass
class Contract:
    lines: List[Tuple[str, int, str]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    def sorted_lines(self) -> List[str]:
        return [f"{name}:{line}  {text}"
                for name, line, text in sorted(self.lines)]


def _label(obj: Any) -> str:
    if isinstance(obj, types.ModuleType):
        return obj.__name__
    return f"{obj.__module__}.{obj.__qualname__}"


class _Walk(ast.NodeVisitor):
    def __init__(self, filename: str, tree: ast.Module, out: Contract):
        self.file = filename
        self.out = out
        #: local name -> imported ``repro`` object
        self.names: Dict[str, Any] = {}
        #: innermost last: variable -> Instance
        self.scopes: List[Dict[str, Instance]] = [{}]
        #: a harness function that passes its ``**kwargs`` on: name ->
        #: (its parameter names, the call it passes them to)
        self.forwarders: Dict[str, Tuple[set, ast.Call]] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._import(node)
            elif isinstance(node, ast.FunctionDef) and node.args.kwarg:
                kwarg = node.args.kwarg.arg
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and any(
                        k.arg is None and isinstance(k.value, ast.Name)
                        and k.value.id == kwarg for k in call.keywords
                    ):
                        named = {a.arg for a in node.args.args
                                 + node.args.kwonlyargs}
                        self.forwarders[node.name] = (named, call)

    # -- what a name or expression is ---------------------------------------
    def problem(self, node: ast.AST, text: str) -> None:
        problem = f"{self.file}:{node.lineno}: {text}"
        if problem not in self.out.problems:
            self.out.problems.append(problem)

    def record(self, node: ast.AST, text: str) -> None:
        self.out.lines.append((self.file, node.lineno, text))

    def _import(self, node) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "repro":
                    continue
                try:
                    module = importlib.import_module(alias.name)
                except ImportError as exc:
                    self.problem(node, f"import {alias.name}: {exc}")
                    continue
                if alias.asname:
                    self.names[alias.asname] = module
                else:
                    self.names["repro"] = importlib.import_module("repro")
            return
        if node.level or (node.module or "").split(".")[0] != "repro":
            return
        try:
            module = importlib.import_module(node.module)
        except ImportError as exc:
            self.problem(node, f"from {node.module} import: {exc}")
            return
        for alias in node.names:
            try:
                value = getattr(module, alias.name)
            except AttributeError:
                try:
                    value = importlib.import_module(
                        f"{node.module}.{alias.name}")
                except ImportError:
                    self.problem(node, f"from {node.module} import "
                                       f"{alias.name}: no such name")
                    continue
            self.names[alias.asname or alias.name] = value

    def value(self, node: ast.AST) -> Any:
        """An imported object, an :class:`Instance`, a :class:`Method`,
        or None when the walk cannot tell."""
        if isinstance(node, ast.Name):
            for scope in reversed(self.scopes):
                if node.id in scope:
                    return scope[node.id]
            return self.names.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.value(node.value)
            if base is None or isinstance(base, Method):
                return None
            if isinstance(base, Instance):
                static = inspect.getattr_static(base.cls, node.attr, None)
                if isinstance(static, (types.FunctionType, staticmethod,
                                       classmethod)):
                    return Method(base.cls, node.attr)
                return None  # an instance attribute or a property
            try:
                return getattr(base, node.attr)
            except AttributeError:
                self.problem(node, f"{_label(base)} has no "
                                   f"attribute {node.attr!r}")
                return None
        if isinstance(node, ast.Call):
            callee = self.value(node.func)
            if isinstance(callee, type):
                return Instance(callee)
        return None

    # -- scopes -------------------------------------------------------------
    def visit_FunctionDef(self, node) -> None:
        for deco in node.decorator_list:
            self.visit(deco)
        for default in node.args.defaults + node.args.kw_defaults:
            if default is not None:
                self.visit(default)
        scope: Dict[str, Instance] = {}
        for arg in node.args.args + node.args.kwonlyargs:
            if arg.annotation is not None:
                cls = self.value(arg.annotation)
                if isinstance(cls, type):
                    scope[arg.arg] = Instance(cls)
        self.scopes.append(scope)
        for stmt in node.body:
            self.visit(stmt)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        value = self.value(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name) and isinstance(value, Instance):
                self.scopes[-1][target.id] = value
            elif isinstance(target, ast.Attribute):
                self._rebinding(target, target.attr, target.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        cls = self.value(node.annotation)
        if isinstance(node.target, ast.Name) and isinstance(cls, type):
            self.scopes[-1][node.target.id] = Instance(cls)

    def visit_Tuple(self, node: ast.Tuple) -> None:
        # an ``(owner, "attribute", ...)`` row names an attribute the
        # harness wraps or reads by name
        self.generic_visit(node)
        if (len(node.elts) >= 2 and isinstance(node.elts[1], ast.Constant)
                and isinstance(node.elts[1].value, str)
                and node.elts[1].value.isidentifier()):
            owner = self.value(node.elts[0])
            if isinstance(owner, (type, types.ModuleType)):
                self._rebinding(node, node.elts[1].value, node.elts[0])

    def _rebinding(self, node: ast.AST, name: str, owner_node) -> None:
        owner = self.value(owner_node)
        if not isinstance(owner, (type, types.ModuleType)):
            return
        if not hasattr(owner, name):
            self.problem(node, f"{_label(owner)} has no attribute "
                               f"{name!r} to rebind")
            return
        text = f"{_label(owner)}.{name} rebound"
        if isinstance(owner, types.ModuleType) and inspect.isfunction(
                getattr(owner, name)):
            readers = sorted(
                fn.__name__ for fn in vars(owner).values()
                if inspect.isfunction(fn)
                and fn.__module__ == owner.__name__
                and name in fn.__code__.co_names
            )
            if not readers:
                self.problem(node, f"{text}, but no function of "
                                   f"{owner.__name__} reads it as a global")
                return
            text += ", read by " + " ".join(readers)
        self.record(node, text)

    # -- calls --------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        self._argv(node)
        if (isinstance(node.func, ast.Attribute)
                and isinstance(self.value(node.func.value), Instance)):
            cls = self.value(node.func.value).cls
            if inspect.getattr_static(cls, node.func.attr, None) is None:
                self.problem(node, f"{_label(cls)} has no method "
                                   f"{node.func.attr!r}")
                return
        if isinstance(node.func, ast.Name) and node.func.id in self.forwarders:
            # what the harness function passes on reaches its callee
            named, inner = self.forwarders[node.func.id]
            keywords = [k.arg for k in inner.keywords if k.arg is not None]
            keywords += [k.arg for k in node.keywords if k.arg not in named]
            self._bind(node, self.value(inner.func), inner.args, keywords,
                       f" via {node.func.id}")
            return
        if any(k.arg is None for k in node.keywords):
            keywords = None
        else:
            keywords = [k.arg for k in node.keywords]
        self._bind(node, self.value(node.func), node.args, keywords)

    def _bind(self, node: ast.Call, callee: Any, args: List[ast.expr],
              keywords: Optional[List[str]], via: str = "") -> None:
        """Record ``callee`` called with ``args`` and ``keywords`` (None:
        a ``**`` the walk cannot see through)."""
        if isinstance(callee, Method):
            static = inspect.getattr_static(callee.cls, callee.name)
            if isinstance(static, staticmethod):
                fn, skip = static.__func__, 0
            elif isinstance(static, classmethod):
                fn, skip = getattr(callee.cls, callee.name), 0
            else:
                fn, skip = static, 1
            label = f"{_label(callee.cls)}.{callee.name}"
        elif callable(callee) and hasattr(callee, "__qualname__"):
            fn, label, skip = callee, _label(callee), 0
        else:
            return
        if not label.startswith("repro."):
            return
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            return
        if keywords is None or any(isinstance(a, ast.Starred) for a in args):
            self.record(node, f"{label}(...){via}")
            return
        placeholders = [object()] * (skip + len(args))
        try:
            bound = signature.bind(
                *placeholders, **{name: None for name in keywords})
        except TypeError as exc:
            self.problem(node, f"{label}{via}: {exc}")
            return
        params = []
        for name in list(bound.arguments)[skip:]:
            kind = signature.parameters[name].kind
            if kind is inspect.Parameter.VAR_POSITIONAL:
                params.append(f"*{name}")
            elif kind is inspect.Parameter.VAR_KEYWORD:
                params.extend(sorted(bound.arguments[name]))
            else:
                params.append(name)
        self.record(node, f"{label}({', '.join(params)}){via}")

    def _argv(self, node: ast.Call) -> None:
        """A ``"-m", "repro", <command>, ...`` argument run."""
        args = [a.value if isinstance(a, ast.Constant) else None
                for a in node.args]
        for i in range(len(args) - 2):
            if args[i:i + 2] != ["-m", "repro"]:
                continue
            from repro.cli import COMMANDS, OVERRIDES
            from repro.faults.subsystems import FLAGS

            command = args[i + 2]
            rows = [row for row in COMMANDS if row.name == command]
            if not rows:
                self.problem(node, f"repro has no command {command!r}")
                return
            accepted = set()
            for spec in rows[0].args:
                if spec is OVERRIDES:
                    accepted.update(f"--{sub.flag.name}"
                                    for sub in FLAGS.values())
                else:
                    accepted.update(spec[0])
            flags = [a for a in args[i + 3:]
                     if isinstance(a, str) and a.startswith("-")]
            for flag in flags:
                if flag not in accepted:
                    self.problem(node, f"repro {command} takes no {flag}")
            self.record(node, " ".join(["repro", command, *flags]))


def walk(harness: str = HARNESS) -> Contract:
    """The contract of every ``*.py`` file under ``harness``."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    out = Contract()
    for name in sorted(os.listdir(harness)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(harness, name)) as handle:
            tree = ast.parse(handle.read(), name)
        _Walk(name, tree, out).visit(tree)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", metavar="LIST",
                        help="compare with a committed contract list")
    args = parser.parse_args(argv)
    contract = walk()
    for problem in contract.problems:
        print(f"problem: {problem}", file=sys.stderr)
    lines = contract.sorted_lines()
    if args.check is None:
        print("\n".join(lines))
        return 1 if contract.problems else 0
    with open(args.check) as handle:
        listed = handle.read().splitlines()
    diff = list(difflib.unified_diff(listed, lines, args.check, "harness",
                                     lineterm=""))
    print("\n".join(diff) if diff else "contract holds")
    return 1 if diff or contract.problems else 0


if __name__ == "__main__":
    sys.exit(main())
