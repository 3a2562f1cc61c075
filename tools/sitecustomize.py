"""The per-interpreter half of the reach census (``reach_census.py``).

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that has one; the census puts this directory first on
``PYTHONPATH``.  Unless ``REACH_CENSUS_DIR`` names a directory this
module does nothing.  When it does, every Python function that starts
running in this interpreter (or in a thread it starts) is recorded, and
at exit the ``file:first_line`` of each one under ``src/repro`` is
written to ``<pid>.reached`` in that directory.

The record also reads arguments.  The first time a function under
``src/repro`` starts, the hook finds the function object and keeps its
defaulted parameters; each later start compares what the call bound to
each kept parameter with the default (``==`` for a literal default,
``is`` for any other default object).  A parameter bound to anything
else has *moved*: it is written as a ``moved file:first_line name`` line
and never checked again.  A function whose object cannot be found is
written as ``unresolved file:first_line`` and the census counts all of
its parameters as moved.  A generator's later resumes see its current
locals, which can only count a parameter as moved, never hide a move.

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
    import gc
    import sys
    import threading
    import types

    _SOURCE = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "src", "repro",
    ) + os.sep
    _LITERALS = (int, float, complex, str, bytes, type(None))
    #: code -> [name, default, is_literal] for each parameter still
    #: unmoved, or None once there is nothing (left) to check
    _pending = {}
    _moved = []
    _unresolved = []
    #: code -> function, for every function and method of a loaded
    #: ``repro`` module; rebuilt when a code object is missing from it
    _functions = {}

    def _literal(value):
        if isinstance(value, (tuple, frozenset)):
            return all(_literal(item) for item in value)
        return isinstance(value, _LITERALS)

    def _index(namespace, seen):
        for value in list(vars(namespace).values()):
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            elif isinstance(value, property):
                for accessor in (value.fget, value.fset, value.fdel):
                    if isinstance(accessor, types.FunctionType):
                        _functions[accessor.__code__] = accessor
                continue
            while isinstance(value, types.FunctionType):
                _functions[value.__code__] = value
                value = getattr(value, "__wrapped__", None)
            if isinstance(value, type) and value not in seen:
                seen.add(value)
                _index(value, seen)

    def _function(code):
        if code not in _functions:
            seen = set()
            for module in list(sys.modules.values()):
                path = getattr(module, "__file__", None) or ""
                if path.startswith(_SOURCE):
                    _index(module, seen)
        if code not in _functions:
            # a nested def: its function object exists only at run time
            for referrer in gc.get_referrers(code):
                if isinstance(referrer, types.FunctionType):
                    _functions[code] = referrer
                    break
        return _functions.get(code)

    def _first(code):
        """The parameters to check on each start of ``code``."""
        if not code.co_filename.startswith(_SOURCE) or not (
                code.co_argcount + code.co_kwonlyargcount):
            return None
        function = _function(code)
        if function is None:
            _unresolved.append(code)
            return None
        names = code.co_varnames[:code.co_argcount]
        defaults = function.__defaults__ or ()
        params = [[name, default, _literal(default)] for name, default in
                  zip(names[len(names) - len(defaults):], defaults)]
        params += [[name, default, _literal(default)] for name, default in
                   (function.__kwdefaults__ or {}).items()]
        return params or None

    def _record(frame, event, arg):
        code = frame.f_code
        if code in _pending:
            params = _pending[code]
            if params is None:
                return
        else:
            params = _pending[code] = _first(code)
            if params is None:
                return
        bound = frame.f_locals
        for param in list(params):
            name, default, literal = param
            value = bound.get(name, default)
            if value is default:
                continue
            try:
                same = literal and bool(value == default)
            except Exception:
                same = False
            if not same and param in params:
                params.remove(param)
                _moved.append((code, name))
        if not params:
            _pending[code] = None

    def _where(code):
        return f"{code.co_filename}:{code.co_firstlineno}"

    def _dump():
        lost = sys.gettrace() is not _record
        sys.settrace(None)
        threading.settrace(None)
        # copies made in one C call each: a daemon thread still tracing
        # cannot change them while they are read
        codes = frozenset(dict(_pending))
        moved = tuple(_moved)
        unresolved = tuple(_unresolved)
        lines = sorted({
            _where(code) for code in codes
            if code.co_filename.startswith(_SOURCE)
        })
        lines += sorted({f"moved {_where(code)} {name}"
                         for code, name in moved})
        lines += sorted({f"unresolved {_where(code)}"
                         for code in unresolved})
        path = os.path.join(_OUT, f"{os.getpid()}.reached")
        with open(path, "w") as handle:
            if lost:
                handle.write("lost\n")
            handle.writelines(line + "\n" for line in lines)

    sys.settrace(_record)
    threading.settrace(_record)
    atexit.register(_dump)
