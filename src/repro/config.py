"""The one reader for scenario input.

Every object in a scenario file -- the document, each traffic, fault
and protection entry, ``random_faults``, each subsystem key's object,
each alert rule and the control-plane knob bundles
(``OverloadConfig``, ``ControllerConfig``, ``SecurityConfig``) -- is
read by :func:`read` against a table of its fields, one
``name -> (parse, default)`` row each; :func:`build` derives the table
of a dataclass from its fields, each read by the parser its annotation
names (``rate_bps: Annotated[float, POSITIVE] = 1e6``) or by its type.
The rules are the same at every level:

* a value that is not an object, and a key outside the table, are
  refused (the refusal names the accepted keys);
* an absent field is its default; ``null`` is accepted only where the
  default is unset (None), and a required field (:data:`REQUIRED`)
  must be there;
* each value goes through its field's parser: booleans are JSON
  ``true``/``false`` only, integers must be integral, and no number is
  NaN.

A refusal is one :class:`ScenarioError`, ``<where>: bad <field>
<value>: <why>``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Mapping
from typing import Annotated, Any, Dict, Optional, Tuple
from typing import get_origin, get_type_hints


class ScenarioError(ValueError):
    """A scenario document is malformed or internally inconsistent."""


#: the default of a field the object must carry
REQUIRED = dataclasses.MISSING


def read(where, raw: Any, table: Mapping, noun: str = "key") -> Dict[str, Any]:
    """``raw``'s value for every field of ``table``, parsed.  ``where``
    names the object in each refusal: a string (the document's is
    empty), or a callable making one, called only for a refusal."""
    if not isinstance(raw, Mapping):
        raise _refusal(where or "the document", "must be an object")
    if not raw.keys() <= table.keys():
        raise _refusal(
            where, f"unknown {noun}(s) "
            f"{', '.join(sorted(raw.keys() - table.keys()))} "
            f"(accepted: {', '.join(sorted(table)) or 'none'})"
        )
    out = {}
    for name, (parse, default) in table.items():
        value = raw.get(name, default)
        if value is default:  # absent, or null where the default is None
            if value is REQUIRED:
                raise _refusal(where, f"missing {name}")
            out[name] = value
            continue
        try:
            parsed = parse(value)
        except ScenarioError:
            raise  # a nested object's reader named it
        except (TypeError, ValueError, OverflowError) as exc:
            raise _refusal(where, f"bad {name} {value!r}: {exc}") from None
        if parsed != parsed:  # NaN, named as the number it became
            raise _refusal(where, f"bad {name} {parsed!r}: must be a number")
        out[name] = parsed
    return out


def _refusal(where, message: str) -> ScenarioError:
    """``message`` as a refusal, prefixed by the name of the object."""
    where = where() if callable(where) else where
    return ScenarioError(f"{where}: {message}" if where else message)


def build(cls, where, raw: Any, **given):
    """``cls(**raw, **given)`` for a dataclass: each field read by the
    parser its ``Annotated`` type names, else by its type's (``bool``,
    ``int``, ``float``, ``str``, or an optional float or string); an
    absent field is its default.  A ValueError from the class's own
    checks is named by ``where`` like a field's."""
    table, factories = _table(cls)
    if given or factories:
        table = dict(table)
        for name in given:
            del table[name]
        for name, make in factories.items():
            table[name] = (table[name][0], make())
    values = read(where, raw, table)
    try:
        return cls(**values, **given)
    except ValueError as exc:
        raise _refusal(where, str(exc)) from None


@functools.lru_cache(maxsize=None)
def _table(cls) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The read table of dataclass ``cls``, its annotations resolved
    once, and the default factory of each field that has one."""
    hints = get_type_hints(cls, include_extras=True)
    table, factories = {}, {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        parse = (hint.__metadata__[0] if get_origin(hint) is Annotated
                 else _TYPED[hint])
        table[f.name] = (parse, f.default)
        if f.default_factory is not dataclasses.MISSING:
            factories[f.name] = f.default_factory
    return table, factories


def parser(convert, holds, want):
    """A field parser: ``convert`` a scenario file's value, then refuse
    it unless it ``holds`` (``want`` says what would)."""

    def parse(value):
        parsed = convert(value)
        if not holds(parsed):
            raise ValueError(f"must be {want}")
        return parsed

    return parse


def REAL(value) -> float:
    """A number (a numeral string too, as ``float`` reads it)."""
    if isinstance(value, bool):
        raise TypeError("must be a number, not a boolean")
    return float(value)


def INTEGER(value) -> int:
    """An integral number (``2.0`` and ``"2"`` are 2; ``2.5`` is refused)."""
    if not REAL(value).is_integer():
        raise ValueError("must be an integer")
    return int(value)


BOOL = parser(lambda x: x, lambda x: isinstance(x, bool), "true or false")
TEXT = parser(lambda x: x, lambda x: isinstance(x, str), "a string")
# every test is positive, so a NaN fails them all
AMOUNT = parser(REAL, lambda x: 0 <= x < math.inf, "finite and >= 0")
NOT_NEGATIVE = parser(REAL, lambda x: x >= 0, ">= 0")
POSITIVE = parser(REAL, lambda x: 0 < x < math.inf, "finite and > 0")
COUNT = parser(INTEGER, lambda n: n >= 0, ">= 0")
SIZE = parser(INTEGER, lambda n: n >= 1, ">= 1")

#: the parser of each field type a dataclass declares without naming one
_TYPED = {
    bool: BOOL, int: INTEGER, float: REAL, str: TEXT,
    Optional[float]: REAL, Optional[str]: TEXT,
}
