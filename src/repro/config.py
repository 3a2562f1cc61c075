"""Typed config objects from scenario-file mappings.

The control-plane knob bundles (``OverloadConfig``, ``ControllerConfig``,
``SecurityConfig``) are dataclasses whose fields are ``bool``, ``int``
or ``float``; :func:`from_mapping` builds one from a scenario key's
object, casting each value to its field's declared type.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

#: a declared field type, as the string a postponed annotation is
_CASTS = {"bool": bool, "int": int, "float": float}


def from_mapping(cls, what: str, raw: Mapping[str, Any], **given):
    """``cls(**raw, **given)``, each ``raw`` value cast to its field's
    declared type.  A key that is no field (or is ``given``) and a value
    its type refuses are ValueErrors naming the key."""
    types = {f.name: f.type for f in dataclasses.fields(cls)
             if f.name not in given}
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ValueError(
            f"unknown {what} key(s): {', '.join(unknown)} "
            f"(accepted: {', '.join(sorted(types))})"
        )
    for name, value in raw.items():
        try:
            given[name] = _CASTS.get(types[name], types[name])(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad {name} {value!r}: {exc}") from None
    return cls(**given)
