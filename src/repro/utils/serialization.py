"""Canonical JSON serialisation and stable content hashing.

The campaign artifact store needs two properties from its serialisation:

* **canonical** — the same value always produces the same bytes (sorted keys,
  fixed separators, no environment-dependent formatting), so artifacts are
  byte-identical across runs and machines; and
* **total** — every value that appears in experiment configs and raw results
  (numpy scalars, tuples, dataclasses, paths) has a defined encoding.

:func:`stable_hash` builds content-addressed keys on top of
:func:`canonical_json`.

Compact text comes from the C ``json`` encoder.  Indented text (every
artifact-store blob) comes from a single-pass encoder here instead, since
``json.dumps`` drops to its pure-Python generator whenever ``indent`` is set
and would also need a full :func:`jsonify` copy first.  Its output is
byte-identical to ``json.dumps(jsonify(value), sort_keys=True,
indent=indent, separators=(",", ": "))``, which the tests hold it to.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from json.encoder import encode_basestring_ascii
from pathlib import PurePath
from typing import Any

import numpy as np


def tuplify(value: Any) -> Any:
    """Recursively turn lists/tuples into tuples.

    The inverse normalisation of a JSON round trip (JSON has no tuple), used
    wherever round-tripped overrides must stay hashable and compare equal to
    their tuple-valued originals.
    """
    if isinstance(value, (list, tuple)):
        return tuple(tuplify(item) for item in value)
    return value


def jsonify(value: Any) -> Any:
    """Recursively convert ``value`` into plain JSON-serialisable types.

    Tuples become lists (JSON has no tuple), numpy scalars become Python
    scalars, numpy arrays become nested lists, dataclasses become dicts and
    paths become strings.  Dict keys are coerced to ``str``.
    """
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonify(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [jsonify(v) for v in items]
    if isinstance(value, PurePath):
        return str(value)
    raise TypeError(f"cannot serialise {type(value).__name__!r} value {value!r}")


def canonical_json(value: Any, indent: "int | str | None" = None) -> str:
    """Serialise ``value`` as deterministic JSON text.

    Keys are sorted and separators fixed, so equal values yield identical
    strings.  Non-finite floats are kept (``Infinity``/``NaN`` literals) —
    the store only ever reads its own output back.
    """
    if indent is None:
        return json.dumps(jsonify(value), sort_keys=True, separators=(",", ":"))
    unit = indent if isinstance(indent, str) else " " * indent
    try:
        return _IndentedEncoder(unit).encode(value, 0)
    except TypeError:
        jsonify(value)  # re-raise the unserialisable value jsonify meets first
        raise


_INFINITY = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _null_text(value: None) -> str:
    return "null"


#: JSON text of each exact leaf type; subclasses (``IntEnum``, numpy
#: float64, ``str`` enums) are not keys, so they take the general path.
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: _bool_text,
    type(None): _null_text,
}


class _IndentedEncoder:
    """Indented canonical JSON in one pass over ``value``.

    Plain ``str``/``int``/``float``/``bool``/``None`` leaves, ``list`` and
    ``dict`` with ``str`` keys are encoded directly (dispatching on exact
    type).  ``str``/``int``/``float`` subclasses are encoded as
    ``json.dumps`` would; everything else is converted by :func:`jsonify`
    first.  A list of flat dicts (decision-event streams) renders each row
    from a ``%`` template cached per key set.
    """

    def __init__(self, unit: str):
        self.unit = unit
        self.templates: dict[tuple, "tuple[tuple[str, ...], str] | None"] = {}

    def encode(self, value: Any, level: int) -> str:
        kind = type(value)
        leaf = _LEAF_TEXT.get(kind)
        if leaf is not None:
            return leaf(value)
        if kind is list:
            if not value:
                return "[]"
            inner = "\n" + self.unit * (level + 1)
            return (
                "["
                + inner
                + ("," + inner).join(self._items(value, level + 1))
                + "\n"
                + self.unit * level
                + "]"
            )
        if kind is dict and all(type(key) is str for key in value):
            if not value:
                return "{}"
            inner = "\n" + self.unit * (level + 1)
            encode = self.encode
            return (
                "{"
                + inner
                + ("," + inner).join(
                    encode_basestring_ascii(key) + ": " + encode(value[key], level + 1)
                    for key in sorted(value)
                )
                + "\n"
                + self.unit * level
                + "}"
            )
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            return _float_text(value)
        return self.encode(jsonify(value), level)

    def _items(self, items: list, level: int) -> list[str]:
        """Encode list items at ``level``; flat dicts go through templates."""
        encode = self.encode
        templates = self.templates
        leaf_text = _LEAF_TEXT
        out = []
        for item in items:
            if type(item) is dict:
                keys = tuple(item)
                entry = templates.get((level, keys), False)
                if entry is False:
                    entry = templates[level, keys] = self._template(keys, level)
                if entry is not None:
                    order, template = entry
                    try:
                        out.append(
                            template
                            % tuple([leaf_text[type(v)](v) for v in map(item.__getitem__, order)])
                        )
                        continue
                    except KeyError:  # a nested or non-plain value: not a flat row
                        pass
            out.append(encode(item, level))
        return out

    def _template(self, keys: tuple, level: int) -> "tuple[tuple[str, ...], str] | None":
        """``(sorted keys, %-template)`` for a flat dict at ``level``."""
        if not keys or not all(type(key) is str for key in keys):
            return None
        order = tuple(sorted(keys))
        inner = "\n" + self.unit * (level + 1)
        body = ("," + inner).join(
            encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in order
        )
        return order, "{" + inner + body + "\n" + self.unit * level + "}"


def column_json_texts(column: np.ndarray) -> list[str]:
    """Compact canonical JSON text of each element of a 1-D numpy column.

    Element ``k`` equals ``canonical_json(column.tolist()[k])``; float and
    integer columns skip the per-element :func:`canonical_json` call.
    """
    items = column.tolist()
    kind = column.dtype.kind
    if kind == "f":
        finite = bool(np.isfinite(column).all())
        return list(map(float.__repr__ if finite else _float_text, items))
    if kind in "iu":
        return list(map(int.__repr__, items))
    return [canonical_json(item) for item in items]


def stable_hash(value: Any, length: int = 16) -> str:
    """A deterministic hex digest of ``value``'s canonical JSON form.

    ``length`` trims the sha256 hex digest (64 chars) for readable artifact
    file names; 16 hex chars keep collision odds negligible at campaign scale.
    """
    digest = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
    return digest[:length]
