"""Canonical report serialization.

Reports must be byte-identical across runs with the same configuration and
seed, so serialization is done by a small deterministic emitter rather than
a library whose float formatting might drift: JSON floats are written with
17 significant digits (lossless for doubles), keys keep insertion order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass(frozen=True)
class Table:
    """Same-keyed records held as columns.

    Record ``i`` maps every key to row ``i`` of its column (an array, or a
    list); a row of a 2-d array is a list.  A table serializes exactly as the
    list of its records, and iterating it yields them.
    """

    columns: dict[str, Any]

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __iter__(self):
        cols = [_plain(col) for col in self.columns.values()]
        return (dict(zip(self.columns, row)) for row in zip(*cols))


def _plain(col: Any) -> list:
    return col.tolist() if isinstance(col, np.ndarray) else list(col)


def format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(float(x), ".17g")


def _scalar(obj: Any) -> str:
    """JSON text of a scalar: ``None``, a bool, an integer, a float or a
    string, numpy scalars included."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj: Any) -> str:
    """Serialize to JSON with deterministic float formatting."""
    return _emit(obj, 0)


def _emit(obj: Any, indent: int) -> str:
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    pad = " " * indent
    child = " " * (indent + 2)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_emit(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(child + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{json.dumps(str(k))}: {_emit(v, indent + 2)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(child + it for it in items) + "\n" + pad + "}"
    if isinstance(obj, Table):
        return _emit_table(obj, indent)
    return _scalar(obj)


def _emit_table(table: Table, indent: int) -> str:
    """The text of the list of ``table``'s records, each column encoded at
    once (see :func:`_cells`)."""
    if not len(table):
        return "[]"
    pad, child = " " * indent, " " * (indent + 2)
    keys = [f"{' ' * (indent + 4)}{json.dumps(str(k))}: " for k in table.columns]
    cells = [_cells(col, indent + 4) for col in table.columns.values()]
    records = [f"{child}{{\n" + ",\n".join(k + c for k, c in zip(keys, row))
               + f"\n{child}}}" for row in zip(*cells)]
    return "[\n" + ",\n".join(records) + "\n" + pad + "]"


def _cells(col: Any, indent: int) -> list[str]:
    """The text of each row of a table column.  A float array takes one
    ``tolist()`` and one ``format`` per number; its rows are numbers (1-d)
    or lists of numbers (2-d)."""
    if not (isinstance(col, np.ndarray) and col.dtype.kind == "f" and col.ndim <= 2):
        return [_emit(v, indent) for v in _plain(col)]
    text = [format(x, ".17g") for x in col.ravel().tolist()]
    for i in np.flatnonzero(~np.isfinite(col.ravel())).tolist():
        text[i] = "null"
    if col.ndim == 1:
        return text
    width = col.shape[1]
    item = "\n" + " " * (indent + 2)
    close = "\n" + " " * indent + "]"
    return ["[" + ",".join(item + t for t in text[r:r + width]) + close
            for r in range(0, len(text), width)]


def _compact(obj: Any) -> str:
    """One-line JSON of a nested value for a CSV cell, ``;`` in place of
    every comma.  Each float takes its shortest round-trip form
    (``0.3699999999999999``), an integral one below 1e17 the form of an
    integer: the value that its 17-digit JSON text parses back to."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return "{" + ";".join(f"{_compact(str(k))}:{_compact(v)}"
                              for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ";".join(_compact(v) for v in obj) + "]"
    text = _scalar(obj)
    if isinstance(obj, str):
        return text.replace(",", ";")
    if isinstance(obj, (float, np.floating)) and text != "null":
        return repr(float(obj)) if "." in text or "e" in text else str(int(obj))
    return text


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple, dict, np.ndarray)):
        return _compact(value)
    if isinstance(value, (bool, int, float, np.integer, np.floating)):
        return _scalar(value)
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def report_to_csv(report: dict) -> str:
    """Flatten a run report into section,name,field,value rows.

    Scalar numeric cells use the 17-digit decimal encoding of the JSON form.
    A nested value (``config.box``, ``evidence.margins``) is one cell of
    compact JSON whose floats take their shortest round-trip form (see
    :func:`_compact`); both encodings round-trip to identical values.
    """
    rows = [("section", "name", "field", "value")]

    def emit(section: str, name: str, mapping: dict) -> None:
        for key, val in mapping.items():
            if isinstance(val, dict):
                for k2, v2 in val.items():
                    rows.append((section, name, f"{key}.{k2}", _csv_cell(v2)))
            elif isinstance(val, (list, tuple, np.ndarray)):
                seq = _plain(val)
                if all(not isinstance(v, (list, tuple, dict, np.ndarray)) for v in seq):
                    for i, v in enumerate(seq):
                        rows.append((section, name, f"{key}_{i}", _csv_cell(v)))
                else:
                    rows.append((section, name, key, _csv_cell(val)))
            else:
                rows.append((section, name, key, _csv_cell(val)))

    emit("config", "", report.get("config", {}))
    for idx, rec in enumerate(report.get("points", [])):
        emit("point", str(idx), rec)
    for rec in report.get("identities", []):
        emit("identity", rec.get("name", ""),
             {k: v for k, v in rec.items() if k != "name"})
    emit("hypotheses", "", report.get("hypotheses", {}))
    emit("classification", "", report.get("classification", {}))
    rows.append(("runtime", "", "runtime_seconds",
                 _csv_cell(report.get("runtime_seconds"))))
    return "\n".join(",".join(r) for r in rows) + "\n"
