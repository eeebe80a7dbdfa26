"""Canonical report serialization.

Reports must be byte-identical across runs with the same configuration and
seed, so serialization is done by a small deterministic emitter rather than
a library whose float formatting might drift: JSON floats are written with
17 significant digits (lossless for doubles), keys keep insertion order.

A :class:`Table` of numbers (a report's per-point records) is formatted in
one pass: every record whose cells are null in the same places shares one
``%``-template, with a ``%.17g`` slot per number and a literal ``null`` (in
CSV: ``null`` for NaN or inf, an empty cell for None) for the others, and
one ``%`` over the joined templates fills every slot of the table.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .records import Frozen


class Table(Frozen):
    """Same-keyed records held as columns.

    Record ``i`` maps every key to row ``i`` of its column (an array, or a
    list); a row of a 2-d array is a list.  A table serializes exactly as the
    list of its records, and iterating it yields them.

    Columns of floats (1-d, or 2-d for rows of lists) and of floats and
    Nones are written by one ``%``-template per pattern of null cells, in
    one formatting pass over the table; a table with any other column is
    written record by record.
    """

    __slots__ = ("columns",)      # dict[str, Any]

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
    """The text of the list of ``table``'s records, in one formatting pass
    when its cells are numbers and Nones (see :func:`_slots`), else record
    by record."""
    slots = _slots(table)
    if slots is None:
        return _emit(list(table), indent)
    widths, values, state = slots
    keys = [json.dumps(str(k)).replace("%", "%%") for k in table.columns]
    text = _format_records(state, lambda p: _json_record(keys, widths, p, indent + 2),
                           values[state == 0], ",\n")
    return "[\n" + text + "\n" + " " * indent + "]"


def _slots(table: Table):
    """The width of each column's rows (None for a number) and ``table``'s
    cells as slots: one float matrix with a column per number, and each
    slot's state, 0 for a finite number, 1 for NaN or inf, 2 for None.
    None when the table is empty, holds no number, or has a column of
    anything but floats, rows of floats and Nones.
    """
    if not len(table):
        return None
    widths, values, states = [], [], []
    for col in table.columns.values():
        if isinstance(col, np.ndarray) and col.dtype.kind == "f" and col.ndim <= 2:
            widths.append(col.shape[1] if col.ndim == 2 else None)
            cells = col.reshape(len(col), -1).astype(float)
            none = np.zeros(cells.shape, dtype=bool)
        else:
            items = _plain(col)
            if not all(v is None or isinstance(v, (float, np.floating)) for v in items):
                return None
            widths.append(None)
            none = np.array([v is None for v in items], dtype=bool).reshape(-1, 1)
            cells = np.array(items, dtype=float).reshape(-1, 1)   # None: NaN
        values.append(cells)
        states.append(np.where(none, 2, np.where(np.isfinite(cells), 0, 1)))
    values = np.hstack(values)
    if not values.shape[1]:
        return None
    return widths, values, np.hstack(states).astype(np.int8)


def _format_records(state: np.ndarray, template, args: np.ndarray, sep: str) -> str:
    """Records joined by ``sep``, formatted by one ``%``: record ``i`` takes
    ``template(pattern)`` of its row of slot states, built once per
    pattern (there are usually one or two), and the template's slots are
    filled in order from ``args``."""
    rows = state.view(f"V{state.shape[1]}").ravel()
    _, first, which = np.unique(rows, return_index=True, return_inverse=True)
    templates = [template(state[i].tolist()) for i in first.tolist()]
    return sep.join([templates[i] for i in which.tolist()]) % tuple(args.tolist())


def _json_record(keys: list[str], widths: list, pattern: list[int],
                 indent: int) -> str:
    """The ``%``-template of one record at ``indent``: a ``%.17g`` slot per
    finite number, ``null`` for the others."""
    slot = iter("null" if s else "%.17g" for s in pattern)
    pad = " " * (indent + 2)
    item = "\n" + " " * (indent + 4)
    fields = []
    for key, width in zip(keys, widths):
        if width is None:
            cell = next(slot)
        elif width:
            cell = ("[" + ",".join(item + next(slot) for _ in range(width))
                    + "\n" + pad + "]")
        else:
            cell = "[]"
        fields.append(f"{pad}{key}: {cell}")
    outer = " " * indent
    return f"{outer}{{\n" + ",\n".join(fields) + f"\n{outer}}}"


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


def _csv_table(section: str, table: Table) -> str | None:
    """The CSV rows of ``table``'s records under ``section``, each named by
    its record's index, in one formatting pass; None when the table has
    other cells than numbers and Nones (see :func:`_slots`)."""
    slots = _slots(table)
    if slots is None:
        return None
    widths, values, state = slots
    keys = [str(k).replace("%", "%%") for k in table.columns]
    section = section.replace("%", "%%")
    # every row's slot is preceded by the record index (a %d slot)
    index = np.broadcast_to(np.arange(len(table), dtype=float)[:, None], values.shape)
    args = np.stack([index, values], axis=-1)[
        np.stack([np.ones(state.shape, dtype=bool), state == 0], axis=-1)]
    return _format_records(state, lambda p: _csv_record(section, keys, widths, p),
                           args, "\n")


def _csv_record(section: str, keys: list[str], widths: list, pattern: list[int]) -> str:
    """The ``%``-template of one record's CSV rows: a ``%d`` slot for the
    record index, then a ``%.17g`` slot per finite number, ``null`` for NaN
    or inf and an empty cell for None."""
    slot = iter(pattern)
    lines = []
    for key, width in zip(keys, widths):
        for name in [key] if width is None else [f"{key}_{i}" for i in range(width)]:
            lines.append(f"{section},%d,{name}," + ("%.17g", "null", "")[next(slot)])
    return "\n".join(lines)


def report_to_csv(report: dict) -> str:
    """Flatten a run report into section,name,field,value rows.

    Scalar numeric cells use the 17-digit decimal encoding of the JSON form.
    A nested value (``config.box``, ``evidence.margins``) is one cell of
    compact JSON whose floats take their shortest round-trip form (see
    :func:`_compact`); both encodings round-trip to identical values.
    A :class:`Table` of points is written by :func:`_csv_table`.
    """
    rows = ["section,name,field,value"]

    def emit(section: str, name: str, mapping: dict) -> None:
        for key, val in mapping.items():
            if isinstance(val, dict):
                for k2, v2 in val.items():
                    rows.append(f"{section},{name},{key}.{k2},{_csv_cell(v2)}")
            elif isinstance(val, (list, tuple, np.ndarray)):
                seq = _plain(val)
                if all(not isinstance(v, (list, tuple, dict, np.ndarray)) for v in seq):
                    for i, v in enumerate(seq):
                        rows.append(f"{section},{name},{key}_{i},{_csv_cell(v)}")
                else:
                    rows.append(f"{section},{name},{key},{_csv_cell(val)}")
            else:
                rows.append(f"{section},{name},{key},{_csv_cell(val)}")

    emit("config", "", report.get("config", {}))
    points = report.get("points", [])
    table = _csv_table("point", points) if isinstance(points, Table) else None
    if table is None:
        for idx, rec in enumerate(points):
            emit("point", str(idx), rec)
    else:
        rows.append(table)
    for rec in report.get("identities", []):
        emit("identity", rec.get("name", ""),
             {k: v for k, v in rec.items() if k != "name"})
    emit("hypotheses", "", report.get("hypotheses", {}))
    emit("classification", "", report.get("classification", {}))
    rows.append(f"runtime,,runtime_seconds,{_csv_cell(report.get('runtime_seconds'))}")
    return "\n".join(rows) + "\n"
