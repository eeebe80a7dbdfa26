"""Canonical report serialization.

Reports must be byte-identical across runs with the same configuration and
seed, so serialization is done by a small deterministic emitter rather than
a library whose float formatting might drift: JSON floats are written with
17 significant digits (lossless for doubles), keys keep insertion order.

:func:`canonical_json` and :func:`report_to_csv` always write to the open
text stream they are given, piece by piece as the artifact is encoded;
there is no mode that collects the text and returns it.  No copy of the
whole text is built on the way to a file or stdout.

A :class:`Table` of float columns (a report's per-point records) has one
write path.  Each encoding builds one ``%``-template of a record for the
whole table, with a ``%s`` slot per number (in CSV also a ``%d`` slot for
the record index on each row), and fills ``len(piece)`` copies of it with
one ``%`` per piece of :data:`ROWS_PER_PIECE` records.  A slot's text is
``%.17g`` of a finite number, ``null`` for NaN or inf, and for a cell
under a null mask ``null`` in JSON or an empty cell in CSV.  A point table
repeats most of its numbers (a grid coordinate in every row of its line, a
constant curvature at every point), so each distinct bit pattern of a
piece is formatted once.  Encoding memory is one piece's texts and does
not grow with the table.
"""

from __future__ import annotations

import json
import math
from typing import Any, TextIO

import numpy as np

from .records import Frozen

#: Records formatted by one ``%``: a piece of a holo-w2 report's point table
#: is ~85 KB of JSON.  Chosen by measurement (CHANGES.md): fewer rows cost
#: time per piece, more rows raise peak memory and gain no time.
ROWS_PER_PIECE = 256


class Table(Frozen):
    """Same-keyed records held as float columns.

    Record ``i`` maps every key to row ``i`` of its column, a float array:
    a number of a 1-d column, a list of a 2-d column's row.  ``null`` maps
    keys of 1-d columns to boolean masks: where a key's mask is set, its
    records hold None.  A table serializes exactly as the list of its
    records, by one ``%``-template of a record, a piece of rows at a time.
    Any other column raises TypeError.
    """

    __slots__ = ("columns", "null")      # dict[str, Array], dict[str, Array]

    def __init__(self, columns: dict, null: dict | None = None):
        null = {} if null is None else null
        for key, col in columns.items():
            if not (isinstance(col, np.ndarray) and col.dtype.kind == "f"
                    and 1 <= col.ndim <= (1 if key in null else 2)):
                raise TypeError(f"column {key!r} is not a 1-d"
                                f"{'' if key in null else ' or 2-d'} float array")
        super().__init__(columns, null)

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


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


def canonical_json(obj: Any, out: TextIO) -> None:
    """Serialize to JSON with deterministic float formatting, written to the
    open text file ``out`` piece by piece."""
    _emit(obj, 0, out.write)


def _emit(obj: Any, indent: int, write) -> None:
    if isinstance(obj, float):
        write(format_float(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), indent, write)
    elif isinstance(obj, (list, tuple)):
        _emit_items("[]", [("", v) for v in obj], indent, write)
    elif isinstance(obj, dict):
        _emit_items("{}", [(f"{json.dumps(str(k))}: ", v) for k, v in obj.items()],
                    indent, write)
    elif isinstance(obj, Table):
        _emit_table(obj, indent, write)
    else:
        write(_scalar(obj))


def _emit_items(brackets: str, items: list, indent: int, write) -> None:
    """A JSON list or object: one ``prefix`` and value per line at ``indent
    + 2`` for each ``(prefix, value)`` of ``items``."""
    if not items:
        write(brackets)
        return
    pad = " " * (indent + 2)
    lead = brackets[0] + "\n" + pad
    for prefix, value in items:
        write(lead + prefix)
        _emit(value, indent + 2, write)
        lead = ",\n" + pad
    write("\n" + " " * indent + brackets[1])


def _emit_table(table: Table, indent: int, write) -> None:
    """The list of ``table``'s records: one ``%``-template of a record, with
    a ``%s`` slot per number, filled a piece at a time from
    :func:`_piece_texts`."""
    if not len(table):
        write("[]")
        return
    outer, pad = " " * (indent + 2), " " * (indent + 4)
    item = "\n" + " " * (indent + 6)
    fields = []
    for key, col in table.columns.items():
        if col.ndim == 1:
            cell = "%s"
        elif col.shape[1]:
            cell = "[" + ",".join([item + "%s"] * col.shape[1]) + "\n" + pad + "]"
        else:
            cell = "[]"
        fields.append(pad + json.dumps(str(key)).replace("%", "%%") + ": " + cell)
    record = f"{outer}{{\n" + ",\n".join(fields) + f"\n{outer}}}"
    lead = "[\n"
    for texts in _piece_texts(table, "null"):
        write(lead + (",\n".join([record] * len(texts)) % tuple(texts.ravel().tolist())))
        lead = ",\n"
    write("\n" + " " * indent + "]")


def _piece_texts(table: Table, masked: str):
    """The texts of the number slots of (non-empty) ``table``, a piece of
    :data:`ROWS_PER_PIECE` records at a time: an object array with a row
    per record and a text per slot, its columns' numbers in order.  A slot
    holds ``masked`` (a text without ``%`` or newline) where its null mask
    is set, ``null`` for NaN or inf, and ``%.17g`` of a finite number,
    formatted once for each distinct bit pattern of the piece (so -0.0 and
    0.0 apart)."""
    columns = [(col.reshape(len(col), -1), table.null.get(key))
               for key, col in table.columns.items()]
    for start in range(0, len(table), ROWS_PER_PIECE):
        rows = slice(start, start + ROWS_PER_PIECE)
        values = np.hstack([col[rows] for col, _ in columns]).astype(float, copy=False)
        none = np.hstack([np.zeros(col[rows].shape, dtype=bool) if null is None
                          else np.asarray(null, dtype=bool)[rows, None]
                          for col, null in columns])
        finite = np.isfinite(values) & ~none
        bits, which = np.unique(values[finite].view(np.uint64), return_inverse=True)
        # the texts of the distinct numbers, then null and masked, and the
        # place of every slot's text among them
        texts = ("%.17g\n" * len(bits) + "null\n" + masked) % tuple(bits.view(float).tolist())
        at = np.where(none, len(bits) + 1, len(bits))
        at[finite] = which
        yield np.array(texts.split("\n"), dtype=object)[at]


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


def _csv_table(section: str, table: Table, write) -> None:
    """Write the CSV rows of ``table``'s records under ``section``, each
    named by its record's index: one ``%``-template of a record, with a
    ``%d`` slot for the index and a ``%s`` slot for the number on each of
    its rows, filled a piece at a time from :func:`_piece_texts`."""
    if not len(table):
        return
    names = [name for key, col in table.columns.items()
             for name in ([str(key)] if col.ndim == 1
                          else [f"{key}_{i}" for i in range(col.shape[1])])]
    section = section.replace("%", "%%")
    record = "".join(f"{section},%d,{name.replace('%', '%%')},%s\n" for name in names)
    start = 0
    for texts in _piece_texts(table, ""):
        args = np.empty((*texts.shape, 2), dtype=object)
        args[..., 0] = np.arange(start, start + len(texts), dtype=object)[:, None]
        args[..., 1] = texts
        write((record * len(texts)) % tuple(args.ravel().tolist()))
        start += len(texts)


def report_to_csv(report: dict, out: TextIO) -> None:
    """Flatten a run report into section,name,field,value rows, written to
    the open text file ``out`` piece by piece.

    Scalar numeric cells use the 17-digit decimal encoding of the JSON form.
    A nested value (``config.box``, ``evidence.margins``) is one cell of
    compact JSON whose floats take their shortest round-trip form (see
    :func:`_compact`); both encodings round-trip to identical values.
    A :class:`Table` of points is written by :func:`_csv_table`.
    """
    write = out.write

    def emit(section: str, name: str, mapping: dict) -> None:
        for key, val in mapping.items():
            if isinstance(val, dict):
                for k2, v2 in val.items():
                    write(f"{section},{name},{key}.{k2},{_csv_cell(v2)}\n")
            elif isinstance(val, (list, tuple, np.ndarray)):
                seq = val.tolist() if isinstance(val, np.ndarray) else list(val)
                if all(not isinstance(v, (list, tuple, dict, np.ndarray)) for v in seq):
                    for i, v in enumerate(seq):
                        write(f"{section},{name},{key}_{i},{_csv_cell(v)}\n")
                else:
                    write(f"{section},{name},{key},{_csv_cell(val)}\n")
            else:
                write(f"{section},{name},{key},{_csv_cell(val)}\n")

    write("section,name,field,value\n")
    emit("config", "", report.get("config", {}))
    points = report.get("points", [])
    if isinstance(points, Table):
        _csv_table("point", points, write)
    else:
        for idx, rec in enumerate(points):
            emit("point", str(idx), rec)
    for rec in report.get("identities", []):
        emit("identity", rec.get("name", ""),
             {k: v for k, v in rec.items() if k != "name"})
    emit("hypotheses", "", report.get("hypotheses", {}))
    emit("classification", "", report.get("classification", {}))
    write(f"runtime,,runtime_seconds,{_csv_cell(report.get('runtime_seconds'))}\n")
