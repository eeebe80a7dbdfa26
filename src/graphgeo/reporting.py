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
write path: it is formatted in pieces of :data:`ROWS_PER_PIECE` records;
there is no one ``%`` over the whole table.  Every record whose cells are
null in the same places shares one ``%``-template, built once per pattern
for the whole table, with a ``%s`` slot per number and a literal ``null``
(in CSV: ``null`` for NaN or inf, an empty cell for None) for the others;
one ``%`` per piece fills the slots of its records.

A point table repeats most of its numbers (a grid coordinate in every row
of its line, a constant curvature at every point), so each distinct bit
pattern of a piece is formatted ``%.17g`` once and its text fills every
slot where it occurs.  The texts of the last piece are kept for the next
one, so the cache holds at most one piece of slots (``ROWS_PER_PIECE``
times the numbers of a record) and encoding memory does not grow with the
table.  The CSV record-index slots are ``%d`` and stay out of the cache.
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
    records, by one ``%``-template per pattern of null cells, a piece of
    rows at a time.  Any other column raises TypeError.
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
    """The list of ``table``'s records, in pieces (see :func:`_pieces`)."""
    if not len(table):
        write("[]")
        return
    widths, columns, state = _slots(table)
    keys = [json.dumps(str(k)).replace("%", "%%") for k in table.columns]
    write("[\n")
    for piece in _pieces(columns, state,
                         lambda p: _json_record(keys, widths, p, indent + 2), ",\n"):
        write(piece)
    write("\n" + " " * indent + "]")


def _slots(table: Table):
    """The width of each column's rows (None for a number), ``table``'s
    cells as one 2-d float array per column (a view of the column), and the
    state of every slot of the (non-empty) table, one column per number: 0
    for a finite number, 1 for NaN or inf, 2 for None.
    """
    widths, columns, states = [], [], []
    for key, col in table.columns.items():
        null = table.null.get(key)
        widths.append(col.shape[1] if col.ndim == 2 else None)
        cells = col.reshape(len(col), -1).astype(float, copy=False)
        none = False if null is None else np.asarray(null, dtype=bool)[:, None]
        columns.append(cells)
        states.append(np.where(none, 2, ~np.isfinite(cells)).astype(np.int8))
    return widths, columns, np.hstack(states)


def _pieces(columns: list[np.ndarray], state: np.ndarray, template, sep: str,
            args=lambda rows, texts: texts):
    """The records joined by ``sep``, in pieces of :data:`ROWS_PER_PIECE`
    records that concatenate to the whole.  Record ``i`` takes
    ``template(pattern)`` of its row of slot states, built once per pattern
    for the whole table (there are usually one or two) with a ``%s`` slot
    for each finite number.  One ``%`` per piece fills its templates' slots
    in order from the array ``args(rows, texts)``: ``texts`` holds that
    slice of rows' finite numbers as texts (see :class:`_Texts`)."""
    # with no number slot there is one pattern: a void view of no bytes a
    # row would hold no rows
    patterns = (state.view(f"V{state.shape[1]}").ravel() if state.shape[1]
                else np.zeros(len(state), dtype=np.int8))
    _, first, which = np.unique(patterns, return_index=True, return_inverse=True)
    templates = [template(state[i].tolist()) for i in first.tolist()]
    cache = _Texts()
    for start in range(0, len(state), ROWS_PER_PIECE):
        rows = slice(start, start + ROWS_PER_PIECE)
        cells = np.hstack([col[rows] for col in columns])
        texts = cache(cells[state[rows] == 0])
        text = sep.join([templates[i] for i in which[rows].tolist()])
        yield (sep + text if start else text) % tuple(args(rows, texts).tolist())


class _Texts:
    """Formats the finite numbers of one piece after another to their
    ``%.17g`` texts, each distinct bit pattern (so -0.0 and 0.0 apart) once
    a piece.  It keeps the sorted distinct patterns of the last piece it
    formatted, with their texts, for the next: a cache of at most one piece
    of slots."""

    def __init__(self):
        self.bits = np.empty(0, dtype=np.uint64)
        self.texts = np.empty(0, dtype=object)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The text of every number of ``values`` (1-d, finite) as an
        object array."""
        bits, which = np.unique(values.view(np.uint64), return_inverse=True)
        # known: held by the cache at the pattern's sorted place
        at = np.searchsorted(self.bits, bits)
        known = at < len(self.bits)
        known[known] = self.bits[at[known]] == bits[known]
        texts = np.empty(len(bits), dtype=object)
        texts[known] = self.texts[at[known]]
        fresh = bits[~known].view(float).tolist()
        if fresh:
            texts[~known] = ("\n".join(["%.17g"] * len(fresh))
                             % tuple(fresh)).split("\n")
        self.bits, self.texts = bits, texts
        return texts[which]


def _json_record(keys: list[str], widths: list, pattern: list[int], indent: int) -> str:
    """The ``%``-template of one record at ``indent``: a ``%s`` slot per
    finite number, ``null`` for the others."""
    slot = iter("null" if s else "%s" for s in pattern)
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


def _csv_table(section: str, table: Table, write) -> None:
    """Write the CSV rows of ``table``'s records under ``section``, each
    named by its record's index, in pieces (see :func:`_pieces`)."""
    if not len(table):
        return
    widths, columns, state = _slots(table)
    keys = [str(k).replace("%", "%%") for k in table.columns]
    section = section.replace("%", "%%")

    def args(rows: slice, texts: np.ndarray) -> np.ndarray:
        # every row's slot is preceded by the record index (a %d slot)
        finite = state[rows] == 0
        slots = np.empty((*finite.shape, 2), dtype=object)
        slots[..., 0] = np.arange(rows.start, rows.start + len(finite))[:, None]
        slots[..., 1][finite] = texts
        return slots[np.stack([np.ones_like(finite), finite], axis=-1)]

    for piece in _pieces(columns, state,
                         lambda p: _csv_record(section, keys, widths, p), "", args):
        write(piece)


def _csv_record(section: str, keys: list[str], widths: list, pattern: list[int]) -> str:
    """The ``%``-template of one record's CSV rows, each ended by a newline
    (none for a record of no number): a ``%d`` slot for the record index,
    then a ``%s`` slot per finite number, ``null`` for NaN or inf and an
    empty cell for None."""
    slot = iter(pattern)
    return "".join(
        f"{section},%d,{name}," + ("%s", "null", "")[next(slot)] + "\n"
        for key, width in zip(keys, widths)
        for name in ([key] if width is None else [f"{key}_{i}" for i in range(width)]))


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
