"""Canonical report serialization.

Reports must be byte-identical across runs with the same configuration and
seed, so serialization is done by a small deterministic emitter rather than
a library whose float formatting might drift: floats are written with 17
significant digits (lossless for doubles), keys keep insertion order.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np


def format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(float(x), ".17g")


def _normalize(obj: Any) -> Any:
    """Reduce numpy scalars/arrays and dataclass-ish values to plain types."""
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_normalize(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return obj


def canonical_json(obj: Any) -> str:
    """Serialize to JSON with deterministic float formatting."""
    return _emit(_normalize(obj), 0)


def _emit(obj: Any, indent: int) -> str:
    """JSON text of a value already reduced to plain types by :func:`_normalize`."""
    pad = " " * indent
    child = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, list):
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
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_cell(value: Any) -> str:
    value = _normalize(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, (list, dict)):
        return json.dumps(json.loads(canonical_json(value)), separators=(";", ":")) \
            .replace(",", ";")
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def report_to_csv(report: dict) -> str:
    """Flatten a run report into section,name,field,value rows.

    Every numeric cell uses the same 17-digit decimal encoding as the JSON
    form, so the two encodings round-trip to identical values.
    """
    rows = [("section", "name", "field", "value")]

    def emit(section: str, name: str, mapping: dict) -> None:
        for key, val in mapping.items():
            if isinstance(val, dict):
                for k2, v2 in val.items():
                    rows.append((section, name, f"{key}.{k2}", _csv_cell(v2)))
            elif isinstance(val, (list, tuple, np.ndarray)):
                seq = _normalize(val)
                if all(not isinstance(v, (list, dict)) for v in seq):
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
