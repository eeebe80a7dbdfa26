"""Output checks for the benchmark's CLI calls.

A call fails on any of: an unexpected exit code, a wrong verdict, a wrong
identity PASS/skip status, a residual or margin past its tolerance, a NaN or
inf (the CLI writes non-finite floats as ``null``), or a number off the stored
reference.

The reference (``reference/<workload>.json.gz``, written by ``record.py``)
holds every output leaf at the recorded seed, and the list of leaves that
came out identical at every seed the recording ran.  At the recorded seed all
leaves are compared.  At any other seed the seed-invariant exit codes,
verdicts, identity statuses and numbers are compared, except those of the
null-eigenvector probe, and the tolerance checks below run on everything.

Numbers match when ``|a - b| <= RTOL * max(|a|, |b|) + ATOL``.  ``RTOL`` is
the 1e-12 relative bar for refactors; ``ATOL`` is the floor for
roundoff-level zeros such as ``h_norm`` on minimal maps, an order below the
tightest tolerance in the package (1e-10).
"""

from __future__ import annotations

import gzip
import json
import math
import os

RTOL = 1e-12
ATOL = 1e-11

#: Default gate tolerances of the CLI (``--tol`` is never passed), restated
#: here so that the checker does not depend on the code it checks.
GATE_SLACK = 1e-9
MINIMALITY = 1e-6
STRICT_MARGIN = 1e-9

VERDICT_EXIT = {"constant": 0, "totally-geodesic-isometric-immersion": 0,
                "hypothesis-violated": 1, "indeterminate": 4}

EXIT_LEAF = "$exit"

#: The null-eigenvector probe skips at the random sample points where the
#: hypotheses fail, so whether it runs at all depends on the seed (holo-w3
#: skips at most seeds and runs at a few).  Its leaves are compared at the
#: recorded seed only.
SEED_DEPENDENT = ("identities[null-eigenvector-probe].",)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def flatten(doc, prefix: str = "", out: dict | None = None) -> dict:
    """Map an output document to ``path -> leaf``.

    Lists of named records are keyed by name, other lists of records become
    columns (``points[*].lambda``), skip reasons become skipped flags.
    """
    out = {} if out is None else out
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else key
            if key == "skipped_reason":
                out[f"{prefix}.skipped"] = value is not None
            else:
                flatten(value, path, out)
    elif isinstance(doc, list) and doc and all(isinstance(v, dict) for v in doc):
        if all("name" in v for v in doc):
            for rec in doc:
                flatten({k: v for k, v in rec.items() if k != "name"},
                        f"{prefix}[{rec['name']}]", out)
        else:
            for key in doc[0]:
                out[f"{prefix}[*].{key}"] = [rec.get(key) for rec in doc]
    else:
        out[prefix] = doc
    return out


def _mismatch(ref, got) -> str | None:
    """Why ``got`` does not match ``ref``, or None."""
    if _is_number(ref):
        if not _is_number(got) or not math.isfinite(got):
            return f"expected {ref!r}, got {got!r}"
        if abs(ref - got) > RTOL * max(abs(ref), abs(got)) + ATOL:
            return f"expected {ref!r}, got {got!r}"
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return "list shape differs"
        for i, (r, g) in enumerate(zip(ref, got)):
            why = _mismatch(r, g)
            if why:
                return f"[{i}] {why}"
        return None
    return None if ref == got else f"expected {ref!r}, got {got!r}"


def _nonfinite(ref, got) -> str | None:
    """Where ``got`` holds a non-number in a slot the reference has a number."""
    if _is_number(ref):
        return None if _is_number(got) and math.isfinite(got) else f"non-finite {got!r}"
    if isinstance(ref, list) and isinstance(got, list):
        for i, (r, g) in enumerate(zip(ref, got)):
            why = _nonfinite(r, g)
            if why:
                return f"[{i}] {why}"
    return None


def _numeric(value) -> bool:
    if isinstance(value, list):
        return any(_numeric(v) for v in value)
    return _is_number(value)


def _checked_at_any_seed(path: str, value) -> bool:
    if path.startswith(SEED_DEPENDENT):
        return False
    return (path == EXIT_LEAF or path.endswith(".verdict")
            or (path.startswith("identities[")
                and path.endswith((".pass", ".skipped")))
            or _numeric(value))


def _semantic(doc: dict, exit_code, command: str) -> list[str]:
    """Tolerance and consistency checks that hold at every seed."""
    problems = []
    failed_identity = False
    for rec in doc.get("identities", []):
        if rec.get("skipped_reason") is not None:
            continue
        res, tol = rec.get("max_residual"), rec.get("tolerance")
        if not (_is_number(res) and math.isfinite(res) and _is_number(tol)
                and res <= tol and rec.get("pass") is True):
            failed_identity = True
            problems.append(f"identity {rec.get('name')}: residual {res!r} "
                            f"past tolerance {tol!r}")
    if command == "verify-identities" and exit_code != (1 if failed_identity else 0):
        problems.append(f"exit {exit_code!r} disagrees with identity results")

    hyp = doc.get("hypotheses")
    if hyp is not None:
        m = hyp.get("margins", {})
        for key, value in m.items():
            vacuous_ok = key == "pinching_target" and value is None
            if not vacuous_ok and not (_is_number(value) and math.isfinite(value)):
                problems.append(f"margin {key} is {value!r}")
        try:
            tgt = m["pinching_target"]
            expected = {
                "minimal_ok": m["max_h_norm"] < MINIMALITY,
                "pinching_ok": m["pinching_domain"] >= -GATE_SLACK
                and (tgt is None or tgt >= -GATE_SLACK),
                "trace_ok": m["trace"] >= -GATE_SLACK,
                "kappa_ok": hyp["kappa_sq"] > 1.0 + STRICT_MARGIN
                and m["kappa_strict"] >= STRICT_MARGIN,
                "condition4_ok": m["condition4"] >= -GATE_SLACK,
            }
        except (KeyError, TypeError) as exc:
            problems.append(f"hypotheses unreadable: {exc!r}")
            expected = {}
        for flag, want in expected.items():
            if hyp.get(flag) is not want:
                problems.append(f"{flag}={hyp.get(flag)!r} disagrees with its margin")
        verdict = doc.get("classification", {}).get("verdict")
        if verdict not in VERDICT_EXIT:
            problems.append(f"unknown verdict {verdict!r}")
        elif (verdict == "hypothesis-violated") == all(expected.values()):
            problems.append(f"verdict {verdict} disagrees with the hypothesis flags")
        elif command == "check-theorem" and exit_code != VERDICT_EXIT[verdict]:
            problems.append(f"exit {exit_code!r} disagrees with verdict {verdict}")
    return problems


def load_reference(ref_dir: str, workload: str) -> dict:
    with gzip.open(os.path.join(ref_dir, f"{workload}.json.gz"), "rt",
                   encoding="utf-8") as fh:
        return json.load(fh)


def check_call(ref_call: dict, recorded_seed: int, argv: list[str], seed: int,
               exit_code, output_path: str) -> list[str]:
    """Problems with one CLI call's result; an empty list means it passed.

    ``argv`` is the call without its ``--seed`` and ``--output`` arguments.
    """
    if list(ref_call["argv"]) != list(argv):
        return [f"reference was recorded for {ref_call['argv']}, not {argv}"]
    try:
        with open(output_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"exit {exit_code!r}, no readable output: {exc}"]
    leaves = flatten(doc)
    leaves[EXIT_LEAF] = exit_code
    every_leaf = seed == recorded_seed
    invariant = set(ref_call["invariant"])
    problems = []
    for path, ref in ref_call["leaves"].items():
        if path not in leaves:
            problems.append(f"{path}: missing")
            continue
        got = leaves[path]
        if every_leaf or (path in invariant and _checked_at_any_seed(path, ref)):
            why = _mismatch(ref, got)
        else:
            why = _nonfinite(ref, got)
        if why:
            problems.append(f"{path}: {why}")
    return problems + _semantic(doc, exit_code, argv[0])
