"""graphgeo's records: immutable, and cheap to define at import.

No record is a dataclass: a frozen dataclass generates and ``exec``s five
methods when its class is defined, which made building the classes the
largest part of ``import graphgeo``.  Records are ``NamedTuple`` classes or
:class:`graphgeo.records.Frozen` slotted classes, and these tests check that
each is still immutable and copied with changes by ``_replace``.  All of it
is deterministic: no timing.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import graphgeo
from graphgeo.chart_manifold import ChartPoint, sphere_chart
from graphgeo.cli import RunConfig
from graphgeo.extrinsic import GraphBlock, graph_block
from graphgeo.identities import ExtremumProbeResult, IdentityReport, NullProbeResult
from graphgeo.product_space import ProductPoint, ProductSpace
from graphgeo.reporting import Table
from graphgeo.scenarios import JetCheck, get
from graphgeo.theorem_gate import (
    classify,
    evaluate_hypotheses,
    sweep_geometry,
    trace_rank_chain_check,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def graphgeo_classes():
    for info in pkgutil.iter_modules(graphgeo.__path__):
        module = importlib.import_module(f"graphgeo.{info.name}")
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                yield value


def test_no_graphgeo_class_is_a_dataclass():
    classes = list(graphgeo_classes())
    assert len(classes) > 20
    assert [c.__qualname__ for c in classes if dataclasses.is_dataclass(c)] == []


def test_named_tuple_annotations_are_not_strings():
    # typing.NamedTuple compiles every string annotation of its fields into
    # a ForwardRef when the class is defined, so the modules of records do
    # without ``from __future__ import annotations``
    records = [c for c in graphgeo_classes() if issubclass(c, tuple)]
    assert len(records) > 15
    for cls in records:
        assert not any(isinstance(a, (str, typing.ForwardRef))
                       for a in cls.__annotations__.values()), cls


#: Defaulted parameters of the functions, methods and lambdas in ``src/``.
MAX_DEFAULTED_PARAMETERS = 29


def test_no_new_defaulted_parameters():
    # module:function(parameter) for every parameter with a default, by ast
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                positional = a.posonlyargs + a.args
                names = [x.arg for x in positional[len(positional) - len(a.defaults):]]
                names += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found += [f"{path.stem}:{getattr(node, 'name', 'lambda')}({name})"
                          for name in names]
    assert len(found) <= MAX_DEFAULTED_PARAMETERS, (
        f"{len(found)} defaulted parameters in src/, more than {MAX_DEFAULTED_PARAMETERS}: "
        "a setting that no caller sets is a constant, and a test that needs another "
        "value derives it with _replace; " + ", ".join(found))


def fresh_process(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter with ``args`` as ``sys.argv[1:]``;
    return what it loaded: the ``numpy.random`` modules, then whether it
    loaded the identity suite."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c",
         f"import os, sys\n{code}\n"
         "print(sorted(m for m in sys.modules if m.startswith('numpy.random')),"
         " 'graphgeo.identities' in sys.modules)", *args],
        env=env, capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1]


def test_import_leaves_numpy_random_unloaded():
    # an evaluated annotation such as ``np.random.Generator`` imports
    # numpy.random, which costs more than all of graphgeo's own modules; and
    # the identity suite, which only report and verify-identities run, costs
    # its compilation (~12 ms without bytecode)
    assert fresh_process("import graphgeo") == "[] False"
    assert fresh_process("import graphgeo.cli") == "[] False"


def test_list_leaves_numpy_random_and_the_identity_suite_unloaded():
    assert fresh_process("import graphgeo.cli\n"
                         "assert graphgeo.cli.main(['list', '--match', 'holo']) == 0") == "[] False"


@pytest.mark.parametrize("args", [["identity-s2"], ["identity-s3"],
                                  ["identity-s2", "--tol", "elliptic=1e-3"]],
                         ids=["identity-s2", "identity-s3", "identity-s2-tol-elliptic"])
def test_check_theorem_leaves_numpy_random_unloaded(args):
    # the gate's plane stream is computed without numpy.random, whose import
    # costs every gate process ~6 MB of peak memory, OpenSSL among it; and
    # the gate never runs the identity suite, nor imports it to check the
    # name of an identity tolerance
    assert fresh_process(
        "import graphgeo.cli\n"
        "assert graphgeo.cli.main(['check-theorem', '--scenario', *sys.argv[1:],"
        " '--output', os.devnull]) == 0", *args) == "[] False"


RUNS = {f"{command}-{scenario}": f"assert graphgeo.cli.main([{command!r}, '--scenario',"
                                  f" {scenario!r}, '--output', os.devnull]) == 0"
        for command in ("report", "verify-identities") for scenario in ("holo-w2", "identity-s3")}
RUNS["jets_selftest"] = "assert graphgeo.jets_selftest(graphgeo.get('holo-w2'))"


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_identity_suite_and_jet_selftest_leave_numpy_random_unloaded(run):
    # the identity suite's and the jet self-test's draws are numpy's
    # default_rng stream, computed without numpy.random; the commands that
    # run the suite import it on their first call
    suite = "graphgeo.cli.main" in run
    assert fresh_process(f"import graphgeo, graphgeo.cli\n{run}") == f"[] {suite}"


def formerly_frozen_records():
    """One instance of each record that was a frozen dataclass, by name."""
    sc = get("holo-w2")
    blk = graph_block(sc.f, sc.grid_points((3, 3)))
    sweep = sweep_geometry(sc.f, sc.grid_points((3, 3)), seed=0)
    hyp = evaluate_hypotheses(sweep, 1.0)
    p = sc.domain.point([0.1, 0.2])
    return {
        "ChartPoint": p, "MetricJet": blk.jets.gm, "ChartManifold": sc.domain,
        "MapJet": blk.jets.f, "SmoothMap": sc.f, "GraphJets": blk.jets,
        "GraphFrameData": blk.frames, "ProductPoint": ProductPoint(p, p),
        "ProductSpace": ProductSpace(sc.domain, sc.target),
        "ExpectedProperties": sc.expected, "Scenario": sc,
        "Table": Table({"x": np.zeros(2)}), "ExtrinsicData": blk.ext,
        "GraphBlock": blk,
        "NullProbeResult": NullProbeResult("pass", "", 0.0),
        "ExtremumProbeResult": ExtremumProbeResult("pass", "", None, 1.0, 0.0, 0.0,
                                                   1.0, 1.0),
        "IdentityReport": IdentityReport("frame-formulas", 1, 0.0, 1e-8),
        "GridSweep": sweep,
        "TraceChainReport": trace_rank_chain_check(sc.f, sweep),
        "HypothesisReport": hyp,
        "Classification": classify(sweep, hyp),
    }


def first_field(record) -> str:
    if isinstance(record, GraphBlock):
        return "f"
    return (record._fields if isinstance(record, tuple) else record.__slots__)[0]


@pytest.mark.parametrize("name", sorted(formerly_frozen_records()))
def test_formerly_frozen_records_refuse_assignment(name):
    record = formerly_frozen_records()[name]
    assert type(record).__name__ == name
    field = first_field(record)
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_config_and_jet_checks_are_immutable_too():
    for record in (RunConfig(), JetCheck("f:d1", 1e-8, 2.5e-9)):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)


def test_mutable_defaults_are_not_shared_dicts():
    # a config's tolerances and a hypothesis report's margins default to a
    # read-only empty mapping, never to one dict shared by every instance
    for default in (RunConfig().tolerances,
                    graphgeo.HypothesisReport(1.0, 2.0, 1.0, *[True] * 5).margins):
        assert len(default) == 0
        with pytest.raises(TypeError):
            default["gate_slack"] = 1.0


def test_replace_derives_changed_copies():
    sc = get("identity-s2")
    sweep = sweep_geometry(sc.f, sc.grid_points((3, 3)), seed=0)
    trace = np.zeros(len(sweep))
    changed = sweep._replace(trace_s=trace)
    assert changed.trace_s is trace and sweep.trace_s is not trace
    assert all(getattr(changed, k) is getattr(sweep, k) for k in sweep._fields
               if k != "trace_s")
    assert ChartPoint([1, 2])._replace(coords=[3, 4]).coords.tolist() == [3.0, 4.0]
    with pytest.raises(TypeError):
        sweep._replace(not_a_column=trace)
    with pytest.raises(TypeError):
        Table()


def test_chart_replace_validates_and_keeps_the_box_read_only():
    chart = sphere_chart(2)
    assert not chart.chart_box.flags.writeable
    moved = chart._replace(chart_box=[[-1, 1], [-2, 2]])
    assert moved.chart_box.tolist() == [[-1.0, 1.0], [-2.0, 2.0]]
    assert not moved.chart_box.flags.writeable and chart.chart_box[0, 1] == 20.0
    with pytest.raises(ValueError):
        chart._replace(chart_box=[[-1, 1]])
