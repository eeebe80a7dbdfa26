"""Workload definitions: the graphgeo CLI calls each benchmark run makes.

Every workload uses the CLI defaults, passes the benchmark seed as
``--seed`` and never passes ``--threads``.  A workload is a list of CLI
calls; each call writes its artifact to a file in the run's work directory.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Scenario registry names in registry order at the time the benchmark was
#: defined.  Listed here, not read from the registry, so that the workload
#: stays the same if scenarios are added later.
REGISTRY_ORDER = (
    "constant-s2", "constant-s3", "identity-s2", "identity-s3", "rotation-s2",
    "holo-w2", "holo-w3", "conformal-shrink", "torus-linear", "proj-s3-s1",
    "scaled-sphere-0.5", "scaled-sphere-2.0",
)

#: Random sample points the identity suite draws per scenario
#: (``run_identity_suite(n_points=12)``).
SUITE_POINTS = 12


@dataclass(frozen=True)
class Call:
    """One CLI call: its argv (without ``--seed``/``--output``) and output name."""

    key: str
    argv: tuple[str, ...]

    def full_argv(self, seed: int, output: str) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--output", output]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple[Call, ...]
    scenarios: tuple[str, ...]
    points: int        # grid points swept per pass (0: no sweep)
    work_points: int   # points behind points_per_s


def _grid(shape: tuple[int, ...]) -> str:
    return "x".join(str(n) for n in shape)


def report_holo_2d(grid: tuple[int, int] = (60, 60)) -> Workload:
    n = grid[0] * grid[1]
    return Workload(
        name="report-holo-2d",
        why=("full report pipeline on holo-w2 at the 60x60 grid: the per-point "
             "sweep dominates, and it is the only workload that writes a large "
             "artifact"),
        calls=(Call("report", ("report", "--scenario", "holo-w2",
                               "--grid", _grid(grid))),),
        scenarios=("holo-w2",),
        points=n, work_points=n)


def gate_sphere_3d(grid: tuple[int, int, int] = (12, 12, 12)) -> Workload:
    n = grid[0] * grid[1] * grid[2]
    calls = tuple(Call(f"check-theorem:{name}",
                       ("check-theorem", "--scenario", name, "--grid", _grid(grid)))
                  for name in ("identity-s3", "proj-s3-s1"))
    return Workload(
        name="gate-sphere-3d",
        why=("check-theorem on two 3-d maps at 12x12x12: sweep with 3x3 blocks, "
             "the conclusion re-check and the rank-1 frame completion, no "
             "identity suite"),
        calls=calls,
        scenarios=("identity-s3", "proj-s3-s1"),
        points=2 * n, work_points=2 * n)


def identities_registry(names: tuple[str, ...] = REGISTRY_ORDER) -> Workload:
    calls = tuple(Call(f"verify-identities:{name}",
                       ("verify-identities", "--scenario", name))
                  for name in names)
    return Workload(
        name="identities-registry",
        why=("verify-identities on all 12 registry scenarios: identity suite "
             "only, no grid sweep, so a sweep-only speedup should leave it flat"),
        calls=calls,
        scenarios=tuple(names),
        points=0, work_points=SUITE_POINTS * len(names))


def workloads(tiny: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``tiny`` shrinks the grids for the self-test."""
    if tiny:
        items = [report_holo_2d((5, 5)), gate_sphere_3d((3, 3, 3)),
                 identities_registry(("holo-w2", "proj-s3-s1", "conformal-shrink"))]
    else:
        items = [report_holo_2d(), gate_sphere_3d(), identities_registry()]
    return {w.name: w for w in items}
