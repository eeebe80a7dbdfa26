import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgeo.chart_manifold import (
    ChartManifold,
    MetricJet,
    constant_metric_chart,
    curvature_form,
    matvec,
    powers,
    quadratic_form,
    ricci_from_jet,
    sectional_range,
    sphere_chart,
)
from graphgeo.draws import Stream
from graphgeo.errors import InvalidParameterError, PreconditionError
from graphgeo.graph_map import MapJet, SmoothMap
from graphgeo.identities import (
    _expand,
    _frame_terms,
    decomposition_sides,
    elliptic_equation_residual,
    extremum_derivative_probe,
    jacobian_consistency_2d,
    log_jacobian_residual_2d,
    minimality_relations_residual_2d,
    normal_estimate_check,
    null_eigenvector_probe,
    point_rows,
    reaction_term_apply,
    run_identity_suite,
    shifted_tensor_laplacian,
)
from graphgeo.product_space import product_form
from graphgeo.scenarios import get, registry
from graphgeo.theorem_gate import DEFAULT_TOLERANCES, STRICT_MARGIN, kappa_level, row_margins
from test_block_partition import polynomial_chart, quadratic_map


def row(f, p):
    """The identity checks' view of one point: a stack of one row."""
    return point_rows(f, [p])


def max_point_term_values(d, sigma: float, lambda0_sq: float) -> np.ndarray:
    """The six grouped terms bounding ``Lap(Phi)(e_m, e_m)`` at a maximum
    point, per row: each is non-positive where the full hypothesis gate
    holds, and their sum bounds the Laplacian from above.  The grouping is
    the decompositions' with the normal estimate applied to the A-sum."""
    c = lambda0_sq
    if c < 0.0:
        raise InvalidParameterError("the squared top singular value cannot be negative")
    m = d.m
    _, sec_n_sum, _, term2, term3, _, phi_ll, tr_s, tr_phi, nu = _frame_terms(
        d, c, sigma, m - 1)                  # the top singular direction
    coeff = 2.0 / (1.0 + c)
    return np.stack([
        # normal estimate applied to the A-sum, plus the isolated trace part
        (4.0 / (1.0 + c)) * ((c - 1.0) * d.a_norm_sq - (c / (1.0 + c)) * sigma * tr_s),
        coeff * -2.0 * sec_n_sum,
        coeff * term2,
        coeff * term3,
        coeff * (sigma * (1.0 - c) / 2.0) * phi_ll * (tr_phi - phi_ll),
        coeff * -(2.0 * c * sigma / (1.0 + c)) * ((m - 2) * phi_ll - nu),
    ], axis=-1)


# ---------------------------------------------------------------------------
# Curvature-sum decompositions
# ---------------------------------------------------------------------------

def test_constant_map_closed_form_anchor():
    # both decomposition forms evaluate to -2 c (m - 1) for a constant map
    # on the unit sphere, independent of the pinching level
    sc = get("constant-s2")
    d = row(sc.f, sc.domain.point([0.4, -0.1]))
    sigmas = np.array([1.0, 0.3, -1.5])
    lhs, rhs_a, rhs_b = decomposition_sides(d.take([0, 0, 0]), 2.0, sigmas, 0)
    assert np.all(abs(lhs + 4.0) < 1e-8)
    assert np.all(abs(rhs_a + 4.0) < 1e-8)
    assert np.all(abs(rhs_b + 4.0) < 1e-8)


def test_identity_map_decomposition_vanishes():
    sc = get("identity-s2")
    d = row(sc.f, sc.domain.point([0.2, 0.5]))
    lhs, rhs_a, rhs_b = decomposition_sides(d.take([0, 0]), 1.0, 1.0, np.arange(2))
    assert np.all(abs(lhs) < 1e-12)
    assert np.all(abs(rhs_a) < 1e-12)
    assert np.all(abs(rhs_b) < 1e-12)


def test_decomposition_residuals_random_sweep():
    # the identities are algebraic in (c, sigma); negative sigma included
    rng = np.random.default_rng(30)
    names = sorted(registry())
    worst_a = worst_b = worst_gap = 0.0
    for _ in range(100):
        sc = get(names[int(rng.integers(0, len(names)))])
        d = row(sc.f, sc.random_points(1, rng)[0])
        c = float(rng.uniform(0.05, 10.0))
        sigma = float(rng.uniform(-2.0, 2.0))
        l = int(rng.integers(0, sc.domain.dim))
        (lhs,), (rhs_a,), (rhs_b,) = decomposition_sides(d, c, sigma, l)
        worst_a = max(worst_a, abs(lhs - rhs_a))
        worst_b = max(worst_b, abs(lhs - rhs_b))
        worst_gap = max(worst_gap, abs(rhs_a - rhs_b))
    assert worst_a < 1e-6
    assert worst_b < 1e-6
    assert worst_gap < 1e-8


# ---------------------------------------------------------------------------
# Normal estimate
# ---------------------------------------------------------------------------

def test_normal_estimate_identity_is_equality():
    # stretch one, shift one: both sides vanish on every normal direction
    sc = get("identity-s2")
    p = sc.domain.point([0.7, 0.0])
    (slack,) = normal_estimate_check(row(sc.f, p), 1.0, rng=np.random.default_rng(0))
    assert abs(slack) < 1e-12


def test_normal_estimate_constant_map_at_zero_shift():
    sc = get("constant-s2")
    p = sc.domain.point([0.1, 0.9])
    (slack,) = normal_estimate_check(row(sc.f, p), 0.0, rng=np.random.default_rng(0))
    assert abs(slack) < 1e-12


def test_normal_estimate_sweep_w2():
    sc = get("holo-w2")
    rng = np.random.default_rng(31)
    d = point_rows(sc.f, sc.random_points(50, rng))
    slacks = normal_estimate_check(d, d.lambdas[:, -1] ** 2, rng=rng)
    assert slacks.shape == (50,)
    assert np.all(slacks > -1e-10)


def test_normal_estimate_precondition():
    sc = get("holo-w2")
    p = sc.domain.point([1.0, 0.0])   # stretch 2 here
    with pytest.raises(PreconditionError):
        normal_estimate_check(row(sc.f, p), 1.0, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Reaction term
# ---------------------------------------------------------------------------

def test_reaction_term_zero_tensor():
    sc = get("torus-linear")
    p = sc.domain.point([0.5, -0.5])
    (val,) = reaction_term_apply(row(sc.f, p), 2.0, np.zeros((1, 2, 2)),
                                 np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert abs(val) < 1e-14


def test_reaction_term_constant_map_oracle():
    # independent oracle from the definition: for a constant map, the
    # second-fundamental-form sum drops and the pullback curvature vanishes,
    # leaving -2 theta(Ric v, v) + (4c/(1+c)) Ric_M(v, v) for theta = g
    sc = get("constant-s2")
    p = sc.domain.point([0.3, 0.2])
    d = row(sc.f, p)
    ric_m = ricci_from_jet(sc.domain.metric_jet(p.coords[None]))[0][0]
    e1 = d.e[0][:, 0]
    theta = d.g.copy()
    for c in (0.0, 1.0, 2.0, 5.0):
        oracle = (-2.0 * float(e1 @ ric_m @ e1)
                  + 4.0 * c / (1.0 + c) * float(e1 @ ric_m @ e1))
        (val,) = reaction_term_apply(d, c, theta, e1[None], e1[None])
        assert abs(val - oracle) < 1e-12


def frame_sum_reaction_term(d, c, theta, v, w, absolute=False):
    """The reaction term summed over the adapted frame ``e_k`` term by term,
    as :func:`reaction_term_apply` first computed it: ``A(e_k, v)`` by a
    3-operand einsum, ``R(e_k, v, e_k, w)`` by 5-operand ones, one running
    sum per frame vector.  With ``absolute``, the same sums over the
    absolute values of every factor, which bound both forms' terms."""
    ab = np.abs if absolute else (lambda x: x)
    sign = 1.0 if absolute else -1.0
    theta, v, w = ab(theta), ab(v), ab(w)
    k = v.ndim - 2
    ric, e, a, gm, gn = (ab(_expand(getattr(d, x), k)) for x in ("ric_g_op", "e", "a_coord",
                                                                  "gm", "gn"))
    value = sign * (quadratic_form(matvec(ric, v), theta, w)
                    + quadratic_form(matvec(ric, w), theta, v))
    nu = (1.0 - c) / (1.0 + c)
    a_v = np.einsum("...ijc,...ik,...j->...kc", a, e, v)    # A(e_k, v)
    a_w = np.einsum("...ijc,...ik,...j->...kc", a, e, w)
    gm, gn = gm[..., None, :, :], gn[..., None, :, :]
    # the shifted split form s_prod - nu g_prod, bounded by (1 + |nu|) g_prod
    split = ((1.0 + abs(nu)) * product_form(gm, gn, a_v, a_w) if absolute
             else product_form(gm, -gn, a_v, a_w) - nu * product_form(gm, gn, a_v, a_w))
    for term in np.moveaxis(split, -1, 0):
        value += 2.0 * sign * term
    e_t = np.swapaxes(e, -1, -2)
    d1, riem_n, riem_m = (ab(_expand(getattr(d, x), k + 1)) for x in ("d1", "riem_n", "riem_m"))
    pushed = [matvec(d1, x) for x in (e_t, v[..., None, :], e_t, w[..., None, :])]
    curv = (curvature_form(riem_n, *pushed)
            + sign * c * curvature_form(riem_m, e_t, v[..., None, :], e_t, w[..., None, :]))
    return value + sign * 4.0 / (1.0 + c) * sum(np.moveaxis(curv, -1, 0))


@pytest.mark.parametrize("c", [0.5, 2.0, 3.7])
@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_reaction_term_per_row_form_matches_the_frame_sums(m, n, c):
    # Both forms add products of the same float64 entries.  The frame sums
    # read e, the per-row form g^-1 = e e^T (GraphBlock.reaction_traces):
    # * each form's rounding is Higham's bound for a sum of products, at most
    #   (terms + factors) eps times the sum over absolute values S (the
    #   absolute frame sums); the longest chain, R_N on pushed vectors, has
    #   n^4 + 4 + 2 m terms and factors, 91 for m = n = 3;
    # * np.linalg.inv errs by a few eps cond(g) |g^-1| per entry;
    # * e^T g e = I + E with |E| <= the frame residual delta, so e e^T =
    #   g^-1 + e E e^-1 g^-1, within delta cond(g) |g^-1| per entry.
    # So the forms differ by at most (K eps + delta) cond(g) S with K = 128;
    # the largest gap on these cases is 0.0039 of that bound (0.93 eps S).
    rng = np.random.default_rng(80 + 10 * m + n)
    f = quadratic_map(rng, polynomial_chart(rng, m, 0.05), polynomial_chart(rng, n, 0.05))
    d = point_rows(f, rng.uniform(-0.5, 0.5, size=(6, m)))
    theta = rng.normal(size=(6, 5, m, m))
    theta = theta + np.swapaxes(theta, -1, -2)
    v, w = rng.normal(size=(2, 6, 5, m))
    got = reaction_term_apply(d, c, theta, v, w)
    err = np.abs(got - frame_sum_reaction_term(d, c, theta, v, w))
    scale = (128 * np.finfo(float).eps + d.blk.frame_residual) * np.linalg.cond(d.g)
    bound = scale[:, None] * frame_sum_reaction_term(d, c, theta, v, w, absolute=True)
    assert np.all(err <= bound), np.max(err / bound)


# ---------------------------------------------------------------------------
# Stacks against their elements
# ---------------------------------------------------------------------------
#
# The checks evaluate stacks of rows, vectors and tensors in one call.  Each
# value of a stack must equal the call on that element alone, bit for bit:
# the identity residuals are differences of nearly equal terms, so a moved
# last bit shows in the reported numbers.

def same_bits(stacked, elements) -> bool:
    return (np.asarray(stacked, dtype=float).tobytes()
            == np.array(elements, dtype=float).tobytes())


@st.composite
def stacked_point(draw):
    """A registry scenario's row at a random point, and a random generator."""
    sc = get(draw(st.sampled_from(sorted(registry()))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return row(sc.f, sc.random_points(1, rng)[0]), rng


def vector_stack(d, rng, k, frame):
    """The frame vectors ``e.T`` (a strided view, as the checks use them) or
    ``k`` random chart vectors."""
    return d.e[0].T if frame else rng.normal(size=(k, d.m))


@settings(max_examples=40, deadline=None)
@given(point=stacked_point(), k=st.integers(1, 6), c=st.floats(-0.9, 10.0),
       shared_theta=st.booleans(), frame=st.booleans())
def test_stacked_reaction_term_equals_each_element(point, k, c, shared_theta, frame):
    d, rng = point
    v = vector_stack(d, rng, k, frame)
    k, m = v.shape
    theta = rng.normal(size=(m, m) if shared_theta else (k, m, m))
    theta = theta + np.swapaxes(theta, -1, -2)
    w = rng.normal(size=(k, m))
    stacked = reaction_term_apply(d, c, theta[None, None] if shared_theta else theta[None],
                                  v[None], w[None])[0]
    thetas = [theta if shared_theta else theta[i] for i in range(k)]
    assert same_bits(stacked, [reaction_term_apply(d, c, thetas[i][None], v[i][None],
                                                   w[i][None])[0] for i in range(k)])


@settings(max_examples=40, deadline=None)
@given(point=stacked_point(), k=st.integers(1, 6), frame=st.booleans())
def test_stacked_curvature_terms_equal_each_element(point, k, frame):
    # the stacked calls of the frame terms: push-forward of the vectors, then
    # R(u_k, u_l, u_k, z_k) with u_l shared across the stack
    d, rng = point
    vectors = vector_stack(d, rng, k, frame)
    d1 = d.d1[0]
    pushed = matvec(d1, vectors)
    assert same_bits(pushed, [d1 @ u for u in vectors])
    for riem, u in ((d.riem_m[0], vectors), (d.riem_n[0], pushed)):
        z = rng.normal(size=u.shape)
        stacked = curvature_form(riem, u, u[-1], u, z)
        assert same_bits(stacked, [curvature_form(riem, u[i], u[-1], u[i], z[i])
                                   for i in range(len(u))])


@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(0, 25),
       a=st.integers(1, 4), b=st.integers(1, 16))
def test_one_normal_block_equals_alternating_draws(seed, k, a, b):
    # the null probe takes its draws of v (size a) and W (size b) as one block
    alternating = np.random.default_rng(seed)
    expected = [np.concatenate([alternating.normal(size=a), alternating.normal(size=b)])
                for _ in range(k)]
    block = np.random.default_rng(seed).normal(size=(k, a + b))
    assert same_bits(block, np.reshape(expected, (k, a + b)))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(registry())), seed=st.integers(0, 2 ** 32 - 1),
       count=st.integers(2, 7), take=st.lists(st.integers(0, 6), min_size=1, max_size=5))
def test_stack_rows_keep_the_layout_of_block_rows(name, seed, count, take):
    # a stacked row keeps the strides' order, and their lack of a unit
    # stride, of a row view of its block: einsum sums and matmul picks BLAS
    # by the strides, so this is what gives a row the bits it has alone
    sc = get(name)
    d = point_rows(sc.f, sc.random_points(count, np.random.default_rng(seed)))
    rows = [i % count for i in take]
    stack = d.take(rows)
    for column in ("g", "ginv", "gamma_g", "riem_m", "riem_n", "ric_m", "ric_g_op",
                   "d1", "e", "normal", "a_frame", "a_coord"):
        block = getattr(d.blk, column, None)
        block = getattr(d.blk.frames, column, None) if block is None else block
        block = getattr(d.blk.ext, column) if block is None else block
        got = getattr(stack, column)
        for k, i in enumerate(rows):
            alone = block[i]
            assert np.array_equal(got[k], alone), column
            assert (np.argsort(got[k].strides, kind="stable").tolist()
                    == np.argsort(alone.strides, kind="stable").tolist()), column
            assert (got[k].itemsize in got[k].strides) == (alone.itemsize in alone.strides)


@st.composite
def block_rows(draw):
    """Rows of one block, at random points of a registry scenario or of a
    quadratic map between non-diagonal polynomial charts (m, n in {2, 3}),
    and a seed."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    count = draw(st.integers(2, 6))
    if draw(st.booleans()):
        sc = get(draw(st.sampled_from(sorted(registry()))))
        return point_rows(sc.f, sc.random_points(count, rng)), seed
    m, n = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    f = quadratic_map(rng, polynomial_chart(rng, m, 0.05), polynomial_chart(rng, n, 0.05))
    return point_rows(f, rng.uniform(-0.5, 0.5, size=(count, m))), seed


@settings(max_examples=30, deadline=None)
@given(rows=block_rows())
def test_stacked_checks_equal_their_one_row_evaluations(rows):
    # every check on a stack of rows gives each row the bits of the same
    # check on that row alone (rows=[i]), draws included
    d, seed = rows
    rng = np.random.default_rng(seed)
    alone = [d.take([i]) for i in range(len(d))]
    lam2 = powers(d.lambdas[:, -1], 2)
    shifts = np.stack([lam2, lam2 + 1.0], axis=-1)
    stacked = normal_estimate_check(d, shifts, rng=np.random.default_rng(seed))
    one_rng = np.random.default_rng(seed)
    assert same_bits(stacked, [normal_estimate_check(r, shifts[i:i + 1], rng=one_rng)[0]
                               for i, r in enumerate(alone)])

    at = rng.integers(0, len(d), size=8)
    c, sigma = rng.uniform(0.05, 10.0, size=8), rng.uniform(-2.0, 2.0, size=8)
    l = rng.integers(0, d.m, size=8)
    stacked = decomposition_sides(d.take(at), c, sigma, l)
    assert same_bits(np.transpose(stacked), [
        [x[0] for x in decomposition_sides(alone[at[t]], c[t], sigma[t], l[t])]
        for t in range(8)])
    assert same_bits(max_point_term_values(d, 0.7, 1.3),
                     [max_point_term_values(r, 0.7, 1.3)[0] for r in alone])

    # the residuals' formulas hold for minimal maps; their bits do not care,
    # nor whether the checks share one neighbour block (d's, built by its
    # first check and read by the later ones) or build their own
    assert same_bits(elliptic_equation_residual(d, 1.5, minimal_tol=np.inf),
                     [elliptic_equation_residual(r, 1.5, minimal_tol=np.inf)[0]
                      for r in alone])
    assert same_bits(elliptic_equation_residual(d, 1.5, minimal_tol=np.inf),
                     elliptic_equation_residual(d.take(slice(None)), 1.5, minimal_tol=np.inf))
    if d.m == d.n == 2:
        assert same_bits(log_jacobian_residual_2d(d, minimal_tol=np.inf),
                         [log_jacobian_residual_2d(r, minimal_tol=np.inf)[0]
                          for r in alone])
        assert same_bits(log_jacobian_residual_2d(d, minimal_tol=np.inf),
                         log_jacobian_residual_2d(d.take(slice(None)), minimal_tol=np.inf))

    # the null probe's reaction values: (v, v) on projected Gram tensors
    theta = rng.normal(size=(len(d), 5, d.m, d.m))
    theta = theta + np.swapaxes(theta, -1, -2)
    v = rng.normal(size=(len(d), 5, d.m))
    assert same_bits(reaction_term_apply(d, 0.8, theta, v, v),
                     [reaction_term_apply(r, 0.8, theta[i:i + 1], v[i:i + 1], v[i:i + 1])[0]
                      for i, r in enumerate(alone)])
    stacked = null_eigenvector_probe(d, 0.5, 0.8, 1.01, DEFAULT_TOLERANCES,
                                     rng=np.random.default_rng(seed))
    one_rng = np.random.default_rng(seed)
    assert stacked == [null_eigenvector_probe(r, 0.5, 0.8, 1.01, DEFAULT_TOLERANCES, rng=one_rng)[0]
                       for r in alone]


# ---------------------------------------------------------------------------
# Elliptic equation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,c", [
    ("identity-s2", 2.0), ("identity-s3", 0.7), ("constant-s2", 3.0),
    ("constant-s3", 1.0), ("rotation-s2", 1.5), ("torus-linear", 2.0),
    ("scaled-sphere-0.5", 2.0), ("scaled-sphere-2.0", 0.5),
])
def test_elliptic_equation_parallel_scenarios(name, c):
    sc = get(name)
    p = sc.domain.point(np.array([0.3, -0.2, 0.1][: sc.domain.dim]))
    assert elliptic_equation_residual(row(sc.f, p), c)[0] < 1e-8


@pytest.mark.parametrize("name", ["holo-w2", "holo-w3", "conformal-shrink"])
def test_elliptic_equation_fd_path(name):
    sc = get(name)
    d = point_rows(sc.f, [[0.6, 0.3], [-0.4, 0.8]])
    r_h = elliptic_equation_residual(d, 2.0, h=1e-3)
    r_half = elliptic_equation_residual(d, 2.0, h=5e-4)
    assert np.all(r_h < 1e-4)
    assert np.all((3.5 <= r_h / r_half) & (r_h / r_half <= 4.5))


def test_elliptic_equation_rejects_nonminimal():
    sc = get("proj-s3-s1")
    with pytest.raises(PreconditionError):
        elliptic_equation_residual(row(sc.f, sc.domain.point([0.3, 0.2, -0.6])), 2.0)


def piecewise_map() -> SmoothMap:
    """identity-s2 left of the axis x = 0 and holo-w2 right of it: a map whose
    shifted tensor field is parallel at some points and not at others."""
    ident, holo = get("identity-s2").f, get("holo-w2").f

    def jet(x):
        left = x[:, 0] < 0.0
        return MapJet(*(np.where(left.reshape(-1, *[1] * (a.ndim - 1)), a, b)
                        for a, b in zip(ident.jet_fn(x), holo.jet_fn(x))))

    return SmoothMap(ident.domain, ident.target, jet, "piecewise")


def test_shared_stencil_block_gives_each_check_its_own_bits():
    # the checks on a stack of rows share its neighbour block, built once by
    # the first of them; the elliptic check takes the stencils of the rows
    # whose field is not parallel (here 1 and 3), with the bits those rows
    # get from a block of their own
    d = point_rows(piecewise_map(), [[-0.5, 0.2], [0.6, 0.3], [-0.3, -0.4], [0.4, -0.8]])
    log_jacobian = log_jacobian_residual_2d(d)
    near = d.neighbours(1e-3)
    assert len(near.coords) == 4 * (4 + 8)
    lap = shifted_tensor_laplacian(d, 2.0, 1e-3)
    assert d.neighbours(1e-3) is near
    assert same_bits(lap, shifted_tensor_laplacian(d.take(slice(None)), 2.0, 1e-3))
    assert same_bits(lap[[1, 3]], shifted_tensor_laplacian(d.take([1, 3]), 2.0, 1e-3))
    assert np.all(lap[[0, 2]] == 0.0) and np.all(np.abs(lap[[1, 3]]).max(axis=(1, 2)) > 0.0)
    assert same_bits(elliptic_equation_residual(d, 2.0),
                     elliptic_equation_residual(d.take(slice(None)), 2.0))
    assert same_bits(log_jacobian, log_jacobian_residual_2d(d.take(slice(None))))


# ---------------------------------------------------------------------------
# Two-dimensional logarithmic Jacobian identity
# ---------------------------------------------------------------------------

def test_log_jacobian_identity_scenario_exact():
    # the Jacobian field is the constant 1/2: both sides vanish
    sc = get("identity-s2")
    d = point_rows(sc.f, [[0.25, -0.45], [0.0, 0.6]])
    assert np.all(log_jacobian_residual_2d(d) < 1e-10)


def test_log_jacobian_constant_map_trivial():
    sc = get("constant-s2")
    assert log_jacobian_residual_2d(row(sc.f, sc.domain.point([0.5, 0.1])))[0] < 1e-10


@pytest.mark.parametrize("name,x", [("holo-w2", [0.0, 0.0]), ("constant-s2", [0.5, 0.1])])
def test_log_jacobian_reads_the_target_plane_at_rank_0(name, x):
    # df = 0: sec_range_n (the image of df) is NaN there, but the equation's
    # sec_N is the curvature of the whole target plane, finite at any rank
    sc = get(name)
    d = row(sc.f, sc.domain.point(x))
    assert d.rank[0] == 0 and np.isnan(d.sec_range_n).all()
    gn = d.gn[0]
    sec_n = d.riem_n[0, 0, 1, 0, 1] / (gn[0, 0] * gn[1, 1] - gn[0, 1] ** 2)
    assert np.allclose(sectional_range(d.riem_n, d.beta)[0], sec_n, rtol=1e-14, atol=0.0)
    (res,) = log_jacobian_residual_2d(d)
    assert np.isfinite(res) and res <= DEFAULT_TOLERANCES["log_jacobian"]


def test_log_jacobian_w2_sweep():
    sc = get("holo-w2")
    rng = np.random.default_rng(32)
    d = point_rows(sc.f, sc.random_points(50, rng))
    assert np.all(log_jacobian_residual_2d(d, h=1e-3) < 1e-4)
    assert np.all(minimality_relations_residual_2d(d) < 1e-6)
    assert np.all(jacobian_consistency_2d(d) < 1e-12)


def test_log_jacobian_w2_convergence():
    sc = get("holo-w2")
    d = row(sc.f, sc.domain.point([0.7, -0.2]))
    (r_h,) = log_jacobian_residual_2d(d, h=1e-3)
    (r_half,) = log_jacobian_residual_2d(d, h=5e-4)
    assert 3.5 <= r_h / r_half <= 4.5


def test_log_jacobian_rejects_wrong_dimensions():
    sc = get("proj-s3-s1")
    with pytest.raises(PreconditionError):
        log_jacobian_residual_2d(row(sc.f, sc.domain.point([0.1, 0.1, 0.1])))


# ---------------------------------------------------------------------------
# Null-eigenvector probe
# ---------------------------------------------------------------------------

def test_null_probe_identity_branch_at_least_one():
    sc = get("identity-s2")
    rng = np.random.default_rng(33)
    d = point_rows(sc.f, sc.random_points(5, rng))
    results = null_eigenvector_probe(d, sigma=1.0, lambda0_sq=1.0, kappa_sq=1.01,
                                     tol=DEFAULT_TOLERANCES, rng=rng)
    assert len(results) == 5
    for res in results:
        assert res.status == "pass"
        assert res.min_value > -1e-10


def test_null_probe_passes_by_the_runs_tolerance():
    # on the round sphere's identity the reaction term at a shift 2e-6 below
    # one is about -1e-6 on (v, v): it fails at the default null_probe
    # tolerance and passes at 1e-5
    sc = get("identity-s2")
    d = row(sc.f, sc.domain.point([0.3, -0.2]))
    loose = {**DEFAULT_TOLERANCES, "null_probe": 1e-5}
    (strict,) = null_eigenvector_probe(d, 1.0, 1.0 - 2e-6, 1.01, DEFAULT_TOLERANCES,
                                       rng=Stream(0))
    (passed,) = null_eigenvector_probe(d, 1.0, 1.0 - 2e-6, 1.01, loose, rng=Stream(0))
    assert -2e-6 < strict.min_value < -5e-7
    assert passed.min_value == strict.min_value
    assert (strict.status, passed.status) == ("fail", "pass")


def test_null_probe_constant_branch_below_one():
    sc = get("constant-s3")
    rng = np.random.default_rng(34)
    d = point_rows(sc.f, sc.random_points(5, rng))
    for res in null_eigenvector_probe(d, sigma=1.0, lambda0_sq=0.0, kappa_sq=1.01,
                                      tol=DEFAULT_TOLERANCES, rng=rng):
        assert res.status == "pass"
        assert res.min_value > -1e-10


def test_null_probe_strictly_length_decreasing_branch():
    # the shrinking holomorphic map restricted to a sub-box where every
    # stretch factor stays below one
    sc = get("conformal-shrink")
    box = np.array([[-0.6, 0.6], [-0.6, 0.6]])
    rng = np.random.default_rng(35)
    rows = point_rows(sc.f, sc._replace(sample_box=box).random_points(8, rng))
    lam0_sq = float(powers(rows.lambdas[:, -1], 2).max())
    assert lam0_sq < 1.0
    for res in null_eigenvector_probe(rows, sigma=1.0, lambda0_sq=lam0_sq, kappa_sq=1.01,
                                      tol=DEFAULT_TOLERANCES, rng=rng):
        assert res.status == "pass"
        assert res.min_value > -1e-10


@pytest.mark.parametrize("name,lambda0_sq", [("identity-s3", 0.8), ("rotation-s2", 1.0),
                                              ("constant-s2", 0.0)])
def test_null_probe_stack_equals_its_rows_probed_in_turn(name, lambda0_sq):
    # each row's plane and tensor draws follow the previous row's in the
    # stream, as if the rows were probed one at a time
    sc = get(name)
    d = point_rows(sc.f, sc.random_points(6, np.random.default_rng(37)))
    stacked = null_eigenvector_probe(d, sc.sigma, lambda0_sq, kappa_sq=1.01,
                                     tol=DEFAULT_TOLERANCES, rng=np.random.default_rng(38))
    rng = np.random.default_rng(38)
    assert stacked == [null_eigenvector_probe(d.take([i]), sc.sigma, lambda0_sq, kappa_sq=1.01,
                                              tol=DEFAULT_TOLERANCES, rng=rng)[0]
                       for i in range(6)]
    assert sum(res.status != "skipped" for res in stacked) >= 2


def test_null_probe_skips_on_violated_hypotheses():
    rng = np.random.default_rng(36)
    sc = get("holo-w2")
    (res,) = null_eigenvector_probe(row(sc.f, sc.domain.point([1.0, 0.2])),
                                    sigma=1.0, lambda0_sq=4.7, kappa_sq=5.0,
                                    tol=DEFAULT_TOLERANCES, rng=rng)
    assert res.status == "skipped"
    assert "trace" in res.reason

    sc = get("torus-linear")
    (res,) = null_eigenvector_probe(row(sc.f, sc.domain.point([0.3, 0.3])),
                                    sigma=1.0, lambda0_sq=6.9, kappa_sq=7.5,
                                    tol=DEFAULT_TOLERANCES, rng=rng)
    assert res.status == "skipped"
    assert "curvature" in res.reason


PRECONDITIONS = ("trace condition fails", "pullback bound fails",
                 "second-fundamental-form bound fails")


@pytest.mark.parametrize("name", ["holo-w2", "holo-w3"])
@pytest.mark.parametrize("kappa_sq", [None, 2.0, 1.0 + 1e-10])
def test_null_probe_skip_reasons_follow_the_gate_row_margins(name, kappa_sq):
    # past the curvature separation, a row is skipped for the first of the
    # trace, pullback and condition-4 margins (the gate's, at its default
    # slack) that is negative, and runs when none is
    sc = get(name)
    d = point_rows(sc.f, sc.random_points(40, Stream(3)))
    lam0_sq = float(np.max(d.lambdas[:, -1] ** 2))
    kappa_sq = kappa_sq or kappa_level(lam0_sq, 0.01)     # None: the suite's level
    rows = row_margins(d, sc.sigma, kappa_sq, d.sec_range_m[:, 0], d.sec_range_n[:, 1])
    slack = DEFAULT_TOLERANCES["gate_slack"]
    fails = np.stack([rows["trace"] < -slack,
                      (rows["kappa_strict"] < STRICT_MARGIN) | (kappa_sq <= 1.0 + STRICT_MARGIN),
                      rows["condition4"] < -slack], axis=-1)
    results = null_eigenvector_probe(d, sc.sigma, lam0_sq, kappa_sq, DEFAULT_TOLERANCES,
                                     rng=Stream(4))
    assert len(results) == len(d)
    reasons = []
    for r, res in enumerate(results):
        if "sectional curvature" in res.reason:
            continue
        if not fails[r].any():
            assert res.status != "skipped", (r, res.reason)
            continue
        reasons.append(PRECONDITIONS[np.argmax(fails[r])])
        assert res.status == "skipped" and res.reason.startswith(reasons[-1]), (r, res.reason)
        if reasons[-1] == PRECONDITIONS[2]:
            assert res.reason.endswith(
                f" ({d.a_norm_sq[r]:.6g} > {rows['sff_bound'][r]:.6g})")
    # every case reaches a precondition past the trace condition
    assert set(reasons) - {PRECONDITIONS[0]}


def test_null_probe_skip_line_of_holo_w3():
    reports = run_identity_suite(get("holo-w3"), seed=12001)
    assert reports[-1].line() == (
        "[skip] null-eigenvector-probe: hypotheses fail at all probe points: "
        "second-fundamental-form bound fails (4.27251 > 0.0103053)")


def test_null_probe_kappa_sq_overflow_is_a_bad_parameter():
    sc = get("holo-w2")
    d = point_rows(sc.f, sc.random_points(3, Stream(5)))
    with pytest.raises(InvalidParameterError, match="kappa"):
        null_eigenvector_probe(d, 1.0, 4.0, kappa_sq=1e200, tol=DEFAULT_TOLERANCES, rng=Stream(6))


def probe_case(rng, domain, target=None):
    """A quadratic map from ``domain`` into ``target`` (by default a
    non-diagonal polynomial 3-d chart), and 12 sample rows of it."""
    f = quadratic_map(rng, domain, target or polynomial_chart(rng, 3, 0.3))
    return point_rows(f, rng.uniform(-0.5, 0.5, size=(12, 3)))


def perturbed_sphere(rng, eps: float) -> ChartManifold:
    """The unit 3-sphere's stereographic metric plus ``eps`` times a
    non-diagonal polynomial one: a general metric whose sectional curvatures
    stay positive near the origin."""
    sphere, poly = sphere_chart(3), polynomial_chart(rng, 3, 0.3)

    def jet(x):
        return MetricJet(*(a + eps * b for a, b in zip(sphere.metric_jet(x), poly.metric_jet(x))))

    return ChartManifold(3, jet, poly.chart_box)


@pytest.mark.parametrize("side", ["domain", "target"])
def test_null_probe_skips_on_the_exact_end_of_the_curvature_range(side):
    # sigma a hair inside row 0's exact range, past the gate's slack: four
    # random planes almost never come that close to an end, the range does.
    # On the domain side the flat target passes; on the target side the
    # sphere of radius 0.5 (curvature 4) passes, so the polynomial target's
    # planes decide
    rng = np.random.default_rng(90)
    if side == "domain":
        d = probe_case(rng, perturbed_sphere(rng, 0.1), constant_metric_chart(3))
        end = d.sec_range_m[0, 0]
        assert end > 0.0
    else:
        d = probe_case(rng, sphere_chart(3, 0.5))
        end = d.sec_range_n[0, 1]
        assert d.sec_range_m[0, 0] > 3.9 and 0.1 < end < 3.9
    slack, inside = DEFAULT_TOLERANCES["gate_slack"], 1e-4
    sigma, text = (end + slack + inside, "below") if side == "domain" \
        else (end - slack - inside, "above")
    for seed in range(5):
        (res,) = null_eigenvector_probe(d.take([0]), sigma, 0.5, 1.01, DEFAULT_TOLERANCES,
                                        rng=Stream(seed))
        assert res.status == "skipped" and res.draws == 0
        assert res.reason == f"{side} sectional curvature {end:.6g} {text} {sigma:.6g}"


@pytest.mark.parametrize("make_rng", [Stream, np.random.default_rng])
def test_null_probe_draws_only_for_the_rows_that_run(make_rng):
    # a skipped row draws nothing; each row that runs draws (20, m + m^2)
    # normals, in turn.  At sigma between the rows' greatest target
    # curvatures some rows skip and the others run
    rng = np.random.default_rng(90)
    d = probe_case(rng, sphere_chart(3, 0.5))
    high = d.sec_range_n[:, 1]
    sigma = float(np.median(high))
    skips = high > sigma + DEFAULT_TOLERANCES["gate_slack"]
    assert skips.any() and not skips.all()
    for seed in range(3):
        probe, reference = make_rng(seed), make_rng(seed)
        results = null_eigenvector_probe(d, sigma, 0.5, 1.01, DEFAULT_TOLERANCES, rng=probe)
        assert [res.status == "skipped" for res in results] == skips.tolist()
        for res in results:
            assert res.draws == (0 if res.status == "skipped" else 20)
        reference.normal(size=(int(np.sum(~skips)), 20, d.m + d.m * d.m))
        assert same_bits(probe.normal(size=8), reference.normal(size=8))


def test_null_probe_runs_a_row_whose_curvature_is_nan():
    # a NaN second metric derivative at row 1 makes that row's curvature
    # range NaN: the separation skips nothing there, and the reaction term,
    # NaN as well, fails the row.  sigma lies above the other rows' least
    # domain curvature, so they skip
    rng = np.random.default_rng(91)
    chart = polynomial_chart(rng, 3, 0.3)

    def jet(x):
        g, dg, d2g = chart.metric_jet(x)
        d2g[1] = np.nan
        return MetricJet(g, dg, d2g)

    domain = chart._replace(metric_jet=jet)
    f = quadratic_map(rng, domain, constant_metric_chart(3))
    d = point_rows(f, rng.uniform(-0.5, 0.5, size=(4, 3)))
    assert np.isnan(d.sec_range_m[1]).all() and np.isfinite(d.sec_range_m[[0, 2, 3]]).all()
    assert np.array_equal(d.sec_range_n, np.zeros((4, 2)))
    sigma = float(np.max(d.sec_range_m[[0, 2, 3], 0])) + 1.0
    results = null_eigenvector_probe(d, sigma, 0.5, 1.01, DEFAULT_TOLERANCES, rng=Stream(0))
    assert [res.status for res in results] == ["skipped", "fail", "skipped", "skipped"]
    assert np.isnan(results[1].min_value)


def test_null_probe_runs_a_row_whose_sff_is_nan():
    # a NaN second map derivative at row 1 makes |A|^2, and so the row's
    # condition-4 margin, NaN: a NaN margin skips nothing, so the row runs,
    # and its NaN value fails
    sc = get("identity-s2")

    def jet(x):
        j = sc.f.jet_fn(x)
        d2 = j.d2.copy()
        d2[1] = np.nan
        return MapJet(j.value, j.d1, d2, j.d3)

    f = SmoothMap(sc.domain, sc.target, jet, "nan-d2")
    d = point_rows(f, np.array([[0.1, 0.2], [0.3, -0.1], [0.0, 0.4]]))
    assert np.isnan(d.a_norm_sq).tolist() == [False, True, False]
    results = null_eigenvector_probe(d, 1.0, 1.0, 1.01, DEFAULT_TOLERANCES, rng=Stream(0))
    assert [res.status for res in results] == ["pass", "fail", "pass"]
    assert np.isnan(results[1].min_value) and results[1].draws == 20


# ---------------------------------------------------------------------------
# Extremum probe
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["identity-s2", "constant-s2", "torus-linear",
                                  "holo-w2", "holo-w3"])
def test_extremum_probe_passes_on_minimal_scenarios(name):
    sc = get(name)
    shape = (9, 9) if sc.domain.dim == 2 else (5, 5, 5)
    res = extremum_derivative_probe(sc.f, sc.grid_points(shape), sc.sample_box)
    assert res.status == "pass"
    assert res.grad_norm < res.grad_tol
    assert res.lap_value < res.lap_tol


def test_extremum_probe_boundary_is_inconclusive():
    # on a box away from the branch point the top eigenvalue is monotone,
    # so its maximum sits on the sampling boundary
    sc = get("conformal-shrink")
    box = np.array([[0.3, 1.0], [0.3, 1.0]])
    grid = sc._replace(sample_box=box).grid_points((6, 6))
    res = extremum_derivative_probe(sc.f, grid, box)
    assert res.status == "inconclusive"
    assert "boundary" in res.reason


def test_extremum_probe_fails_on_nan_mean_curvature():
    # a NaN |H| is not "non-minimal": the probe fails instead of refusing
    sc = get("holo-w2")

    def jet(x):
        j = sc.f.jet_fn(x)
        return MapJet(j.value, j.d1, np.full_like(j.d2, np.nan), j.d3)

    f = SmoothMap(sc.domain, sc.target, jet, "nan-d2")
    res = extremum_derivative_probe(f, sc.grid_points((3, 3)), sc.sample_box)
    assert res.status == "fail"
    assert np.isnan(res.grad_norm) and np.isnan(res.lap_value)


def test_extremum_probe_rejects_nonminimal():
    sc = get("proj-s3-s1")
    with pytest.raises(PreconditionError):
        extremum_derivative_probe(sc.f, sc.grid_points((3, 3, 3)), sc.sample_box)


# ---------------------------------------------------------------------------
# Final-chain sign structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["constant-s2", "constant-s3", "identity-s2",
                                  "identity-s3", "rotation-s2"])
def test_term_signs_at_probed_maximum(name):
    # on scenarios meeting the full gate, each grouped term is non-positive
    # at the point where the top singular value attains its grid maximum
    sc = get(name)
    datas = point_rows(sc.f, sc.grid_points((5,) * sc.domain.dim))
    lam0_sq = float(powers(datas.lambdas[:, -1], 2).max())
    best = int(np.argmax(datas.lambdas[:, -1]))
    terms = max_point_term_values(datas.take([best]), sigma=sc.sigma, lambda0_sq=lam0_sq)
    assert terms.shape == (1, 6)
    assert terms.max() <= 1e-8


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

def test_nan_hessian_fails_the_normal_estimate():
    # the normal estimate runs over A(e_i, e_j), built from the map Hessian:
    # a NaN there must reach the residual, not vanish in a min/max
    sc = get("holo-w2")

    def jet(x):
        j = sc.f.jet_fn(x)
        return MapJet(j.value, j.d1, np.full_like(j.d2, np.nan), j.d3)

    broken = sc._replace(f=SmoothMap(sc.domain, sc.target, jet, "nan-d2"))
    reports = {r.name: r for r in run_identity_suite(broken, seed=0)}
    normal = reports["normal-estimate"]
    assert np.isnan(normal.max_residual)
    assert not normal.passed
    assert normal.line().startswith("[FAIL] normal-estimate")
    # |H| is NaN too, so minimality is undecided: the checks that need a
    # minimal map fail with a NaN residual instead of being skipped
    for name in ("elliptic-equation", "log-jacobian-2d", "minimality-relations-2d",
                 "jacobian-consistency-2d", "extremum-probe"):
        assert not reports[name].skipped, name
        assert np.isnan(reports[name].max_residual), name
        assert not reports[name].passed, name


#: The suite's records in order, each with the tolerance key it runs under.
SUITE = (
    ("frame-formulas", "frame"),
    ("s-eigenvalue-formula", "s_eigenvalue"),
    ("normal-estimate", "normal_estimate"),
    ("curvature-decomposition", "decomposition"),
    ("curvature-decomposition-traced", "decomposition"),
    ("decomposition-forms-gap", "decomposition_gap"),
    ("elliptic-equation", "elliptic"),
    ("log-jacobian-2d", "log_jacobian"),
    ("minimality-relations-2d", "minimality_relations"),
    ("jacobian-consistency-2d", "jacobian_consistency"),
    ("extremum-probe", "extremum"),
    ("null-eigenvector-probe", "null_probe"),
)


@pytest.mark.parametrize("name", list(registry()))
def test_every_suite_returns_the_same_records_in_order(name):
    assert [r.name for r in run_identity_suite(get(name), seed=0)] == [n for n, _ in SUITE]


#: The gate's tolerance keys (graphgeo.theorem_gate).
GATE_KEYS = {"minimality", "gate_slack", "classify_constant", "classify_isometric",
             "sec_witness", "induced_metric_factor"}


@pytest.mark.parametrize("key", list(dict.fromkeys(k for _, k in SUITE)))
@pytest.mark.parametrize("name", ["holo-w2", "identity-s3"])
def test_a_tolerance_override_reaches_exactly_its_records(name, key):
    # one table: the suite's keys and the gate's are disjoint and make it up
    suite_keys = {k for _, k in SUITE}
    assert suite_keys.isdisjoint(GATE_KEYS)
    assert suite_keys | GATE_KEYS == set(DEFAULT_TOLERANCES)
    base = run_identity_suite(get(name), seed=0)
    over = run_identity_suite(get(name), seed=0, tolerances={key: 0.123})
    # a 2-d record that does not run carries a pinned tolerance, left out here
    ran = [(b, o, k) for b, o, (_, k) in zip(base, over, SUITE)
           if b.skipped_reason != "dimensions are not 2x2"]
    assert len(ran) == (12 if name == "holo-w2" else 9)
    for b, o, k in ran:
        assert b.tolerance == DEFAULT_TOLERANCES[k], b.name
        assert o.tolerance == (0.123 if k == key else b.tolerance), b.name
        assert (o.max_residual, o.skipped_reason) == (b.max_residual, b.skipped_reason)


def test_a_map_minimal_only_at_the_sample_points_skips_the_extremum_probe():
    # proj-s3-s1's |H| reaches 0.63 at the suite's points and 0.87 on the
    # extremum grid: at minimality 0.7 the suite counts the map as minimal,
    # and the probe, which finds it is not on its grid, is skipped
    reports = {r.name: r for r in run_identity_suite(get("proj-s3-s1"), seed=0,
                                                     tolerances={"minimality": 0.7})}
    assert not reports["elliptic-equation"].skipped
    assert reports["extremum-probe"].skipped_reason == "probe needs a minimal scenario"


def test_no_record_name_is_written_twice_in_the_package():
    import graphgeo
    literals = [node.value for path in Path(graphgeo.__file__).parent.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert {name: literals.count(name) for name, _ in SUITE} == {name: 1 for name, _ in SUITE}
