"""Geometry of a two-factor Riemannian product.

Tangent vectors of the product are kept as explicit (domain part, target
part) pairs; every product computation is block-wise, so mixed metric and
curvature components are exactly zero by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart_manifold import (
    ChartManifold,
    ChartPoint,
    christoffel_from_jet,
    riemann_from_jet,
)

Array = np.ndarray


@dataclass(frozen=True)
class SplitVector:
    """Tangent vector of M x N split into factor components."""

    m_part: Array
    n_part: Array

    def __post_init__(self):
        object.__setattr__(self, "m_part", np.asarray(self.m_part, dtype=float))
        object.__setattr__(self, "n_part", np.asarray(self.n_part, dtype=float))

    def __add__(self, other: "SplitVector") -> "SplitVector":
        return SplitVector(self.m_part + other.m_part, self.n_part + other.n_part)

    def __sub__(self, other: "SplitVector") -> "SplitVector":
        return SplitVector(self.m_part - other.m_part, self.n_part - other.n_part)

    def __mul__(self, a: float) -> "SplitVector":
        return SplitVector(a * self.m_part, a * self.n_part)

    __rmul__ = __mul__


@dataclass(frozen=True)
class ProductPoint:
    base: ChartPoint
    fiber: ChartPoint


@dataclass(frozen=True)
class ProductSpace:
    """The product (M x N, g_M x g_N) of two chart manifolds."""

    m_factor: ChartManifold
    n_factor: ChartManifold

    @property
    def dim(self) -> int:
        return self.m_factor.dim + self.n_factor.dim

    def point(self, base_coords, fiber_coords) -> ProductPoint:
        return ProductPoint(self.m_factor.point(base_coords),
                            self.n_factor.point(fiber_coords))

    def metric(self, q: ProductPoint, u: SplitVector, v: SplitVector) -> float:
        """Product metric g_M(u_M, v_M) + g_N(u_N, v_N)."""
        gm = self.m_factor.jet(q.base).g
        gn = self.n_factor.jet(q.fiber).g
        return float(u.m_part @ gm @ v.m_part + u.n_part @ gn @ v.n_part)

    def s_form(self, q: ProductPoint, u: SplitVector, v: SplitVector) -> float:
        """The split-signature form g_M(u_M, v_M) - g_N(u_N, v_N).

        As a quadratic form this has signature (dim M, dim N); it is never
        inverted.
        """
        gm = self.m_factor.jet(q.base).g
        gn = self.n_factor.jet(q.fiber).g
        return float(u.m_part @ gm @ v.m_part - u.n_part @ gn @ v.n_part)

    def metric_matrix(self, q: ProductPoint) -> Array:
        """Block-diagonal matrix of the product metric in split coordinates."""
        return block_diag(self.m_factor.jet(q.base).g,
                          self.n_factor.jet(q.fiber).g)

    def s_matrix(self, q: ProductPoint) -> Array:
        """Block-diagonal matrix diag(g_M, -g_N) of the split-signature form."""
        return block_diag(self.m_factor.jet(q.base).g,
                          -self.n_factor.jet(q.fiber).g)

    def christoffel(self, q: ProductPoint) -> Array:
        """Product Christoffel symbols; mixed components are exactly zero."""
        m, n = self.m_factor.dim, self.n_factor.dim
        gm = christoffel_from_jet(self.m_factor.jet(q.base))
        gn = christoffel_from_jet(self.n_factor.jet(q.fiber))
        gamma = np.zeros((m + n, m + n, m + n))
        gamma[:m, :m, :m] = gm
        gamma[m:, m:, m:] = gn
        return gamma

    def riemann(self, q: ProductPoint, u1: SplitVector, u2: SplitVector,
                u3: SplitVector, u4: SplitVector) -> float:
        """Curvature of the product: R_M on the M parts plus R_N on the N parts."""
        rm = riemann_from_jet(self.m_factor.jet(q.base))
        rn = riemann_from_jet(self.n_factor.jet(q.fiber))
        val = np.einsum("ijkl,i,j,k,l->", rm, u1.m_part, u2.m_part,
                        u3.m_part, u4.m_part)
        val += np.einsum("ijkl,i,j,k,l->", rn, u1.n_part, u2.n_part,
                         u3.n_part, u4.n_part)
        return float(val)


def block_diag(a: Array, b: Array) -> Array:
    """Block-diagonal matrix ``diag(a, b)``; broadcasts over leading axes."""
    m, n = a.shape[-1], b.shape[-1]
    out = np.zeros((*a.shape[:-2], m + n, m + n))
    out[..., :m, :m] = a
    out[..., m:, m:] = b
    return out
