"""Geometry of a two-factor Riemannian product.

Tangent vectors of the product are kept as explicit (domain part, target
part) pairs; the product metric and the split-signature form are evaluated
block-wise from the two factor metrics, so mixed components are exactly
zero by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart_manifold import ChartManifold, ChartPoint

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


def product_metric(gm: Array, gn: Array, u: SplitVector, v: SplitVector) -> float:
    """Product metric ``g_M(u_M, v_M) + g_N(u_N, v_N)`` from the factor metrics.

    With ``-g_N`` in place of ``g_N`` it is the split-signature form
    ``g_M - g_N``, a quadratic form of signature ``(dim M, dim N)`` that is
    never inverted.
    """
    return float(u.m_part @ gm @ v.m_part + u.n_part @ gn @ v.n_part)


@dataclass(frozen=True)
class ProductPoint:
    base: ChartPoint
    fiber: ChartPoint


@dataclass(frozen=True)
class ProductSpace:
    """The product (M x N, g_M x g_N) of two chart manifolds."""

    m_factor: ChartManifold
    n_factor: ChartManifold

    def _factor_metrics(self, q: ProductPoint) -> tuple[Array, Array]:
        return (self.m_factor.jet(q.base.coords[None]).g[0],
                self.n_factor.jet(q.fiber.coords[None]).g[0])

    def metric_matrix(self, q: ProductPoint) -> Array:
        """Block-diagonal matrix of the product metric in split coordinates."""
        return block_diag(*self._factor_metrics(q))

    def s_matrix(self, q: ProductPoint) -> Array:
        """Block-diagonal matrix diag(g_M, -g_N) of the split-signature form."""
        gm, gn = self._factor_metrics(q)
        return block_diag(gm, -gn)


def block_diag(a: Array, b: Array) -> Array:
    """Block-diagonal matrix ``diag(a, b)``; broadcasts over leading axes."""
    m, n = a.shape[-1], b.shape[-1]
    out = np.zeros((*a.shape[:-2], m + n, m + n))
    out[..., :m, :m] = a
    out[..., m:, m:] = b
    return out
