"""Geometry of a two-factor Riemannian product.

A tangent vector of the product is one array whose last axis stacks its
domain components (the first ``dim M``) over its target components.  The
product metric and the split-signature form are evaluated factor by factor
from the two factor metrics, so mixed components are exactly zero by
construction.
"""

from typing import NamedTuple

import numpy as np

from .chart_manifold import ChartManifold, ChartPoint, quadratic_form

Array = np.ndarray


def product_form(gm: Array, gn: Array, u: Array, v: Array) -> Array:
    """Product metric ``g_M(u_M, v_M) + g_N(u_N, v_N)`` on stacked vectors
    ``u``, ``v``; broadcasts over leading axes.

    With ``-g_N`` in place of ``g_N`` it is the split-signature form
    ``g_M - g_N``, a quadratic form of signature ``(dim M, dim N)`` that is
    never inverted.
    """
    m = gm.shape[-1]
    return (quadratic_form(u[..., :m], gm, v[..., :m])
            + quadratic_form(u[..., m:], gn, v[..., m:]))


class ProductPoint(NamedTuple):
    base: ChartPoint
    fiber: ChartPoint


class ProductSpace(NamedTuple):
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
