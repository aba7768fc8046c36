"""Panel-based Gauss-Legendre quadrature and its panel edge layouts."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def _gl_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def panel_nodes(edges, order: int = 16):
    """Gauss-Legendre nodes/weights for the panels defined by ``edges``."""
    edges = np.asarray(edges, dtype=float)
    x, w = _gl_rule(order)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def integrate_panels(f, edges, order: int = 16):
    """Integrate ``f`` over the panel decomposition.

    ``f`` must accept a 1-D node array and return values whose last axis
    matches the nodes (extra leading axes are allowed for batched
    integrands).
    """
    nodes, weights = panel_nodes(edges, order)
    return np.asarray(f(nodes)) @ weights


def refine_edges(edges):
    """Split every panel at its midpoint."""
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(2 * len(edges) - 1)
    out[0::2] = edges
    out[1::2] = mids
    return out


def uniform_edges(a: float, b: float, n_panels: int):
    return np.linspace(a, b, n_panels + 1)


def oscillatory_edges(a: float, b: float, max_phase_rate: float, breakpoints=()):
    """Uniform panels sized so each spans about one period (2 pi radians) at
    the phase rate ``max_phase_rate``, plus 8, and at most 20 000 panels.

    ``breakpoints`` inside (a, b) are snapped onto the edge set, which keeps
    kinks of the integrand on panel boundaries.
    """
    total = abs(max_phase_rate) * (b - a)
    n = min(int(np.ceil(total / (2.0 * np.pi))) + 8, 20000)
    edges = np.linspace(a, b, n + 1)
    inner = [p for p in breakpoints if a < p < b]
    if inner:
        edges = np.unique(np.concatenate([edges, np.asarray(inner, float)]))
    return edges
