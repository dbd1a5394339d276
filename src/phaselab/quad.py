"""One-dimensional grids, composite Gauss-Legendre quadrature and the
continuum Fourier transform.

Grids are composite Gauss-Legendre panels.  The Fourier transform is a
dense O(N^2) quadrature transform, but each panel's oscillatory moments
are integrated exactly against the panel's Legendre interpolant
(spherical-Bessel moments), so accuracy is set by interpolation quality
alone and is independent of the frequency.  That is what makes 12-decade
log-graded profiles transformable at desk-scale node counts.

Convention: ``fourier(psi, p_grid, sign=-1)`` computes
``(1/sqrt(2*pi)) * int exp(-i p q) psi(q) dq`` (forward); ``sign=+1`` is
the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.special import spherical_jn

from .errors import InvalidInputError, NumericalError, json_value, require_keys

__all__ = [
    "Grid1D",
    "ComplexProfile",
    "build_panels",
    "integrate",
    "integrate_values",
    "fourier",
    "fourier_matrix",
    "transform_rows",
    "symmetric_log_grid",
]


@dataclass(frozen=True)
class Grid1D:
    """Quadrature grid: strictly increasing nodes with positive weights.

    ``panel_edges``/``panel_order`` record the composite-panel structure
    when the grid was produced by :func:`build_panels`; the Fourier
    transform and profile interpolation need them.
    """

    nodes: np.ndarray
    weights: np.ndarray
    panel_edges: Optional[np.ndarray] = field(default=None, compare=False)
    panel_order: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape:
            raise InvalidInputError("nodes and weights must be 1-D and equally long")
        if nodes.size == 0:
            raise InvalidInputError("empty grid")
        if not np.all(np.diff(nodes) > 0):
            raise InvalidInputError("grid nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise InvalidInputError("grid weights must be strictly positive")
        if self.panel_edges is not None:
            object.__setattr__(self, "panel_edges", np.asarray(self.panel_edges, dtype=float))

    def __len__(self):
        return self.nodes.size

    @property
    def span(self):
        return float(self.nodes[0]), float(self.nodes[-1])

    def same_as(self, other: "Grid1D", tol: float = 0.0) -> bool:
        """Same nodes and weights: exactly, or to ``tol`` in absolute value."""
        if len(self) != len(other):
            return False
        if tol == 0.0:
            return bool(np.array_equal(self.nodes, other.nodes)
                        and np.array_equal(self.weights, other.weights))
        return bool(np.allclose(self.nodes, other.nodes, atol=tol, rtol=0)
                    and np.allclose(self.weights, other.weights, atol=tol, rtol=0))

    def to_json(self) -> dict:
        out = {"nodes": self.nodes.tolist(), "weights": self.weights.tolist()}
        if self.panel_edges is not None:
            out["panel_edges"] = self.panel_edges.tolist()
            out["panel_order"] = int(self.panel_order)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Grid1D":
        require_keys(obj, ("nodes", "weights"), "grid")
        arrays = {}
        for key in ("nodes", "weights", "panel_edges"):
            with json_value("grid", key):
                arrays[key] = None if obj.get(key) is None else np.asarray(obj[key], dtype=float)
        order = obj.get("panel_order")
        if order is not None and (type(order) is not int or order < 1):
            raise InvalidInputError(f"grid JSON key 'panel_order' must be a positive integer, "
                                    f"got {order!r}")
        return cls(arrays["nodes"], arrays["weights"], arrays["panel_edges"], order)


@dataclass(frozen=True)
class ComplexProfile:
    """Complex samples of a 1-D function on a grid's nodes.

    ``carrier`` is an optional modulation frequency: the represented
    function is ``values(q) * exp(i * carrier * q)``.  Keeping fast
    oscillations symbolic lets the panel interpolant stay accurate on
    wide log-graded panels; the Fourier transform absorbs the carrier as
    an exact frequency shift.
    """

    grid: Grid1D
    values: np.ndarray
    carrier: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise InvalidInputError("profile values must align with grid nodes")

    def norm_sq(self) -> float:
        return float(np.sum(self.grid.weights * np.abs(self.values) ** 2))

    def inner(self, other: "ComplexProfile") -> complex:
        if not self.grid.same_as(other.grid):
            raise InvalidInputError("profiles live on different grids")
        integrand = np.conj(self.values) * other.values
        if other.carrier != self.carrier:
            integrand = integrand * np.exp(1j * (other.carrier - self.carrier)
                                           * self.grid.nodes)
        return complex(np.sum(self.grid.weights * integrand))

    def normalized(self) -> "ComplexProfile":
        n = self.norm_sq()
        if n <= 0:
            raise NumericalError("cannot normalize a zero profile")
        return ComplexProfile(self.grid, self.values / np.sqrt(n), self.carrier)

    def interp(self, x) -> np.ndarray:
        """Evaluate the per-panel Legendre interpolant at arbitrary points.

        Points outside the grid span evaluate to 0.
        """
        if self.grid.panel_edges is None:
            raise InvalidInputError("interp requires a panel-structured grid")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        edges = self.grid.panel_edges
        order = self.grid.panel_order
        out = np.zeros(x.shape, dtype=complex)
        idx = np.searchsorted(edges, x, side="right") - 1
        inside = (x >= edges[0]) & (x <= edges[-1])
        idx = np.clip(idx, 0, len(edges) - 2)
        coef = _legendre_coef_matrix(order)  # (order, order)
        vals = self.values.reshape(-1, order)
        for p in np.unique(idx[inside]):
            sel = inside & (idx == p)
            a, b = edges[p], edges[p + 1]
            t = (2.0 * x[sel] - (a + b)) / (b - a)
            c = coef @ vals[p]
            acc = np.zeros(t.shape, dtype=complex)
            pk_prev = np.ones_like(t)
            pk = t.copy()
            acc += c[0] * pk_prev
            if order > 1:
                acc += c[1] * pk
            for k in range(2, order):
                pk_prev, pk = pk, ((2 * k - 1) * t * pk - (k - 1) * pk_prev) / k
                acc += c[k] * pk
            out[sel] = acc
        if self.carrier != 0.0:
            out = out * np.exp(1j * self.carrier * x)
        return out


@lru_cache(maxsize=32)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=32)
def _legendre_coef_matrix(order: int) -> np.ndarray:
    """C[k, j]: coefficient of P_k for data at the order-point GL nodes."""
    x, w = _gl_rule(order)
    P = np.stack([np.polynomial.legendre.Legendre.basis(k)(x) for k in range(order)])
    return (np.arange(order)[:, None] + 0.5) * w[None, :] * P


def _geometric_subdivision(a: float, b: float, m: int, ratio: float = 2.0) -> np.ndarray:
    """Split [a, b] into m panels with widths growing geometrically from a."""
    if m == 1:
        return np.array([a, b])
    widths = ratio ** np.arange(m)
    cuts = np.concatenate([[0.0], np.cumsum(widths)]) / widths.sum()
    return a + (b - a) * cuts


def build_panels(
    breakpoints: Sequence[float],
    order: int,
    grading: str = "uniform",
    subdiv: int = 1,
) -> Grid1D:
    """Composite Gauss-Legendre grid over consecutive breakpoint intervals.

    Each interval is split into ``subdiv`` panels; ``grading="log"``
    makes the panel widths grow geometrically away from the interval's
    left endpoint (clustering where integrands like 1/sqrt(q) are worst),
    ``"uniform"`` keeps them equal.
    """
    breakpoints = np.asarray(breakpoints, dtype=float)
    if breakpoints.ndim != 1 or breakpoints.size < 2:
        raise InvalidInputError("need at least two breakpoints")
    if not np.all(np.diff(breakpoints) > 0):
        raise InvalidInputError("breakpoints must be strictly increasing")
    if order < 2:
        raise InvalidInputError("panel order must be >= 2")
    if subdiv < 1:
        raise InvalidInputError("subdiv must be >= 1")
    if grading not in ("uniform", "log"):
        raise InvalidInputError(f"unknown grading {grading!r}")

    edges = [breakpoints[:1]]
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        if grading == "uniform":
            cuts = np.linspace(a, b, subdiv + 1)
        else:
            cuts = _geometric_subdivision(a, b, subdiv)
        edges.append(cuts[1:])
    edges = np.concatenate(edges)

    x, w = _gl_rule(order)
    centers = 0.5 * (edges[:-1] + edges[1:])
    halfw = 0.5 * np.diff(edges)
    nodes = (centers[:, None] + halfw[:, None] * x[None, :]).ravel()
    weights = (halfw[:, None] * w[None, :]).ravel()
    return Grid1D(nodes, weights, panel_edges=edges, panel_order=order)


def grid_from_edges(edges: Sequence[float], order: int) -> Grid1D:
    """Panel grid with explicitly given panel edges."""
    return build_panels(np.asarray(edges, dtype=float), order)


def symmetric_log_grid(
    x_min: float,
    x_max: float,
    panels_per_side: int,
    order: int,
    bridge: bool = False,
    center: float = 0.0,
) -> Grid1D:
    """Grid on ``center +- [x_min, x_max]`` with log-spaced panels.

    ``bridge=True`` adds the two panels ``[-x_min, 0]`` and ``[0, x_min]``
    so the gap across the center is covered (used on momentum axes where
    the transform is smooth through zero).  ``center`` is always a panel
    edge, so sign functions anchored there never straddle a panel.
    """
    if not (0 < x_min < x_max):
        raise InvalidInputError("need 0 < x_min < x_max")
    g = np.geomspace(x_min, x_max, panels_per_side + 1)
    if bridge:
        edges = np.concatenate([-g[::-1], [0.0], g])
    else:
        edges = np.concatenate([-g[::-1], g])
    return grid_from_edges(center + edges, order)


def integrate_values(grid: Grid1D, values: np.ndarray) -> complex:
    values = np.asarray(values)
    if values.shape != grid.nodes.shape:
        raise InvalidInputError("values must align with grid nodes")
    return complex(np.sum(grid.weights * values))


def integrate(f: ComplexProfile) -> complex:
    """Quadrature sum over the profile's grid."""
    return integrate_values(f.grid, f.values)


def fourier_matrix(q_grid: Grid1D, p_grid: Grid1D, sign: int = -1) -> np.ndarray:
    """Dense transform matrix M with (M @ values) the transform on p-nodes.

    For panel grids, each panel's contribution is the exact integral of
    the oscillation against the panel's Legendre interpolant, via
    ``int_{-1}^{1} P_k(t) e^{i w t} dt = 2 i^k j_k(w)``.  Plain
    ``exp(i s p q) * w`` quadrature is used for grids without panel
    metadata.
    """
    if sign not in (-1, 1):
        raise InvalidInputError("sign must be -1 (forward) or +1 (inverse)")
    p = p_grid.nodes
    if q_grid.panel_edges is None:
        kern = np.exp(1j * sign * np.outer(p, q_grid.nodes))
        return kern * q_grid.weights[None, :] / np.sqrt(2 * np.pi)

    edges = q_grid.panel_edges
    order = q_grid.panel_order
    B = _legendre_coef_matrix(order)
    centers = 0.5 * (edges[:-1] + edges[1:])
    halfw = 0.5 * np.diff(edges)

    # G[p_i, panel, k] = 2 i^k j_k(sign * p_i * halfw_panel)
    om = sign * np.outer(p, halfw)
    G = np.empty((len(p), len(halfw), order), dtype=complex)
    neg = om < 0
    abs_om = np.abs(om)
    for k in range(order):
        jk = spherical_jn(k, abs_om)
        if k % 2 == 1:
            jk = np.where(neg, -jk, jk)
        G[:, :, k] = 2.0 * (1j ** k) * jk
    phase = np.exp(1j * sign * np.outer(p, centers))
    M = np.einsum("xp,xpk,kj->xpj", phase * halfw[None, :], G, B, optimize=True)
    return M.reshape(len(p), -1) / np.sqrt(2 * np.pi)


def _eval_grid(p_grid: Grid1D, carrier: float, sign: int) -> Grid1D:
    # e^{i s p q} e^{i c q} = e^{i s (p + s c) q}: a carrier is a frequency shift
    if carrier != 0.0:
        return Grid1D(p_grid.nodes + sign * carrier, p_grid.weights)
    return p_grid


def transform_rows(values, q_grid: Grid1D, carrier: float, p_grid: Grid1D,
                   sign: int = -1) -> np.ndarray:
    """Fourier transform of each row of ``values`` (n_terms, len(q_grid)),
    carrier included, onto ``p_grid``: ``values @ fourier_matrix(...).T``."""
    values = np.ascontiguousarray(values, dtype=complex)
    return values @ fourier_matrix(q_grid, _eval_grid(p_grid, carrier, sign), sign).T


def fourier(psi: ComplexProfile, p_grid: Grid1D, sign: int = -1) -> ComplexProfile:
    """Quadrature Fourier transform of a profile onto a momentum grid.

    A nonzero carrier becomes an exact frequency shift:
    ``e^{i s p q} e^{i c q} = e^{i s (p + s c) q}``.
    """
    if len(psi.grid) == 0 or len(p_grid) == 0:
        raise InvalidInputError("empty grid")
    M = fourier_matrix(psi.grid, _eval_grid(p_grid, psi.carrier, sign), sign)
    return ComplexProfile(p_grid, M @ psi.values)
