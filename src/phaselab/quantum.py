"""Construction of the violating two-particle states and evaluation of the
projector-combination expectation by closed form and by the grid pipeline.

The two-term states are built from a half-line radial profile h with
unit L^2 norm.  The even extension f(q) = h(|q|)/sqrt(2) and its odd
partner g = sgn(q) f(q) have all position-side region expectations equal
to 1/2; the momentum-side interference term is controlled by the
quadratic form gamma = <h|K|h> of the half-line kernel 1/(pi (q+q')).
The expectation of the projector combination for lambda = rho e^{i theta}
is

    1/2 - rho/(2 (1+rho^2)) [(1+gamma^2) cos(theta) + 2 gamma sin(theta)]

which dips below 0 exactly when |gamma| exceeds sqrt(2 sqrt(3) - 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .bell import BellWitness, Region, p_expectation_from_quartet
from .errors import InvalidInputError, NumericalError
from .marginal import ProductSum, quantum_marginals
from .quad import (
    ComplexProfile,
    Grid1D,
    fourier,
    grid_from_edges,
    pv_integrate,
    symmetric_log_grid,
)

__all__ = [
    "HProfile",
    "ViolationParams",
    "WaveFunction2",
    "Term",
    "build_fg",
    "chi_expectation",
    "gamma",
    "chi_prime_cross",
    "build_psi",
    "canonical_witness",
    "p_hat_expectation_closed",
    "p_hat_expectation_grid",
    "violation_threshold",
    "min_expectation_over_lambda",
    "momentum_grid_for",
]

DEFAULT_EPS = 1e-6
DEFAULT_L = 1e6
INV1_SCALE_MAX = 1e8


@dataclass(frozen=True)
class HProfile:
    """Normalized radial profile on the half line.

    Kinds: ``inverse_q_plus_one`` is h(q) = 1/(q+1); ``cutoff_sqrt`` is
    the two-cutoff regularization of 1/sqrt(q) supported on (eps, L);
    ``samples`` wraps an explicit profile.
    """

    kind: str
    eps: Optional[float] = None
    L: Optional[float] = None
    profile: Optional[ComplexProfile] = None

    def __post_init__(self):
        if self.kind not in ("inverse_q_plus_one", "cutoff_sqrt", "samples"):
            raise InvalidInputError(f"unknown profile kind {self.kind!r}")
        if self.kind == "cutoff_sqrt":
            if self.eps is None or self.L is None or not (0 < self.eps < self.L):
                raise InvalidInputError("cutoff_sqrt requires 0 < eps < L")
        if self.kind == "samples":
            if self.profile is None:
                raise InvalidInputError("samples kind requires a profile")
            n = self.profile.norm_sq()
            if abs(n - 1.0) > 1e-8:
                raise InvalidInputError(f"sample profile norm^2 = {n!r}, must be 1 within 1e-8")

    @classmethod
    def inverse_q_plus_one(cls) -> "HProfile":
        return cls("inverse_q_plus_one")

    @classmethod
    def cutoff_sqrt(cls, eps: float, L: float) -> "HProfile":
        return cls("cutoff_sqrt", eps=eps, L=L)

    @classmethod
    def samples(cls, profile: ComplexProfile) -> "HProfile":
        return cls("samples", profile=profile)

    def support(self) -> Tuple[float, float]:
        """Radial scales (inner, outer) used to build reciprocal grids."""
        if self.kind == "cutoff_sqrt":
            return self.eps, self.L
        if self.kind == "inverse_q_plus_one":
            return 1e-3, INV1_SCALE_MAX
        nodes = self.profile.grid.nodes
        hi = nodes[-1]
        positive = nodes[nodes > 0]
        return (positive[0] if positive.size else hi * 1e-6), hi

    def half_line_grid(self, n_target: int = 720) -> Grid1D:
        if self.kind == "samples":
            return self.profile.grid
        if self.kind == "cutoff_sqrt":
            order = 12
            panels = max(8, n_target // order)
            edges = np.geomspace(self.eps, self.L, panels + 1)
            return grid_from_edges(edges, order)
        order = 10
        panels = max(12, n_target // order - 4)
        edges = np.concatenate([[0.0], np.geomspace(1e-10, 1e10, panels + 1)])
        return grid_from_edges(edges, order)

    def evaluate(self, q: np.ndarray) -> np.ndarray:
        """Raw (un-renormalized) profile values at half-line points."""
        q = np.asarray(q, dtype=float)
        if self.kind == "inverse_q_plus_one":
            return 1.0 / (q + 1.0)
        if self.kind == "cutoff_sqrt":
            inside = (q >= self.eps) & (q <= self.L)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.where(inside, 1.0 / np.sqrt(np.log(self.L / self.eps) * np.abs(q)), 0.0)
            return vals
        return self.profile.interp(q).real

    def half_line_profile(self, n_target: int = 720) -> ComplexProfile:
        """Profile sampled on its canonical grid, renormalized on-grid."""
        if self.kind == "samples":
            return self.profile
        grid = self.half_line_grid(n_target)
        vals = self.evaluate(grid.nodes).astype(complex)
        return ComplexProfile(grid, vals).normalized()


def violation_threshold() -> float:
    """Interference amplitude above which the expectation can dip below 0."""
    return math.sqrt(2.0 * math.sqrt(3.0) - 3.0)


def min_expectation_over_lambda(gamma_value: float) -> float:
    """Closed-form minimum of the expectation over the mixing parameter."""
    g2 = gamma_value * gamma_value
    return 0.5 - 0.25 * math.sqrt((1.0 + g2) ** 2 + 4.0 * g2)


def gamma(h: HProfile, n_target: int = 720) -> float:
    """Quadratic form of the half-line kernel 1/(pi (q+q')) on the profile."""
    prof = h.half_line_profile(n_target)
    q, w = prof.grid.nodes, prof.grid.weights
    if q[0] < 0:
        raise InvalidInputError("profile grid must live on the half line")
    vals = prof.values.real
    weighted = w * vals
    kernel = 1.0 / (np.pi * (q[:, None] + q[None, :]))
    val = float(weighted @ kernel @ weighted)
    if not np.isfinite(val):
        raise NumericalError("kernel quadrature diverged; use a log-graded grid")
    return val


def build_fg(h: HProfile, n_target: int = 512) -> Tuple[ComplexProfile, ComplexProfile]:
    """Even extension f(q) = h(|q|)/sqrt(2) and odd partner g = sgn(q) f.

    Both are unit-norm on the symmetric grid and exactly orthogonal by
    parity; the grid excludes q = 0 so the sign is always well defined.
    """
    grid = _symmetric_grid_for(h, n_target)
    f_vals = (h.evaluate(np.abs(grid.nodes)) / math.sqrt(2.0)).astype(complex)
    f = ComplexProfile(grid, f_vals).normalized()
    g = ComplexProfile(grid, np.sign(grid.nodes) * f.values)
    return f, g


def _symmetric_grid_for(h: HProfile, n_target: int, center: float = 0.0) -> Grid1D:
    if h.kind == "cutoff_sqrt":
        # the middle [-eps, eps] panel carries the zero gap and costs one
        # panel of nodes, so budget it in
        order = 4 if n_target <= 128 else 6
        panels = max(4, (n_target - order) // (2 * order))
        return symmetric_log_grid(h.eps, h.L, panels, order, center=center)
    if h.kind == "inverse_q_plus_one":
        order = 4 if n_target <= 128 else 6
        panels = max(4, n_target // (2 * order) - 2)
        g = np.geomspace(1e-4, INV1_SCALE_MAX, panels + 1)
        edges = np.concatenate([-g[::-1], [0.0], g])
        return grid_from_edges(center + edges, order)
    half = h.profile.grid
    if half.panel_edges is None:
        raise InvalidInputError("sample profiles need a panel-structured grid")
    edges = half.panel_edges
    if edges[0] < 0:
        raise InvalidInputError("sample profile grid must live on the half line")
    lo = edges[0]
    full = np.concatenate([-edges[::-1], edges]) if lo > 0 else np.concatenate(
        [-edges[::-1][:-1], edges])
    return grid_from_edges(center + full, half.panel_order)


def momentum_grid_for(h: HProfile, n_target: int = 512, center: float = 0.0) -> Grid1D:
    """Reciprocal momentum grid matched to the profile's radial scales.

    Above ~128 target nodes the grid switches from a fixed node budget
    to a fixed density of 8 order-8 panels per decade, which resolves the
    oscillatory tails of the transforms near the reciprocal cutoffs.
    """
    inner, outer = h.support()
    p_min = 0.01 / outer
    p_max = 100.0 / inner
    if n_target > 128:
        order = 8
        decades = math.log10(p_max / p_min)
        panels = max(8, int(math.ceil(8.0 * decades)))
    else:
        order = 6
        panels = max(4, (n_target - 2 * order) // (2 * order))
    return symmetric_log_grid(p_min, p_max, panels, order, bridge=True, center=center)


def chi_expectation(
    phi: ComplexProfile,
    reg: Region,
    rep: str = "position",
    p_grid: Optional[Grid1D] = None,
) -> float:
    """Probability mass of the profile inside a region, in either
    representation; the momentum path Fourier-transforms first."""
    if rep not in ("position", "momentum"):
        raise InvalidInputError("rep must be 'position' or 'momentum'")
    if rep == "momentum":
        if p_grid is None:
            if phi.grid.panel_edges is None:
                raise InvalidInputError("momentum rep needs an explicit p_grid "
                                        "for grids without panel structure")
            p_grid = grid_from_edges(phi.grid.panel_edges, phi.grid.panel_order)
        phi = fourier(phi, p_grid, sign=-1)
        dens = phi.grid.weights * np.abs(phi.values) ** 2
        # normalize by the grid transform mass so the split is a probability
        return float(dens[reg.indicator(phi.grid.nodes)].sum() / dens.sum())
    dens = phi.grid.weights * np.abs(phi.values) ** 2
    return float(dens[reg.indicator(phi.grid.nodes)].sum())


def _is_even_profile(f: ComplexProfile, tol: float = 1e-10) -> bool:
    nodes, vals = f.grid.nodes, f.values
    if not np.allclose(nodes, -nodes[::-1], rtol=0, atol=1e-12 * max(1.0, abs(nodes[-1]))):
        return False
    scale = np.max(np.abs(vals)) or 1.0
    return bool(np.max(np.abs(vals - vals[::-1])) <= tol * scale)


def chi_prime_cross(f: ComplexProfile) -> complex:
    """Momentum-side interference term between f and its odd partner.

    For real f the principal-value part cancels by symmetry and the value
    is -i gamma / 2; complex f evaluates both kernel terms, the singular
    one through pv_integrate on the interpolated profile.
    """
    if f.carrier != 0.0:
        raise InvalidInputError("carrier-modulated profiles are not even")
    if not _is_even_profile(f):
        raise InvalidInputError("profile must be even on a symmetric grid")
    nodes = f.grid.nodes
    pos = nodes > 0
    q, w = nodes[pos], f.grid.weights[pos]
    fv = f.values[pos]

    plus_kernel = 1.0 / (q[:, None] + q[None, :])
    plus = (w * np.conj(fv)) @ plus_kernel @ (w * fv)

    if np.max(np.abs(fv.imag)) <= 1e-12 * max(np.max(np.abs(fv.real)), 1e-300):
        return complex(-1j / np.pi * plus)

    # complex profile: add the principal-value term via the interpolant
    half_edges = f.grid.panel_edges[f.grid.panel_edges >= 0]
    half_grid = grid_from_edges(half_edges, f.grid.panel_order) if len(half_edges) >= 2 \
        else None
    if half_grid is None:
        raise InvalidInputError("profile grid has no half-line panels")

    def re_f(x):
        return f.interp(x).real

    def im_f(x):
        return f.interp(x).imag

    pv_vals = np.empty(len(q), dtype=complex)
    lo, hi = half_edges[0], half_edges[-1]
    for i, c in enumerate(q):
        if not (lo < c < hi):
            pv_vals[i] = 0.0
            continue
        pv_vals[i] = pv_integrate(re_f, c, half_grid) + 1j * pv_integrate(im_f, c, half_grid)
    # inner PV of f(q')/(q - q') = -PV of f(q')/(q' - q)
    minus = np.sum(w * np.conj(fv) * (-pv_vals))
    return complex(-1j / np.pi * (plus - minus))


@dataclass(frozen=True)
class Term:
    coefficient: complex
    factor1: ComplexProfile
    factor2: ComplexProfile


@dataclass
class WaveFunction2:
    """Two-particle state as a weighted sum of product terms.

    All first factors share one grid and all second factors another.
    ``p1_grid``/``p2_grid`` are optional preferred momentum grids used by
    the marginal pipeline when the caller does not supply any.
    """

    terms: list
    p1_grid: Optional[Grid1D] = None
    p2_grid: Optional[Grid1D] = None

    def __post_init__(self):
        if not self.terms:
            raise InvalidInputError("state needs at least one term")
        first = self.terms[0]
        for t in self.terms[1:]:
            if not (t.factor1.grid.same_as(first.factor1.grid)
                    and t.factor2.grid.same_as(first.factor2.grid)):
                raise InvalidInputError("all terms must share the two factor grids")
            if (t.factor1.carrier != first.factor1.carrier
                    or t.factor2.carrier != first.factor2.carrier):
                raise InvalidInputError("all terms must share the per-axis carriers")

    @property
    def grid1(self) -> Grid1D:
        return self.terms[0].factor1.grid

    @property
    def grid2(self) -> Grid1D:
        return self.terms[0].factor2.grid

    def norm_sq(self) -> float:
        val = 0.0
        for ti in self.terms:
            for tj in self.terms:
                val += (np.conj(ti.coefficient) * tj.coefficient
                        * ti.factor1.inner(tj.factor1)
                        * ti.factor2.inner(tj.factor2)).real
        return float(val)

    def position_density(self) -> np.ndarray:
        return ProductSum.from_terms(self.terms).density()


@dataclass(frozen=True)
class ViolationParams:
    """Parameters of the violating family: radial profile, mixing modulus
    and phase, spatial separation ``shift``, relative momentum ``boost``,
    and the overall +/- branch."""

    h: HProfile
    rho: float = 1.0
    theta: float = math.pi / 4.0
    shift: float = 0.0
    boost: float = 0.0
    sign: int = +1

    def __post_init__(self):
        if self.rho < 0:
            raise InvalidInputError("rho must be nonnegative")
        if self.sign not in (+1, -1):
            raise InvalidInputError("sign must be +1 or -1")

    @property
    def lam(self) -> complex:
        return self.sign * self.rho * np.exp(1j * self.theta)


def canonical_witness(params: ViolationParams) -> BellWitness:
    """Half-line regions matched to the state: both position regions start
    at the separation shift on axis 2, momentum regions at the boost."""
    return BellWitness.half_lines(0.0, params.shift, 0.0, params.boost)


def build_psi(params: ViolationParams, n_target: int = 512) -> WaveFunction2:
    """Two-term product-sum state (phi + lambda varphi)/sqrt(1+|lambda|^2).

    Axis 1 carries (f, g); axis 2 carries the same pair shifted by
    ``shift`` and boosted by ``boost``; exact normalization is enforced
    on the grid.
    """
    h = params.h
    f1, g1 = build_fg(h, n_target)

    # the boost rides as a symbolic carrier so wide log panels stay exact
    grid2 = _symmetric_grid_for(h, n_target, center=params.shift)
    rel = grid2.nodes - params.shift
    f2_vals = (h.evaluate(np.abs(rel)) / math.sqrt(2.0)).astype(complex)
    f2 = ComplexProfile(grid2, f2_vals, carrier=params.boost).normalized()
    g2 = ComplexProfile(grid2, np.sign(rel) * f2.values, carrier=params.boost)

    lam = params.lam
    denom = math.sqrt(1.0 + abs(lam) ** 2)
    state = WaveFunction2(
        terms=[
            Term(1.0 / denom, f1, f2),
            Term(lam / denom, g1, g2),
        ],
        p1_grid=momentum_grid_for(h, n_target, center=0.0),
        p2_grid=momentum_grid_for(h, n_target, center=params.boost),
    )
    n = state.norm_sq()
    if abs(n - 1.0) > 1e-12:
        scale = 1.0 / math.sqrt(n)
        state.terms = [Term(t.coefficient * scale, t.factor1, t.factor2)
                       for t in state.terms]
    return state


def _witness_matches(params: ViolationParams, witness: BellWitness) -> bool:
    expected = canonical_witness(params)
    return witness == expected


def p_hat_expectation_closed(
    params: ViolationParams,
    witness: Optional[BellWitness] = None,
    gamma_value: Optional[float] = None,
) -> float:
    """Closed-form expectation for the two-term family.

    ``witness``, when given, must be the canonical half-line witness for
    the params (position regions starting at the shift, momentum regions
    at the boost); anything else invalidates the closed form.
    """
    if witness is not None and not _witness_matches(params, witness):
        raise InvalidInputError("witness does not match the closed-form construction")
    g = gamma(params.h) if gamma_value is None else float(gamma_value)
    theta_eff = params.theta + (math.pi if params.sign < 0 else 0.0)
    rho = params.rho
    bracket = (1.0 + g * g) * math.cos(theta_eff) + 2.0 * g * math.sin(theta_eff)
    return 0.5 - rho / (2.0 * (1.0 + rho * rho)) * bracket


def p_hat_expectation_grid(
    psi: WaveFunction2,
    witness: BellWitness,
    p1_grid: Optional[Grid1D] = None,
    p2_grid: Optional[Grid1D] = None,
) -> float:
    """Grid-pipeline expectation: marginals of the state, then the Bell
    functional, then the affine map back to the projector expectation."""
    quartet = quantum_marginals(psi, p1_grid=p1_grid, p2_grid=p2_grid)
    return p_expectation_from_quartet(quartet, witness)
