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

import functools
import itertools
import math
from dataclasses import dataclass, field
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
    symmetric_log_grid,
    transform_rows,
)

__all__ = [
    "HProfile",
    "GridPlan",
    "Axis",
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
]

INV1_SCALE_MAX = 1e8
# fewest log panels on each side of a symmetric position or momentum grid
MIN_PANELS = 4


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

    def half_line_profile(self) -> ComplexProfile:
        """Profile sampled on its plan's half-line grid, renormalized
        on-grid; a ``samples`` profile as given."""
        if self.kind == "samples":
            return self.profile
        grid = GridPlan(self).half_line()
        vals = self.evaluate(grid.nodes).astype(complex)
        return ComplexProfile(grid, vals).normalized()


@dataclass(frozen=True, eq=False)
class Axis:
    """One axis of a product-sum state: the position grid, the momentum
    grid and the carrier shared by its factors, the factor rows (K, N) on
    the position nodes, and their Fourier transforms (K, M) on the
    momentum nodes, formed on first use.  Both row arrays are read-only.
    """

    grid: Grid1D
    p_grid: Grid1D
    carrier: float
    rows: np.ndarray

    def __post_init__(self):
        self.rows.setflags(write=False)

    @classmethod
    def from_factors(cls, factors, p_grid: Grid1D) -> "Axis":
        """The axis of profiles on one grid with one carrier."""
        return cls(factors[0].grid, p_grid, factors[0].carrier,
                   np.stack([f.values for f in factors]))

    def factor(self, k: int) -> ComplexProfile:
        return ComplexProfile(self.grid, self.rows[k], self.carrier)

    @functools.cached_property
    def p_rows(self) -> np.ndarray:
        rows = transform_rows(self.rows, self.grid, self.carrier, self.p_grid)
        rows.setflags(write=False)
        return rows


@dataclass(frozen=True)
class GridPlan:
    """Every grid decision for one closed-form profile.

    - The half-line grid of :func:`gamma`: 60 order-12 log panels across
      (eps, L), or for ``inverse_q_plus_one`` the panel [0, 1e-10] and 68
      order-10 log panels up to 1e10.
    - The symmetric position grid about a center: a node budget of
      order-4 panels up to n_target = 128, order 6 above.
    - The momentum grid, bridged through its center and spanning
      0.01/outer to 100/inner of the radial scales: a budget of
      order-6 panels up to n_target = 128, then a fixed density of 8
      order-8 panels per decade, which resolves the oscillatory tails of
      the transforms near the reciprocal cutoffs (inner, outer) =
      (eps, L), or (1e-3, 1e8) for ``inverse_q_plus_one``.

    Both budgeted grids keep at least ``MIN_PANELS`` panels per side;
    :attr:`min_n` is the smallest node target at which that floor does
    not bind.
    """

    h: HProfile

    def __post_init__(self):
        if self.h.kind == "samples":
            raise InvalidInputError("a samples profile has no grid plan; "
                                    "states are built from closed-form profiles")

    @property
    def _momentum_span(self) -> Tuple[float, float]:
        """0.01/outer to 100/inner of the profile's radial scales."""
        inner, outer = ((self.h.eps, self.h.L) if self.h.kind == "cutoff_sqrt"
                        else (1e-3, INV1_SCALE_MAX))
        return 0.01 / outer, 100.0 / inner

    def half_line(self) -> Grid1D:
        if self.h.kind == "cutoff_sqrt":
            return grid_from_edges(np.geomspace(self.h.eps, self.h.L, 61), 12)
        return grid_from_edges(np.concatenate([[0.0], np.geomspace(1e-10, 1e10, 69)]), 10)

    def _position_panels(self, n_target: int) -> Tuple[int, int]:
        """(order, panels per side) before the floor."""
        order = 4 if n_target <= 128 else 6
        if self.h.kind == "cutoff_sqrt":
            # the middle [-eps, eps] panel carries the zero gap and costs one
            # panel of nodes, so budget it in
            return order, (n_target - order) // (2 * order)
        return order, n_target // (2 * order) - 2

    def _momentum_panels(self, n_target: int) -> Tuple[int, int]:
        """(order, panels per side) before the floor."""
        if n_target > 128:
            p_min, p_max = self._momentum_span
            return 8, int(math.ceil(8.0 * math.log10(p_max / p_min)))
        return 6, (n_target - 12) // 12

    @property
    def min_n(self) -> int:
        return next(n for n in itertools.count(1)
                    if min(self._position_panels(n)[1],
                           self._momentum_panels(n)[1]) >= MIN_PANELS)

    def position(self, n_target: int, center: float = 0.0) -> Grid1D:
        order, panels = self._position_panels(n_target)
        panels = max(MIN_PANELS, panels)
        if self.h.kind == "cutoff_sqrt":
            return symmetric_log_grid(self.h.eps, self.h.L, panels, order, center=center)
        g = np.geomspace(1e-4, INV1_SCALE_MAX, panels + 1)
        return grid_from_edges(center + np.concatenate([-g[::-1], [0.0], g]), order)

    def momentum(self, n_target: int, center: float = 0.0) -> Grid1D:
        order, panels = self._momentum_panels(n_target)
        p_min, p_max = self._momentum_span
        return symmetric_log_grid(p_min, p_max, max(MIN_PANELS, panels), order,
                                  bridge=True, center=center)

    @functools.lru_cache(maxsize=2)
    def axis(self, n_target: int, center: float, carrier: float) -> Axis:
        """The even extension f(q) = h(|q - center|)/sqrt(2), unit-norm on
        the position grid, and its odd partner g = sgn(q - center) f, with
        carrier ``carrier`` and the momentum grid centered on it.

        f and g are exactly orthogonal by parity; ``center`` is a panel
        edge, so the sign never straddles a panel.  Two entries are cached:
        the two axes of one state, which share one entry when center and
        carrier are both 0.
        """
        grid = self.position(n_target, center)
        rel = grid.nodes - center
        f = ComplexProfile(grid, (self.h.evaluate(np.abs(rel)) / math.sqrt(2.0)).astype(complex),
                           carrier).normalized()
        return Axis(grid, self.momentum(n_target, carrier), carrier,
                    np.stack([f.values, np.sign(rel) * f.values]))


def violation_threshold() -> float:
    """Interference amplitude above which the expectation can dip below 0."""
    return math.sqrt(2.0 * math.sqrt(3.0) - 3.0)


def min_expectation_over_lambda(gamma_value: float) -> float:
    """Closed-form minimum of the expectation over the mixing parameter."""
    g2 = gamma_value * gamma_value
    return 0.5 - 0.25 * math.sqrt((1.0 + g2) ** 2 + 4.0 * g2)


def gamma(h: HProfile) -> float:
    """Quadratic form of the half-line kernel 1/(pi (q+q')) on the profile."""
    prof = h.half_line_profile()
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
    """Even extension f(q) = h(|q|)/sqrt(2) and odd partner g = sgn(q) f on
    the plan's symmetric position grid: the factors of an unshifted axis.

    Both are unit-norm on the grid and exactly orthogonal by parity; the
    grid excludes q = 0 so the sign is always well defined.
    """
    axis = GridPlan(h).axis(n_target, 0.0, 0.0)
    return axis.factor(0), axis.factor(1)


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
    """Momentum-side interference term between a real even profile f and
    its odd partner g = sgn(q) f.

    This is the paper's statement that the term equals -i gamma / 2 for
    real even profiles: the principal-value part cancels by symmetry,
    leaving the half-line kernel 1/(pi (q+q')).  Complex profiles are
    rejected.
    """
    if f.carrier != 0.0:
        raise InvalidInputError("carrier-modulated profiles are not even")
    if not _is_even_profile(f):
        raise InvalidInputError("profile must be even on a symmetric grid")
    nodes = f.grid.nodes
    pos = nodes > 0
    q, w = nodes[pos], f.grid.weights[pos]
    fv = f.values[pos]
    if np.max(np.abs(fv.imag)) > 1e-12 * max(np.max(np.abs(fv.real)), 1e-300):
        raise InvalidInputError("profile must be real")

    plus_kernel = 1.0 / (q[:, None] + q[None, :])
    plus = (w * np.conj(fv)) @ plus_kernel @ (w * fv)
    return complex(-1j / np.pi * plus)


@dataclass(frozen=True)
class Term:
    coefficient: complex
    factor1: ComplexProfile
    factor2: ComplexProfile


@dataclass(frozen=True)
class WaveFunction2:
    """Two-particle state as a weighted sum of product terms.

    All first factors share one grid and carrier, and all second factors
    another.  ``p1_grid``/``p2_grid`` are the momentum grids of the two
    axes; :func:`~phaselab.marginal.quantum_marginals` needs both.
    """

    terms: list
    p1_grid: Optional[Grid1D] = None
    p2_grid: Optional[Grid1D] = None
    _axes: Optional[Tuple[Axis, Axis]] = field(default=None, init=False, repr=False,
                                               compare=False)

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

    @classmethod
    def from_axes(cls, coefficients, axis1: Axis, axis2: Axis) -> "WaveFunction2":
        """The state sum_k coefficients[k] * axis1 row k (x) axis2 row k."""
        state = cls([Term(c, axis1.factor(k), axis2.factor(k))
                     for k, c in enumerate(coefficients)], axis1.p_grid, axis2.p_grid)
        object.__setattr__(state, "_axes", (axis1, axis2))
        return state

    @property
    def axes(self) -> Tuple[Axis, Axis]:
        """The two axes with their factor rows; a state not made by
        :meth:`from_axes` forms them from its terms."""
        if self._axes is not None:
            return self._axes
        if self.p1_grid is None or self.p2_grid is None:
            raise InvalidInputError("state needs p1_grid and p2_grid for its momentum axes")
        return (Axis.from_factors([t.factor1 for t in self.terms], self.p1_grid),
                Axis.from_factors([t.factor2 for t in self.terms], self.p2_grid))

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
    ``shift`` and boosted by ``boost``, the boost riding as a symbolic
    carrier so wide log panels stay exact.  Both axes come from the
    profile's :class:`GridPlan`, so states that differ only in lambda share
    them.  Exact normalization is enforced on the grid.
    """
    plan = GridPlan(params.h)
    axis1 = plan.axis(n_target, 0.0, 0.0)
    axis2 = plan.axis(n_target, params.shift, params.boost)
    lam = params.lam
    denom = math.sqrt(1.0 + abs(lam) ** 2)
    coef = [1.0 / denom, lam / denom]
    n = WaveFunction2.from_axes(coef, axis1, axis2).norm_sq()
    if abs(n - 1.0) > 1e-12:
        scale = 1.0 / math.sqrt(n)
        coef = [c * scale for c in coef]
    return WaveFunction2.from_axes(coef, axis1, axis2)


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


def p_hat_expectation_grid(psi: WaveFunction2, witness: BellWitness) -> float:
    """Grid-pipeline expectation: marginals of the state, then the Bell
    functional, then the affine map back to the projector expectation."""
    quartet = quantum_marginals(psi)
    return p_expectation_from_quartet(quartet, witness)
