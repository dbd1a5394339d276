"""Constructive solution of the three-marginal problem.

Given a chain-consistent triplet (sigma0 on (x1,x2), sigma1 on (y1,x2),
sigma2 on (y1,y2)) the base density

    rho0 = sigma0 * sigma1/sigma01 * sigma2/sigma12     on E, else 0

reproduces all three marginals, where sigma01 and sigma12 are the shared
one-variable marginals and E is the intersection of the support
cylinders.  Every other solution is rho0 + lambda * Delta with Delta
built from an arbitrary function F supported in E, and lambda confined
to [-1/m+, 1/m-] by the extrema of Delta/rho0.

On a grid the product construction cancels exactly only if the two
available parents of sigma01 (from sigma0 and from sigma1) and of
sigma12 agree exactly; :func:`calibrate_triplet` rescales sigma1 and
sigma2 by the tiny parent ratios so that the discrete chain is exactly
consistent, making round-trip defects pure roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import _kernels
from .bell import BellWitness, bell_sum
from .errors import ConsistencyError, InvalidInputError, json_value, require_keys
from .marginal import (
    Marginal2D,
    PlaneLabel,
    QuartetProblem,
    TripletProblem,
    consistency_check,
)
from .quad import Grid1D

__all__ = [
    "DENSE_AXIS_CAP",
    "SupportMask",
    "PhaseSpaceDensity",
    "Dense4D",
    "ReconstructionResult",
    "LambdaRange",
    "calibrate_triplet",
    "support_sets",
    "rho0",
    "delta_from_F",
    "lambda_range",
    "reconstruct_solution",
    "three_marginal_demo",
]

DENSE_AXIS_CAP = 64
DEFAULT_SUPP_TOL = 1e-12


@dataclass(frozen=True)
class _Chain:
    """Raw chain data: three densities and the four axis grids."""

    s0: np.ndarray          # (x1, x2)
    s1: np.ndarray          # (y1, x2)
    s2: np.ndarray          # (y1, y2)
    g_x1: Grid1D
    g_x2: Grid1D
    g_y1: Grid1D
    g_y2: Grid1D

    @property
    def grids(self):
        return self.g_x1, self.g_x2, self.g_y1, self.g_y2

    @classmethod
    def from_triplet(cls, t: TripletProblem) -> "_Chain":
        return cls(t.sigma0.values, t.sigma1.values, t.sigma2.values,
                   t.sigma0.grid1, t.sigma0.grid2, t.sigma1.grid1, t.sigma2.grid2)


@dataclass(frozen=True)
class SupportMask:
    """Thresholded supports of the three marginals; the phase-space region
    E is their cylinder intersection, queried cell-wise."""

    sigma0: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray

    def e_dense(self) -> np.ndarray:
        return (self.sigma0[:, :, None, None]
                & self.sigma1.T[None, :, :, None]
                & self.sigma2[None, None, :, :])

    def e_measure_positive(self) -> bool:
        joint01 = self.sigma0.any(axis=0) & self.sigma1.any(axis=0)  # over x2
        joint12 = self.sigma1.any(axis=1) & self.sigma2.any(axis=1)  # over y1
        return bool(joint01.any() and joint12.any())


def _support_sets_chain(chain: _Chain, supp_tol: float) -> SupportMask:
    # threshold on cell masses, not raw values: on log-graded grids the
    # weights span many orders and a value threshold would drop real mass
    pairs = (
        (chain.s0, chain.g_x1, chain.g_x2),
        (chain.s1, chain.g_y1, chain.g_x2),
        (chain.s2, chain.g_y1, chain.g_y2),
    )
    masks = []
    for s, ga, gb in pairs:
        cell_mass = s * np.outer(ga.weights, gb.weights)
        masks.append(cell_mass > supp_tol * cell_mass.max())
    m0, m1, m2 = masks
    # projection equalities: both neighbours must cover the same shared-axis set
    proj_x2_0 = m0.any(axis=0)
    proj_x2_1 = m1.any(axis=0)
    if not np.array_equal(proj_x2_0, proj_x2_1):
        raise ConsistencyError("support projections on the shared x2 axis disagree")
    proj_y1_1 = m1.any(axis=1)
    proj_y1_2 = m2.any(axis=1)
    if not np.array_equal(proj_y1_1, proj_y1_2):
        raise ConsistencyError("support projections on the shared y1 axis disagree")
    mask = SupportMask(m0, m1, m2)
    if not mask.e_measure_positive():
        raise ConsistencyError("intersection region E has zero discrete measure")
    return mask


def support_sets(t: TripletProblem, supp_tol: float = DEFAULT_SUPP_TOL) -> SupportMask:
    """Thresholded essential supports with the projection equalities verified."""
    return _support_sets_chain(_Chain.from_triplet(t), supp_tol)


def _calibrate_chain(chain: _Chain, supp_tol: float = DEFAULT_SUPP_TOL):
    """Rescale s1 columns and s2 rows so both parents of each shared
    one-variable marginal coincide exactly on the grid."""
    w_x1, w_x2 = chain.g_x1.weights, chain.g_x2.weights
    w_y1, w_y2 = chain.g_y1.weights, chain.g_y2.weights

    s01_from_0 = w_x1 @ chain.s0
    s01_from_1 = w_y1 @ chain.s1
    tiny = supp_tol * max(s01_from_0.max(), s01_from_1.max())
    scale1 = np.where(s01_from_1 > tiny, s01_from_0 / np.maximum(s01_from_1, 1e-300), 1.0)
    s1 = chain.s1 * scale1[None, :]

    s12_from_1 = s1 @ w_x2
    s12_from_2 = chain.s2 @ w_y2
    tiny = supp_tol * max(s12_from_1.max(), s12_from_2.max())
    scale2 = np.where(s12_from_2 > tiny, s12_from_1 / np.maximum(s12_from_2, 1e-300), 1.0)
    s2 = chain.s2 * scale2[:, None]

    # sup rescale is dominated by near-empty cells; the mass-weighted
    # figure is the fair size of the adjustment
    report = {
        "sigma1_max_rescale": float(np.max(np.abs(scale1 - 1.0))),
        "sigma2_max_rescale": float(np.max(np.abs(scale2 - 1.0))),
        "sigma1_mass_weighted_rescale": float(
            np.sum(np.abs(scale1 - 1.0) * s01_from_1 * w_x2)
            / max(np.sum(s01_from_1 * w_x2), 1e-300)),
        "sigma2_mass_weighted_rescale": float(
            np.sum(np.abs(scale2 - 1.0) * s12_from_2 * w_y1)
            / max(np.sum(s12_from_2 * w_y1), 1e-300)),
    }
    new = _Chain(chain.s0, s1, s2, *chain.grids)
    return new, report


def calibrate_triplet(t: TripletProblem, supp_tol: float = DEFAULT_SUPP_TOL):
    """Exactly chain-consistent copy of a triplet, plus rescale magnitudes."""
    chain, report = _calibrate_chain(_Chain.from_triplet(t), supp_tol)
    new = TripletProblem(
        t.sigma0,
        Marginal2D.gridded(PlaneLabel.PQ, t.sigma1.grid1, t.sigma1.grid2, chain.s1),
        Marginal2D.gridded(PlaneLabel.PP, t.sigma2.grid1, t.sigma2.grid2, chain.s2),
    )
    return new, report


@dataclass(frozen=True)
class Dense4D:
    """Dense signed function on the product of four axis grids."""

    grids: Tuple[Grid1D, Grid1D, Grid1D, Grid1D]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        expected = tuple(len(g) for g in self.grids)
        if vals.shape != expected:
            raise InvalidInputError(f"values shape {vals.shape} != grids {expected}")

    def mass(self) -> float:
        w1, w2, w3, w4 = (g.weights for g in self.grids)
        m0, _, _ = _kernels.chain_marginals(self.values, w1, w2, w3, w4)
        return float(w1 @ m0 @ w2)

    def chain_marginals(self):
        return _kernels.chain_marginals(self.values, *(g.weights for g in self.grids))

    def to_json(self) -> dict:
        return {"grids": [g.to_json() for g in self.grids],
                "values": self.values.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Dense4D":
        require_keys(obj, ("grids", "values"), "dense")
        with json_value("dense", "grids"):
            grids = tuple(Grid1D.from_json(g) for g in obj["grids"])
        if len(grids) != 4:
            raise InvalidInputError(f"dense JSON key 'grids' must hold 4 grids, got {len(grids)}")
        with json_value("dense", "values"):
            values = np.asarray(obj["values"], dtype=float)
        return cls(grids, values)


@dataclass
class PhaseSpaceDensity:
    """Nonnegative density on the chain axes (x1, x2, y1, y2).

    Stored in product form (sigma factors, shared marginals, masks); the
    dense array is materialized on demand and capped at
    ``DENSE_AXIS_CAP`` nodes per axis.
    """

    chain: _Chain
    mask: SupportMask
    sigma01: np.ndarray
    sigma12: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    _dense: Optional[np.ndarray] = None
    _marginals: Optional[tuple] = None

    @property
    def grids(self):
        return self.chain.grids

    def _inv_parents(self):
        m01 = self.mask.sigma0.any(axis=0)
        m12 = self.mask.sigma2.any(axis=1)
        if np.any(m01 & (self.sigma01 <= 0)) or np.any(m12 & (self.sigma12 <= 0)):
            raise ConsistencyError("shared marginal vanishes inside the support region")
        inv01 = np.where(m01, 1.0 / np.maximum(self.sigma01, 1e-300), 0.0)
        inv12 = np.where(m12, 1.0 / np.maximum(self.sigma12, 1e-300), 0.0)
        return inv01, inv12

    def dense(self) -> np.ndarray:
        if self._dense is None:
            shape = tuple(len(g) for g in self.grids)
            if max(shape) > DENSE_AXIS_CAP:
                raise InvalidInputError(
                    f"axis size {max(shape)} exceeds the dense cap {DENSE_AXIS_CAP}")
            inv01, inv12 = self._inv_parents()
            self._dense = _kernels.rho0_dense(
                self.chain.s0, self.chain.s1, self.chain.s2, inv01, inv12,
                np.ascontiguousarray(self.mask.sigma0),
                np.ascontiguousarray(self.mask.sigma1),
                np.ascontiguousarray(self.mask.sigma2))
        return self._dense

    def marginals(self):
        """Chain marginals in product form (no N^4 work), computed once
        and returned read-only."""
        if self._marginals is None:
            self._marginals = self._chain_marginals()
            for m in self._marginals:
                m.setflags(write=False)
        return self._marginals

    def _chain_marginals(self):
        inv01, inv12 = self._inv_parents()
        s0 = self.chain.s0 * self.mask.sigma0
        s1 = self.chain.s1 * self.mask.sigma1
        s2 = self.chain.s2 * self.mask.sigma2
        w_x1, w_x2 = self.chain.g_x1.weights, self.chain.g_x2.weights
        w_y1, w_y2 = self.chain.g_y1.weights, self.chain.g_y2.weights

        t2 = s2 @ w_y2                                   # (y1,)
        inner = w_y1 @ (s1 * (inv12 * t2)[:, None])      # (x2,)
        m0 = s0 * (inv01 * inner)[None, :]

        col0 = w_x1 @ s0                                 # (x2,)
        m1 = s1 * (inv01 * col0)[None, :] * (inv12 * t2)[:, None]

        row = (s1 * (w_x2 * inv01 * col0)[None, :]).sum(axis=1)   # (y1,)
        m2 = s2 * (inv12 * row)[:, None]
        return m0, m1, m2

    def roundtrip_defects(self) -> list:
        """Sup defects of the three chain marginals against the chain
        densities the base was built from (sigma0, sigma1, sigma2)."""
        chain = self.chain
        return [float(np.max(np.abs(m - s)))
                for m, s in zip(self.marginals(), (chain.s0, chain.s1, chain.s2))]

    def mass(self) -> float:
        m0, _, _ = self.marginals()
        return float(self.chain.g_x1.weights @ m0 @ self.chain.g_x2.weights)


@dataclass(frozen=True)
class LambdaRange:
    """Admissible mixing interval [-1/m_plus, 1/m_minus]."""

    m_plus: float
    m_minus: float
    lo: float
    hi: float
    unbounded: bool

    def contains(self, lam: float) -> bool:
        return self.lo <= lam <= self.hi

    def to_json(self) -> dict:
        def enc(x):
            return None if not np.isfinite(x) else float(x)

        return {"m_plus": enc(self.m_plus), "m_minus": enc(self.m_minus),
                "lo": enc(self.lo), "hi": enc(self.hi), "unbounded": self.unbounded}


@dataclass(frozen=True)
class ReconstructionResult:
    rho0: PhaseSpaceDensity
    delta: Dense4D
    lambda_range: LambdaRange

    @property
    def m_plus(self) -> float:
        return self.lambda_range.m_plus

    @property
    def m_minus(self) -> float:
        return self.lambda_range.m_minus

    def solution(self, lam: float) -> Dense4D:
        """rho0 + lam * Delta; lam must lie in the admissible interval."""
        if not self.lambda_range.unbounded and not self.lambda_range.contains(lam):
            raise InvalidInputError(
                f"lambda {lam} outside the admissible interval "
                f"[{self.lambda_range.lo}, {self.lambda_range.hi}]")
        return Dense4D(self.rho0.grids, self.rho0.dense() + lam * self.delta.values)


def _rho0_chain(chain: _Chain, supp_tol: float) -> PhaseSpaceDensity:
    mask = _support_sets_chain(chain, supp_tol)
    w_x1, w_y1 = chain.g_x1.weights, chain.g_y1.weights
    w_x2, w_y2 = chain.g_x2.weights, chain.g_y2.weights

    s01_a = w_x1 @ chain.s0
    s01_b = w_y1 @ chain.s1
    s12_a = chain.s1 @ w_x2
    s12_b = chain.s2 @ w_y2
    diagnostics = {
        "sigma01_parent_defect": float(np.max(np.abs(s01_a - s01_b))),
        "sigma12_parent_defect": float(np.max(np.abs(s12_a - s12_b))),
    }
    sigma01 = 0.5 * (s01_a + s01_b)
    sigma12 = 0.5 * (s12_a + s12_b)
    return PhaseSpaceDensity(chain, mask, sigma01, sigma12, diagnostics)


def rho0(t: TripletProblem, supp_tol: float = DEFAULT_SUPP_TOL) -> PhaseSpaceDensity:
    """Base solution of the three-marginal problem, in product form.

    The shared one-variable marginals are averaged over their two parents;
    the parent disagreement is reported in ``diagnostics`` (calibrate the
    triplet first to make it zero and the round trip exact).
    """
    return _rho0_chain(_Chain.from_triplet(t), supp_tol)


def _masked_ratio(num: np.ndarray, den: np.ndarray, mask: np.ndarray) -> np.ndarray:
    if np.any(mask & (den <= 0)):
        raise ConsistencyError("density vanishes on its own support mask")
    return np.where(mask, num / np.maximum(den, 1e-300), 0.0)


def delta_from_F(base: PhaseSpaceDensity, F: Dense4D, leak_tol: float = 1e-9) -> Dense4D:
    """Marginal-annihilating perturbation generated by F (supported in E).

    F mass outside E beyond ``leak_tol`` (relative to total |F| mass) is
    an error; below it, the leak is masked away.
    """
    for g_have, g_want in zip(F.grids, base.grids):
        if not g_have.same_as(g_want):
            raise InvalidInputError("F grids must match the reconstruction grids")

    rho_dense = base.dense()
    e_mask = base.mask.e_dense()
    w1, w2, w3, w4 = (g.weights for g in F.grids)
    abs_f = np.abs(F.values)
    total = float(np.einsum("ijkl,i,j,k,l->", abs_f, w1, w2, w3, w4, optimize=True))
    leak = float(np.einsum("ijkl,i,j,k,l->", np.where(e_mask, 0.0, abs_f),
                           w1, w2, w3, w4, optimize=True))
    if total > 0 and leak > leak_tol * total:
        raise InvalidInputError(
            f"F carries mass {leak} outside the support region (limit {leak_tol * total})")
    Fv = np.where(e_mask, F.values, 0.0)

    F0, F1, F2 = _kernels.chain_marginals(Fv, w1, w2, w3, w4)
    F01 = w1 @ F0
    F12 = F1 @ w2

    b0 = _masked_ratio(F0, base.chain.s0, base.mask.sigma0)
    b1 = _masked_ratio(F1, base.chain.s1, base.mask.sigma1)
    b2 = _masked_ratio(F2, base.chain.s2, base.mask.sigma2)
    m01 = base.mask.sigma0.any(axis=0)
    m12 = base.mask.sigma2.any(axis=1)
    c01 = _masked_ratio(F01, base.sigma01, m01)
    c12 = _masked_ratio(F12, base.sigma12, m12)

    delta = _kernels.delta_combine(Fv, rho_dense, b0, b1, b2, c01, c12)
    return Dense4D(base.grids, delta)


def lambda_range(base: PhaseSpaceDensity, delta: Dense4D,
                 off_support_tol: float = 1e-9) -> LambdaRange:
    """Extrema of Delta/rho0 over the support region and the resulting
    admissible interval; Delta identically zero gives the whole line."""
    for g_have, g_want in zip(delta.grids, base.grids):
        if not g_have.same_as(g_want):
            raise InvalidInputError("delta grids must match the reconstruction grids")
    rho_dense = base.dense()
    m_plus, m_minus, off_leak = _kernels.ratio_extrema(delta.values, rho_dense)
    scale = float(np.max(np.abs(delta.values))) if delta.values.size else 0.0
    if scale > 0 and off_leak > off_support_tol * scale:
        raise InvalidInputError(
            "delta is nonzero where the base density vanishes")
    if scale == 0 or (m_plus <= 0 and m_minus <= 0):
        return LambdaRange(0.0, 0.0, -np.inf, np.inf, True)
    lo = -1.0 / m_plus if m_plus > 0 else -np.inf
    hi = 1.0 / m_minus if m_minus > 0 else np.inf
    return LambdaRange(m_plus, m_minus, lo, hi, False)


def reconstruct_solution(t: TripletProblem, F: Dense4D,
                         supp_tol: float = DEFAULT_SUPP_TOL) -> ReconstructionResult:
    """Base density, perturbation generated by F, and admissible interval."""
    base = rho0(t, supp_tol)
    delta = delta_from_F(base, F)
    return ReconstructionResult(base, delta, lambda_range(base, delta))


_CHAIN_RECIPES = {
    # subset -> (marginal, transpose) triples in chain order (sigma0, sigma1, sigma2)
    ("R", "T", "U"): (("R", False), ("T", False), ("U", False)),
    ("R", "S", "U"): (("R", True), ("S", True), ("U", True)),
    ("R", "S", "T"): (("S", True), ("R", True), ("T", True)),
    ("S", "T", "U"): (("S", False), ("U", False), ("T", False)),
}


def _chain_from_subset(quartet: QuartetProblem, subset) -> _Chain:
    recipe = _CHAIN_RECIPES[subset]
    arrays, grids = [], []
    for name, transpose in recipe:
        m = getattr(quartet, name)
        vals, g1, g2 = m.values, m.grid1, m.grid2
        if transpose:
            vals, g1, g2 = vals.T, m.grid2, m.grid1
        arrays.append(np.ascontiguousarray(vals))
        grids.append((g1, g2))
    (g_x1, g_x2), (g_y1, _), (_, g_y2) = grids
    return _Chain(arrays[0], arrays[1], arrays[2], g_x1, g_x2, g_y1, g_y2)


def three_marginal_demo(
    quartet: QuartetProblem,
    witness: Optional[BellWitness] = None,
    tol: float = 1e-6,
    supp_tol: float = DEFAULT_SUPP_TOL,
) -> dict:
    """Reconstruct every 3-subset of the quartet and test the full 4-set.

    Each 3-subset is relabeled to the chain form (the choice of which
    three is immaterial, up to axis permutation), calibrated, and solved;
    the report carries its round-trip sup defects.  The 4-set entry
    reports the Bell sum: above 2 in magnitude certifies that no joint
    density exists.  Consistency is checked in relative sup norm, the
    resolution-meaningful scale for peaked densities.
    """
    report = consistency_check(quartet, tol, relative=True)
    if not report.passed:
        raise ConsistencyError(
            f"quartet inconsistent: max relative defect {report.max_defect} > {tol}")

    out = {"consistency_max_defect": report.max_defect, "subsets": {}}
    gridded = quartet.R.is_gridded
    for subset in _CHAIN_RECIPES:
        key = "+".join(subset)
        if not gridded:
            out["subsets"][key] = {"skipped": "atomic quartet has no density reconstruction"}
            continue
        chain = _chain_from_subset(quartet, subset)
        chain, cal = _calibrate_chain(chain, supp_tol)
        base = _rho0_chain(chain, supp_tol)
        defects = base.roundtrip_defects()
        out["subsets"][key] = {
            "roundtrip_sup_defects": defects,
            "max_roundtrip_defect": max(defects),
            "mass": base.mass(),
            "calibration": cal,
        }

    if witness is None:
        witness = BellWitness.half_lines()
    b = bell_sum(quartet, witness)
    out["four_set"] = {
        "bell_sum": b,
        "within_classical_bounds": bool(abs(b) <= 2.0),
        "certifies_infeasible": bool(abs(b) > 2.0),
    }
    return out
