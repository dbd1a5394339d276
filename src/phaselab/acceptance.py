"""The acceptance table: nine numbered checks tying the library's headline
numbers to their stated tolerances.

Each check returns a :class:`CriterionResult` with the measured values so
the CLI can emit one machine-readable pass/fail row per criterion and the
test suite can assert on the same computations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bell import BellWitness, Region, bell_sum, p_expectation_from_quartet
from .kop import gamma_cutoff_closed_form, k_spectrum
from .marginal import (
    TripletProblem,
    consistency_check,
    counterexample_quartet,
    quantum_marginals,
)
from .quad import ComplexProfile, build_panels
from .quantum import (
    HProfile,
    ViolationParams,
    WaveFunction2,
    build_psi,
    canonical_witness,
    gamma,
    min_expectation_over_lambda,
    p_hat_expectation_closed,
    p_hat_expectation_grid,
    violation_threshold,
)
from .reconstruct import (
    Dense4D,
    ReconstructionResult,
    calibrate_triplet,
    delta_from_F,
    lambda_range,
    rho0,
)
from .spin import identity_defects


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  criterion {self.number}: {self.title}"

    def to_json(self) -> dict:
        return {"criterion": self.number, "title": self.title,
                "passed": self.passed, "details": self.details}


def criterion_1() -> CriterionResult:
    """gamma on h = 1/(q+1) equals pi/4 within 1e-6, in under a second."""
    t0 = time.perf_counter()
    value = gamma(HProfile.inverse_q_plus_one())
    elapsed = time.perf_counter() - t0
    err = abs(value - math.pi / 4.0)
    return CriterionResult(
        1, "interference amplitude of 1/(q+1) is pi/4",
        err <= 1e-6 and elapsed < 1.0,
        {"value": value, "error": err, "tolerance": 1e-6,
         "runtime_s": elapsed, "runtime_limit_s": 1.0})


def criterion_2() -> CriterionResult:
    """Threshold sqrt(2 sqrt(3) - 3) and the sign of the minimum around it."""
    v = violation_threshold()
    exact = math.sqrt(2.0 * math.sqrt(3.0) - 3.0)
    below = min_expectation_over_lambda(0.66)
    above = min_expectation_over_lambda(0.70)
    ok = abs(v - exact) <= 1e-12 and above < 0.0 and below >= 0.0
    return CriterionResult(
        2, "violation threshold and its separating property", ok,
        {"value": v, "exact": exact, "tolerance": 1e-12,
         "min_at_0.70": above, "min_at_0.66": below})


def criterion_3() -> CriterionResult:
    """Closed-form extremes at unit interference amplitude."""
    h = HProfile.inverse_q_plus_one()
    lo = p_hat_expectation_closed(
        ViolationParams(h=h, rho=1.0, theta=math.pi / 4), gamma_value=1.0)
    hi = p_hat_expectation_closed(
        ViolationParams(h=h, rho=1.0, theta=-3 * math.pi / 4), gamma_value=1.0)
    lo_exact = (1.0 - math.sqrt(2.0)) / 2.0
    hi_exact = (1.0 + math.sqrt(2.0)) / 2.0
    tsirelson = 2.0 - 4.0 * lo
    ok = (abs(lo - lo_exact) <= 1e-12 and abs(hi - hi_exact) <= 1e-12
          and abs(tsirelson - 2.0 * math.sqrt(2.0)) <= 1e-12)
    return CriterionResult(
        3, "extremal expectations (1 -+ sqrt(2))/2 and the 2 sqrt(2) sum", ok,
        {"low": lo, "low_exact": lo_exact, "high": hi, "high_exact": hi_exact,
         "bell_sum_at_low": tsirelson, "tolerance": 1e-12})


def criterion_4() -> CriterionResult:
    """Desk-scale pipeline at cutoffs (1e-6, 1e6) on ~512-node axes.

    Checks: the grid expectation lies within 1e-4 of the exact depth of
    the same state, |closed - grid| <= 1e-2, runtime under 60 s, and
    strict decrease when widening to (1e-9, 1e9).

    The exact depth is the paper's closed form evaluated at the analytic
    interference amplitude gamma_cutoff_closed_form(1e-6, 1e6) = 0.91558,
    about -0.14868; it never depends on the grid.  A fixed bound of -0.15
    is unattainable for this profile: even the best mixing parameter
    gives -0.14868, and reaching -0.15 needs gamma >= 0.91754, i.e.
    L/eps >= 1.92e12 rather than the 1e12 of these cutoffs.
    """
    t0 = time.perf_counter()
    h = HProfile.cutoff_sqrt(1e-6, 1e6)
    params = ViolationParams(h=h)
    gv = gamma(h)
    closed = p_hat_expectation_closed(params, gamma_value=gv)
    psi = build_psi(params, n_target=512)
    grid_val = p_hat_expectation_grid(psi, canonical_witness(params))
    elapsed = time.perf_counter() - t0

    depth_exact = p_hat_expectation_closed(
        params, gamma_value=gamma_cutoff_closed_form(1e-6, 1e6))
    depth_tol = 1e-4

    h_wide = HProfile.cutoff_sqrt(1e-9, 1e9)
    params_wide = ViolationParams(h=h_wide)
    psi_wide = build_psi(params_wide, n_target=768)
    grid_wide = p_hat_expectation_grid(psi_wide, canonical_witness(params_wide))

    agreement = abs(closed - grid_val)
    depth_ok = abs(grid_val - depth_exact) <= depth_tol
    ok = (depth_ok and agreement <= 1e-2 and elapsed < 60.0
          and grid_wide < grid_val)
    return CriterionResult(
        4, "end-to-end violation at desk scale", ok,
        {"gamma": gv, "closed": closed, "grid": grid_val,
         "agreement": agreement, "agreement_tolerance": 1e-2,
         "depth_bound": depth_exact, "depth_tolerance": depth_tol,
         "depth_ok": depth_ok,
         "grid_wider_cutoffs": grid_wide,
         "monotone_decrease": grid_wide < grid_val,
         "runtime_s": elapsed, "runtime_limit_s": 60.0})


def criterion_5() -> CriterionResult:
    """Closed form vs double quadrature on a 3x3 cutoff lattice, and the
    discretized operator spectrum inside [0, 1]."""
    worst = 0.0
    lattice = {}
    for eps in (1e-2, 1e-4, 1e-6):
        for L in (1e2, 1e4, 1e6):
            closed = gamma_cutoff_closed_form(eps, L)
            quadrature = gamma(HProfile.cutoff_sqrt(eps, L))
            diff = abs(closed - quadrature)
            lattice[f"eps={eps:g},L={L:g}"] = {"closed": closed,
                                               "quadrature": quadrature,
                                               "diff": diff}
            worst = max(worst, diff)
    vals = k_spectrum(40.0, 512)
    top = float(vals[0])
    ok = (worst <= 1e-6 and top >= 0.99
          and vals.min() >= -1e-6 and vals.max() <= 1.0 + 1e-6)
    return CriterionResult(
        5, "cutoff closed form vs quadrature; operator spectrum in [0, 1]", ok,
        {"max_lattice_diff": worst, "tolerance": 1e-6, "top_eigenvalue": top,
         "min_eigenvalue": float(vals.min()), "max_eigenvalue": float(vals.max()),
         "lattice": lattice})


def criterion_6() -> CriterionResult:
    """Atomic counterexample: exactly consistent, Bell sum exactly 4."""
    quartet = counterexample_quartet(1, 1, -1, -1, 1, 1, -1, -1)
    witness = BellWitness.half_lines()
    b = bell_sum(quartet, witness)
    report = consistency_check(quartet, tol=0.0)
    ok = b == 4.0 and report.passed and report.max_defect == 0.0
    return CriterionResult(
        6, "consistent atomic quartet with Bell sum 4", ok,
        {"bell_sum": b, "consistency_max_defect": report.max_defect,
         "p_expectation": p_expectation_from_quartet(quartet, witness)})


def criterion_7() -> CriterionResult:
    """Three-marginal reconstruction on 64-node axes.

    The construction presumes an exactly chain-consistent triplet, so the
    quantum marginals are calibrated first (tiny rescales, reported); the
    cutoffs (1e-2, 1e2) keep the state resolvable at this size.
    """
    psi = build_psi(ViolationParams(h=HProfile.cutoff_sqrt(1e-2, 1e2)), n_target=64)
    quartet = quantum_marginals(psi)
    triplet, cal = calibrate_triplet(TripletProblem.from_quartet(quartet))
    base = rho0(triplet)
    roundtrip = max(base.roundtrip_defects())

    rng = np.random.default_rng(2026)
    worst_mass, worst_marginal = 0.0, 0.0
    grids = base.grids
    dense = base.dense()

    def axis_bump(g, mu_frac, width_frac):
        x = g.nodes
        span = max(abs(x[0]), abs(x[-1]))
        return np.exp(-((x - mu_frac * span / 4) ** 2)
                      / (2 * (width_frac * span / 4) ** 2))

    endpoint_min, endpoint_max = 0.0, -1.0
    for k in range(10):
        mu = rng.normal(scale=0.5, size=4)
        wd = rng.uniform(0.5, 2.0, size=4)
        bump = (axis_bump(grids[0], mu[0], wd[0])[:, None, None, None]
                * axis_bump(grids[1], mu[1], wd[1])[None, :, None, None]
                * axis_bump(grids[2], mu[2], wd[2])[None, None, :, None]
                * axis_bump(grids[3], mu[3], wd[3])[None, None, None, :])
        F = Dense4D(grids, dense * bump)
        delta = delta_from_F(base, F)
        worst_mass = max(worst_mass, abs(delta.mass()))
        for m in delta.chain_marginals():
            worst_marginal = max(worst_marginal, float(np.max(np.abs(m))))
        if k == 0:
            result = ReconstructionResult(base, delta, lambda_range(base, delta))
            for lam in (result.lambda_range.lo, result.lambda_range.hi):
                sol_min = float(result.solution(lam).values.min())
                endpoint_min = min(endpoint_min, sol_min)
                endpoint_max = max(endpoint_max, sol_min)

    ok = (roundtrip <= 1e-4 and worst_mass <= 1e-8 and worst_marginal <= 1e-6
          and endpoint_min >= -1e-9 and endpoint_max <= 1e-6)
    return CriterionResult(
        7, "three-marginal round trip and perturbation family at N=64", ok,
        {"roundtrip_sup_defect": roundtrip, "roundtrip_tolerance": 1e-4,
         "max_abs_delta_mass": worst_mass, "mass_tolerance": 1e-8,
         "max_delta_marginal_sup": worst_marginal, "marginal_tolerance": 1e-6,
         "endpoint_min_cell": endpoint_min, "endpoint_saturation_max": endpoint_max,
         "calibration": cal})


def criterion_8() -> CriterionResult:
    """Two-qubit ground truth identities at machine precision."""
    t0 = time.perf_counter()
    errs = identity_defects()
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-12 for v in errs.values()) and elapsed < 0.1
    details = dict(errs)
    details.update({"runtime_s": elapsed, "runtime_limit_s": 0.1, "tolerance": 1e-12})
    return CriterionResult(8, "two-qubit projection identities", ok, details)


def criterion_9() -> CriterionResult:
    """100 random factorized Gaussian states stay inside the classical bounds."""
    rng = np.random.default_rng(4242)
    g = build_panels([-24.0, 0.0, 24.0], order=6, subdiv=20)
    p_lo, p_hi = 1.0, 0.0
    b_lo, b_hi = 2.0, -2.0

    def profile():
        mu = rng.uniform(-2, 2)
        s = rng.uniform(0.5, 2.0)
        boost = rng.uniform(-2, 2)
        vals = np.exp(-((g.nodes - mu) ** 2) / (2 * s * s)) * np.exp(1j * boost * g.nodes)
        return ComplexProfile(g, vals).normalized()

    def region():
        lo, hi = np.sort(rng.uniform(-3, 3, size=2))
        return Region.of((lo, hi + 0.1))

    for _ in range(100):
        psi = WaveFunction2.from_factors([1.0], [profile()], [profile()], g, g)
        witness = BellWitness(region(), region(), region(), region())
        quartet = quantum_marginals(psi)
        b = bell_sum(quartet, witness)
        p = p_expectation_from_quartet(quartet, witness)
        p_lo, p_hi = min(p_lo, p), max(p_hi, p)
        b_lo, b_hi = min(b_lo, b), max(b_hi, b)

    slack = 1e-7
    ok = (p_lo >= -slack and p_hi <= 1.0 + slack
          and b_lo >= -2.0 - slack and b_hi <= 2.0 + slack)
    return CriterionResult(
        9, "factorized-state property suite stays within classical bounds", ok,
        {"p_min": p_lo, "p_max": p_hi, "bell_min": b_lo, "bell_max": b_hi,
         "trials": 100, "slack": slack})


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9)


def run_all() -> list:
    return [fn() for fn in ALL_CRITERIA]
