import math

import numpy as np
import pytest

from phaselab.bell import BellWitness, Region
from phaselab.errors import InvalidInputError
from phaselab.kop import gamma_cutoff_closed_form
from phaselab.quad import ComplexProfile, build_panels, fourier, grid_from_edges
from phaselab.quantum import (
    GridPlan,
    HProfile,
    ViolationParams,
    WaveFunction2,
    build_fg,
    build_psi,
    canonical_witness,
    chi_expectation,
    chi_prime_cross,
    gamma,
    min_expectation_over_lambda,
    p_hat_expectation_closed,
    p_hat_expectation_grid,
    violation_threshold,
)

INV1 = HProfile.inverse_q_plus_one()
HALF_LINE = Region.half_line(0.0)


class TestProfiles:
    def test_inv1_normalized(self):
        prof = INV1.half_line_profile()
        assert prof.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_cutoff_step_profile(self):
        h = HProfile.cutoff_sqrt(1.0, math.e)
        prof = h.half_line_profile()
        assert prof.norm_sq() == pytest.approx(1.0, abs=1e-12)
        f, g = build_fg(h, n_target=128)
        assert f.norm_sq() == pytest.approx(1.0, abs=1e-12)
        # even, step-like: value scale is 1/sqrt(2 q) on the support
        mid = np.abs(f.grid.nodes[np.abs(f.grid.nodes) > 1.0][0])
        assert f.values[np.argmin(np.abs(f.grid.nodes - mid))].real > 0

    def test_rejects_bad_cutoffs(self):
        with pytest.raises(InvalidInputError):
            HProfile.cutoff_sqrt(2.0, 1.0)


class TestGridPlan:
    @pytest.mark.parametrize("h, n, nodes", [
        (HProfile.cutoff_sqrt(1e-6, 1e6), 64, (60, 60)),
        (HProfile.cutoff_sqrt(1e-6, 1e6), 256, (246, 2064)),
        (HProfile.cutoff_sqrt(1e-6, 1e6), 512, (510, 2064)),
        (HProfile.cutoff_sqrt(1e-6, 1e6), 1024, (1014, 2064)),
        (HProfile.cutoff_sqrt(1e-2, 1e2), 256, (246, 1040)),
        (INV1, 64, (56, 60)),
        (INV1, 256, (240, 1936)),
        (INV1, 1024, (1008, 1936)),
    ])
    def test_node_counts(self, h, n, nodes):
        plan = GridPlan(h)
        assert (len(plan.position(n)), len(plan.momentum(n))) == nodes

    @pytest.mark.parametrize("h", [INV1, HProfile.cutoff_sqrt(1e-2, 1e2)])
    def test_min_n_is_where_the_panel_floor_stops_binding(self, h):
        plan = GridPlan(h)
        assert plan.min_n == 60
        # below the minimum the floor keeps a 60-node momentum grid
        assert len(plan.momentum(plan.min_n - 1)) == len(plan.momentum(plan.min_n)) == 60

    def test_samples_profile_has_no_plan(self):
        grid = grid_from_edges(np.geomspace(1e-3, 1e3, 25), order=6)
        prof = ComplexProfile(grid, np.exp(-np.log(grid.nodes) ** 2) + 0j).normalized()
        with pytest.raises(InvalidInputError):
            GridPlan(HProfile.samples(prof))


class TestBuildFG:
    @pytest.mark.parametrize("h", [INV1, HProfile.cutoff_sqrt(1e-2, 1e2)])
    def test_norms_and_orthogonality(self, h):
        f, g = build_fg(h)
        assert f.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert g.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert abs(f.inner(g)) < 1e-14

    def test_position_expectations_are_half(self, h=INV1):
        f, g = build_fg(h)
        for prof in (f, g):
            assert chi_expectation(prof, HALF_LINE, "position") == pytest.approx(0.5, abs=1e-12)
        # cross term in position is also 1/2
        cross = np.sum(f.grid.weights[f.grid.nodes > 0]
                       * (np.conj(f.values) * g.values)[f.grid.nodes > 0])
        assert cross.real == pytest.approx(0.5, abs=1e-12)

    def test_momentum_expectations_are_half(self):
        h = HProfile.cutoff_sqrt(1e-2, 1e2)
        f, g = build_fg(h, n_target=512)
        p_grid = GridPlan(h).momentum(512)
        for prof in (f, g):
            val = chi_expectation(prof, HALF_LINE, "momentum", p_grid=p_grid)
            assert val == pytest.approx(0.5, abs=1e-6)


class TestChiExpectation:
    def test_whole_line_is_one(self):
        f, _ = build_fg(INV1)
        assert chi_expectation(f, Region.of((-np.inf, np.inf)), "position") == \
            pytest.approx(1.0, abs=1e-12)

    def test_gaussian_momentum_half(self):
        g = build_panels([-12.0, 0.0, 12.0], order=8, subdiv=10)
        prof = ComplexProfile(g, np.pi**-0.25 * np.exp(-g.nodes**2 / 2).astype(complex))
        assert chi_expectation(prof, HALF_LINE, "momentum") == pytest.approx(0.5, abs=1e-10)


class TestGamma:
    def test_inv1_quarter_pi(self):
        assert gamma(INV1) == pytest.approx(np.pi / 4.0, abs=1e-6)

    def test_cutoff_matches_closed_form(self):
        for eps, L in [(1e-2, 1e2), (1e-4, 1e4), (1e-6, 1e6)]:
            h = HProfile.cutoff_sqrt(eps, L)
            assert gamma(h) == pytest.approx(gamma_cutoff_closed_form(eps, L), abs=1e-6)

    def test_default_cutoffs_value(self):
        # frozen from the exact closed form at eps=1e-6, L=1e6
        assert gamma(HProfile.cutoff_sqrt(1e-6, 1e6)) == pytest.approx(0.9155845643, abs=2e-3)

    def test_within_spectral_bounds(self):
        rng = np.random.default_rng(5)
        grid = grid_from_edges(np.geomspace(1e-3, 1e3, 25), order=6)
        for _ in range(20):
            c = rng.uniform(0.3, 3.0, size=3)
            vals = np.exp(-c[0] * (np.log(grid.nodes) - c[1]) ** 2) + c[2] * 0.01
            prof = ComplexProfile(grid, vals.astype(complex)).normalized()
            g = gamma(HProfile.samples(prof))
            assert -1e-9 <= g <= 1.0 + 1e-6


class TestChiPrimeCross:
    def test_real_profile_gives_minus_i_gamma_over_two(self):
        f, _ = build_fg(INV1)
        val = chi_prime_cross(f)
        assert val.real == pytest.approx(0.0, abs=1e-10)
        assert val.imag == pytest.approx(-np.pi / 8.0, abs=1e-6)

    def test_magnitude_bound(self):
        for h in (INV1, HProfile.cutoff_sqrt(1e-3, 1e3)):
            f, _ = build_fg(h)
            assert abs(chi_prime_cross(f)) <= 0.5 + 1e-9

    def test_real_profile_momentum_oracle(self):
        # compact even bump away from zero; oracle is the momentum-side overlap
        edges = np.concatenate([-np.linspace(6.0, 0.5, 23), np.linspace(0.5, 6.0, 23)])
        grid = grid_from_edges(edges, order=8)
        x = grid.nodes
        f = ComplexProfile(grid, np.exp(-2.0 * (np.abs(x) - 3.0) ** 2) + 0j).normalized()
        val = chi_prime_cross(f)
        g = ComplexProfile(grid, np.sign(x) * f.values)
        p_grid = build_panels([-40.0, 0.0, 40.0], order=8, subdiv=30)
        ft = fourier(f, p_grid, -1)
        gt = fourier(g, p_grid, -1)
        pos = p_grid.nodes > 0
        oracle = np.sum(p_grid.weights[pos] * np.conj(ft.values[pos]) * gt.values[pos])
        assert val == pytest.approx(complex(oracle), abs=1e-6)

    def test_cutoff_profile_momentum_route_agreement(self):
        h = HProfile.cutoff_sqrt(1e-2, 1e2)
        f, g = build_fg(h, n_target=512)
        val = chi_prime_cross(f)
        p_grid = GridPlan(h).momentum(512)
        ft = fourier(f, p_grid, -1)
        gt = fourier(g, p_grid, -1)
        pos = p_grid.nodes > 0
        oracle = np.sum(p_grid.weights[pos] * np.conj(ft.values[pos]) * gt.values[pos])
        assert val == pytest.approx(complex(oracle), abs=1e-3)

    def test_complex_profile_rejected(self):
        edges = np.concatenate([-np.linspace(6.0, 0.5, 23), np.linspace(0.5, 6.0, 23)])
        grid = grid_from_edges(edges, order=8)
        x = grid.nodes
        env = np.exp(-2.0 * (np.abs(x) - 3.0) ** 2)
        chirp = np.exp(0.4j * (np.abs(x) - 3.0) ** 2)
        f = ComplexProfile(grid, env * chirp).normalized()
        with pytest.raises(InvalidInputError, match="real"):
            chi_prime_cross(f)

    def test_rejects_uneven_profile(self):
        grid = build_panels([-1.0, 0.0, 1.0], order=4, subdiv=4)
        f = ComplexProfile(grid, (grid.nodes + 2.0).astype(complex)).normalized()
        with pytest.raises(InvalidInputError):
            chi_prime_cross(f)


class TestThreshold:
    def test_value(self):
        assert violation_threshold() == pytest.approx(math.sqrt(2 * math.sqrt(3) - 3), abs=1e-15)

    def test_separates_violation(self):
        assert min_expectation_over_lambda(0.70) < 0.0
        assert min_expectation_over_lambda(0.66) >= 0.0
        at = violation_threshold()
        assert min_expectation_over_lambda(at) == pytest.approx(0.0, abs=1e-12)


class TestClosedForm:
    def test_extremes_at_unit_gamma(self):
        params = ViolationParams(h=INV1, rho=1.0, theta=math.pi / 4)
        lo = p_hat_expectation_closed(params, gamma_value=1.0)
        assert lo == pytest.approx((1 - math.sqrt(2)) / 2, abs=1e-15)
        params = ViolationParams(h=INV1, rho=1.0, theta=-3 * math.pi / 4)
        hi = p_hat_expectation_closed(params, gamma_value=1.0)
        assert hi == pytest.approx((1 + math.sqrt(2)) / 2, abs=1e-15)

    def test_sign_branch_reflects(self):
        plus = p_hat_expectation_closed(
            ViolationParams(h=INV1, theta=math.pi / 4, sign=+1), gamma_value=1.0)
        minus = p_hat_expectation_closed(
            ViolationParams(h=INV1, theta=-3 * math.pi / 4, sign=-1), gamma_value=1.0)
        assert plus == pytest.approx(minus, abs=1e-15)

    def test_rho_zero_is_half(self):
        for g in (0.1, 0.7, 1.0):
            val = p_hat_expectation_closed(ViolationParams(h=INV1, rho=0.0), gamma_value=g)
            assert val == pytest.approx(0.5, abs=1e-15)

    def test_optimal_theta_at_quarter_pi_gamma(self):
        g = math.pi / 4.0
        theta_star = math.atan2(2 * g, 1 + g * g)
        val = p_hat_expectation_closed(
            ViolationParams(h=INV1, rho=1.0, theta=theta_star), gamma_value=g)
        assert val == pytest.approx(min_expectation_over_lambda(g), abs=1e-12)
        assert val == pytest.approx(-0.063561, abs=1e-5)

    def test_witness_validation(self):
        params = ViolationParams(h=INV1, shift=1.5)
        good = canonical_witness(params)
        assert p_hat_expectation_closed(params, witness=good, gamma_value=0.5) == \
            pytest.approx(p_hat_expectation_closed(params, gamma_value=0.5), abs=0)
        bad = BellWitness.half_lines(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            p_hat_expectation_closed(params, witness=bad, gamma_value=0.5)

    def test_shift_boost_invariance(self):
        base = ViolationParams(h=INV1, rho=0.8, theta=0.6)
        moved = ViolationParams(h=INV1, rho=0.8, theta=0.6, shift=2.5, boost=-1.7)
        g = 0.77
        assert p_hat_expectation_closed(base, gamma_value=g) == pytest.approx(
            p_hat_expectation_closed(moved, gamma_value=g), abs=1e-8)


class TestBuildPsi:
    def test_normalized_two_term_state(self):
        psi = build_psi(ViolationParams(h=HProfile.cutoff_sqrt(1e-2, 1e2)), n_target=128)
        assert len(psi.coef) == 2
        assert psi.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_lambda_zero_is_factorized(self):
        psi = build_psi(ViolationParams(h=INV1, rho=0.0), n_target=128)
        coefs = sorted(abs(psi.coef))
        assert coefs[0] == pytest.approx(0.0, abs=1e-15)
        assert coefs[1] == pytest.approx(1.0, abs=1e-12)

    def test_shifted_axis2_support(self):
        h = HProfile.cutoff_sqrt(1e-1, 1e1)
        psi = build_psi(ViolationParams(h=h, shift=3.0), n_target=128)
        dens = psi.position_density()
        mass_q2 = psi.grid1.weights @ dens
        q2 = psi.grid2.nodes
        outside = np.abs(q2 - 3.0) < h.eps
        assert mass_q2[outside].max(initial=0.0) < 1e-14
        com = np.sum(psi.grid2.weights * mass_q2 * q2)
        assert com == pytest.approx(3.0, abs=1e-6)


class TestWaveFunction2:
    def test_rejects_factors_that_do_not_form_two_axes(self):
        g = build_panels([-4.0, 0.0, 4.0], order=4, subdiv=4)
        other = build_panels([-5.0, 0.0, 5.0], order=4, subdiv=4)
        f = ComplexProfile(g, np.exp(-g.nodes ** 2) + 0j)
        cases = [(([], [f], g, g), "at least one factor"),
                 (([f, ComplexProfile(other, f.values)], [f, f], g, g), "one grid"),
                 (([f, f], [f, ComplexProfile(g, f.values, 0.5)], g, g), "one carrier")]
        for (factors1, factors2, p1, p2), match in cases:
            with pytest.raises(InvalidInputError, match=match):
                WaveFunction2.from_factors([1.0] * len(factors2), factors1, factors2, p1, p2)
        with pytest.raises(InvalidInputError, match="one coefficient per factor row"):
            WaveFunction2.from_factors([1.0, 2.0], [f], [f], g, g)

    def test_norm_matches_the_dense_density_of_non_orthogonal_factors(self):
        # complex Gaussians with boosts: their inner products are complex,
        # so a transposed inner-product matrix changes the real part
        rng = np.random.default_rng(11)
        g = build_panels([-12.0, 0.0, 12.0], order=6, subdiv=12)

        def factor():
            mu, s, b = rng.uniform(-1, 1), rng.uniform(0.7, 1.5), rng.uniform(-1, 1)
            vals = np.exp(-((g.nodes - mu) ** 2) / (2 * s * s) + 1j * b * g.nodes)
            return ComplexProfile(g, vals).normalized()

        coef = rng.normal(size=3) + 1j * rng.normal(size=3)
        pairs = [(factor(), factor()) for _ in coef]
        psi = WaveFunction2.from_factors(coef, *zip(*pairs), g, g)
        amp = np.einsum("k,ki,kj->ij", coef, psi.axis1.rows, psi.axis2.rows)
        assert psi.norm_sq() == pytest.approx(g.weights @ np.abs(amp) ** 2 @ g.weights,
                                              rel=0, abs=1e-12)


class TestGridVsClosed:
    def test_scan_lattice_agreement(self):
        cases = []
        for h in (INV1, HProfile.cutoff_sqrt(1e-2, 1e2)):
            gv = gamma(h)
            for rho in (0.5, 1.0, 2.0):
                for theta in (0.0, math.pi / 4, -3 * math.pi / 4):
                    cases.append((h, gv, rho, theta))
        for h, gv, rho, theta in cases:
            params = ViolationParams(h=h, rho=rho, theta=theta)
            psi = build_psi(params, n_target=512)
            closed = p_hat_expectation_closed(params, gamma_value=gv)
            grid = p_hat_expectation_grid(psi, canonical_witness(params))
            assert abs(closed - grid) < 1e-3, (h.kind, rho, theta, closed, grid)

    def test_theta_shift_by_pi_reflects_about_half(self):
        h = HProfile.cutoff_sqrt(1e-2, 1e2)
        base = ViolationParams(h=h, rho=1.0, theta=math.pi / 4)
        flipped = ViolationParams(h=h, rho=1.0, theta=math.pi / 4 + math.pi)
        w = canonical_witness(base)
        a = p_hat_expectation_grid(build_psi(base, 512), w)
        b = p_hat_expectation_grid(build_psi(flipped, 512), w)
        assert (a + b) / 2 == pytest.approx(0.5, abs=1e-3)

    def test_shifted_boosted_family_agreement(self):
        h = HProfile.cutoff_sqrt(1e-2, 1e2)
        params = ViolationParams(h=h, rho=1.0, theta=math.pi / 4, shift=2.0, boost=1.5)
        psi = build_psi(params, n_target=512)
        closed = p_hat_expectation_closed(params)
        grid = p_hat_expectation_grid(psi, canonical_witness(params))
        assert abs(closed - grid) < 1e-3


class TestMonotoneViolation:
    def test_min_expectation_decreases_in_gamma(self):
        gs = np.linspace(violation_threshold(), 1.0, 12)
        vals = [min_expectation_over_lambda(g) for g in gs]
        assert all(a > b for a, b in zip(vals[:-1], vals[1:]))


class TestFactorizedProperty:
    def test_random_factorized_states_stay_in_unit_interval(self):
        rng = np.random.default_rng(77)
        g = build_panels([-24.0, 0.0, 24.0], order=6, subdiv=20)
        for _ in range(25):
            mu, s, b = rng.uniform(-2, 2), rng.uniform(0.5, 2.0), rng.uniform(-2, 2)
            vals = np.exp(-((g.nodes - mu) ** 2) / (2 * s * s)) * np.exp(1j * b * g.nodes)
            f1 = ComplexProfile(g, vals).normalized()
            mu, s, b = rng.uniform(-2, 2), rng.uniform(0.5, 2.0), rng.uniform(-2, 2)
            vals = np.exp(-((g.nodes - mu) ** 2) / (2 * s * s)) * np.exp(1j * b * g.nodes)
            f2 = ComplexProfile(g, vals).normalized()
            psi = WaveFunction2.from_factors([1.0], [f1], [f2], g, g)
            lo, hi = np.sort(rng.uniform(-3, 3, size=2))
            w = BellWitness(Region.of((lo, hi + 0.2)), Region.half_line(rng.uniform(-1, 1)),
                            Region.of((lo - 1, hi)), Region.half_line(rng.uniform(-1, 1)))
            val = p_hat_expectation_grid(psi, w)
            assert -1e-7 <= val <= 1.0 + 1e-7
