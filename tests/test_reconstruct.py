import numpy as np
import pytest

from phaselab.errors import ConsistencyError, InvalidInputError
from phaselab.marginal import (
    Marginal2D,
    PlaneLabel,
    TripletProblem,
    counterexample_quartet,
    quantum_marginals,
)
from phaselab.quad import build_panels
from phaselab.quantum import HProfile, ViolationParams, build_psi
from phaselab.reconstruct import (
    Dense4D,
    calibrate_triplet,
    delta_from_F,
    lambda_range,
    reconstruct_solution,
    rho0,
    support_sets,
    three_marginal_demo,
)


def density_1d(nodes, weights, mu, s):
    v = np.exp(-((nodes - mu) ** 2) / (2 * s * s))
    return v / np.sum(weights * v)


def factorized_triplet(n_subdiv=4, order=4):
    g = build_panels([-8.0, 0.0, 8.0], order=order, subdiv=n_subdiv)
    a = density_1d(g.nodes, g.weights, 0.0, 1.0)
    b = density_1d(g.nodes, g.weights, 0.5, 1.3)
    c = density_1d(g.nodes, g.weights, -0.4, 0.8)
    d = density_1d(g.nodes, g.weights, 0.2, 1.1)
    t = TripletProblem(
        Marginal2D.gridded(PlaneLabel.QQ, g, g, np.outer(a, b), normalize=True),
        Marginal2D.gridded(PlaneLabel.PQ, g, g, np.outer(c, b), normalize=True),
        Marginal2D.gridded(PlaneLabel.PP, g, g, np.outer(c, d), normalize=True),
    )
    return t, (a, b, c, d), g


def quantum_triplet(n_target=64, eps=1e-2, L=1e2):
    psi = build_psi(ViolationParams(h=HProfile.cutoff_sqrt(eps, L)), n_target=n_target)
    quartet = quantum_marginals(psi)
    t, _ = calibrate_triplet(TripletProblem.from_quartet(quartet))
    return t, quartet


def demo_quartet(n_target=256):
    psi = build_psi(ViolationParams(h=HProfile.cutoff_sqrt(1e-2, 1e2)), n_target=n_target)
    return quantum_marginals(psi)


def random_bump_F(base, rng):
    g1, g2, g3, g4 = base.grids
    c = rng.normal(scale=0.5, size=4)
    w = rng.uniform(0.5, 2.0, size=4)

    def axis_bump(g, mu, s):
        x = g.nodes
        scale = max(1.0, np.abs(x).max() / 4.0)
        return np.exp(-((x - mu * scale) ** 2) / (2 * (s * scale) ** 2))

    bump = (axis_bump(g1, c[0], w[0])[:, None, None, None]
            * axis_bump(g2, c[1], w[1])[None, :, None, None]
            * axis_bump(g3, c[2], w[2])[None, None, :, None]
            * axis_bump(g4, c[3], w[3])[None, None, None, :])
    return Dense4D(base.grids, base.dense() * bump)


class TestSupportSets:
    def test_full_support_gaussian(self):
        g = build_panels([-4.0, 0.0, 4.0], order=4, subdiv=4)
        a = density_1d(g.nodes, g.weights, 0.0, 1.0)
        b = density_1d(g.nodes, g.weights, 0.5, 1.3)
        c = density_1d(g.nodes, g.weights, -0.4, 1.1)
        t = TripletProblem(
            Marginal2D.gridded(PlaneLabel.QQ, g, g, np.outer(a, b), normalize=True),
            Marginal2D.gridded(PlaneLabel.PQ, g, g, np.outer(c, b), normalize=True),
            Marginal2D.gridded(PlaneLabel.PP, g, g, np.outer(c, a), normalize=True),
        )
        mask = support_sets(t)
        assert mask.sigma0.all() and mask.sigma1.all() and mask.sigma2.all()

    def test_half_plane_support_propagates(self):
        g = build_panels([-4.0, 0.0, 4.0], order=4, subdiv=4)
        pos = g.nodes > 0
        a = density_1d(g.nodes, g.weights, 0.0, 1.0)
        b = np.where(pos, np.exp(-g.nodes), 0.0)
        b /= np.sum(g.weights * b)
        t = TripletProblem(
            Marginal2D.gridded(PlaneLabel.QQ, g, g, np.outer(a, b), normalize=True),
            Marginal2D.gridded(PlaneLabel.PQ, g, g, np.outer(a, b), normalize=True),
            Marginal2D.gridded(PlaneLabel.PP, g, g, np.outer(a, a), normalize=True),
        )
        mask = support_sets(t)
        assert not mask.sigma0[:, ~pos].any()
        assert mask.sigma0[:, pos].all()

    def test_mismatched_supports_rejected(self):
        g = build_panels([-8.0, 0.0, 8.0], order=4, subdiv=4)
        pos = g.nodes > 0
        a = density_1d(g.nodes, g.weights, 0.0, 1.0)
        b = np.where(pos, np.exp(-g.nodes), 0.0)
        b /= np.sum(g.weights * b)
        t = TripletProblem(
            Marginal2D.gridded(PlaneLabel.QQ, g, g, np.outer(a, b), normalize=True),
            Marginal2D.gridded(PlaneLabel.PQ, g, g, np.outer(a, a), normalize=True),
            Marginal2D.gridded(PlaneLabel.PP, g, g, np.outer(a, a), normalize=True),
        )
        with pytest.raises(ConsistencyError):
            support_sets(t)


class TestRho0:
    def test_factorized_chain_gives_product(self):
        t, (a, b, c, d), g = factorized_triplet()
        tc, _ = calibrate_triplet(t)
        base = rho0(tc)
        dense = base.dense()
        expected = (tc.sigma0.values[:, :, None, None]
                    * tc.sigma1.values.T[None, :, :, None]
                    * tc.sigma2.values[None, None, :, :])
        expected = expected / (tc.sigma0.values.sum(axis=0) * 0 + 1)
        # product structure: sigma0(x1,x2) sigma1(y1,x2) sigma2(y1,y2)
        # normalized by the shared 1-D marginals
        s01 = g.weights @ tc.sigma0.values
        s12 = tc.sigma2.values @ g.weights
        expected = (tc.sigma0.values[:, :, None, None]
                    * tc.sigma1.values.T[None, :, :, None]
                    * tc.sigma2.values[None, None, :, :]
                    / s01[None, :, None, None] / s12[None, None, :, None])
        assert np.max(np.abs(dense - expected)) < 1e-12

    def test_marginal_roundtrip_exact_after_calibration(self):
        t, _, _ = factorized_triplet()
        tc, report = calibrate_triplet(t)
        base = rho0(tc)
        m0, m1, m2 = base.marginals()
        assert np.max(np.abs(m0 - tc.sigma0.values)) < 1e-12
        assert np.max(np.abs(m1 - tc.sigma1.values)) < 1e-12
        assert np.max(np.abs(m2 - tc.sigma2.values)) < 1e-12
        assert base.mass() == pytest.approx(1.0, abs=1e-10)

    def test_roundtrip_defects_against_triplet(self):
        t, _ = quantum_triplet()
        base = rho0(t)
        m0, m1, m2 = base.marginals()
        assert base.roundtrip_defects() == [
            float(np.max(np.abs(m0 - t.sigma0.values))),
            float(np.max(np.abs(m1 - t.sigma1.values))),
            float(np.max(np.abs(m2 - t.sigma2.values)))]

    def test_quantum_triplet_roundtrip(self):
        t, _ = quantum_triplet()
        base = rho0(t)
        m0, m1, m2 = base.marginals()
        assert np.max(np.abs(m0 - t.sigma0.values)) < 1e-4
        assert np.max(np.abs(m1 - t.sigma1.values)) < 1e-4
        assert np.max(np.abs(m2 - t.sigma2.values)) < 1e-4
        assert base.mass() == pytest.approx(1.0, abs=1e-6)

    def test_parent_defect_reported(self):
        t, _, _ = factorized_triplet()
        base = rho0(t)
        assert "sigma01_parent_defect" in base.diagnostics


class TestDelta:
    def setup_method(self):
        t, _, _ = factorized_triplet()
        self.t, _ = calibrate_triplet(t)
        self.base = rho0(self.t)
        self.rng = np.random.default_rng(7)

    def test_base_density_maps_to_zero(self):
        F = Dense4D(self.base.grids, self.base.dense())
        delta = delta_from_F(self.base, F)
        assert np.max(np.abs(delta.values)) < 1e-10

    def test_valid_solution_recovers_difference(self):
        Fb = random_bump_F(self.base, self.rng)
        delta_b = delta_from_F(self.base, Fb)
        rng_l = lambda_range(self.base, delta_b)
        lam = 0.5 * rng_l.hi
        rho = Dense4D(self.base.grids, self.base.dense() + lam * delta_b.values)
        delta_back = delta_from_F(self.base, rho)
        assert np.max(np.abs(delta_back.values - lam * delta_b.values)) < 1e-10

    def test_bump_delta_annihilates_marginals(self):
        for _ in range(3):
            F = random_bump_F(self.base, self.rng)
            delta = delta_from_F(self.base, F)
            m0, m1, m2 = delta.chain_marginals()
            assert np.max(np.abs(m0)) < 1e-12
            assert np.max(np.abs(m1)) < 1e-12
            assert np.max(np.abs(m2)) < 1e-12
            assert abs(delta.mass()) < 1e-12

    def test_linear_in_F(self):
        Fa = random_bump_F(self.base, self.rng)
        Fb = random_bump_F(self.base, self.rng)
        da = delta_from_F(self.base, Fa)
        db = delta_from_F(self.base, Fb)
        combo = Dense4D(self.base.grids, 2.0 * Fa.values + 3.0 * Fb.values)
        dc = delta_from_F(self.base, combo)
        assert np.max(np.abs(dc.values - 2 * da.values - 3 * db.values)) < 1e-12

    def test_leak_outside_support_rejected(self):
        g = self.base.grids[0]
        vals = np.ones(tuple(len(x) for x in self.base.grids))
        t2, _, _ = factorized_triplet()
        # build a base with a support hole, then leak F into it
        grid = build_panels([-8.0, 0.0, 8.0], order=4, subdiv=4)
        pos = grid.nodes > 0
        a = density_1d(grid.nodes, grid.weights, 0.0, 1.0)
        b = np.where(pos, np.exp(-grid.nodes), 0.0)
        b /= np.sum(grid.weights * b)
        t = TripletProblem(
            Marginal2D.gridded(PlaneLabel.QQ, grid, grid, np.outer(a, b), normalize=True),
            Marginal2D.gridded(PlaneLabel.PQ, grid, grid, np.outer(a, b), normalize=True),
            Marginal2D.gridded(PlaneLabel.PP, grid, grid, np.outer(a, a), normalize=True),
        )
        tc, _ = calibrate_triplet(t)
        base = rho0(tc)
        F = Dense4D(base.grids, np.ones_like(base.dense()))
        with pytest.raises(InvalidInputError):
            delta_from_F(base, F)


class TestLambdaRange:
    def test_zero_delta_unbounded(self):
        t, _, _ = factorized_triplet()
        tc, _ = calibrate_triplet(t)
        base = rho0(tc)
        delta = Dense4D(base.grids, np.zeros_like(base.dense()))
        rng_l = lambda_range(base, delta)
        assert rng_l.unbounded
        assert rng_l.lo == -np.inf and rng_l.hi == np.inf

    def test_unit_lambda_admissible_for_valid_solution(self):
        t, _, _ = factorized_triplet()
        tc, _ = calibrate_triplet(t)
        base = rho0(tc)
        rng = np.random.default_rng(3)
        F = random_bump_F(base, rng)
        delta = delta_from_F(base, F)
        lam = 0.7 * lambda_range(base, delta).hi
        rho = Dense4D(base.grids, base.dense() + lam * delta.values)
        delta_rho = delta_from_F(base, rho)
        rng2 = lambda_range(base, delta_rho)
        assert rng2.hi >= 1.0 - 1e-12

    def test_endpoints_saturate_positivity(self):
        t, _, _ = factorized_triplet()
        tc, _ = calibrate_triplet(t)
        base = rho0(tc)
        rng = np.random.default_rng(5)
        F = random_bump_F(base, rng)
        delta = delta_from_F(base, F)
        rng_l = lambda_range(base, delta)
        for lam in (rng_l.lo, rng_l.hi):
            sol = base.dense() + lam * delta.values
            assert sol.min() >= -1e-9
            assert sol.min() <= 1e-6


class TestGeneralSolution:
    def test_lambda_zero_returns_rho0(self):
        t, _, _ = factorized_triplet()
        tc, _ = calibrate_triplet(t)
        base = rho0(tc)
        F = random_bump_F(base, np.random.default_rng(1))
        sol = reconstruct_solution(tc, F).solution(0.0)
        assert np.max(np.abs(sol.values - base.dense())) < 1e-12

    def test_marginals_preserved_at_interior_lambda(self):
        t, _, _ = factorized_triplet()
        tc, _ = calibrate_triplet(t)
        base = rho0(tc)
        F = random_bump_F(base, np.random.default_rng(2))
        delta = delta_from_F(base, F)
        lam = 0.4 * lambda_range(base, delta).hi
        sol = reconstruct_solution(tc, F).solution(lam)
        m0, m1, m2 = sol.chain_marginals()
        assert np.max(np.abs(m0 - tc.sigma0.values)) < 1e-10
        assert np.max(np.abs(m1 - tc.sigma1.values)) < 1e-10
        assert np.max(np.abs(m2 - tc.sigma2.values)) < 1e-10
        assert sol.values.min() >= -1e-12

    def test_out_of_range_lambda_rejected(self):
        t, _, _ = factorized_triplet()
        tc, _ = calibrate_triplet(t)
        base = rho0(tc)
        F = random_bump_F(base, np.random.default_rng(4))
        delta = delta_from_F(base, F)
        lam = 3.0 * lambda_range(base, delta).hi
        with pytest.raises(InvalidInputError):
            reconstruct_solution(tc, F).solution(lam)


class TestChainEquivalence:
    def test_two_subset_chains_share_common_marginals(self):
        quartet = demo_quartet()
        demo = three_marginal_demo(quartet, tol=0.01)
        for key, sub in demo["subsets"].items():
            assert sub["max_roundtrip_defect"] < 1e-4, (key, sub)
            assert sub["mass"] == pytest.approx(1.0, abs=1e-6)


class TestDemo:
    def test_quantum_quartet_demo(self):
        quartet = demo_quartet()
        demo = three_marginal_demo(quartet, tol=0.01)
        assert demo["four_set"]["bell_sum"] > 2.0
        assert demo["four_set"]["certifies_infeasible"]

    def test_factorized_quartet_demo(self):
        g = build_panels([-10.0, 0.0, 10.0], order=4, subdiv=6)
        from phaselab.quantum import Term, WaveFunction2
        from phaselab.quad import ComplexProfile
        f1 = ComplexProfile(g, np.exp(-g.nodes**2 / 2) + 0j).normalized()
        f2 = ComplexProfile(g, np.exp(-(g.nodes - 0.4)**2 / 1.5) + 0j).normalized()
        psi = WaveFunction2([Term(1.0, f1, f2)], p1_grid=g, p2_grid=g)
        quartet = quantum_marginals(psi)
        demo = three_marginal_demo(quartet, tol=1e-6)
        assert demo["four_set"]["within_classical_bounds"]
        for sub in demo["subsets"].values():
            assert sub["max_roundtrip_defect"] < 1e-8

    def test_atomic_counterexample_demo(self):
        quartet = counterexample_quartet(1, 1, -1, -1, 1, 1, -1, -1)
        demo = three_marginal_demo(quartet, tol=1e-12)
        assert demo["four_set"]["bell_sum"] == 4.0
        assert demo["four_set"]["certifies_infeasible"]
        for sub in demo["subsets"].values():
            assert "skipped" in sub

    def test_inconsistent_quartet_rejected(self):
        quartet = demo_quartet()
        bad_vals = np.roll(quartet.R.values, 3, axis=0)
        bad_R = Marginal2D.gridded(PlaneLabel.QQ, quartet.R.grid1, quartet.R.grid2,
                                   bad_vals, normalize=True)
        from phaselab.marginal import QuartetProblem
        bad = QuartetProblem(bad_R, quartet.S, quartet.T, quartet.U)
        with pytest.raises(ConsistencyError):
            three_marginal_demo(bad, tol=1e-6)


class TestAtomicRejection:
    def test_triplet_requires_gridded(self):
        quartet = counterexample_quartet(1, 1, -1, -1, 1, 1, -1, -1)
        with pytest.raises(InvalidInputError):
            TripletProblem.from_quartet(quartet)
