import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import marginal, quad, quantum
from phaselab.bell import Region, bell_sum, bell_terms
from phaselab.cli import _emit, run
from phaselab.errors import InvalidInputError
from phaselab.marginal import (
    Marginal2D,
    PlaneLabel,
    ProductSum,
    QuartetProblem,
    TripletProblem,
    consistency_check,
    counterexample_quartet,
    one_var_marginal,
    quantum_marginals,
)
from phaselab.quad import ComplexProfile, build_panels, fourier_matrix
from phaselab.quantum import (
    GridPlan,
    HProfile,
    Term,
    ViolationParams,
    WaveFunction2,
    build_psi,
    canonical_witness,
)


def gaussian_vals(nodes, mu=0.0, sigma=1.0, boost=0.0):
    amp = (np.pi * sigma**2) ** -0.25 * np.exp(-((nodes - mu) ** 2) / (2 * sigma**2))
    return amp * np.exp(1j * boost * nodes)


def gaussian_state(mu1=0.0, mu2=0.0, s1=1.0, s2=1.0):
    g = build_panels([-20.0, 0.0, 20.0], order=6, subdiv=18)
    f1 = ComplexProfile(g, gaussian_vals(g.nodes, mu1, s1)).normalized()
    f2 = ComplexProfile(g, gaussian_vals(g.nodes, mu2, s2)).normalized()
    p = build_panels([-20.0, 0.0, 20.0], order=6, subdiv=18)
    return WaveFunction2([Term(1.0, f1, f2)], p1_grid=p, p2_grid=p)


class TestCounterexample:
    def test_atom_layout(self):
        q = counterexample_quartet(1, 1, -1, -1, 1, 1, -1, -1)
        for m in (q.R, q.S, q.T, q.U):
            assert m.atoms.shape == (2, 3)
            assert np.allclose(m.atoms[:, 2], 0.5)
        # the PP pairing is crosswise, not the natural one
        assert sorted(map(tuple, q.U.atoms[:, :2].tolist())) == [(-1.0, 1.0), (1.0, -1.0)]

    def test_consistency_exact(self):
        q = counterexample_quartet(0.3, -0.7, -1.2, 2.0, 0.9, 1.5, -0.4, -2.5)
        report = consistency_check(q, tol=0.0)
        assert report.passed
        assert report.max_defect == 0.0

    def test_rejects_coincident_atoms(self):
        with pytest.raises(InvalidInputError):
            counterexample_quartet(1, 1, 1, -1, 1, 1, -1, -1)


class TestConsistencyCheck:
    def test_quantum_quartet_consistent(self):
        quartet = quantum_marginals(gaussian_state(0.4, -0.2, 1.3, 0.8))
        report = consistency_check(quartet, tol=1e-6)
        assert report.passed, report.defects

    def test_broken_quartet_fails(self):
        psi = gaussian_state()
        quartet = quantum_marginals(psi)
        g1, g2 = quartet.R.grid1, quartet.R.grid2
        shifted = np.outer(np.abs(gaussian_vals(g1.nodes, 2.5)) ** 2,
                           np.abs(gaussian_vals(g2.nodes)) ** 2)
        bad_R = Marginal2D.gridded(PlaneLabel.QQ, g1, g2, shifted, normalize=True)
        bad = QuartetProblem(bad_R, quartet.S, quartet.T, quartet.U)
        assert not consistency_check(bad, tol=1e-6).passed

    def test_mismatched_grids_error(self):
        quartet = quantum_marginals(gaussian_state())
        other = build_panels([-21.0, 0.0, 21.0], order=6, subdiv=18)
        vals = np.abs(gaussian_vals(other.nodes)[:, None]
                      * gaussian_vals(quartet.R.grid2.nodes)[None, :]) ** 2
        R2 = Marginal2D.gridded(PlaneLabel.QQ, other, quartet.R.grid2, vals, normalize=True)
        bad = QuartetProblem(R2, quartet.S, quartet.T, quartet.U)
        with pytest.raises(InvalidInputError):
            consistency_check(bad)


class TestOneVarMarginal:
    def test_product_density_contracts_to_factor(self):
        g = build_panels([-10.0, 0.0, 10.0], order=6, subdiv=10)
        u = np.abs(gaussian_vals(g.nodes, 0.5, 0.7)) ** 2
        v = np.abs(gaussian_vals(g.nodes, -1.0, 1.4)) ** 2
        u /= np.sum(g.weights * u)
        v /= np.sum(g.weights * v)
        m = Marginal2D.gridded(PlaneLabel.QQ, g, g, np.outer(u, v))
        out = one_var_marginal(m, axis=1)
        assert np.max(np.abs(out.values.real - v)) < 1e-10

    def test_uniform_square(self):
        g = build_panels([0.0, 1.0], order=4, subdiv=8)
        m = Marginal2D.gridded(PlaneLabel.QQ, g, g, np.ones((len(g), len(g))))
        out = one_var_marginal(m, axis=1)
        assert np.max(np.abs(out.values.real - 1.0)) < 1e-12

    def test_mass_preserved(self):
        quartet = quantum_marginals(gaussian_state(0.3, 0.1, 0.9, 1.2))
        for m in (quartet.R, quartet.S, quartet.T, quartet.U):
            for axis in (1, 2):
                out = one_var_marginal(m, axis)
                mass = np.sum(out.grid.weights * out.values.real)
                assert mass == pytest.approx(m.mass(), abs=1e-10)

    def test_atomic_rejected(self):
        q = counterexample_quartet(1, 1, -1, -1, 1, 1, -1, -1)
        with pytest.raises(InvalidInputError):
            one_var_marginal(q.R, 1)


class TestQuantumMarginals:
    def test_factorized_gaussian_products(self):
        psi = gaussian_state(0.5, -0.3, 1.1, 0.7)
        quartet = quantum_marginals(psi)
        # every marginal of a product state factorizes: check rank-1 structure
        for m in (quartet.R, quartet.S, quartet.T, quartet.U):
            sv = np.linalg.svd(np.sqrt(np.outer(m.grid1.weights, m.grid2.weights)) * m.values,
                               compute_uv=False)
            assert sv[1] / sv[0] < 1e-10
            assert m.mass() == pytest.approx(1.0, abs=1e-12)

    def test_interference_pattern_of_two_term_state(self):
        h = HProfile.cutoff_sqrt(1e-2, 1e2)
        psi = build_psi(ViolationParams(h=h), n_target=256)
        quartet = quantum_marginals(psi)
        R = quartet.R
        q1 = R.grid1.nodes
        q2 = R.grid2.nodes
        h1 = h.evaluate(np.abs(q1))
        h2 = h.evaluate(np.abs(q2))
        expected = (2.0 + np.sqrt(2.0) * np.outer(np.sign(q1), np.sign(q2))) / 8.0 \
            * np.outer(h1**2, h2**2)
        expected /= float(R.grid1.weights @ expected @ R.grid2.weights)
        assert np.max(np.abs(R.values - expected)) / expected.max() < 1e-6

    def test_shifted_state_support_centered_at_shift(self):
        h = HProfile.cutoff_sqrt(1e-2, 1e2)
        a = 3.0
        psi = build_psi(ViolationParams(h=h, shift=a), n_target=256)
        quartet = quantum_marginals(psi)
        T = quartet.T
        density_q2 = one_var_marginal(T, axis=1).values.real
        q2 = T.grid2.nodes
        inside = np.abs(q2 - a) >= h.eps
        assert density_q2[~inside].max(initial=0.0) < 1e-12
        # mass balances on both sides of the shift point
        left = np.sum(T.grid2.weights[q2 < a] * density_q2[q2 < a])
        right = np.sum(T.grid2.weights[q2 > a] * density_q2[q2 > a])
        assert left == pytest.approx(0.5, abs=1e-6)
        assert right == pytest.approx(0.5, abs=1e-6)

    def test_rejects_unnormalized_state(self):
        g = build_panels([-20.0, 0.0, 20.0], order=6, subdiv=18)
        f = ComplexProfile(g, gaussian_vals(g.nodes))
        bad = WaveFunction2([Term(2.0, f, f)])
        with pytest.raises(InvalidInputError):
            quantum_marginals(bad)

    def test_rejects_state_without_momentum_grids(self):
        psi = gaussian_state()
        bare = WaveFunction2(psi.terms)
        with pytest.raises(InvalidInputError, match="p1_grid"):
            quantum_marginals(bare)


class TestRepresentationAgreement:
    def test_smoothed_atoms_approach_atomic_consistency(self):
        # gridded quartets built by smoothing the atomic counterexample
        # converge to exact consistency as the smoothing width shrinks
        atoms = counterexample_quartet(1, 1, -1, -1, 1, 1, -1, -1)
        g = build_panels([-4.0, 0.0, 4.0], order=6, subdiv=24)

        def smooth(m, width):
            vals = np.zeros((len(g), len(g)))
            for x, y, w in m.atoms:
                vals += w * np.outer(np.exp(-((g.nodes - x) / width) ** 2),
                                     np.exp(-((g.nodes - y) / width) ** 2))
            return Marginal2D.gridded(m.plane, g, g, vals, normalize=True)

        defects = []
        for width in (0.4, 0.2, 0.1):
            quartet = QuartetProblem(*(smooth(m, width) for m in
                                       (atoms.R, atoms.S, atoms.T, atoms.U)))
            defects.append(consistency_check(quartet, tol=np.inf).max_defect)
        assert defects[0] > defects[1] > defects[2] or max(defects) < 1e-10


class TestJsonRoundtrip:
    def test_gridded(self):
        quartet = quantum_marginals(gaussian_state())
        m2 = Marginal2D.from_json(quartet.S.to_json())
        assert m2.plane is PlaneLabel.QP
        assert np.allclose(m2.values, quartet.S.values)

    def test_atomic(self):
        q = counterexample_quartet(1, 1, -1, -1, 1, 1, -1, -1)
        q2 = QuartetProblem.from_json(q.to_json())
        assert np.allclose(q2.U.atoms, q.U.atoms)

    def test_triplet(self):
        quartet = quantum_marginals(gaussian_state())
        t = TripletProblem.from_quartet(quartet)
        t2 = TripletProblem.from_json(t.to_json())
        assert np.allclose(t2.sigma1.values, t.sigma1.values)

    def test_bad_schema(self):
        with pytest.raises(InvalidInputError):
            Marginal2D.from_json({"plane": "XX", "atoms": []})

    @pytest.mark.parametrize("cls, key", [(QuartetProblem, "R"), (TripletProblem, "sigma0")])
    def test_missing_key_is_named(self, cls, key):
        with pytest.raises(InvalidInputError, match=key):
            cls.from_json({})

    def test_missing_marginal_keys_are_named(self):
        with pytest.raises(InvalidInputError, match="plane"):
            Marginal2D.from_json({})
        with pytest.raises(InvalidInputError, match="grid2"):
            Marginal2D.from_json({"plane": "QQ", "grid1": {}, "values": []})
        with pytest.raises(InvalidInputError, match="w"):
            Marginal2D.from_json({"plane": "PP", "atoms": [{"x": 1.0, "y": 1.0}]})


def _planes(quartet):
    return [getattr(quartet, k).values for k in ("R", "S", "T", "U")]


def _cold_planes(params, n_target):
    """The state's marginals computed with the axis cache emptied."""
    GridPlan.axis.cache_clear()
    return _planes(quantum_marginals(build_psi(params, n_target=n_target)))


class TestTransformCache:
    H = HProfile.cutoff_sqrt(1e-2, 1e2)

    def teardown_method(self):
        GridPlan.axis.cache_clear()

    def test_scan_matches_cold_computation(self, monkeypatch):
        lattice = [(0.5, -2.0), (1.0, 0.3), (1.7, 1.1), (1.0, 0.3), (2.0, 2.3)]
        GridPlan.axis.cache_clear()
        calls = []
        monkeypatch.setattr(quad, "fourier_matrix", lambda *a, **k: calls.append(a)
                            or fourier_matrix(*a, **k))
        warm = [_planes(quantum_marginals(build_psi(
            ViolationParams(h=self.H, rho=rho, theta=theta), n_target=64)))
            for rho, theta in lattice]
        # shift = boost = 0: both axes and every point share one transform
        assert len(calls) == 1
        for (rho, theta), got in zip(lattice, warm):
            want = _cold_planes(ViolationParams(h=self.H, rho=rho, theta=theta), 64)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_distinct_states_never_share_an_entry(self):
        states = [
            (ViolationParams(h=self.H, rho=1.2, theta=0.4), 64),
            (ViolationParams(h=self.H, rho=1.2, theta=0.4, shift=0.3), 64),
            (ViolationParams(h=self.H, rho=1.2, theta=0.4, boost=0.2), 64),
            (ViolationParams(h=self.H, rho=1.2, theta=0.4, shift=-0.3, boost=-0.2), 64),
            (ViolationParams(h=self.H, rho=1.2, theta=0.4), 96),
            (ViolationParams(h=HProfile.cutoff_sqrt(1e-3, 1e3), rho=1.2, theta=0.4), 64),
            (ViolationParams(h=HProfile.inverse_q_plus_one(), rho=1.2, theta=0.4), 64),
        ]
        GridPlan.axis.cache_clear()
        warm = [_planes(quantum_marginals(build_psi(p, n_target=n))) for p, n in states]
        # each state is looked up with the previous state's entries cached;
        # the second round also puts the last state before the first
        warm += [_planes(quantum_marginals(build_psi(p, n_target=n))) for p, n in states]
        cold = [_cold_planes(p, n) for p, n in states] * 2
        for got, want in zip(warm, cold):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_rows_are_read_only(self):
        psi = build_psi(ViolationParams(h=self.H, shift=0.3, boost=0.2), n_target=64)
        for axis in psi.axes:
            for rows in (axis.rows, axis.p_rows):
                assert not rows.flags.writeable
                with pytest.raises(ValueError):
                    rows[0, 0] = 0.0


def _planes_of(quartet):
    return [getattr(quartet, k) for k in ("R", "S", "T", "U")]


def _dense_route(psi):
    """The four planes formed densely, as quantum marginals were before
    they stayed in product-sum form: each density is the sum of outer
    products c_k u_k (x) v_k of the position or transformed factor rows,
    squared and divided by its grid mass."""
    c = np.array([t.coefficient for t in psi.terms])
    a = np.stack([t.factor1.values for t in psi.terms])
    b = np.stack([t.factor2.values for t in psi.terms])
    at = quad.transform_rows(a, psi.grid1, psi.terms[0].factor1.carrier, psi.p1_grid)
    bt = quad.transform_rows(b, psi.grid2, psi.terms[0].factor2.carrier, psi.p2_grid)
    planes = []
    for label, g1, g2, u, v in ((PlaneLabel.QQ, psi.grid1, psi.grid2, a, b),
                                (PlaneLabel.QP, psi.grid1, psi.p2_grid, a, bt),
                                (PlaneLabel.PQ, psi.p1_grid, psi.grid2, at, b),
                                (PlaneLabel.PP, psi.p1_grid, psi.p2_grid, at, bt)):
        dens = np.abs(np.einsum("k,ki,kj->ij", c, u, v, optimize=True)) ** 2
        planes.append(Marginal2D.gridded(label, g1, g2, dens, normalize=True))
    return QuartetProblem(*planes)


def _per_point_reference(psi, w):
    """norm^2, the four raw plane masses and the four signed Bell terms of
    a two-axis state, by the formulas evaluated afresh at every point:
    Gram matrices ``(u.conj() * w) @ u.T``, the form ``c^H (A o B) c``
    and the double loop of ``inner`` products."""
    c = np.array([t.coefficient for t in psi.terms])
    ax1, ax2 = psi.axes
    norm = 0.0
    for ti in psi.terms:
        for tj in psi.terms:
            norm += (np.conj(ti.coefficient) * tj.coefficient
                     * ti.factor1.inner(tj.factor1) * ti.factor2.inner(tj.factor2)).real

    def form(side1, side2, reg1=None, reg2=None):
        grams = []
        for (grid, u), reg in ((side1, reg1), (side2, reg2)):
            weights = grid.weights if reg is None else reg.sign(grid.nodes) * grid.weights
            grams.append((u.conj() * weights) @ u.T)
        return float((c.conj() @ (grams[0] * grams[1]) @ c).real)

    q1, p1 = (ax1.grid, ax1.rows), (ax1.p_grid, ax1.p_rows)
    q2, p2 = (ax2.grid, ax2.rows), (ax2.p_grid, ax2.p_rows)
    planes = {"R": (q1, q2, w.S1, w.S2), "S": (q1, p2, w.S1, w.S2p),
              "T": (p1, q2, w.S1p, w.S2), "U": (p1, p2, w.S1p, w.S2p)}
    raw = [form(a, b) for a, b, _, _ in planes.values()]
    terms = {k: form(a, b, ra, rb) / m for (k, (a, b, ra, rb)), m in zip(planes.items(), raw)}
    terms["U"] = -terms["U"]
    return float(norm), raw, terms


PROFILES = [HProfile.cutoff_sqrt(1e-2, 1e2), HProfile.inverse_q_plus_one()]


class TestProductSumRoute:
    """Quantum marginals stay product sums: the Bell functional and the
    masses use K x K Gram forms, and the dense planes appear only when a
    caller reads ``values``."""

    @settings(max_examples=100, deadline=None)
    @given(rho=st.floats(0.0, 3.0), theta=st.floats(-math.pi, math.pi),
           sign=st.sampled_from([1, -1]), shift=st.floats(-1.0, 1.0),
           boost=st.floats(-1.0, 1.0), h=st.sampled_from(PROFILES))
    def test_gram_route_matches_dense_route(self, rho, theta, sign, shift, boost, h):
        params = ViolationParams(h=h, rho=rho, theta=theta, shift=shift, boost=boost,
                                 sign=sign)
        psi = build_psi(params, n_target=64)
        w = canonical_witness(params)
        factored = quantum_marginals(psi)
        gram = bell_sum(factored, w)
        forced = QuartetProblem(*(Marginal2D(m.plane, m.grid1, m.grid2, m.values)
                                  for m in _planes_of(factored)))
        assert abs(gram - bell_sum(forced, w)) <= 1e-13
        for m, want in zip(_planes_of(factored), _planes_of(_dense_route(psi))):
            assert np.array_equal(m.values, want.values)
            assert m.mass() == pytest.approx(1.0, abs=1e-13)

    def test_bell_sum_forms_no_dense_plane(self, monkeypatch):
        params = ViolationParams(h=HProfile.cutoff_sqrt(1e-6, 1e6))
        psi = build_psi(params, n_target=256)
        w = canonical_witness(params)
        quantum_marginals(psi)                    # fill the transform cache
        formed = []
        density = ProductSum.density
        monkeypatch.setattr(ProductSum, "density",
                            lambda self: formed.append(self) or density(self))
        tracemalloc.start()
        try:
            quartet = quantum_marginals(psi)
            bell_sum(quartet, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert formed == []
        plane_bytes = 8 * len(psi.p1_grid) * len(psi.p2_grid)
        assert plane_bytes > 30e6 and peak < plane_bytes / 20
        # reading a plane forms exactly that plane, once
        quartet.U.values
        quartet.U.values
        assert formed == [quartet.U.amplitude]

    def test_new_point_is_only_k_by_k_algebra(self, monkeypatch):
        h = HProfile.cutoff_sqrt(1e-6, 1e6)
        first = ViolationParams(h=h, rho=0.8, theta=-1.1)
        bell_sum(quantum_marginals(build_psi(first, n_target=256)), canonical_witness(first))
        grams, inners = [], []
        gram, inner = marginal.node_gram, ComplexProfile.inner
        for module in (marginal, quantum):
            monkeypatch.setattr(module, "node_gram",
                                lambda *a: grams.append(a) or gram(*a))
        monkeypatch.setattr(ComplexProfile, "inner",
                            lambda self, other: inners.append(self) or inner(self, other))
        params = ViolationParams(h=h, rho=1.7, theta=2.0)
        tracemalloc.start()
        try:
            psi = build_psi(params, n_target=256)
            bell_sum(quantum_marginals(psi), canonical_witness(params))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grams == [] and inners == []
        assert peak < 16 * len(psi.p1_grid)

    @pytest.mark.parametrize("h", PROFILES)
    def test_memoised_sums_equal_the_per_point_formulas(self, h):
        lattice = [(0.6, -1.0, 0.3, -0.2), (1.4, 2.2, 0.3, -0.2), (1.0, 0.5, 0.0, 0.0),
                   (0.6, -1.0, 0.3, -0.2), (2.0, 0.1, 0.0, 0.0)]
        for rho, theta, shift, boost in lattice:
            params = ViolationParams(h=h, rho=rho, theta=theta, shift=shift, boost=boost)
            psi = build_psi(params, n_target=64)
            w = canonical_witness(params)
            quartet = quantum_marginals(psi)
            want_norm, want_raw, want_terms = _per_point_reference(psi, w)
            assert psi.norm_sq() == want_norm
            planes = _planes_of(quartet)
            assert [m.amplitude.signed_form(m.grid1, m.grid2) for m in planes] == want_raw
            assert [m.mass() for m in planes] == [raw / raw for raw in want_raw]
            assert bell_terms(quartet, w) == want_terms
            assert bell_sum(quartet, w) == float(sum(want_terms.values()))

    def test_memo_dies_with_its_axis(self):
        GridPlan.axis.cache_clear()
        params = ViolationParams(h=HProfile.cutoff_sqrt(1e-2, 1e2), shift=0.3, boost=0.2)
        psi = build_psi(params, n_target=64)
        quartet = quantum_marginals(psi)
        bell_sum(quartet, canonical_witness(params))
        refs = [weakref.ref(axis) for axis in psi.axes]
        assert all(ref()._grams for ref in refs)
        GridPlan.axis.cache_clear()
        del psi, quartet
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_from_psi_output_matches_dense_route(self, tmp_path):
        out, ref = tmp_path / "from_psi.json", tmp_path / "dense.json"
        assert run(["quartet", "from-psi", "--eps", "1e-2", "--L", "1e2",
                    "--preset", "coarse", "--out", str(out)]) == 0
        params = ViolationParams(h=HProfile.cutoff_sqrt(1e-2, 1e2))
        dense = _dense_route(build_psi(params, n_target=64))
        _emit({"quartet": dense.to_json(),
               "witness": canonical_witness(params).to_json(),
               "consistency": consistency_check(dense, tol=1e-2, relative=True).to_json()},
              str(ref))
        assert out.read_bytes() == ref.read_bytes()

    def test_gram_form_of_a_random_product_sum(self):
        rng = np.random.default_rng(7)
        ga = build_panels([-2.0, 0.5, 3.0], order=4, subdiv=5)
        gb = build_panels([-1.0, 1.0], order=5, subdiv=6)
        ps = ProductSum(rng.normal(size=3) + 1j * rng.normal(size=3),
                        rng.normal(size=(3, 40)) + 1j * rng.normal(size=(3, 40)),
                        rng.normal(size=(3, 30)) + 1j * rng.normal(size=(3, 30)))
        ra, rb = Region.of((-1.0, 0.2), (1.5, 2.5)), Region.half_line(0.3)
        wa, wb = ra.sign(ga.nodes) * ga.weights, rb.sign(gb.nodes) * gb.weights
        assert ps.signed_form(ga, gb, ra, rb) == pytest.approx(wa @ ps.density() @ wb,
                                                             rel=1e-12)
        assert ps.signed_form(ga, gb) == pytest.approx(ga.weights @ ps.density() @ gb.weights,
                                                       rel=1e-12)

    def test_rejects_a_massless_or_mismatched_product_sum(self):
        g = build_panels([-1.0, 1.0], order=4, subdiv=2)
        rows = np.ones((2, len(g)))
        with pytest.raises(InvalidInputError, match="non-positive"):
            Marginal2D(PlaneLabel.QQ, g, g, amplitude=ProductSum([1.0, -1.0], rows, rows))
        with pytest.raises(InvalidInputError, match="match"):
            Marginal2D(PlaneLabel.QQ, g, g, amplitude=ProductSum([1.0], rows[:1, 1:], rows[:1]))
        with pytest.raises(InvalidInputError):
            ProductSum([1.0, 2.0], rows[:1], rows[:1])
