import numpy as np
import pytest

from phaselab.bell import (
    BellWitness,
    GeneralWitness,
    Region,
    bell_sum,
    bell_terms,
    general_bell_bound_check,
    p_expectation_from_quartet,
)
from phaselab.errors import InvalidInputError
from phaselab.marginal import Marginal2D, QuartetProblem, counterexample_quartet
from phaselab.quad import ComplexProfile, build_panels
from phaselab.quantum import WaveFunction2
from phaselab.marginal import quantum_marginals


ALIGNED = counterexample_quartet(1, 1, -1, -1, 1, 1, -1, -1)
HALF = BellWitness.half_lines()


def random_gaussian_state(rng):
    g = build_panels([-24.0, 0.0, 24.0], order=6, subdiv=20)
    mus = rng.uniform(-2, 2, size=2)
    sigmas = rng.uniform(0.5, 2.0, size=2)
    boosts = rng.uniform(-2, 2, size=2)

    def prof(mu, s, b):
        vals = np.exp(-((g.nodes - mu) ** 2) / (2 * s * s)) * np.exp(1j * b * g.nodes)
        return ComplexProfile(g, vals).normalized()

    state = WaveFunction2.from_factors([1.0], [prof(mus[0], sigmas[0], boosts[0])],
                                       [prof(mus[1], sigmas[1], boosts[1])], g, g)
    return state


def random_interval_witness(rng):
    def region():
        a, b = np.sort(rng.uniform(-3, 3, size=2))
        return Region.of((a, b + 0.1))

    return BellWitness(region(), region(), region(), region())


class TestRegion:
    def test_indicator_closed_left_open_right(self):
        r = Region.of((0.0, 1.0), (2.0, np.inf))
        assert r.indicator([0.0, 0.5, 1.0, 2.0, 100.0]).tolist() == \
            [True, True, False, True, True]

    def test_complement(self):
        r = Region.of((0.0, 1.0))
        c = r.complement()
        x = np.array([-5.0, 0.5, 5.0])
        assert (c.indicator(x) == ~r.indicator(x)).all()

    def test_rejects_overlap(self):
        with pytest.raises(InvalidInputError):
            Region.of((0.0, 2.0), (1.0, 3.0))

    def test_json_roundtrip(self):
        r = Region.of((-np.inf, 0.0), (1.0, 2.0))
        assert Region.from_json(r.to_json()) == r


class TestCounterexampleViolation:
    def test_bell_sum_is_four(self):
        assert bell_sum(ALIGNED, HALF) == 4.0

    def test_each_term_contributes_one(self):
        terms = bell_terms(ALIGNED, HALF)
        assert all(v == 1.0 for v in terms.values())

    def test_p_expectation(self):
        assert p_expectation_from_quartet(ALIGNED, HALF) == -0.5

    def test_general_witness_flags_violation(self):
        gw = GeneralWitness.from_sign_witness(HALF)
        out = general_bell_bound_check(ALIGNED, gw)
        assert out["value"] == pytest.approx(4.0, abs=1e-12)
        assert not out["within"]


class TestQuantumQuartets:
    def test_factorized_states_respect_bounds(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            quartet = quantum_marginals(random_gaussian_state(rng))
            w = random_interval_witness(rng)
            b = bell_sum(quartet, w)
            assert -2.0 - 1e-7 <= b <= 2.0 + 1e-7
            p = p_expectation_from_quartet(quartet, w)
            assert -1e-7 <= p <= 1.0 + 1e-7

    def test_identity_links_sum_and_expectation(self):
        rng = np.random.default_rng(3)
        quartet = quantum_marginals(random_gaussian_state(rng))
        w = random_interval_witness(rng)
        b = bell_sum(quartet, w)
        p = p_expectation_from_quartet(quartet, w)
        assert b == pytest.approx(2.0 - 4.0 * p, abs=1e-12)


class TestWitnessAlgebra:
    def test_sign_flip_negates_first_axis_terms(self):
        w = HALF
        flipped = BellWitness(w.S1.complement(), w.S2, w.S1p, w.S2p)
        t0 = bell_terms(ALIGNED, w)
        t1 = bell_terms(ALIGNED, flipped)
        assert t1["R"] == pytest.approx(-t0["R"], abs=1e-12)
        assert t1["S"] == pytest.approx(-t0["S"], abs=1e-12)
        assert t1["T"] == pytest.approx(t0["T"], abs=1e-12)
        assert t1["U"] == pytest.approx(t0["U"], abs=1e-12)

    def test_affine_in_marginals(self):
        q1 = counterexample_quartet(1, 1, -1, -1, 1, 1, -1, -1)
        q2 = counterexample_quartet(0.5, 2, -2, -0.5, 1.5, 0.5, -0.7, -1.5)
        lam = 0.3

        def mix(a, b):
            atoms = np.vstack([
                np.column_stack([a.atoms[:, :2], lam * a.atoms[:, 2]]),
                np.column_stack([b.atoms[:, :2], (1 - lam) * b.atoms[:, 2]]),
            ])
            return Marginal2D.atomic(a.plane, atoms)

        mixed = QuartetProblem(mix(q1.R, q2.R), mix(q1.S, q2.S),
                               mix(q1.T, q2.T), mix(q1.U, q2.U))
        b_mixed = bell_sum(mixed, HALF)
        expected = lam * bell_sum(q1, HALF) + (1 - lam) * bell_sum(q2, HALF)
        assert b_mixed == pytest.approx(expected, abs=1e-12)


class TestGeneralWitness:
    def test_zero_witness(self):
        gw = GeneralWitness(lambda x, y: 0.0 * x * y, lambda x, y: 0.0 * x * y,
                            lambda x, y: 0.0 * x * y, lambda x, y: 0.0 * x * y,
                            A=0.0, B=0.0)
        out = general_bell_bound_check(ALIGNED, gw)
        assert out["value"] == 0.0
        assert out["within"]

    def test_wrapped_sign_witness_matches_bell_sum(self):
        rng = np.random.default_rng(11)
        quartet = quantum_marginals(random_gaussian_state(rng))
        w = random_interval_witness(rng)
        gw = GeneralWitness.from_sign_witness(w)
        out = general_bell_bound_check(quartet, gw)
        assert out["value"] == pytest.approx(bell_sum(quartet, w), abs=1e-10)

    def test_invalid_witness_rejected(self):
        gw = GeneralWitness(lambda x, y: 3.0 + 0.0 * x * y, lambda x, y: 0.0 * x * y,
                            lambda x, y: 0.0 * x * y, lambda x, y: 0.0 * x * y,
                            A=-2.0, B=2.0)
        with pytest.raises(InvalidInputError):
            general_bell_bound_check(ALIGNED, gw)


class TestCoverage:
    def test_endpoint_outside_span_rejected(self):
        rng = np.random.default_rng(9)
        quartet = quantum_marginals(random_gaussian_state(rng))
        w = BellWitness.half_lines(1e9, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidInputError):
            bell_sum(quartet, w)
