import numpy as np
import pytest

from phaselab.errors import InvalidInputError
from phaselab.quad import (
    ComplexProfile,
    Grid1D,
    build_panels,
    fourier,
    fourier_matrix,
    integrate,
    integrate_values,
    symmetric_log_grid,
    transform_rows,
)


def profile(grid, fn):
    return ComplexProfile(grid, fn(grid.nodes).astype(complex))


class TestBuildPanels:
    def test_polynomial_exactness(self):
        g = build_panels([0.0, 1.0], order=2)
        assert integrate_values(g, g.nodes).real == pytest.approx(0.5, abs=1e-15)

    def test_exp_decay_half_line(self):
        g = build_panels([0.0, 1.0, 10.0, 50.0], order=20, subdiv=2)
        val = integrate_values(g, np.exp(-g.nodes)).real
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_two_point_nodes_are_legendre_roots(self):
        # roots of P2(x) = (3x^2 - 1)/2 from the quadratic formula
        root = np.sqrt(1.0 / 3.0)
        g = build_panels([-1.0, 1.0], order=2)
        assert np.allclose(np.sort(g.nodes), [-root, root], atol=1e-12)

    def test_constant_over_panel_returns_width(self):
        g = build_panels([2.0, 7.5], order=4, subdiv=3)
        assert integrate_values(g, np.ones(len(g))).real == pytest.approx(5.5, abs=1e-12)

    def test_log_grading_clusters_left(self):
        g = build_panels([0.0, 1.0], order=2, grading="log", subdiv=8)
        widths = np.diff(g.panel_edges)
        assert np.all(np.diff(widths) > 0)  # growing away from the left edge

    def test_rejects_bad_breakpoints(self):
        with pytest.raises(InvalidInputError):
            build_panels([1.0, 1.0, 2.0], order=4)
        with pytest.raises(InvalidInputError):
            build_panels([0.0, 1.0], order=1)

    def test_convergence_is_gauss_order(self):
        # order-2 composite rule: error ~ h^4, so halving panels gains ~16x
        exact = np.e - 1.0
        errs = []
        for subdiv in (2, 4):
            g = build_panels([0.0, 1.0], order=2, subdiv=subdiv)
            errs.append(abs(integrate_values(g, np.exp(g.nodes)).real - exact))
        assert errs[0] / errs[1] > 14.0


class TestGrid1D:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidInputError):
            Grid1D(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidInputError):
            Grid1D(np.array([0.0, 1.0]), np.array([1.0, -1.0]))

    def test_json_roundtrip(self):
        g = build_panels([0.0, 2.0], order=3, subdiv=2)
        g2 = Grid1D.from_json(g.to_json())
        assert g.same_as(g2)
        assert np.allclose(g.panel_edges, g2.panel_edges)

    def test_same_nodes_different_weights_differ(self):
        g = build_panels([0.0, 2.0], order=3, subdiv=2)
        heavier = Grid1D(g.nodes, g.weights * (1 + 1e-9))
        assert not g.same_as(heavier)
        assert not g.same_as(heavier, tol=1e-12)
        assert g.same_as(heavier, tol=1e-6)

    def test_from_json_names_missing_key(self):
        with pytest.raises(InvalidInputError, match="weights"):
            Grid1D.from_json({"nodes": [0.0, 1.0]})


class TestIntegrate:
    def test_zero(self):
        g = build_panels([0.0, 1.0], order=4)
        assert integrate(profile(g, np.zeros_like)) == 0

    def test_inverse_square_on_graded_grid(self):
        g = build_panels([0.0, 1.0, 1e6], order=12, grading="log", subdiv=24)
        val = integrate(profile(g, lambda q: 1.0 / (q + 1.0) ** 2)).real
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_norm(self):
        g = build_panels([-10.0, 10.0], order=10, subdiv=16)
        psi = profile(g, lambda q: np.pi ** -0.25 * np.exp(-q * q / 2))
        assert psi.norm_sq() == pytest.approx(1.0, abs=1e-10)


class TestFourier:
    def setup_method(self):
        self.q = build_panels([-12.0, 12.0], order=10, subdiv=20)
        self.p = build_panels([-12.0, 12.0], order=10, subdiv=20)

    def test_gaussian_self_reciprocal(self):
        psi = profile(self.q, lambda q: np.pi ** -0.25 * np.exp(-q * q / 2))
        ft = fourier(psi, self.p, sign=-1)
        exact = np.pi ** -0.25 * np.exp(-self.p.nodes ** 2 / 2)
        assert np.max(np.abs(ft.values - exact)) < 1e-8

    def test_shift_multiplies_by_phase(self):
        a = 0.8
        psi = profile(self.q, lambda q: np.pi ** -0.25 * np.exp(-q * q / 2))
        shifted = profile(self.q, lambda q: np.pi ** -0.25 * np.exp(-(q - a) ** 2 / 2))
        ft = fourier(psi, self.p, sign=-1)
        ft_shifted = fourier(shifted, self.p, sign=-1)
        expected = ft.values * np.exp(-1j * self.p.nodes * a)
        assert np.max(np.abs(ft_shifted.values - expected)) < 1e-8

    def test_parseval(self):
        rng = np.random.default_rng(7)
        c = rng.normal(size=3)
        psi = profile(self.q, lambda q: (c[0] + c[1] * q + c[2] * q * q) * np.exp(-q * q))
        ft = fourier(psi, self.p, sign=-1)
        assert ft.norm_sq() == pytest.approx(psi.norm_sq(), abs=1e-8)

    def test_forward_inverse_roundtrip(self):
        psi = profile(self.q, lambda q: np.exp(-q * q) * np.cos(2 * q))
        back = fourier(fourier(psi, self.p, -1), self.q, +1)
        assert np.max(np.abs(back.values - psi.values)) < 1e-7

    def test_frequency_independent_accuracy_on_log_grid(self):
        # the panel-moment transform stays exact-for-interpolant at any p
        g = symmetric_log_grid(1e-4, 1e4, panels_per_side=40, order=6)
        h = np.where(np.abs(g.nodes) >= 1e-4, np.abs(g.nodes) ** -0.5, 0.0)
        h = np.where(np.abs(g.nodes) <= 1e4, h, 0.0)
        psi = ComplexProfile(g, h / np.sqrt(np.sum(g.weights * h * h)) + 0j)
        # single high frequency far beyond naive quadrature reach
        p_probe = Grid1D(np.array([3e4]), np.array([1.0]))
        val = (fourier_matrix(g, p_probe, -1) @ psi.values)[0]
        # oracle: integration by parts bound; amplitude must be tiny, not O(1) junk
        assert abs(val) < 1e-3

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            Grid1D(np.array([]), np.array([]))


class TestTransformRows:
    def setup_method(self):
        self.q = build_panels([-8.0, 0.0, 8.0], order=6, subdiv=4)
        self.p = build_panels([-6.0, 0.0, 6.0], order=6, subdiv=4)
        rng = np.random.default_rng(3)
        self.rows = rng.normal(size=(2, len(self.q))) + 1j * rng.normal(size=(2, len(self.q)))

    def test_miss_equals_matrix_product(self):
        got = transform_rows(self.rows, self.q, 0.0, self.p)
        assert np.array_equal(got, self.rows @ fourier_matrix(self.q, self.p, -1).T)

    def test_carrier_is_a_frequency_shift(self):
        c = 0.7
        shifted = Grid1D(self.p.nodes - c, self.p.weights)
        got = transform_rows(self.rows, self.q, c, self.p)
        assert np.array_equal(got, self.rows @ fourier_matrix(self.q, shifted, -1).T)
        # and differs from the carrier-free transform
        assert not np.array_equal(got, transform_rows(self.rows, self.q, 0.0, self.p))
