import numpy as np
import pytest

import phaselab
from phaselab import _kernels


def random_inputs(n=9, seed=0):
    rng = np.random.default_rng(seed)
    s0 = rng.uniform(0.0, 2.0, size=(n, n))
    s1 = rng.uniform(0.0, 2.0, size=(n, n))
    s2 = rng.uniform(0.0, 2.0, size=(n, n))
    m0 = rng.uniform(size=(n, n)) > 0.2
    m1 = rng.uniform(size=(n, n)) > 0.2
    m2 = rng.uniform(size=(n, n)) > 0.2
    inv01 = rng.uniform(0.5, 1.5, size=n)
    inv12 = rng.uniform(0.5, 1.5, size=n)
    weights = [rng.uniform(0.1, 1.0, size=n) for _ in range(4)]
    return s0, s1, s2, inv01, inv12, m0, m1, m2, weights


class TestKernelReference:
    """Each kernel against a literal loop or an unoptimised einsum."""

    def test_rho0_dense(self):
        s0, s1, s2, inv01, inv12, m0, m1, m2, _ = random_inputs()
        got = _kernels.rho0_dense(s0, s1, s2, inv01, inv12, m0, m1, m2)
        n = s0.shape[0]
        ref = np.empty((n, n, n, n))
        for i, j, k, l in np.ndindex(ref.shape):
            ref[i, j, k, l] = (s0[i, j] * m0[i, j] * s1[k, j] * m1[k, j] * inv01[j]
                               * s2[k, l] * m2[k, l] * inv12[k])
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_chain_marginals(self):
        s0, s1, s2, inv01, inv12, m0, m1, m2, w = random_inputs(seed=1)
        rho = _kernels.rho0_dense(s0, s1, s2, inv01, inv12, m0, m1, m2)
        w1, w2, w3, w4 = w
        ref = (np.einsum("ijkl,k,l->ij", rho, w3, w4, optimize=False),
               np.einsum("ijkl,i,l->kj", rho, w1, w4, optimize=False),
               np.einsum("ijkl,i,j->kl", rho, w1, w2, optimize=False))
        for x, y in zip(_kernels.chain_marginals(rho, *w), ref):
            assert np.max(np.abs(x - y)) < 1e-13

    def test_delta_combine(self):
        rng = np.random.default_rng(2)
        n = 8
        F = rng.normal(size=(n, n, n, n))
        rho = rng.uniform(0.1, 1.0, size=(n, n, n, n))
        b0 = rng.normal(size=(n, n))
        b1 = rng.normal(size=(n, n))
        b2 = rng.normal(size=(n, n))
        c01 = rng.normal(size=n)
        c12 = rng.normal(size=n)
        got = _kernels.delta_combine(F, rho, b0, b1, b2, c01, c12)
        ref = np.empty_like(F)
        for i, j, k, l in np.ndindex(F.shape):
            bracket = b0[i, j] + b1[k, j] + b2[k, l] - c01[j] - c12[k]
            ref[i, j, k, l] = F[i, j, k, l] - rho[i, j, k, l] * bracket
        assert np.max(np.abs(got - ref)) < 1e-13

    def test_ratio_extrema(self):
        rng = np.random.default_rng(3)
        n = 8
        rho = rng.uniform(0.0, 1.0, size=(n, n, n, n))
        rho[rho < 0.3] = 0.0
        delta = rng.normal(size=(n, n, n, n)) * (rho > 0)
        m_plus = m_minus = -np.inf
        off_leak = 0.0
        for idx in np.ndindex(rho.shape):
            if rho[idx] > 0.0:
                q = delta[idx] / rho[idx]
                m_plus, m_minus = max(m_plus, q), max(m_minus, -q)
            else:
                off_leak = max(off_leak, abs(delta[idx]))
        got = _kernels.ratio_extrema(delta, rho)
        assert got[0] == pytest.approx(m_plus, abs=1e-13)
        assert got[1] == pytest.approx(m_minus, abs=1e-13)
        assert got[2] == pytest.approx(off_leak, abs=1e-13)


class TestBackend:
    def test_backend_reported(self):
        assert phaselab.BACKEND == "numpy"
