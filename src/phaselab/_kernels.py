"""Hot 4-D kernels of the reconstruction, in numpy.

The reconstruction work touches N^4 cells (16.7M at N=64), and these four
functions are the only places it does.  Everything else in the package
works on 1-D or 2-D arrays.
"""

import numpy as np

BACKEND = "numpy"


def rho0_dense(s0, s1, s2, inv01, inv12, m0, m1, m2):
    """rho[i,j,k,l] = s0[i,j] s1[k,j] s2[k,l] inv01[j] inv12[k] on the mask."""
    a = (s0 * m0)[:, :, None, None]                      # (i, j, 1, 1)
    b = (s1 * m1).T[None, :, :, None] * inv01[None, :, None, None]  # (1, j, k, 1)
    c = (s2 * m2)[None, None, :, :] * inv12[None, None, :, None]    # (1, 1, k, l)
    return a * b * c


def chain_marginals(rho, w1, w2, w3, w4):
    out0 = np.einsum("ijkl,k,l->ij", rho, w3, w4, optimize=True)
    out1 = np.einsum("ijkl,i,l->kj", rho, w1, w4, optimize=True)
    out2 = np.einsum("ijkl,i,j->kl", rho, w1, w2, optimize=True)
    return out0, out1, out2


def delta_combine(F, rho, b0, b1, b2, c01, c12):
    """delta = F - rho * (b0[i,j] + b1[k,j] + b2[k,l] - c01[j] - c12[k])."""
    bracket = (b0 - c01[None, :])[:, :, None, None]
    bracket = bracket + (b1.T - c12[None, :])[None, :, :, None]
    bracket = bracket + b2[None, None, :, :]
    return F - rho * bracket


def ratio_extrema(delta, rho):
    on = rho > 0.0
    ratios = delta[on] / rho[on]
    m_plus = float(ratios.max()) if ratios.size else 0.0
    m_minus = float(-ratios.min()) if ratios.size else 0.0
    off_leak = float(np.abs(delta[~on]).max()) if (~on).any() else 0.0
    return m_plus, m_minus, off_leak
