"""Exact two-qubit projection of the violation construction.

Restricting the projector pair to the span of the even/odd profile pair
turns the position projector into (1 + sigma_x)/2 and the momentum one
into (1 - gamma sigma_y)/2; at the ideal interference amplitude gamma=1
both are again projectors and the whole problem reduces to the standard
two-spin CHSH setting with its 2*sqrt(2) extremes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "gamma_matrices",
    "p_bar",
    "p_bar_pauli_form",
    "defect_operator",
    "psi_pm",
    "psi_pm_expectations",
    "identity_defects",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def _check_gamma(g: float):
    if not 0.0 <= g <= 1.0:
        raise InvalidInputError("gamma must lie in [0, 1]")


def gamma_matrices(gamma: float):
    """Restricted projector pair: ((1+sx)/2, (1+gamma*sy)/2).

    The sign of the sy term is pinned by the continuum interference term
    <f|chi'|g> = -i gamma/2 with gamma >= 0, which is the (0,1) entry of
    the second matrix.
    """
    _check_gamma(gamma)
    return 0.5 * (ID2 + SIGMA_X), 0.5 * (ID2 + gamma * SIGMA_Y)


def p_bar(gamma: float) -> np.ndarray:
    """Projector combination on the two-qubit space at interference gamma.

    G x 1 + 1 x G + G' x G' - G x G - G x G' - G' x G, Hermitian for all
    gamma and equal to the Pauli form at gamma = 1.
    """
    G, Gp = gamma_matrices(gamma)
    kron = np.kron
    return (kron(G, ID2) + kron(ID2, G) + kron(Gp, Gp)
            - kron(G, G) - kron(G, Gp) - kron(Gp, G))


def p_bar_pauli_form() -> np.ndarray:
    """1/2 + (sy sy - sx sx - sx sy - sy sx)/4, the gamma=1 operator."""
    kron = np.kron
    return (0.5 * np.eye(4, dtype=complex)
            + 0.25 * (kron(SIGMA_Y, SIGMA_Y) - kron(SIGMA_X, SIGMA_X)
                      - kron(SIGMA_X, SIGMA_Y) - kron(SIGMA_Y, SIGMA_X)))


def defect_operator(gamma: float = 1.0) -> np.ndarray:
    """P(1-P); equals -(1/4) sz x sz at gamma = 1."""
    P = p_bar(gamma)
    return P @ (np.eye(4, dtype=complex) - P)


def psi_pm(sign: int) -> np.ndarray:
    """(|++> +- e^{i pi/4} |-->)/sqrt(2) in the basis (++, +-, -+, --)."""
    if sign not in (+1, -1):
        raise InvalidInputError("sign must be +1 or -1")
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    v[3] = sign * np.exp(1j * math.pi / 4.0)
    return v / math.sqrt(2.0)


def psi_pm_expectations(sign: int) -> dict:
    """Expectations of the gamma=1 operator and its defect on the extremal
    states: (1 -+ sqrt(2))/2 and -1/4."""
    v = psi_pm(sign)
    P = p_bar(1.0)
    D = defect_operator(1.0)
    return {
        "p_bar_value": float(np.real(np.conj(v) @ (P @ v))),
        "defect_value": float(np.real(np.conj(v) @ (D @ v))),
    }


def identity_defects() -> dict:
    """Defects of the six gamma=1 identities: the Pauli form of P, the
    defect operator -(1/4) sz x sz, and the expectations of P and of its
    defect on the two extremal states."""
    plus = psi_pm_expectations(+1)
    minus = psi_pm_expectations(-1)
    return {
        "pauli_form_defect": float(np.max(np.abs(p_bar(1.0) - p_bar_pauli_form()))),
        "defect_operator_defect": float(np.max(np.abs(
            defect_operator(1.0) + 0.25 * np.kron(SIGMA_Z, SIGMA_Z)))),
        "plus_expectation_error": abs(plus["p_bar_value"] - (1 - math.sqrt(2)) / 2),
        "minus_expectation_error": abs(minus["p_bar_value"] - (1 + math.sqrt(2)) / 2),
        "plus_defect_error": abs(plus["defect_value"] + 0.25),
        "minus_defect_error": abs(minus["defect_value"] + 0.25),
    }
