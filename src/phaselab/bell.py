"""Regions, sign-function witnesses, and the Bell functional over a quartet.

The witness assigns each plane the product of two axis sign functions
(the last one negated); for any quartet that comes from a nonnegative
joint density the integrated sum lies in [-2, 2].  Atom-on-boundary
convention: regions are closed on the left, open on the right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, json_value, require_keys
from .marginal import Marginal2D, QuartetProblem

__all__ = [
    "Region",
    "BellWitness",
    "GeneralWitness",
    "bell_sum",
    "bell_terms",
    "p_expectation_from_quartet",
    "general_bell_bound_check",
]

INF = math.inf


@dataclass(frozen=True)
class Region:
    """Finite union of disjoint intervals over the extended reals."""

    intervals: tuple

    def __post_init__(self):
        iv = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", iv)
        for lo, hi in iv:
            if not lo < hi:
                raise InvalidInputError("interval endpoints must satisfy lo < hi")
        for (_, hi), (lo, _) in zip(iv[:-1], iv[1:]):
            if lo < hi:
                raise InvalidInputError("intervals must be sorted and disjoint")

    @classmethod
    def of(cls, *intervals) -> "Region":
        return cls(tuple(intervals))

    @classmethod
    def half_line(cls, a: float = 0.0) -> "Region":
        return cls(((a, INF),))

    def indicator(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            out |= (x >= lo) & (x < hi)
        return out

    def sign(self, x) -> np.ndarray:
        """2*chi - 1 on the nodes."""
        return np.where(self.indicator(x), 1.0, -1.0)

    def complement(self) -> "Region":
        cuts = [-INF]
        for lo, hi in self.intervals:
            cuts.extend((lo, hi))
        cuts.append(INF)
        pieces = [(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if a < b]
        return Region(tuple(pieces))

    def finite_endpoints(self):
        return [e for iv in self.intervals for e in iv if math.isfinite(e)]

    def to_json(self) -> list:
        return [[None if not math.isfinite(lo) else lo,
                 None if not math.isfinite(hi) else hi]
                for lo, hi in self.intervals]

    @classmethod
    def from_json(cls, obj) -> "Region":
        return cls(tuple((-INF if lo is None else lo, INF if hi is None else hi)
                         for lo, hi in obj))


@dataclass(frozen=True)
class BellWitness:
    """The four sign-defining regions S1, S2, S1', S2'."""

    S1: Region
    S2: Region
    S1p: Region
    S2p: Region

    @classmethod
    def half_lines(cls, a1=0.0, a2=0.0, a1p=0.0, a2p=0.0) -> "BellWitness":
        return cls(Region.half_line(a1), Region.half_line(a2),
                   Region.half_line(a1p), Region.half_line(a2p))

    def to_json(self) -> dict:
        return {"S1": self.S1.to_json(), "S2": self.S2.to_json(),
                "S1p": self.S1p.to_json(), "S2p": self.S2p.to_json()}

    @classmethod
    def from_json(cls, obj) -> "BellWitness":
        keys = ("S1", "S2", "S1p", "S2p")
        require_keys(obj, keys, "witness")
        regions = {}
        for k in keys:
            with json_value("witness", k):
                regions[k] = Region.from_json(obj[k])
        return cls(**regions)


def _plane_term(m: Marginal2D, reg_a: Region, reg_b: Region, negate: bool) -> float:
    if m.is_gridded:
        val = m.integrate(reg_a.sign(m.grid1.nodes) * m.grid1.weights,
                          reg_b.sign(m.grid2.nodes) * m.grid2.weights)
    else:
        sa = reg_a.sign(m.atoms[:, 0])
        sb = reg_b.sign(m.atoms[:, 1])
        val = float(np.sum(m.atoms[:, 2] * sa * sb))
    return -val if negate else val


def _check_coverage(quartet: QuartetProblem, w: BellWitness):
    axes = {
        "q1": ([w.S1], [(quartet.R, 1), (quartet.S, 1)]),
        "q2": ([w.S2], [(quartet.R, 2), (quartet.T, 2)]),
        "p1": ([w.S1p], [(quartet.T, 1), (quartet.U, 1)]),
        "p2": ([w.S2p], [(quartet.S, 2), (quartet.U, 2)]),
    }
    for name, (regions, places) in axes.items():
        endpoints = [e for r in regions for e in r.finite_endpoints()]
        if not endpoints:
            continue
        for m, axis in places:
            if m.is_gridded:
                grid = m.grid1 if axis == 1 else m.grid2
                lo, hi = grid.span
                if grid.panel_edges is not None:
                    lo, hi = grid.panel_edges[0], grid.panel_edges[-1]
            else:
                col = m.atoms[:, 0] if axis == 1 else m.atoms[:, 1]
                lo, hi = col.min() - 1.0, col.max() + 1.0
            for e in endpoints:
                if not (lo <= e <= hi):
                    raise InvalidInputError(
                        f"witness endpoint {e} on axis {name} lies outside the marginal span")


def bell_terms(quartet: QuartetProblem, w: BellWitness) -> dict:
    """The four signed integrals, keyed by marginal."""
    _check_coverage(quartet, w)
    return {
        "R": _plane_term(quartet.R, w.S1, w.S2, negate=False),
        "S": _plane_term(quartet.S, w.S1, w.S2p, negate=False),
        "T": _plane_term(quartet.T, w.S1p, w.S2, negate=False),
        "U": _plane_term(quartet.U, w.S1p, w.S2p, negate=True),
    }


def bell_sum(quartet: QuartetProblem, w: BellWitness) -> float:
    """Integrated witness value; in [-2, 2] whenever a joint density exists."""
    return float(sum(bell_terms(quartet, w).values()))


def p_expectation_from_quartet(quartet: QuartetProblem, w: BellWitness) -> float:
    """(2 - bell_sum)/4; equals the quantum expectation when the quartet
    comes from a wave function and the witness matches its projectors."""
    return (2.0 - bell_sum(quartet, w)) / 4.0


@dataclass(frozen=True)
class GeneralWitness:
    """Arbitrary bounded witness functions r, s, t, u with pointwise bounds."""

    r: Callable
    s: Callable
    t: Callable
    u: Callable
    A: float
    B: float

    @classmethod
    def from_sign_witness(cls, w: BellWitness) -> "GeneralWitness":
        # witness functions broadcast elementwise; callers shape the axes
        return cls(
            r=lambda x, y: w.S1.sign(x) * w.S2.sign(y),
            s=lambda x, y: w.S1.sign(x) * w.S2p.sign(y),
            t=lambda x, y: w.S1p.sign(x) * w.S2.sign(y),
            u=lambda x, y: -(w.S1p.sign(x) * w.S2p.sign(y)),
            A=-2.0,
            B=2.0,
        )


def _axis_samples(quartet: QuartetProblem, n: int):
    def span(m: Marginal2D, axis: int):
        if m.is_gridded:
            g = m.grid1 if axis == 1 else m.grid2
            return g.span
        col = m.atoms[:, 0] if axis == 1 else m.atoms[:, 1]
        pad = max(1.0, 0.5 * (col.max() - col.min()))
        return col.min() - pad, col.max() + pad

    q1 = np.linspace(*span(quartet.R, 1), n)
    q2 = np.linspace(*span(quartet.R, 2), n)
    p1 = np.linspace(*span(quartet.U, 1), n)
    p2 = np.linspace(*span(quartet.U, 2), n)
    return q1, q2, p1, p2


def _witness_range_on_lattice(gw: GeneralWitness, axes):
    """Extrema of r+s+t+u over the lattice.

    The sum has no three-way couplings: fixing (q1, p1) decouples the q2
    and p2 minimizations, so the scan is O(n^3) instead of n^4.
    """
    q1, q2, p1, p2 = axes
    r = np.asarray(gw.r(q1[:, None], q2[None, :]), dtype=float)
    s = np.asarray(gw.s(q1[:, None], p2[None, :]), dtype=float)
    t = np.asarray(gw.t(p1[:, None], q2[None, :]), dtype=float)
    u = np.asarray(gw.u(p1[:, None], p2[None, :]), dtype=float)
    rt = r[:, None, :] + t[None, :, :]          # (q1, p1, q2)
    su = s[:, None, :] + u[None, :, :]          # (q1, p1, p2)
    low = (rt.min(axis=2) + su.min(axis=2)).min()
    high = (rt.max(axis=2) + su.max(axis=2)).max()
    return float(low), float(high)


def general_bell_bound_check(
    quartet: QuartetProblem,
    gw: GeneralWitness,
    lattice_n: int = 64,
    bound_slack: float = 1e-9,
) -> dict:
    """Evaluate the general witness functional and test it against [A, B].

    The witness's own pointwise bound is spot-checked on a sampling
    lattice first; a witness that violates it is rejected.
    """
    axes = _axis_samples(quartet, lattice_n)
    low, high = _witness_range_on_lattice(gw, axes)
    if low < gw.A - bound_slack or high > gw.B + bound_slack:
        raise InvalidInputError(
            f"witness violates its own bounds on the lattice: range [{low}, {high}] "
            f"not within [{gw.A}, {gw.B}]")

    def term(m: Marginal2D, fn):
        if m.is_gridded:
            vals = np.asarray(fn(m.grid1.nodes[:, None], m.grid2.nodes[None, :]),
                              dtype=float)
            return float(m.grid1.weights @ (vals * m.values) @ m.grid2.weights)
        return float(np.sum(m.atoms[:, 2] * fn(m.atoms[:, 0], m.atoms[:, 1])))

    value = (term(quartet.R, gw.r) + term(quartet.S, gw.s)
             + term(quartet.T, gw.t) + term(quartet.U, gw.u))
    within = gw.A - bound_slack <= value <= gw.B + bound_slack
    return {"value": value, "within": bool(within)}
