"""Two-variable marginal distributions on the four phase-space planes.

A marginal is either a gridded density on a pair of quadrature grids,
held dense or as a product-sum amplitude, or a finite atomic mixture.
The four planes are labeled by which of position and momentum each axis
carries: QQ = (q1, q2), QP = (q1, p2), PQ = (p1, q2), PP = (p1, p2).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import InvalidInputError, json_value, require_keys
from .quad import ComplexProfile, Grid1D

if TYPE_CHECKING:
    from .quantum import WaveFunction2

__all__ = [
    "PlaneLabel",
    "ProductSum",
    "Marginal2D",
    "QuartetProblem",
    "TripletProblem",
    "ConsistencyReport",
    "consistency_check",
    "one_var_marginal",
    "quantum_marginals",
    "counterexample_quartet",
]

GRIDDED_MASS_TOL = 1e-8
STATE_NORM_TOL = 1e-6
ATOMIC_MASS_TOL = 1e-12


class PlaneLabel(Enum):
    QQ = ("q1", "q2")
    QP = ("q1", "p2")
    PQ = ("p1", "q2")
    PP = ("p1", "p2")

    @property
    def axis_vars(self):
        return self.value


@dataclass(frozen=True)
class ProductSum:
    """Product-sum amplitude ``sum_k coef[k] * u[k](x) * v[k](y)`` on the
    nodes of two axis grids, kept as its coefficients (K,) and its axis-1
    rows u (K, N1) and axis-2 rows v (K, N2).

    :meth:`density` is the one place the N1 x N2 density
    ``|sum_k c_k u_k (x) v_k|^2`` is formed; :meth:`form` integrates it
    against separable node weights without forming it.
    """

    coef: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        coef, u, v = np.asarray(self.coef), np.asarray(self.u), np.asarray(self.v)
        if coef.ndim != 1 or u.ndim != 2 or v.ndim != 2 or not (
                coef.shape[0] == u.shape[0] == v.shape[0] > 0):
            raise InvalidInputError("product sum needs coef (K,), u (K, N1), v (K, N2)")
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def from_terms(cls, terms) -> "ProductSum":
        """Position-space amplitude of terms with ``coefficient``,
        ``factor1`` and ``factor2`` (profiles on shared per-axis grids)."""
        return cls(np.array([t.coefficient for t in terms]),
                   np.stack([t.factor1.values for t in terms]),
                   np.stack([t.factor2.values for t in terms]))

    def density(self) -> np.ndarray:
        amp = np.einsum("k,ki,kj->ij", self.coef, self.u, self.v, optimize=True)
        return np.abs(amp) ** 2

    def form(self, wa, wb) -> float:
        """``wa @ density() @ wb`` as the K x K quadratic form
        ``c^H (A o B) c`` with Gram matrices ``A = conj(u) diag(wa) u^T``
        and ``B = conj(v) diag(wb) v^T``: O(K^2 (N1 + N2)) work."""
        gram_a = (self.u.conj() * wa) @ self.u.T
        gram_b = (self.v.conj() * wb) @ self.v.T
        return float((self.coef.conj() @ (gram_a * gram_b) @ self.coef).real)


class Marginal2D:
    """Probability distribution on one phase-space plane.

    Exactly one of ``values`` (a dense density on the two axis grids),
    ``amplitude`` (a :class:`ProductSum` whose squared modulus, normalized
    onto the grids, is the density) or ``atoms`` (rows ``(x, y, weight)``)
    is given.  A product-sum plane stays in that form until ``values`` is
    read: the dense density is formed and checked then, once, and cached.
    :meth:`integrate` and :meth:`mass` use the product-sum form whenever
    it is present, so they never form the dense plane.
    """

    def __init__(self, plane: PlaneLabel, grid1: Optional[Grid1D] = None,
                 grid2: Optional[Grid1D] = None, values=None, atoms=None,
                 amplitude: Optional[ProductSum] = None):
        if sum(x is not None for x in (values, atoms, amplitude)) != 1:
            raise InvalidInputError("marginal must be dense, product-sum or atomic")
        for name, val in (("plane", plane), ("grid1", grid1), ("grid2", grid2),
                          ("atoms", atoms), ("amplitude", amplitude),
                          ("_values", None), ("_raw_mass", None)):
            object.__setattr__(self, name, val)
        if atoms is not None:
            atoms = np.asarray(atoms, dtype=float)
            object.__setattr__(self, "atoms", atoms)
            if atoms.ndim != 2 or atoms.shape[1] != 3 or atoms.shape[0] == 0:
                raise InvalidInputError("atoms must be a nonempty (n, 3) array")
            if atoms[:, 2].min() <= 0:
                raise InvalidInputError("atom weights must be positive")
            if abs(atoms[:, 2].sum() - 1.0) > ATOMIC_MASS_TOL:
                raise InvalidInputError("atomic weights must sum to 1")
            return
        if grid1 is None or grid2 is None:
            raise InvalidInputError("gridded marginal needs both axis grids")
        if amplitude is not None:
            if (amplitude.u.shape[1], amplitude.v.shape[1]) != (len(grid1), len(grid2)):
                raise InvalidInputError("product-sum rows must match the axis grids")
            raw_mass = amplitude.form(grid1.weights, grid2.weights)
            if not raw_mass > 0:
                raise InvalidInputError(f"product-sum plane has non-positive mass {raw_mass!r}")
            object.__setattr__(self, "_raw_mass", raw_mass)
        else:
            object.__setattr__(self, "_values", self._checked(values))

    def __setattr__(self, name, value):
        raise AttributeError("Marginal2D is immutable")

    def __repr__(self):
        kind = ("atomic" if self.atoms is not None else
                "product-sum" if self.amplitude is not None else "dense")
        return f"Marginal2D({self.plane.name}, {kind})"

    def _checked(self, values) -> np.ndarray:
        vals = np.asarray(values, dtype=float)
        if vals.shape != (len(self.grid1), len(self.grid2)):
            raise InvalidInputError("values shape must match the axis grids")
        if vals.min() < -1e-12:
            raise InvalidInputError("density values must be nonnegative")
        m = float(self.grid1.weights @ vals @ self.grid2.weights)
        if abs(m - 1.0) > GRIDDED_MASS_TOL:
            raise InvalidInputError(
                f"gridded marginal mass {m!r} deviates from 1 beyond {GRIDDED_MASS_TOL}")
        return vals

    @property
    def values(self) -> Optional[np.ndarray]:
        """Dense density on the grids; formed on first read for a
        product-sum plane (normalized by its dense quadrature mass)."""
        if self._values is None and self.amplitude is not None:
            dens = self.amplitude.density()
            dens = dens / float(self.grid1.weights @ dens @ self.grid2.weights)
            object.__setattr__(self, "_values", self._checked(dens))
        return self._values

    @property
    def is_gridded(self) -> bool:
        return self.atoms is None

    def integrate(self, w1, w2) -> float:
        """``w1 @ density @ w2`` for node weights w1, w2 of a gridded plane
        (include the quadrature weights in them)."""
        if self.amplitude is not None:
            return self.amplitude.form(w1, w2) / self._raw_mass
        return float(w1 @ self.values @ w2)

    def mass(self) -> float:
        if self.is_gridded:
            return self.integrate(self.grid1.weights, self.grid2.weights)
        return float(self.atoms[:, 2].sum())

    @classmethod
    def gridded(cls, plane, grid1, grid2, values, normalize=False):
        values = np.asarray(values, dtype=float)
        if normalize:
            m = float(grid1.weights @ values @ grid2.weights)
            if m <= 0:
                raise InvalidInputError("cannot normalize a non-positive density")
            values = values / m
        return cls(plane, grid1, grid2, values, None)

    @classmethod
    def atomic(cls, plane, atoms):
        return cls(plane, None, None, None, np.asarray(atoms, dtype=float))

    def contract(self, axis: int):
        """Integrate out one axis; returns (kept_grid, 1-D values) or atoms."""
        if axis not in (1, 2):
            raise InvalidInputError("axis must be 1 or 2")
        if self.is_gridded:
            if axis == 1:
                return self.grid2, self.grid1.weights @ self.values
            return self.grid1, self.values @ self.grid2.weights
        kept = self.atoms[:, 1] if axis == 1 else self.atoms[:, 0]
        return None, np.column_stack([kept, self.atoms[:, 2]])

    def to_json(self) -> dict:
        if self.is_gridded:
            return {
                "plane": self.plane.name,
                "grid1": self.grid1.to_json(),
                "grid2": self.grid2.to_json(),
                "values": self.values.tolist(),
            }
        return {
            "plane": self.plane.name,
            "atoms": [{"x": float(x), "y": float(y), "w": float(w)}
                      for x, y, w in self.atoms],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Marginal2D":
        require_keys(obj, ("plane",), "marginal")
        try:
            plane = PlaneLabel[obj["plane"]]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"bad marginal JSON: {exc}") from exc
        if "atoms" in obj:
            with json_value("marginal", "atoms"):
                for a in obj["atoms"]:
                    require_keys(a, ("x", "y", "w"), "atom")
                atoms = np.array([[a["x"], a["y"], a["w"]] for a in obj["atoms"]], dtype=float)
            return cls.atomic(plane, atoms)
        require_keys(obj, ("grid1", "grid2", "values"), "gridded marginal")
        with json_value("marginal", "values"):
            values = np.asarray(obj["values"], dtype=float)
        return cls(plane, Grid1D.from_json(obj["grid1"]), Grid1D.from_json(obj["grid2"]),
                   values, None)


def _require_plane(m: Marginal2D, plane: PlaneLabel, name: str):
    if m.plane is not plane:
        raise InvalidInputError(f"{name} must live on the {plane.name} plane, got {m.plane.name}")


@dataclass(frozen=True)
class QuartetProblem:
    """The four compatible two-variable distributions R, S, T, U."""

    R: Marginal2D
    S: Marginal2D
    T: Marginal2D
    U: Marginal2D

    def __post_init__(self):
        _require_plane(self.R, PlaneLabel.QQ, "R")
        _require_plane(self.S, PlaneLabel.QP, "S")
        _require_plane(self.T, PlaneLabel.PQ, "T")
        _require_plane(self.U, PlaneLabel.PP, "U")

    def to_json(self) -> dict:
        return {k: getattr(self, k).to_json() for k in ("R", "S", "T", "U")}

    @classmethod
    def from_json(cls, obj: dict) -> "QuartetProblem":
        keys = ("R", "S", "T", "U")
        require_keys(obj, keys, "quartet")
        return cls(**{k: Marginal2D.from_json(obj[k]) for k in keys})


@dataclass(frozen=True)
class TripletProblem:
    """Chain choice of three marginals: sigma0(q1,q2), sigma1(p1,q2), sigma2(p1,p2)."""

    sigma0: Marginal2D
    sigma1: Marginal2D
    sigma2: Marginal2D

    def __post_init__(self):
        _require_plane(self.sigma0, PlaneLabel.QQ, "sigma0")
        _require_plane(self.sigma1, PlaneLabel.PQ, "sigma1")
        _require_plane(self.sigma2, PlaneLabel.PP, "sigma2")
        for m, name in ((self.sigma0, "sigma0"), (self.sigma1, "sigma1"),
                        (self.sigma2, "sigma2")):
            if not m.is_gridded:
                raise InvalidInputError(f"{name}: triplet marginals must be gridded")
        if not self.sigma0.grid2.same_as(self.sigma1.grid2):
            raise InvalidInputError("sigma0 and sigma1 must share the q2 grid")
        if not self.sigma1.grid1.same_as(self.sigma2.grid1):
            raise InvalidInputError("sigma1 and sigma2 must share the p1 grid")

    def chain_defects(self):
        """Sup-norm defects of the two chain compatibility equalities."""
        _, a = self.sigma0.contract(1)
        _, b = self.sigma1.contract(1)
        _, c = self.sigma1.contract(2)
        _, d = self.sigma2.contract(2)
        return float(np.max(np.abs(a - b))), float(np.max(np.abs(c - d)))

    def to_json(self) -> dict:
        return {k: getattr(self, k).to_json() for k in ("sigma0", "sigma1", "sigma2")}

    @classmethod
    def from_json(cls, obj: dict) -> "TripletProblem":
        keys = ("sigma0", "sigma1", "sigma2")
        require_keys(obj, keys, "triplet")
        return cls(**{k: Marginal2D.from_json(obj[k]) for k in keys})

    @classmethod
    def from_quartet(cls, quartet: QuartetProblem) -> "TripletProblem":
        return cls(quartet.R, quartet.T, quartet.U)


@dataclass(frozen=True)
class ConsistencyReport:
    max_defect: float
    passed: bool
    defects: dict

    def to_json(self) -> dict:
        return {"max_defect": self.max_defect, "pass": self.passed,
                "defects": self.defects}


def _atoms_1d(rows: np.ndarray, merge_tol: float = 0.0) -> list:
    """Collapse weighted points on a line into (location, weight) pairs."""
    order = np.argsort(rows[:, 0], kind="stable")
    rows = rows[order]
    out = []
    for x, w in rows:
        if out and abs(x - out[-1][0]) <= merge_tol:
            out[-1][1] += w
        else:
            out.append([x, w])
    return out


def _atom_defect(a: list, b: list, merge_tol: float) -> float:
    locs = sorted({x for x, _ in a} | {x for x, _ in b})
    merged = []
    for x in locs:
        if merged and abs(x - merged[-1]) <= merge_tol:
            continue
        merged.append(x)

    def weight_at(atoms, x0):
        return sum(w for x, w in atoms if abs(x - x0) <= merge_tol)

    return max(abs(weight_at(a, x) - weight_at(b, x)) for x in merged)


def _pair_defect(ma: Marginal2D, axis_a: int, mb: Marginal2D, axis_b: int,
                 merge_tol: float):
    """(sup defect, sup scale) between two contractions that must agree."""
    if ma.is_gridded != mb.is_gridded:
        raise InvalidInputError("cannot compare gridded with atomic marginals")
    if ma.is_gridded:
        grid_a, va = ma.contract(axis_a)
        grid_b, vb = mb.contract(axis_b)
        if not grid_a.same_as(grid_b):
            raise InvalidInputError("marginals do not share the required axis grid")
        return float(np.max(np.abs(va - vb))), float(max(np.max(np.abs(va)),
                                                         np.max(np.abs(vb)), 1e-300))
    _, ra = ma.contract(axis_a)
    _, rb = mb.contract(axis_b)
    aa, bb = _atoms_1d(ra, merge_tol), _atoms_1d(rb, merge_tol)
    scale = max(max(w for _, w in aa), max(w for _, w in bb))
    return _atom_defect(aa, bb, merge_tol), scale


def consistency_check(quartet: QuartetProblem, tol: float = 1e-6,
                      merge_tol: float = 1e-9,
                      relative: bool = False) -> ConsistencyReport:
    """Verify the four one-variable compatibility equalities.

    Integrating R over q2 must match S over p2 (both functions of q1),
    and so on around the four planes.  Defects are sup norms;
    ``relative=True`` divides each by the sup of the functions compared,
    which is the meaningful scale for strongly peaked densities.
    """
    pairs = {
        "q1: R vs S": _pair_defect(quartet.R, 2, quartet.S, 2, merge_tol),
        "q2: R vs T": _pair_defect(quartet.R, 1, quartet.T, 1, merge_tol),
        "p2: S vs U": _pair_defect(quartet.S, 1, quartet.U, 1, merge_tol),
        "p1: T vs U": _pair_defect(quartet.T, 2, quartet.U, 2, merge_tol),
    }
    defects = {k: float(d / s if relative else d) for k, (d, s) in pairs.items()}
    worst = max(defects.values())
    return ConsistencyReport(worst, bool(worst <= tol), defects)


def one_var_marginal(m: Marginal2D, axis: int) -> ComplexProfile:
    """Integrate out one axis of a gridded marginal; mass is preserved."""
    if not m.is_gridded:
        raise InvalidInputError("one_var_marginal needs a gridded marginal")
    grid, vals = m.contract(axis)
    return ComplexProfile(grid, vals.astype(complex))


def quantum_marginals(psi: "WaveFunction2") -> QuartetProblem:
    """The four position/momentum marginals of a pure product-sum state.

    R is the position density |psi|^2; S, T, U replace one or both axes
    by the partial Fourier transform, applied factor by factor.  Each
    plane is returned in product-sum form (a :class:`ProductSum` of the
    term coefficients and the position or transformed factor rows) and is
    normalized onto its grids, so the raw quadrature masses (and the
    transform-mass defect they carry) are divided away and not returned.
    No N1 x N2 density is formed until a caller reads a plane's
    ``values``; the Bell functional and the masses work on the factor
    rows directly.  The rows and their transforms come from the state's
    axes (:attr:`~phaselab.quantum.WaveFunction2.axes`), which states
    built by :func:`~phaselab.quantum.build_psi` share across lambda, so
    a (rho, theta) scan transforms its factors once.
    """
    nrm = psi.norm_sq()
    if abs(nrm - 1.0) > STATE_NORM_TOL:
        raise InvalidInputError(
            f"state norm^2 = {nrm!r} deviates from 1 beyond {STATE_NORM_TOL}")

    ax1, ax2 = psi.axes
    g1, g2, p1, p2 = ax1.grid, ax2.grid, ax1.p_grid, ax2.p_grid
    c = np.array([t.coefficient for t in psi.terms])
    a, b, at, bt = ax1.rows, ax2.rows, ax1.p_rows, ax2.p_rows
    return QuartetProblem(
        Marginal2D(PlaneLabel.QQ, g1, g2, amplitude=ProductSum(c, a, b)),
        Marginal2D(PlaneLabel.QP, g1, p2, amplitude=ProductSum(c, a, bt)),
        Marginal2D(PlaneLabel.PQ, p1, g2, amplitude=ProductSum(c, at, b)),
        Marginal2D(PlaneLabel.PP, p1, p2, amplitude=ProductSum(c, at, bt)),
    )


def counterexample_quartet(a1, a2, a1p, a2p, b1, b2, b1p, b2p) -> QuartetProblem:
    """Atomic quartet that is consistent yet admits no joint density.

    Each marginal is two atoms of weight 1/2; the PP marginal pairs the
    momenta crosswise (b1 with b2p, b1p with b2), which is what makes a
    common nonnegative density impossible.
    """
    for x, xp, name in ((a1, a1p, "a1"), (a2, a2p, "a2"), (b1, b1p, "b1"), (b2, b2p, "b2")):
        if x == xp:
            raise InvalidInputError(f"{name} and {name}' must be distinct")
    half = 0.5
    R = Marginal2D.atomic(PlaneLabel.QQ, [(a1, a2, half), (a1p, a2p, half)])
    S = Marginal2D.atomic(PlaneLabel.QP, [(a1, b2, half), (a1p, b2p, half)])
    T = Marginal2D.atomic(PlaneLabel.PQ, [(b1, a2, half), (b1p, a2p, half)])
    U = Marginal2D.atomic(PlaneLabel.PP, [(b1, b2p, half), (b1p, b2, half)])
    return QuartetProblem(R, S, T, U)
