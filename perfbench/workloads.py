"""The four benchmark workloads: inputs made from the seed, one pass of the
job, and the correctness gate of every item.

A workload's ``setup`` runs in the set-up interpreter and writes a
manifest (plus any input files) into the work directory; ``run_pass``
runs in the measuring interpreter.  Only the package calls inside an
``Item`` or ``segment`` block are timed; building inputs, unwrapping
files and checking results are not.  Package functions are always
reached through their module (``quantum.build_psi``) so that the traced
run's rebinding wrappers see every call.
"""

from __future__ import annotations

import math
import os
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np
import orjson

from phaselab import bell, cli, marginal, quantum, reconstruct

AGREEMENT_TOL = 1e-2          # criterion 4: |grid - closed|
ROUNDTRIP_TOL = 1e-4          # criterion 7 tolerances
DELTA_MASS_TOL = 1e-8
DELTA_MARGINAL_TOL = 1e-6
ENDPOINT_MIN = -1e-9
SOLUTION_MASS_TOL = 1e-8      # cli reconstruct output
MIN_DENSITY = -1e-12

# inputs are drawn for at most this many passes; a run stops when they are used up
MAX_PASSES = 1000


def write_json(path, obj):
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY))


def read_json(path):
    with open(path, "rb") as fh:
        return orjson.loads(fh.read())


class Item:
    """Times one item; an exception inside the block fails the item."""

    def __init__(self, timer, label):
        self.timer = timer
        self.label = label
        self.seconds = 0.0
        self.reasons = []

    @property
    def ok(self):
        return not self.reasons

    def fail(self, why):
        self.reasons.append(why)

    def check(self, cond, why):
        if not cond:
            self.fail(why)

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.seconds = time.perf_counter() - self.t0
        self.timer.program_s += self.seconds
        self.timer.items.append(self)
        if exc is not None and isinstance(exc, Exception):
            traceback.print_exception(exc_type, exc, tb, file=sys.stderr)
            self.fail(f"raised {exc_type.__name__}: {exc}")
            return True
        return False


class PassTimer:
    """Program time and items of one pass."""

    def __init__(self, index):
        self.index = index
        self.traced = False
        self.program_s = 0.0
        self.items = []
        self.info = {}

    def item(self, label):
        return Item(self, label)

    @contextmanager
    def segment(self):
        """Timed package work that belongs to the pass, not to one item."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.program_s += time.perf_counter() - t0


def _axis_nodes(psi):
    return {"q1": len(psi.grid1), "q2": len(psi.grid2),
            "p1": len(psi.p1_grid), "p2": len(psi.p2_grid)}


# ------------------------------------------------------------ violation_scan

class ViolationScan:
    """28 seeded (rho, theta) points at cutoffs (1e-6, 1e6), default preset,
    shift = boost = 0: the calls of ``phaselab violate scan``."""

    name = "violation_scan"
    items_are_passes = False
    cutoffs = (1e-6, 1e6)
    n_target = 256            # the CLI's default preset
    points = 28

    def setup(self, rng, workdir):
        rho = rng.uniform(0.5, 2.0, size=self.points)
        theta = rng.uniform(-0.75 * math.pi, 0.75 * math.pi, size=self.points)
        return {"lattice": np.column_stack([rho, theta])}

    def run_pass(self, m, timer):
        h = quantum.HProfile.cutoff_sqrt(*self.cutoffs)
        with timer.segment():
            gv = quantum.gamma(h)
        for rho, theta in m["lattice"]:
            with timer.item("point") as it:
                params = quantum.ViolationParams(h=h, rho=float(rho), theta=float(theta))
                closed = quantum.p_hat_expectation_closed(params, gamma_value=gv)
                psi = quantum.build_psi(params, n_target=self.n_target)
                quartet = marginal.quantum_marginals(psi)
                b = bell.bell_sum(quartet, quantum.canonical_witness(params))
            if it.ok:
                _check_violation(it, closed, b)
                timer.info["nodes"] = _axis_nodes(psi)


def _check_violation(it, closed, b):
    grid = (2.0 - b) / 4.0
    it.check(abs(grid - closed) <= AGREEMENT_TOL,
             f"|grid - closed| = {abs(grid - closed):.3g} > {AGREEMENT_TOL}")
    if closed < 0:
        it.check(b > 2.0, f"closed form {closed:.6g} < 0 but Bell sum {b:.12g} <= 2")
    return grid


# ------------------------------------------------------------ violation_deep

class ViolationDeep:
    """The two criterion-4 states, each with a fresh seeded shift and boost
    per pass.  From the second pass on, both cutoffs of a state are also
    multiplied by a seeded factor in [1/2, 2]: gamma, and so the closed form,
    depends only on L/eps, but the grids of both axes move, so no transform
    repeats across passes either.  Pass 0 runs the exact criterion-4 cutoffs
    and gives the printed depth value."""

    name = "violation_deep"
    items_are_passes = True
    states = ((1e-6, 1e6, 512), (1e-9, 1e9, 768))

    def setup(self, rng, workdir):
        shape = (MAX_PASSES, len(self.states))
        scale = 2.0 ** rng.uniform(-1.0, 1.0, size=shape)
        scale[0] = 1.0
        offsets = rng.uniform(0.1, 1.0, size=shape + (2,)) * rng.choice([-1.0, 1.0], size=shape + (2,))
        return {"scale": scale, "offsets": offsets}      # offsets[pass, state] = (shift, boost)

    def run_pass(self, m, timer):
        grids = []
        for (eps, big_l, n), scale, (shift, boost) in zip(
                self.states, m["scale"][timer.index], m["offsets"][timer.index]):
            with timer.item(f"n={n}") as it:
                h = quantum.HProfile.cutoff_sqrt(eps * scale, big_l * scale)
                params = quantum.ViolationParams(h=h, shift=float(shift), boost=float(boost))
                closed = quantum.p_hat_expectation_closed(params)
                psi = quantum.build_psi(params, n_target=n)
                quartet = marginal.quantum_marginals(psi)
                b = bell.bell_sum(quartet, quantum.canonical_witness(params))
            grids.append(_check_violation(it, closed, b) if it.ok else None)
            if it.ok:
                timer.info.setdefault("nodes", {})[f"n={n}"] = _axis_nodes(psi)
        first, wide = grids
        if first is not None and wide is not None:
            timer.items[-1].check(wide < first, f"wider cutoffs not deeper: {wide} >= {first}")
            if timer.index == 0:
                timer.info["criterion4_depth"] = first


# ------------------------------------------------------------ reconstruction

def _axis_bump(grid, mu_frac, width_frac):
    x = grid.nodes
    span = max(abs(x[0]), abs(x[-1]))
    return np.exp(-((x - mu_frac * span / 4) ** 2) / (2 * (width_frac * span / 4) ** 2))


class Reconstruction:
    """Criterion 7 at 60 nodes per axis: base pipeline once per pass, then
    seeded Gaussian-bump perturbations F, one item each."""

    name = "reconstruction"
    items_are_passes = False
    cutoffs = (1e-2, 1e2)
    n_target = 64
    perturbations = 6

    def setup(self, rng, workdir):
        shape = (MAX_PASSES, self.perturbations, 4)
        return {"mu": rng.normal(scale=0.5, size=shape),
                "width": rng.uniform(0.5, 2.0, size=shape)}

    def run_pass(self, m, timer):
        params = quantum.ViolationParams(h=quantum.HProfile.cutoff_sqrt(*self.cutoffs))
        with timer.segment():
            psi = quantum.build_psi(params, n_target=self.n_target)
            quartet = marginal.quantum_marginals(psi)
            triplet, _ = reconstruct.calibrate_triplet(
                marginal.TripletProblem.from_quartet(quartet))
            base = reconstruct.rho0(triplet)
            m0, m1, m2 = base.marginals()
            dense = base.dense()
        timer.info["nodes"] = _axis_nodes(psi)
        roundtrip = max(float(np.max(np.abs(got - want.values))) for got, want in
                        ((m0, triplet.sigma0), (m1, triplet.sigma1), (m2, triplet.sigma2)))
        grids = base.grids
        for mu, wd in zip(m["mu"][timer.index], m["width"][timer.index]):
            bump = (_axis_bump(grids[0], mu[0], wd[0])[:, None, None, None]
                    * _axis_bump(grids[1], mu[1], wd[1])[None, :, None, None]
                    * _axis_bump(grids[2], mu[2], wd[2])[None, None, :, None]
                    * _axis_bump(grids[3], mu[3], wd[3])[None, None, None, :])
            F = reconstruct.Dense4D(grids, dense * bump)
            del bump
            with timer.item("perturbation") as it:
                delta = reconstruct.delta_from_F(base, F)
                chain = delta.chain_marginals()
                mass = delta.mass()
                lam = reconstruct.lambda_range(base, delta)
            del F
            if not it.ok:
                continue
            it.check(roundtrip <= ROUNDTRIP_TOL, f"round trip {roundtrip:.3g} > {ROUNDTRIP_TOL}")
            it.check(abs(mass) <= DELTA_MASS_TOL, f"|delta mass| {abs(mass):.3g} > {DELTA_MASS_TOL}")
            worst = max(float(np.max(np.abs(c))) for c in chain)
            it.check(worst <= DELTA_MARGINAL_TOL,
                     f"delta marginal {worst:.3g} > {DELTA_MARGINAL_TOL}")
            for end in (lam.lo, lam.hi):
                if math.isfinite(end):
                    low = float((dense + end * delta.values).min())
                    it.check(low >= ENDPOINT_MIN, f"endpoint {end:.6g} min cell {low:.3g}")
            del delta


# ------------------------------------------------------------ cli_io

def _command(timer, label, argv):
    """One CLI command as an item; a nonzero exit code fails it."""
    with timer.item(label) as it:
        code = cli.run(argv)
    if it.ok:
        it.check(code == 0, f"{label} exited {code}")
    return it


class CliIO:
    """Three commands in-process through ``phaselab.cli.run``: JSON written
    by ``quartet from-psi``, read back by ``demo``, and a seeded 4-D F read
    by ``reconstruct``."""

    name = "cli_io"
    items_are_passes = True
    triplet_cutoffs = (1e-2, 1e2)
    triplet_n_target = 40      # 36 position and 60 momentum nodes per axis

    def setup(self, rng, workdir):
        h = quantum.HProfile.cutoff_sqrt(*self.triplet_cutoffs)
        psi = quantum.build_psi(quantum.ViolationParams(h=h), n_target=self.triplet_n_target)
        triplet = marginal.TripletProblem.from_quartet(marginal.quantum_marginals(psi))
        triplet_path = os.path.join(workdir, "triplet.json")
        write_json(triplet_path, triplet.to_json())
        # F lives on the reconstruction grids and inside the support region,
        # so the command's leak check passes: rho0 times seeded noise
        calibrated, _ = reconstruct.calibrate_triplet(triplet)
        base = reconstruct.rho0(calibrated)
        F = reconstruct.Dense4D(base.grids, base.dense()
                                * rng.uniform(0.5, 1.5, size=base.dense().shape))
        f_path = os.path.join(workdir, "F.json")
        write_json(f_path, {"grids": [g.to_json() for g in F.grids], "values": F.values})
        rng_l = reconstruct.lambda_range(base, reconstruct.delta_from_F(base, F))
        u = rng.uniform(-0.75, 0.75)
        lam = u * rng_l.hi if u > 0 else -u * rng_l.lo
        from_psi = quantum.build_psi(quantum.ViolationParams(h=h),
                                     n_target=cli.PRESETS["default"])
        return {"triplet": triplet_path, "F": f_path, "lam": lam,
                "F_shape": list(F.values.shape), "triplet_nodes": _axis_nodes(psi),
                "from_psi_nodes": _axis_nodes(from_psi)}

    def run_pass(self, m, timer):
        work = os.path.join(os.path.dirname(m["triplet"]), f"pass{timer.index}")
        os.makedirs(work, exist_ok=True)
        out = {k: os.path.join(work, f"{k}.json")
               for k in ("from_psi", "quartet", "demo", "reconstruct")}
        written, read = 0, 0

        it = _command(timer, "quartet_from_psi",
                      ["quartet", "from-psi", "--eps", "1e-2", "--L", "1e2",
                       "--preset", "default", "--out", out["from_psi"]])
        if it.ok:
            written += os.path.getsize(out["from_psi"])
            # demo takes a bare quartet: unwrap the "quartet" key as the CLI tests do
            write_json(out["quartet"], read_json(out["from_psi"])["quartet"])

        it = _command(timer, "demo", ["demo", "--quartet", out["quartet"], "--out", out["demo"]])
        if it.ok:
            read += os.path.getsize(out["quartet"])
            written += os.path.getsize(out["demo"])
            b = read_json(out["demo"])["four_set"]["bell_sum"]
            it.check(b > 2.0, f"demo Bell sum {b} <= 2")

        it = _command(timer, "reconstruct",
                      ["reconstruct", "--triplet", m["triplet"], "--F", m["F"],
                       "--lam", repr(m["lam"]), "--out", out["reconstruct"]])
        if it.ok:
            read += os.path.getsize(m["triplet"]) + os.path.getsize(m["F"])
            written += os.path.getsize(out["reconstruct"])
            rec = read_json(out["reconstruct"])
            it.check(abs(rec["solution_mass"] - 1.0) <= SOLUTION_MASS_TOL,
                     f"solution mass {rec['solution_mass']}")
            it.check(rec["min_density"] >= MIN_DENSITY, f"min density {rec['min_density']}")

        for path in out.values():
            if os.path.exists(path):
                os.remove(path)
        os.rmdir(work)
        timer.info["json_bytes_read"] = read
        timer.info["json_bytes_written"] = written
        timer.info["nodes"] = {"from_psi": m["from_psi_nodes"],
                               "triplet": m["triplet_nodes"], "F_shape": m["F_shape"]}


WORKLOADS = {w.name: w for w in (ViolationScan(), ViolationDeep(), Reconstruction(), CliIO())}
