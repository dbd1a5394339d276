"""Command-line front end.

Structured results go to stdout (or ``--out``) as deterministic JSON
(sorted keys, no timestamps); scans emit CSV, one row per lattice point.
Exit codes: 0 success, 1 invalid input or schema, 2 consistency failure,
3 numerical failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import click
import numpy as np

from . import __version__, acceptance
from .bell import BellWitness, bell_sum, p_expectation_from_quartet
from .errors import ConsistencyError, InvalidInputError, PhaselabError, require_keys
from .kop import gamma_cutoff_closed_form, k_spectrum
from .marginal import (
    QuartetProblem,
    TripletProblem,
    consistency_check,
    counterexample_quartet,
    quantum_marginals,
)
from .quantum import (
    GridPlan,
    HProfile,
    ViolationParams,
    build_psi,
    canonical_witness,
    gamma,
    p_hat_expectation_closed,
)
from .reconstruct import (
    DENSE_AXIS_CAP,
    Dense4D,
    ReconstructionResult,
    calibrate_triplet,
    delta_from_F,
    lambda_range,
    rho0,
    three_marginal_demo,
)
from .spin import identity_defects, psi_pm_expectations

PRESETS = {"coarse": 64, "default": 256, "fine": 1024}


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit(payload: dict, out):
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=True,
                      default=_json_default) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read JSON from {path}: {exc}") from exc


def _load_quartet(path: str) -> QuartetProblem:
    """A quartet file, bare or in the ``{"quartet": ...}`` envelope that
    ``quartet from-psi`` writes."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "quartet" in obj:
        obj = obj["quartet"]
    return QuartetProblem.from_json(obj)


def _profile_from_options(kind: str, eps: float, L: float) -> HProfile:
    if kind in ("inv1", "inverse_q_plus_one"):
        return HProfile.inverse_q_plus_one()
    if kind in ("cutoff", "cutoff_sqrt"):
        return HProfile.cutoff_sqrt(eps, L)
    raise click.UsageError(f"unknown profile kind {kind!r}")


def _node_target(h: HProfile, preset: str, n_target) -> int:
    """The per-axis node target: ``--n`` or the preset's, refused where a
    panel floor would override it."""
    n = PRESETS[preset] if n_target is None else n_target
    n_min = GridPlan(h).min_n
    if n < n_min:
        raise click.UsageError(f"--n must be at least {n_min} for this profile, got {n}")
    return n


def _parse_grid(spec: str):
    """Parse 'lo:hi:n' into n evenly spaced values (n=1 gives lo)."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise click.UsageError(f"grid spec must be lo:hi:n, got {spec!r}") from exc
    if n < 1:
        raise click.UsageError("grid spec needs n >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise click.UsageError(f"grid spec ends must be finite, got {spec!r}")
    return np.linspace(lo, hi, n)


@click.group()
@click.version_option(version=__version__)
def main():
    """Phase-space Bell inequalities and marginal reconstruction toolkit."""


@main.group()
def bell():
    """Bell functional evaluation."""


@bell.command("eval")
@click.option("--quartet", "quartet_path", required=True, type=click.Path(exists=True))
@click.option("--witness", "witness_path", required=True, type=click.Path(exists=True))
@click.option("--tol", default=1e-6, show_default=True, help="consistency tolerance")
@click.option("--relative-tol/--absolute-tol", default=False,
              help="interpret the consistency tolerance in relative sup norm")
@click.option("--out", type=click.Path(), default=None)
def bell_eval(quartet_path, witness_path, tol, relative_tol, out):
    """Evaluate the Bell functional of a quartet against a witness.

    A quartet whose compatibility defects exceed the tolerance exits
    with code 2 (the functional is only meaningful for marginals that
    could share a joint).
    """
    quartet = _load_quartet(quartet_path)
    witness = BellWitness.from_json(_load_json(witness_path))
    report = consistency_check(quartet, tol=tol, relative=relative_tol)
    b = bell_sum(quartet, witness)
    _emit({
        "bell_sum": b,
        "p_expectation": p_expectation_from_quartet(quartet, witness),
        "within_bounds": bool(abs(b) <= 2.0),
        "consistency": report.to_json(),
    }, out)
    if not report.passed:
        raise ConsistencyError(
            f"quartet compatibility defect {report.max_defect} exceeds {tol}")


@bell.command("counterexample")
@click.option("--params", "params_path", type=click.Path(exists=True), default=None,
              help="JSON with a1, a2, a1p, a2p, b1, b2, b1p, b2p")
@click.option("--out", type=click.Path(), default=None)
def bell_counterexample(params_path, out):
    """Atomic quartet that is consistent yet violates the classical bound."""
    defaults = {"a1": 1.0, "a2": 1.0, "a1p": -1.0, "a2p": -1.0,
                "b1": 1.0, "b2": 1.0, "b1p": -1.0, "b2p": -1.0}
    if params_path:
        given = _load_json(params_path)
        require_keys(given, (), "params")
        for key, val in given.items():
            if key not in defaults or type(val) not in (int, float):
                raise InvalidInputError(
                    f"params JSON key {key!r} must be one of {', '.join(defaults)} "
                    f"and hold a number")
        defaults.update(given)
    quartet = counterexample_quartet(**defaults)
    witness = BellWitness.half_lines()
    b = bell_sum(quartet, witness)
    report = consistency_check(quartet, tol=0.0)
    _emit({
        "bell_sum": b,
        "p_expectation": p_expectation_from_quartet(quartet, witness),
        "within_bounds": bool(abs(b) <= 2.0),
        "consistency": report.to_json(),
        "atoms": quartet.to_json(),
        "params": defaults,
    }, out)


@main.group()
def violate():
    """Scans over the violating state family."""


@violate.command("scan")
@click.option("--h", "kind", default="cutoff", show_default=True,
              type=click.Choice(["inv1", "cutoff"]))
@click.option("--eps", default=1e-6, show_default=True)
@click.option("--L", "big_l", default=1e6, show_default=True)
@click.option("--rho-grid", default="0.5:2.0:4", show_default=True)
@click.option("--theta-grid", default="-2.356:2.356:7", show_default=True)
@click.option("--a", "shift", default=0.0, show_default=True)
@click.option("--boost", default=0.0, show_default=True)
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default="default",
              show_default=True)
@click.option("--n", "n_target", type=click.IntRange(min=1), default=None,
              help="override the preset's per-axis node target")
@click.option("--out", type=click.Path(), default=None)
def violate_scan(kind, eps, big_l, rho_grid, theta_grid, shift, boost, preset,
                 n_target, out):
    """CSV scan of closed-form vs grid-pipeline expectations."""
    h = _profile_from_options(kind, eps, big_l)
    n_target = _node_target(h, preset, n_target)
    gv = gamma(h)
    rhos = _parse_grid(rho_grid)
    thetas = _parse_grid(theta_grid)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rho", "theta", "gamma", "closed_value", "grid_value", "bell_sum"])
    for rho in rhos:
        for theta in thetas:
            params = ViolationParams(h=h, rho=float(rho), theta=float(theta),
                                     shift=shift, boost=boost)
            closed = p_hat_expectation_closed(params, gamma_value=gv)
            psi = build_psi(params, n_target=n_target)
            quartet = quantum_marginals(psi)
            witness = canonical_witness(params)
            b = bell_sum(quartet, witness)
            grid_val = (2.0 - b) / 4.0
            writer.writerow([f"{rho:.10g}", f"{theta:.10g}", f"{gv:.12g}",
                             f"{closed:.12g}", f"{grid_val:.12g}", f"{b:.12g}"])
    text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@main.group()
def kop():
    """Kernel-operator spectral tools."""


@kop.command("spectrum")
@click.option("--U", "window", default=40.0, show_default=True)
@click.option("--n", default=512, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def kop_spectrum(window, n, out):
    """Ritz eigenvalues of the discretized kernel operator."""
    vals = k_spectrum(window, n)
    _emit({"U": window, "n": n, "eigenvalues": vals.tolist(),
           "top": float(vals[0]), "min": float(vals.min())}, out)


@kop.command("gamma")
@click.option("--eps", required=True, type=float)
@click.option("--L", "big_l", required=True, type=float)
@click.option("--out", type=click.Path(), default=None)
def kop_gamma(eps, big_l, out):
    """Closed form vs quadrature for the two-cutoff profile."""
    closed = gamma_cutoff_closed_form(eps, big_l)
    quadrature = gamma(HProfile.cutoff_sqrt(eps, big_l))
    _emit({"eps": eps, "L": big_l, "closed_form": closed,
           "quadrature": quadrature, "defect": abs(closed - quadrature)}, out)


@main.command("reconstruct")
@click.option("--triplet", "triplet_path", required=True, type=click.Path(exists=True))
@click.option("--F", "f_path", type=click.Path(exists=True), default=None)
@click.option("--lam", "--lambda", "lam", type=float, default=None)
@click.option("--calibrate/--no-calibrate", default=True, show_default=True,
              help="rescale to exact discrete chain consistency first")
@click.option("--out", type=click.Path(), default=None)
def reconstruct_cmd(triplet_path, f_path, lam, calibrate, out):
    """Base solution, perturbation, and admissible mixing interval."""
    if lam is not None and f_path is None:
        raise click.UsageError("--lam needs --F: lambda mixes in the perturbation Delta(F)")
    triplet = TripletProblem.from_json(_load_json(triplet_path))
    payload = {"chain_defects": list(triplet.chain_defects())}
    if calibrate:
        triplet, cal = calibrate_triplet(triplet)
        payload["calibration"] = cal
    base = rho0(triplet)
    payload.update({
        "marginal_defects": dict(zip(("sigma0", "sigma1", "sigma2"),
                                     base.roundtrip_defects())),
        "mass": base.mass(),
        "diagnostics": base.diagnostics,
        "lambda_range": None,
        "min_density": None,
    })
    if f_path:
        F = Dense4D.from_json(_load_json(f_path))
        delta = delta_from_F(base, F)
        result = ReconstructionResult(base, delta, lambda_range(base, delta))
        payload["lambda_range"] = result.lambda_range.to_json()
        if lam is not None:
            sol = result.solution(lam)
            payload["min_density"] = float(sol.values.min())
            payload["solution_mass"] = sol.mass()
    elif max(len(g) for g in base.grids) <= DENSE_AXIS_CAP:
        payload["min_density"] = float(base.dense().min())
    _emit(payload, out)


@main.group()
def quartet():
    """Quartet construction utilities."""


@quartet.command("from-psi")
@click.option("--h", "kind", default="cutoff", show_default=True,
              type=click.Choice(["inv1", "cutoff"]))
@click.option("--eps", default=1e-6, show_default=True)
@click.option("--L", "big_l", default=1e6, show_default=True)
@click.option("--rho", default=1.0, show_default=True)
@click.option("--theta", default=math.pi / 4)
@click.option("--a", "shift", default=0.0, show_default=True)
@click.option("--boost", default=0.0, show_default=True)
@click.option("--sign", default=1, show_default=True, type=int)
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default="default",
              show_default=True)
@click.option("--n", "n_target", type=click.IntRange(min=1), default=None)
@click.option("--out", type=click.Path(), default=None)
def quartet_from_psi(kind, eps, big_l, rho, theta, shift, boost, sign, preset,
                     n_target, out):
    """Four marginals of a violating two-term state, as JSON."""
    h = _profile_from_options(kind, eps, big_l)
    params = ViolationParams(h=h, rho=rho, theta=theta, shift=shift,
                             boost=boost, sign=sign)
    psi = build_psi(params, n_target=_node_target(h, preset, n_target))
    q = quantum_marginals(psi)
    report = consistency_check(q, tol=1e-2, relative=True)
    _emit({
        "quartet": q.to_json(),
        "witness": canonical_witness(params).to_json(),
        "consistency": report.to_json(),
    }, out)


@main.command("demo")
@click.option("--quartet", "quartet_path", required=True, type=click.Path(exists=True))
@click.option("--tol", default=0.01, show_default=True,
              help="relative consistency tolerance")
@click.option("--out", type=click.Path(), default=None)
def demo_cmd(quartet_path, tol, out):
    """Reconstruct all 3-subsets of a quartet and test the 4-set."""
    q = _load_quartet(quartet_path)
    _emit(three_marginal_demo(q, tol=tol), out)


@main.group()
def spin():
    """Two-qubit ground-truth identities."""


@spin.command("check")
@click.option("--out", type=click.Path(), default=None)
def spin_check(out):
    """All projection identities with their defects."""
    payload = identity_defects()
    payload.update({"plus": psi_pm_expectations(+1), "minus": psi_pm_expectations(-1)})
    _emit(payload, out)


@main.command("reproduce-paper")
@click.option("--out", type=click.Path(), default=None)
def reproduce_paper(out):
    """Run the full acceptance table, one pass/fail line per criterion."""
    results = acceptance.run_all()
    for r in results:
        click.echo(r.line(), err=True)
    _emit({"criteria": [r.to_json() for r in results],
           "all_passed": all(r.passed for r in results)}, out)


def run(argv=None) -> int:
    """Programmatic entry point returning the exit code."""
    try:
        main.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        return 1
    except PhaselabError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code


def entry():
    sys.exit(run())


if __name__ == "__main__":
    sys.exit(run())
