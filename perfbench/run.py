"""phaselab benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each invocation sets the workload up SETUP_REPEATS times, each in a fresh
interpreter (set-up time = interpreter start + importing phaselab.cli +
making the inputs from the seed), then measures it in one more fresh
interpreter so that its memory peak is its own.  Every item's output is
checked; the last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced measurement plus a streaming-copy roofline
reference.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# BENCHMARK.json lists the workloads the regression gate runs; the other
# two stay runnable by name (see README.md for why they are not listed)
WORKLOADS = ("violation_scan", "violation_deep", "reconstruction", "cli_io")
SETUP_REPEATS = 3
DEADLINE_S = 170          # the whole invocation, set-ups included


class BenchError(Exception):
    pass


class Children:
    """Every child process started, so that all are stopped on the way out."""

    def __init__(self):
        self.procs = []
        self.deadline = time.monotonic() + DEADLINE_S

    def start(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *args],
                                stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        self.procs.append(proc)
        return proc

    def finish(self, proc, what):
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{what} did not finish within the {DEADLINE_S} s deadline")
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with code {proc.returncode}")
        return out

    def stop_all(self):
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def timed_setup(children, workload, seed, workdir):
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    proc = children.start("setup", workload, str(seed), str(workdir))
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    children.finish(proc, "set-up")
    if line.strip() != "ready":
        raise BenchError("set-up did not report ready")
    return elapsed


def last_json_line(text, what):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{what} printed no result") from exc


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def llc_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        return int(out)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def git_commit():
    """Commit of the checkout from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args):
    if not (ROOT / "src" / "phaselab" / "__init__.py").is_file():
        raise BenchError(f"no phaselab source under {ROOT / 'src'}")
    units = {m["name"]: m["unit"]
             for m in benchmark_spec()["per_layer" if args.trace else "end_to_end"]}
    children = Children()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for rep in range(1 if args.trace else SETUP_REPEATS):
            if rep:
                shutil.rmtree(work)
            setups.append(timed_setup(children, args.workload, args.seed, work))
        child = children.start("measure", args.workload, str(work), str(args.seconds),
                               str(args.trace))
        result = last_json_line(children.finish(child, "measurement"), "measurement")
        copy = None
        if args.trace:
            llc = llc_bytes()
            size = max(4 * (llc or 0), 512 << 20)
            copy = last_json_line(children.finish(children.start("copy", str(size)), "copy"),
                                  "copy")
            copy["llc_bytes"] = llc or 0
    finally:
        children.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    env = dict(result["environment"], workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace, git_commit=git_commit(),
               axis_nodes=result["info"].get("nodes"))
    print(json.dumps({"environment": env}))
    for why in result["failures"]:
        print(f"FAILED {why}")
    if "criterion4_depth" in result:
        print(f"criterion 4 depth (n=512, cutoffs 1e-6/1e6): grid value "
              f"{result['criterion4_depth']:.6f} against the bound -0.15 (reported, not asserted)")

    if args.trace:
        metrics = dict(result["layers"])
        metrics["machine.copy_bytes_per_s"] = copy["copy_bytes_per_s"]
        metrics["machine.copy_array_bytes"] = copy["copy_array_bytes"]
        metrics["machine.llc_bytes"] = copy["llc_bytes"]
        for kernel in ("rho0_dense", "chain_marginals", "delta_combine", "ratio_extrema"):
            metrics[f"kernels.{kernel}.roofline_frac"] = (
                metrics[f"kernels.{kernel}.bytes_per_s"] / copy["copy_bytes_per_s"])
        print(f"traced passes {result['traced_passes']}, spans {result['spans']}; "
              f"copy arrays {copy['copy_array_bytes']} B each, last-level cache "
              f"{copy['llc_bytes']} B")
    else:
        metrics = {
            "wall_s": result["wall_s"],
            "item_s_p50": result["item_s_p50"],
            "item_s_tail": result["item_s_tail"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
            "success_rate": 1.0 - result["failed"] / result["attempted"],
        }
        print(f"pass_s {' '.join(f'{x:.4f}' for x in result['pass_s'])}; item_s_tail is the "
              f"p{result['tail_percentile']:.1f} of {result['item_samples']} item samples; "
              f"setup_s is the median of {len(setups)} set-ups")

    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
