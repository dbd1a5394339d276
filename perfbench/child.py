"""Worker interpreter of the benchmark; ``run.py`` starts it in three roles.

    child.py setup WORKLOAD SEED WORKDIR
        import phaselab.cli, make the workload's inputs from the seed, write
        WORKDIR/manifest.json, then print "ready".  run.py times this whole
        process up to "ready" as one set-up.
    child.py measure WORKLOAD WORKDIR SECONDS TRACE
        run passes of the workload for SECONDS (TRACE=1: every second pass
        with the span recorder installed) and print one JSON line.
    child.py copy ARRAY_BYTES
        streaming-copy bandwidth over two arrays of ARRAY_BYTES each.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time


def setup(workload, seed, workdir):
    import numpy as np
    import phaselab.cli  # noqa: F401  (part of what set-up time measures)

    from workloads import WORKLOADS, write_json

    manifest = WORKLOADS[workload].setup(np.random.default_rng(seed), workdir)
    write_json(os.path.join(workdir, "manifest.json"), manifest)
    print("ready", flush=True)


# With fewer samples the highest percentile that has ten beyond it lies below
# the median; workloads whose items are not whole passes always reach this.
MIN_ITEMS = 20


def _measure_passes(workload, manifest, seconds, min_items=0, tracer=None):
    """Closed loop, one client: start a pass only if it should end in time,
    or while fewer than min_items items have been measured.

    With a tracer, every second pass runs with the span recorder installed,
    so traced and untraced passes alternate and see the same host load;
    there is then at least one pass of each kind."""
    from tracing import install
    from workloads import MAX_PASSES, PassTimer

    passes, durations = [], []
    start = time.perf_counter()
    for index in range(MAX_PASSES):
        t0 = time.perf_counter()
        timer = PassTimer(index)
        if tracer is not None and index % 2:
            uninstall = install(tracer)
            try:
                workload.run_pass(manifest, timer)
            finally:
                uninstall()
            timer.traced = True
        else:
            workload.run_pass(manifest, timer)
        durations.append(time.perf_counter() - t0)
        passes.append(timer)
        short = (sum(len(p.items) for p in passes) < min_items
                 or (tracer is not None and index == 0))
        if not short and time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    return passes


def _item_samples(workload, passes):
    if workload.items_are_passes:
        return [p.program_s for p in passes]
    return [it.seconds for p in passes for it in p.items]


def tail(samples):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, count).  Below MIN_ITEMS samples that percentile would
    lie under the median, so the maximum is reported instead."""
    xs = sorted(samples)
    n = len(xs)
    if n < MIN_ITEMS:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _openblas_threads():
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment():
    import numpy as np
    import scipy

    import phaselab

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        import numba  # noqa: F401
        numba_state = "installed"
    except ImportError:
        numba_state = "not installed: the numba kernels cannot be measured"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "phaselab_backend": phaselab.BACKEND,
        "numba": numba_state,
    }


def _failures(passes):
    return [f"pass {p.index} {it.label}: {'; '.join(it.reasons)}"
            for p in passes for it in p.items if not it.ok]


def _layer_metrics(tracer, passes, untraced):
    """Per-layer figures, per traced pass; layers a workload never calls read 0."""
    k = len(passes)
    rows = tracer.by_name()
    counts, maxima = tracer.counts, tracer.maxima
    out = {}

    def calls_self(name, key="self_s"):
        calls, _, self_s = rows.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls / k
        out[f"{name}.{key}"] = self_s / k

    calls_self("quad.fourier_matrix")
    fm_calls = rows.get("quad.fourier_matrix", (0,))[0]
    out["quad.fourier_matrix.cells"] = counts["quad.fourier_matrix.cells"] / k
    out["quad.fourier_matrix.repeat_ratio"] = (
        counts["quad.fourier_matrix.repeats"] / fm_calls if fm_calls else 0.0)
    calls_self("quad.spherical_jn", key="s")       # a leaf: self time is its time
    for name in ("quantum.gamma", "quantum.build_psi"):
        calls_self(name)
    out["quantum.q_nodes"] = maxima["quantum.q_nodes"]
    out["quantum.p_nodes"] = maxima["quantum.p_nodes"]
    calls_self("marginal.quantum_marginals")
    out["marginal.quantum_marginals.plane_cells"] = (
        counts["marginal.quantum_marginals.plane_cells"] / k)
    calls_self("bell.bell_sum")
    for step in ("calibrate_triplet", "rho0", "dense", "marginals", "delta_from_F",
                 "lambda_range", "chain_marginals"):
        calls_self(f"reconstruct.{step}")
    out["reconstruct.cells"] = maxima["reconstruct.cells"]
    for kernel in ("rho0_dense", "chain_marginals", "delta_combine", "ratio_extrema"):
        name = f"kernels.{kernel}"
        calls_self(name)
        _, _, self_s = rows.get(name, (0, 0.0, 0.0))
        out[f"{name}.bytes"] = counts[f"{name}.bytes"] / k
        out[f"{name}.bytes_per_s"] = counts[f"{name}.bytes"] / self_s if self_s else 0.0

    by_label = {}
    for p in passes:
        for it in p.items:
            by_label.setdefault(it.label, []).append(it.seconds)
    for label in ("quartet_from_psi", "demo", "reconstruct"):
        out[f"cli.{label}.s"] = statistics.median(by_label.get(label, [0.0]))
    read = sum(p.info.get("json_bytes_read", 0) for p in passes)
    written = sum(p.info.get("json_bytes_written", 0) for p in passes)
    out["cli.json_bytes_read"] = read / k
    out["cli.json_bytes_written"] = written / k
    for name, nbytes, key in (("cli.from_json", read, "cli.read_bytes_per_s"),
                              ("cli.to_json", written, "cli.write_bytes_per_s")):
        _, total, self_s = rows.get(name, (0, 0.0, 0.0))
        out[f"{name}.self_s"] = self_s / k
        out[key] = nbytes / total if total else 0.0

    traced_wall = statistics.median(p.program_s for p in passes)
    out["trace.overhead_s"] = traced_wall - statistics.median(p.program_s for p in untraced)
    out["trace.span_coverage"] = tracer.root_seconds() / sum(p.program_s for p in passes)
    return out


def measure(workload_name, workdir, seconds, trace):
    from workloads import WORKLOADS, read_json

    workload = WORKLOADS[workload_name]
    manifest = read_json(os.path.join(workdir, "manifest.json"))
    result = {"environment": environment()}
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        everything = _measure_passes(workload, manifest, seconds, tracer=tracer)
        passes = [p for p in everything if not p.traced]
        traced = [p for p in everything if p.traced]
        result["layers"] = _layer_metrics(tracer, traced, passes)
        result["traced_passes"] = len(traced)
        result["spans"] = len(tracer.spans)
    else:
        everything = passes = _measure_passes(
            workload, manifest, seconds, 0 if workload.items_are_passes else MIN_ITEMS)

    samples = _item_samples(workload, passes)
    value, pct, n = tail(samples)
    attempted = sum(len(p.items) for p in everything)
    failures = _failures(everything)
    result.update({
        "pass_s": [p.program_s for p in passes],
        "wall_s": statistics.median(p.program_s for p in passes),
        "item_s_p50": statistics.median(samples),
        "item_s_tail": value,
        "tail_percentile": pct,
        "item_samples": n,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "info": everything[-1].info,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if "criterion4_depth" in passes[0].info:
        result["criterion4_depth"] = passes[0].info["criterion4_depth"]
    print(json.dumps(result), flush=True)


def copy_bandwidth(array_bytes, repeats=5):
    """Median rate of dst[:] = src over arrays of array_bytes each; a copy
    reads and writes every byte once, so it moves 2 * array_bytes."""
    import numpy as np

    n = array_bytes // 8
    src = np.full(n, 1.0)
    dst = np.zeros(n)
    np.copyto(dst, src)   # both arrays are resident before timing
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * n * 8 / (time.perf_counter() - t0))
    print(json.dumps({"copy_bytes_per_s": statistics.median(rates),
                      "copy_array_bytes": n * 8}), flush=True)


def main(argv):
    role = argv[0]
    if role == "setup":
        setup(argv[1], int(argv[2]), argv[3])
    elif role == "measure":
        measure(argv[1], argv[2], float(argv[3]), argv[4] == "1")
    elif role == "copy":
        copy_bandwidth(int(argv[1]))
    else:
        raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
