"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: :func:`install` rebinds the
functions listed in :func:`_targets` (public functions, plus the two
private helpers through which the CLI reads and writes JSON) in every
``phaselab`` module that holds them, so calls made by the package itself
are recorded too.
Nothing here is imported by ``phaselab``.  The traced run installs the
wrappers for every second pass only and removes them after it, so its
untraced passes run the package unchanged.

A span is (name, start, end, parent).  A layer's self time is
its span's duration minus the time its direct child spans cover; calls
are single-threaded, so direct children never overlap.  Counts (cells,
bytes) are computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.child_s = 0.0

    @property
    def seconds(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.seconds - self.child_s


class Tracer:
    """In-memory span list plus the counters measured at the same calls."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []
        self._seen_transforms = set()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
                if parent is not None:
                    parent.child_s += span.seconds
                self.spans.append(span)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def root_seconds(self):
        """Time covered by spans that have no parent span."""
        return sum(s.seconds for s in self.spans if s.parent is None)

    def by_name(self):
        """name -> (calls, total seconds, self seconds)."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            row = out[s.name]
            row[0] += 1
            row[1] += s.seconds
            row[2] += s.self_s
        return out


# ------------------------------------------------------------ counters

def _grid_key(grid):
    h = hashlib.blake2b(digest_size=16)
    h.update(grid.nodes.tobytes())
    h.update(grid.weights.tobytes())
    if grid.panel_edges is not None:
        h.update(grid.panel_edges.tobytes())
        h.update(str(grid.panel_order).encode())
    return h.digest()


def _count_fourier_matrix(tr, args, kwargs, result):
    q_grid, p_grid = args[0], args[1]
    sign = args[2] if len(args) > 2 else kwargs.get("sign", -1)
    key = (_grid_key(q_grid), _grid_key(p_grid), sign)
    if key in tr._seen_transforms:
        tr.counts["quad.fourier_matrix.repeats"] += 1
    tr._seen_transforms.add(key)
    tr.counts["quad.fourier_matrix.cells"] += result.size


def _count_build_psi(tr, args, kwargs, psi):
    tr.maxima["quantum.q_nodes"] = max(tr.maxima["quantum.q_nodes"],
                                       len(psi.grid1), len(psi.grid2))
    tr.maxima["quantum.p_nodes"] = max(tr.maxima["quantum.p_nodes"],
                                       len(psi.p1_grid), len(psi.p2_grid))


def _count_quantum_marginals(tr, args, kwargs, quartet):
    tr.counts["marginal.quantum_marginals.plane_cells"] += sum(
        getattr(quartet, k).values.size for k in ("R", "S", "T", "U"))


def _count_dense(tr, args, kwargs, dense):
    tr.maxima["reconstruct.cells"] = max(tr.maxima["reconstruct.cells"], dense.size)


def _nbytes(obj):
    if hasattr(obj, "nbytes"):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


def _kernel_counter(name):
    # compulsory traffic: every array operand read once, every array
    # result written once (computed, ignores cache misses and temporaries)
    def count(tr, args, kwargs, result):
        tr.counts[f"kernels.{name}.bytes"] += (
            _nbytes(args) + _nbytes(tuple(kwargs.values())) + _nbytes(result))
    return count


# ------------------------------------------------------------ targets

def _targets():
    """(owner, attribute, span name, counter) for every traced call."""
    from phaselab import _kernels, bell, cli, marginal, quad, quantum, reconstruct

    t = [
        (quad, "fourier_matrix", "quad.fourier_matrix", _count_fourier_matrix),
        (quad, "spherical_jn", "quad.spherical_jn", None),
        (quantum, "gamma", "quantum.gamma", None),
        (quantum, "build_psi", "quantum.build_psi", _count_build_psi),
        (marginal, "quantum_marginals", "marginal.quantum_marginals",
         _count_quantum_marginals),
        (bell, "bell_sum", "bell.bell_sum", None),
        (reconstruct, "calibrate_triplet", "reconstruct.calibrate_triplet", None),
        (reconstruct, "rho0", "reconstruct.rho0", None),
        (reconstruct.PhaseSpaceDensity, "dense", "reconstruct.dense", _count_dense),
        (reconstruct.PhaseSpaceDensity, "marginals", "reconstruct.marginals", None),
        (reconstruct, "delta_from_F", "reconstruct.delta_from_F", None),
        (reconstruct, "lambda_range", "reconstruct.lambda_range", None),
        (reconstruct.Dense4D, "chain_marginals", "reconstruct.chain_marginals", None),
        # the CLI's JSON boundary: file read + parse, and dict -> objects
        (cli, "_load_json", "cli.from_json", None),
        (marginal.QuartetProblem, "from_json", "cli.from_json", None),
        (marginal.TripletProblem, "from_json", "cli.from_json", None),
        (reconstruct.Dense4D, "from_json", "cli.from_json", None),
        # objects -> dicts, then serialise + write
        (marginal.QuartetProblem, "to_json", "cli.to_json", None),
        (cli, "_emit", "cli.to_json", None),
    ]
    for kernel in ("rho0_dense", "chain_marginals", "delta_combine", "ratio_extrema"):
        t.append((_kernels, kernel, f"kernels.{kernel}", _kernel_counter(kernel)))
    return t


def install(tracer):
    """Rebind every target to a recording wrapper; returns the function that
    puts the originals back."""
    undo = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for owner, attr, name, count in _targets():
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            rebind(owner, attr, classmethod(tracer.wrap(name, raw.__func__, count)))
            continue
        wrapped = tracer.wrap(name, raw, count)
        if isinstance(owner, type):
            rebind(owner, attr, wrapped)
            continue
        # a module function: rebind it wherever a phaselab module imported it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "phaselab" or mod_name.startswith("phaselab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    rebind(mod, key, wrapped)

    def uninstall():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall
