"""Per-layer tracing from outside the package.

Wrappers are installed where each caller resolves the name (module
globals such as `pstriples.triplesum.theta_transform`), so the package
itself is unchanged.  Every wrapped call records a span (name, start,
end, parent) in flat arrays kept in memory and written once at exit;
a span's self time is its duration minus the time its children cover.
Work counts are taken at the same boundaries from arguments and
results.
"""

from __future__ import annotations

import gzip
import math
import time
from array import array
from collections import defaultdict

import numpy as np


def _size(i):
    """Work count: number of elements of positional argument i."""
    return lambda args, result: int(np.size(args[i]))


def _result_len(args, result):
    return len(result)


# (span name, [(module, attribute), ...], work count or None).  A name
# is wrapped in every module that resolves it for a caller on the
# benchmark's paths.
WRAPPED = [
    ("config.parse_config", [("config", "parse_config"), ("cli", "parse_config")], None),
    ("primes.sieve_primes", [("primes", "sieve_primes"), ("pipeline", "sieve_primes")], None),
    ("primes.ps_primes_in", [("primes", "ps_primes_in"), ("pipeline", "ps_primes_in")], None),
    ("primes.cache_store", [("pipeline", "cache_store")], None),
    ("kernel.make_kernel", [("kernel", "make_kernel"), ("pipeline", "make_kernel"),
                            ("triplesum", "make_kernel")], None),
    ("kernel.theta", [("pipeline", "theta"), ("triplesum", "theta")], _size(1)),
    ("kernel.theta_transform", [("pipeline", "theta_transform"),
                                ("triplesum", "theta_transform")], _size(1)),
    ("quadrature.boole_weight", [("triplesum", "boole_weight")], _size(0)),
    ("quadrature.adaptive_simpson", [("triplesum", "adaptive_simpson")], None),
    ("expsums.ps_sum_grid", [("expsums", "ps_sum_grid")], lambda a, r: int(a[4])),
    ("trigpoly.trig_sum_uniform", [("expsums", "trig_sum_uniform")], None),
    ("expsums.ps_exp_sum", [("pipeline", "ps_exp_sum")], None),
    ("expsums.decomposition_residual", [("pipeline", "decomposition_residual")], None),
    ("summation.compensated_sum", [("summation", "compensated_sum")], _size(0)),
    ("approx.dichotomy_probe", [("pipeline", "dichotomy_probe")], None),
    ("triplesum.decompose", [("triplesum", "decompose")], None),
    ("triplesum.middle_band_sweep", [("triplesum", "middle_band_sweep")], None),
    ("triplesum.big_gamma_direct", [("triplesum", "big_gamma_direct")], None),
    ("triplesum.integral_J", [("triplesum", "integral_J")], None),
    ("triplesum.box_integral_B", [("triplesum", "box_integral_B")], None),
    ("triplesum.phi_bound", [("triplesum", "phi_bound")], None),
    ("triplesum.gamma2_majorant", [("triplesum", "gamma2_majorant")], None),
    ("triplesum.find_triples", [("pipeline", "find_triples")], _result_len),
]


# Ratios and the metrics that are their numerator and denominator.
RATIOS = {
    "expsums.grid_points_per_s": ("expsums.grid_points", "expsums.ps_sum_grid_s"),
    "triplesum.direct_triples_per_s": ("triplesum.direct_triples",
                                       "triplesum.big_gamma_direct_s"),
    "triplesum.direct_hit_ratio": ("triplesum.direct_triples",
                                   "triplesum.candidate_pairs"),
}


def band_piece(t0: float, params) -> int:
    """Band piece of a grid starting at t0: 1 is (-Delta, Delta),
    2 is [Delta, H), 3 is [H, truncation)."""
    return 1 if t0 < params.Delta else 2 if t0 < params.H_effective else 3


class Tracer:
    """Span recorder; install() wraps, uninstall() restores."""

    def __init__(self, package) -> None:
        self.package = package
        self.names: list[str] = [name for name, _, _ in WRAPPED]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, int] = defaultdict(int)
        self.grid_calls: list[tuple] = []   # (lam, t0, dt, n, freqs) per call
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, nid: int, name: str, fn, count):
        stack = self._stack
        clock = time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        work = self.work
        grid = name == "expsums.ps_sum_grid"

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                work[name] += count(args, result)
            if grid:
                self.grid_calls.append(
                    (args[1], args[2], args[3], args[4], args[0].count)
                )
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for nid, (name, sites, count) in enumerate(WRAPPED):
            for mod_name, attr in sites:
                mod = getattr(self.package, mod_name)
                fn = getattr(mod, attr)
                self._undo.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(nid, name, fn, count))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def totals(self) -> "tuple[dict, dict, dict]":
        """Inclusive seconds, self seconds and call count per name."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=np.float64)[:n] - np.frombuffer(
            self.start, dtype=np.float64)[:n]
        parents = np.frombuffer(self.parent, dtype=np.int32)[:n]
        ids = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        covered = np.zeros(n)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], dur[has_parent])
        k = len(self.names)
        incl = np.bincount(ids, weights=dur, minlength=k)
        self_t = np.bincount(ids, weights=dur - covered, minlength=k)
        calls = np.bincount(ids, minlength=k)
        return (dict(zip(self.names, incl.tolist())),
                dict(zip(self.names, self_t.tolist())),
                dict(zip(self.names, calls.tolist())))

    def write(self, path) -> int:
        """Write every span as gzipped CSV; parent is a span id or -1."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i, (nid, s, e, p) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent)
            ):
                fh.write(f"{i},{self.names[nid]},{s:.9f},{e:.9f},{p}\n")
        return len(self.start)


def grid_probe(ps, tracer: Tracer, inst, rng, points: int = 8) -> "dict[str, float]":
    """Max |ps_sum_grid - ps_exp_sum| / sum|w| at seed-chosen points.

    Per band piece one recorded ps_sum_grid call is replayed with the
    unwrapped evaluator, and `points` of its samples are compared with
    the per-term compensated sum at the same t.  Returns the worst error
    per piece (pieces that never ran are absent)."""
    params, pset = inst.params, inst.pset
    by_piece: dict[int, list] = defaultdict(list)
    for call in tracer.grid_calls:
        by_piece[band_piece(call[1], params)].append(call)
    scale = float(np.sum(np.abs(pset.weight_w * pset.weight_log)))
    worst = {}
    for piece, calls in sorted(by_piece.items()):
        lam, t0, dt, n, _ = calls[rng.randrange(len(calls))]
        grid = ps.expsums.ps_sum_grid(pset, lam, t0, dt, n)
        err = 0.0
        for j in sorted(rng.sample(range(n), min(points, n))):
            ref = ps.expsums.ps_exp_sum(lam * (t0 + j * dt), params, pset).value
            err = max(err, abs(grid[j] - ref) / scale)
        worst[f"piece{piece}"] = err
    return worst


def layer_metrics(tracer: Tracer, probe: dict, checked: dict, inst) -> dict:
    """Per-layer metric values from the spans, counts and checks of one
    traced repetition.  Layers that did no work report 0."""
    incl, self_t, calls = tracer.totals()
    work = tracer.work
    grid_s = incl["expsums.ps_sum_grid"]
    grid_pts = work["expsums.ps_sum_grid"]
    grid_calls = calls["expsums.ps_sum_grid"]
    piece_pts = defaultdict(int)
    for _, t0, _, n, _ in tracer.grid_calls:
        piece_pts[band_piece(t0, inst.params)] += n
    direct_s = incl["triplesum.big_gamma_direct"]
    direct = checked.get("direct_triples", 0) if direct_s else 0
    n_window = inst.pset.count
    pairs = n_window * n_window if direct_s else 0
    freqs = sum(c[4] for c in tracer.grid_calls)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "expsums.ps_sum_grid_s": grid_s,
        "expsums.ps_sum_grid_calls": grid_calls,
        "expsums.grid_points": grid_pts,
        "expsums.grid_points_per_s": ratio(grid_pts, grid_s),
        "expsums.freqs_per_call": ratio(freqs, grid_calls),
        "trigpoly.trig_sum_uniform_s": self_t["trigpoly.trig_sum_uniform"],
        "expsums.grid_max_rel_err": max(probe.values(), default=0.0),
        "expsums.ps_exp_sum_s": incl["expsums.ps_exp_sum"],
        "expsums.decomposition_residual_s": incl["expsums.decomposition_residual"],
        "summation.compensated_sum_s": incl["summation.compensated_sum"],
        "summation.terms": work["summation.compensated_sum"],
        "kernel.theta_transform_s": incl["kernel.theta_transform"],
        "kernel.theta_transform_points": work["kernel.theta_transform"],
        "kernel.theta_s": incl["kernel.theta"],
        "kernel.theta_points": work["kernel.theta"],
        "kernel.make_kernel_s": incl["kernel.make_kernel"],
        "quadrature.boole_weight_s": incl["quadrature.boole_weight"],
        "quadrature.boole_weight_points": work["quadrature.boole_weight"],
        "quadrature.adaptive_simpson_s": incl["quadrature.adaptive_simpson"],
        "triplesum.middle_band_sweep_s": self_t["triplesum.middle_band_sweep"],
        "triplesum.other_bands_s": self_t["triplesum.decompose"],
        "triplesum.band_points": grid_pts // 3,
        "triplesum.band1_points": piece_pts[1] // 3,
        "triplesum.band2_points": piece_pts[2] // 3,
        "triplesum.band3_points": piece_pts[3] // 3,
        "triplesum.chunks": grid_calls // 3,
        "triplesum.big_gamma_direct_s": direct_s,
        "triplesum.direct_triples": direct,
        "triplesum.direct_triples_per_s": ratio(direct, direct_s),
        "triplesum.candidate_pairs": pairs,
        "triplesum.direct_hit_ratio": ratio(direct, pairs),
        "triplesum.find_triples_s": incl["triplesum.find_triples"],
        "triplesum.find_triples_emitted": work["triplesum.find_triples"],
        "triplesum.integral_J_s": incl["triplesum.integral_J"],
        "triplesum.box_integral_B_s": incl["triplesum.box_integral_B"],
        "triplesum.phi_bound_s": incl["triplesum.phi_bound"],
        "triplesum.gamma2_majorant_s": incl["triplesum.gamma2_majorant"],
        "primes.sieve_s": incl["primes.sieve_primes"],
        "primes.ps_primes_in_s": incl["primes.ps_primes_in"],
        "primes.window_primes": n_window,
        "primes.cache_store_s": incl["primes.cache_store"],
        "approx.dichotomy_probe_s": incl["approx.dichotomy_probe"],
        "approx.probes": calls["approx.dichotomy_probe"],
        "config.parse_config_s": incl["config.parse_config"],
        "closure_rel_err": checked.get("closure_rel_err", 0.0),
        "identity_residual": checked.get("identity_residual", 0.0),
    }
    stage_s = checked.get("stage_wall_s", {})
    for stage in ("primes", "kernel", "sums", "dichotomy", "triples"):
        m[f"pipeline.stage_{stage}_s"] = stage_s.get(stage, 0.0)
    bad = [k for k, v in m.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"non-finite layer metrics: {bad}")
    return m
