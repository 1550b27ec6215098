"""End-to-end runs: one instance builder, stages, deterministic reports.

`Instance` builds what every count on one instance shares: the prime
table up to ceil(X)+1, the window's floor-power primes in (lambda0*X,
X], the full-range set and the canonical kernel (effective width,
k = params.kernel_k).  Each is built at most once, on first use.  The
staged run, the `sums` and `gamma-decomp` commands and the demos that
work on one instance take their inputs from it, so the direct and
spectral sides always see the same instance.  `load_full_set` loads or
builds the full-range set and owns its on-disk cache, kept in the
directory named by the PSD_CACHE_DIR environment variable.

A run takes a validated RunConfig, executes a subset of named stages in
dependency order, and leaves every artifact in one output directory
together with a JSON manifest: the config echo, the derived parameters,
per-stage wall times and values, and a sha256 digest of every file
written.  All report files are plain CSV written by `csv_text` (ints as
ints, floats at 17 significant digits, strings verbatim), so identical
inputs reproduce identical bytes; the manifest's wall times are the only
run-to-run variation.  `csv_text` takes columns, not rows: it formats a
whole table with one % operation over a row template whose cell format
follows each column's element type, and prints every cell as the
per-cell `format_value` does.  Requesting only a late stage does not
emit the earlier stages' files.  The kernel, dichotomy and triples tables are
built by `theta_table`, `transform_table`, `dichotomy_table` and
`triples_table`, which the CLI uses too.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .approx import continued_fraction, dichotomy_probe
from .config import RunConfig
from .expsums import ps_sum_and_residual
# not called here: the benchmark's tracer (perfbench/tracing.py) wraps them
# where the pipeline resolves them
from .expsums import decomposition_residual, ps_exp_sum  # noqa: F401
from .kernel import make_kernel, theta, theta_transform, transform_bound, verify_bounds
from .params import Coefficients, ParameterError, RunParameters
from .primes import (
    CacheFormatError,
    PrimeTable,
    PSPrimeSet,
    cache_load,
    cache_store,
    ps_primes_in,
    sieve_primes,
)
from .triplesum import check_band_grids, decompose, find_triples, threshold_vacuous

__all__ = [
    "Instance",
    "load_full_set",
    "csv_text",
    "format_value",
    "theta_table",
    "transform_table",
    "dichotomy_table",
    "triples_table",
    "STAGES",
    "OutputRecord",
    "StageRecord",
    "RunManifest",
    "run_pipeline",
    "params_dict",
    "decomp_values",
    "dichotomy_orientation",
]

# canonical execution order; dependencies only ever point left
STAGES = ("primes", "kernel", "sums", "dichotomy", "decomp", "triples")

_SUMS_ALPHA_POINTS = 65
_DICHOTOMY_POINTS = 257

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class OutputRecord:
    file: str
    sha256: str
    size: int


@dataclass(frozen=True)
class StageRecord:
    name: str
    wall_time_s: float
    outputs: "tuple[OutputRecord, ...]"
    values: "dict[str, object]"


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to audit or reproduce a run.

    Re-running with the same config and stages reproduces every output
    file byte for byte; wall times differ, digests do not.
    """

    tool_version: str
    config_path: str
    config_sha256: str
    config_echo: "dict[str, str]"
    parameters: "dict[str, object]"
    warnings: "tuple[str, ...]"
    stages: "tuple[StageRecord, ...]"
    complete: bool
    failure: "dict[str, str] | None"

    def to_dict(self) -> dict:
        return asdict(self)


def _digest(path: Path) -> OutputRecord:
    blob = path.read_bytes()
    return OutputRecord(path.name, hashlib.sha256(blob).hexdigest(), len(blob))


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def format_value(value: object) -> str:
    """One report cell: ints (bools as 1/0) as ints, strings verbatim,
    everything else as a float at 17 significant digits."""
    if isinstance(value, float):    # np.float64 too: the common cell
        return f"{value:.17g}"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _cell_format(kind: type) -> "str | None":
    """The %-format that prints a cell of this type as format_value does,
    or None for a type without one."""
    if kind is float or kind is np.float64:
        return "%.17g"
    if kind is str:
        return "%s"
    if issubclass(kind, (int, np.integer, np.bool_)):
        return "%d"
    return None


def csv_text(header: "list[str]", columns) -> str:
    """Header line plus one line per row of the given columns (arrays or
    sequences, one per header entry, of equal length).

    The body is one % operation over a row template that takes each
    column's cell format from its element types (_cell_format); a column
    whose types share no one format is formatted cell by cell.  Every
    cell reads as format_value prints it.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(cols)} columns for {len(header)} header entries")
    n = len(cols[0]) if cols else 0
    if any(len(c) != n for c in cols):
        raise ValueError("columns differ in length")
    formats = []
    for i, col in enumerate(cols):
        kinds = {_cell_format(t) for t in set(map(type, col))}
        if len(kinds) == 1 and None not in kinds:
            formats.append(kinds.pop())
        else:
            cols[i] = [format_value(v) for v in col]
            formats.append("%s")
    head = ",".join(header) + "\n"
    if n == 0:
        return head
    row = ",".join(formats) + "\n"
    return head + (row * n) % tuple(chain.from_iterable(zip(*cols)))


def _write(path: Path, text: str) -> OutputRecord:
    path.write_text(text)
    return _digest(path)


def _transform_points(kern) -> np.ndarray:
    return np.geomspace(1e-3 / kern.epsilon, 1e3 / kern.epsilon, 513)


def _record_table(fields: "list[str]", records) -> str:
    """CSV of the named fields of records, one row per record."""
    return csv_text(fields, [[getattr(r, f) for r in records] for f in fields])


def theta_table(kern) -> str:
    """CSV of theta at 2^14 + 1 evenly spaced y in [-eps, eps]: y, theta."""
    y = np.linspace(-kern.epsilon, kern.epsilon, (1 << 14) + 1)
    return csv_text(["y", "theta"], [y, theta(kern, y)])


def transform_table(kern) -> str:
    """CSV of the transform and its decay bound at 513 log-spaced points
    from 1e-3/eps to 1e3/eps: x, transform, bound."""
    x = _transform_points(kern)
    return csv_text(["x", "transform", "bound"],
                    [x, theta_transform(kern, x), transform_bound(kern, x)])


def dichotomy_table(coeffs: Coefficients, conv, params: RunParameters, ts):
    """Probe each t of ts; returns (CSV text, the reports)."""
    reports = [dichotomy_probe(coeffs, conv, params, t) for t in ts]
    return _record_table(
        ["t", "a1", "q1", "a2", "q2", "class1", "class2", "case"], reports
    ), reports


def triples_table(params: RunParameters, coeffs: Coefficients, pset: PSPrimeSet):
    """Verified triples at the effective search width, nearest first;
    returns (CSV text, the records)."""
    records = find_triples(params, coeffs, pset, params.epsilon_effective)
    return _record_table(["p1", "p2", "p3", "form_value", "weight"], records), records


def params_dict(cfg: RunConfig) -> "dict[str, object]":
    p = cfg.params
    c = cfg.coeffs
    return {
        "q0": p.q0,
        "gamma": p.gamma.value,
        "gamma_in_theorem_range": p.gamma.theorem_range,
        "lambda0": p.lambda0,
        "X": p.X,
        "Delta": p.Delta,
        "epsilon_formula": p.epsilon,
        "H_formula": p.H,
        "epsilon_user": p.epsilon_user,
        "epsilon_effective": p.epsilon_effective,
        "H_effective": p.H_effective,
        "log_X": p.log_X,
        "lambda1": c.lambda1,
        "lambda2": c.lambda2,
        "lambda3": c.lambda3,
        "eta": c.eta,
    }


def load_full_set(
    gamma: float, limit: int, table: "PrimeTable | None" = None,
    path: "Path | None" = None,
) -> PSPrimeSet:
    """Floor-power primes in (0, limit], loaded from a cache file or built.

    Without path the file is named after gamma and limit inside the
    directory PSD_CACHE_DIR (created if missing), or there is no file
    when that variable is unset.  A file that is unreadable or holds
    another gamma or limit is logged as a warning and rebuilt; a built
    set is written back.  table, when given, must reach limit.
    """
    if path is None and os.environ.get("PSD_CACHE_DIR"):
        cdir = Path(os.environ["PSD_CACHE_DIR"])
        cdir.mkdir(parents=True, exist_ok=True)
        path = cdir / f"ps_g{gamma!r}_L{limit}.psp"
    if path is not None:
        try:
            cached = cache_load(path, gamma)
        except FileNotFoundError:
            pass
        except CacheFormatError as exc:
            _log.warning("cache %s ignored: %s", path, exc)
        else:
            if cached.hi == limit:
                return cached
            _log.warning("cache %s holds limit %d, not %d; rebuilt",
                         path, int(cached.hi), limit)
    if table is None:
        table = sieve_primes(limit)
    built = ps_primes_in(0, limit, gamma, table)
    if path is not None:
        cache_store(built, path)
    return built


class Instance:
    """The shared inputs of one instance, each built at most once.

    table holds the primes up to limit = ceil(X)+1, window_set the
    floor-power primes in (lambda0*X, X], full_set those in (0, limit]
    (through load_full_set), and kernel the canonical smoothing
    kernel of width epsilon_effective and smoothness params.kernel_k.
    """

    def __init__(self, params: RunParameters) -> None:
        self.params = params
        self.limit = int(math.ceil(params.X)) + 1

    @cached_property
    def table(self) -> PrimeTable:
        return sieve_primes(self.limit)

    @cached_property
    def full_set(self) -> PSPrimeSet:
        return load_full_set(self.params.gamma.value, self.limit, self.table)

    @cached_property
    def window_set(self) -> PSPrimeSet:
        p = self.params
        return ps_primes_in(p.lambda0 * p.X, p.X, p.gamma.value, self.table)

    @cached_property
    def kernel(self):
        p = self.params
        return make_kernel(p.epsilon_effective, p.kernel_k)


def _stage_primes(cfg: RunConfig, inst: Instance, out: Path):
    pset = inst.window_set
    rec = _write(out / "primes.csv", csv_text(
        ["p", "weight_w", "weight_log"],
        [pset.primes, pset.weight_w, pset.weight_log],
    ))
    cache_path = out / "psprimes.psp"
    cache_store(inst.full_set, cache_path)
    values = {
        "window_lo": pset.lo,
        "window_hi": pset.hi,
        "window_count": pset.count,
        "full_count": inst.full_set.count,
        "sieve_limit": inst.limit,
    }
    return (rec, _digest(cache_path)), values


def _stage_kernel(cfg: RunConfig, inst: Instance, out: Path):
    kern = inst.kernel
    rec_theta = _write(out / "kernel_theta.csv", theta_table(kern))
    rec_tr = _write(out / "kernel_transform.csv", transform_table(kern))
    report = verify_bounds(kern, _transform_points(kern))
    values = {
        "epsilon": kern.epsilon,
        "k": kern.k,
        "mass": float(theta_transform(kern, 0.0)),
        "bound_checked": report.checked,
        "bound_violations": report.violations,
        "bound_min_slack": report.min_slack,
    }
    return (rec_theta, rec_tr), values


def _stage_sums(cfg: RunConfig, inst: Instance, out: Path):
    params = cfg.params
    pset = inst.window_set
    alphas = np.linspace(0.0, 1.0, _SUMS_ALPHA_POINTS)
    results, res = ps_sum_and_residual(alphas, params, pset, inst.table)
    sums = [r.value for r in results]
    rec_s = _write(out / "sums.csv", csv_text(
        ["alpha", "re", "im", "abs"],
        [alphas, [z.real for z in sums], [z.imag for z in sums],
         [abs(z) for z in sums]],
    ))
    rec_r = _write(out / "sums_residual.csv", csv_text(
        ["alpha", "identity_residual", "sigma_gap"],
        [alphas, [r.identity_residual for r in res], [r.sigma_gap for r in res]],
    ))
    values = {
        "alpha_points": int(alphas.size),
        "term_count": pset.count,
        "max_identity_residual": max(r.identity_residual for r in res),
    }
    return (rec_s, rec_r), values


def dichotomy_orientation(cfg: RunConfig):
    """Canonical coefficients oriented so q0 is a convergent denominator.

    The two-scale probe references the ratio of the positive leads;
    which of them is written first is a labeling choice, so both
    orientations are tried before giving up.  Returns (coeffs, conv).
    """
    c = cfg.canonical
    swapped = Coefficients(c.lambda2, c.lambda1, c.lambda3, c.eta)
    for cand in (c, swapped):
        seq = continued_fraction(cand.lambda1 / cand.lambda2, 64)
        conv = next(
            (r for r in seq.convergents if r.q == cfg.params.q0), None
        )
        if conv is not None:
            return cand, conv
    raise ParameterError(
        f"q0={cfg.params.q0} is not a convergent denominator of "
        f"lambda1/lambda2 in either orientation"
    )


def _stage_dichotomy(cfg: RunConfig, inst: Instance, out: Path):
    params = cfg.params
    c, conv = dichotomy_orientation(cfg)
    ts = np.geomspace(params.Delta, params.H_effective, _DICHOTOMY_POINTS)
    text, reports = dichotomy_table(c, conv, params, ts.tolist())
    rec = _write(out / "dichotomy.csv", text)
    values = {
        "convergent": f"{conv.a}/{conv.q}",
        "t_points": int(ts.size),
        "case_counts": dict(sorted(Counter(r.case for r in reports).items())),
        "unexplained": sum(not r.explained for r in reports),
    }
    return (rec,), values


def _re_im_pair(x: float) -> "list[float]":
    """A band value as the [re, im] pair of the manifest and the
    gamma-decomp JSON; band values are real, so im is 0.0."""
    return [x, 0.0]


def decomp_values(res) -> "dict[str, object]":
    """Flatten a decomposition result for the manifest (bounds, ratios,
    each piece's error bar and grid size, and J's bar)."""
    m = res.middle
    mj = res.majorant
    pieces = {}
    for p in (1, 2, 3):
        band = res.bands[p]
        pieces[f"gamma{p}"] = _re_im_pair(band.value)
        pieces[f"gamma{p}_error"] = band.error
        pieces[f"gamma{p}_points"] = band.n_points
    return {
        **pieces,
        "gamma_total": _re_im_pair(res.gamma_total),
        "direct_value": res.direct_value,
        "triples_found": res.triples_found,
        "closure_error": res.closure_error,
        "scale_ratio": res.scale_ratio,
        "j_integral": res.j_integral,
        "j_integral_error": res.bands["J"].error,
        "box_integral": res.box.value,
        "box_feasible": res.box.feasible,
        "box_ratio_eps_x2": res.box.ratio_eps_x2,
        "phi_bound": res.phi.value,
        "phi_shape_ratio": res.phi.shape_ratio,
        "tail_bound": res.tail,
        "piece3_cut": res.piece3_cut,
        "truncation_empty": res.truncation_empty,
        "middle_points": m.n_points,
        "middle_spacing": m.spacing,
        "majorant_cross": mj.bound_cross,
        "majorant_squares": mj.bound_squares,
        "majorant_factored": mj.bound_factored,
        "majorant_sup_shape_ratio": mj.sup_shape_ratio,
        "majorant_t_shape_ratios": list(mj.t_shape_ratios),
    }


def _stage_decomp(cfg: RunConfig, inst: Instance, out: Path):
    res = decompose(cfg.params, cfg.coeffs, inst.window_set, kernel=inst.kernel)
    values = decomp_values(res)
    path = out / "decomp.json"
    path.write_text(json.dumps(values, indent=1, default=_json_default) + "\n")
    return (_digest(path),), values


def _stage_triples(cfg: RunConfig, inst: Instance, out: Path):
    params = cfg.params
    text, records = triples_table(params, cfg.coeffs, inst.window_set)
    rec = _write(out / "triples.csv", text)
    values = {
        "eps_search": params.epsilon_effective,
        "found": len(records),
        "formula_eps_vacuous": threshold_vacuous(params, cfg.coeffs),
    }
    return (rec,), values


_STAGE_FUNCS = {
    "primes": _stage_primes,
    "kernel": _stage_kernel,
    "sums": _stage_sums,
    "dichotomy": _stage_dichotomy,
    "decomp": _stage_decomp,
    "triples": _stage_triples,
}


# run before any stage, so that a stage failing one writes no output
_PRECHECKS = {
    "dichotomy": lambda cfg, inst: dichotomy_orientation(cfg),
    "decomp": lambda cfg, inst: check_band_grids(cfg.params, cfg.coeffs, inst.kernel),
}


def _write_manifest(out: Path, manifest: RunManifest) -> None:
    (out / "manifest.json").write_text(
        json.dumps(manifest.to_dict(), indent=1, default=_json_default) + "\n"
    )


def run_pipeline(
    cfg: RunConfig,
    stages: "tuple[str, ...] | list[str] | set[str]" = STAGES,
    out_dir: "str | Path" = "pstriples_run",
) -> RunManifest:
    """Execute the requested stages and write the manifest.

    stages must be a subset of STAGES; they run in canonical order
    regardless of the order given.  A stage failure writes the partial
    manifest flagged incomplete, then re-raises the stage's exception.
    Before any stage runs, a requested dichotomy checks its orientation
    (dichotomy_orientation) and a requested decomp its band sizes
    (check_band_grids); either failure is that stage's, with no output
    written.
    """
    wanted = set(stages)
    unknown = wanted - set(STAGES)
    if unknown:
        raise ValueError(
            f"unknown stage(s) {sorted(unknown)}; valid: {list(STAGES)}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    inst = Instance(cfg.params)
    done: list[StageRecord] = []
    base = dict(
        tool_version=__version__,
        config_path=cfg.path,
        config_sha256=hashlib.sha256(cfg.source_text.encode()).hexdigest(),
        config_echo=dict(cfg.echo),
        parameters=params_dict(cfg),
        warnings=cfg.warnings,
    )

    try:
        for name, check in _PRECHECKS.items():
            if name in wanted:
                check(cfg, inst)
        for name in (s for s in STAGES if s in wanted):
            t0 = time.perf_counter()
            outputs, values = _STAGE_FUNCS[name](cfg, inst, out)
            done.append(StageRecord(name, time.perf_counter() - t0,
                                    tuple(outputs), values))
    except Exception as exc:
        _write_manifest(out, RunManifest(
            **base, stages=tuple(done), complete=False,
            failure={"stage": name, "error": f"{type(exc).__name__}: {exc}"},
        ))
        raise
    manifest = RunManifest(
        **base, stages=tuple(done), complete=True, failure=None,
    )
    _write_manifest(out, manifest)
    return manifest
