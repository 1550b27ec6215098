"""Command-line entry points.

Subcommands mirror the library surface: ps-primes (generation and
caching), kernel (tables and bound verification), sums (the exponential
sums on an alpha grid), cf (continued fraction ladder), dichotomy (the
two-scale denominator probe), gamma-decomp (the decomposition with its
bound chain and optional triple emission), and run (the staged
pipeline).  All tabular output is CSV with 17 significant digits.

Exit codes: 0 ok, 2 config error, 3 hypothesis violation, 4 numeric
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .approx import ApproxError, continued_fraction
from .config import ConfigError, parse_config
from .kernel import (
    invert_transform,
    make_kernel,
    theta,
    theta_transform,
    verify_bounds,
)
from .params import ParameterError, RunParameters, parse_q0
from .pipeline import (
    STAGES,
    Instance,
    _re_im_pair,
    csv_text,
    decomp_values,
    dichotomy_orientation,
    dichotomy_table,
    format_value,
    load_full_set,
    params_dict,
    run_pipeline,
    theta_table,
    transform_table,
    triples_table,
)
from .expsums import (
    chebyshev_sum,
    floor_error_sum,
    interval_integral,
    prime_exp_sum,
    ps_exp_sum,
)
from .quadrature import QuadratureError
from .triplesum import decompose, piece_quadrature, threshold_vacuous

__all__ = ["main"]


def _emit(text: str, out: "str | None") -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _split(pattern: str, name: str, form: str) -> "tuple[float, float, list]":
    """Split pattern into form's ':' fields; the first two are finite ends."""
    parts = pattern.split(":")
    if len(parts) != form.count(":") + 1:
        raise ValueError(f"{name} must be {form}, got {pattern!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"{name}: ends must be numbers, got {pattern!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name}: ends must be finite, got {pattern!r}")
    return lo, hi, parts


def _grid(pattern: str, name: str) -> np.ndarray:
    """Parse 'lo:hi:n' into n inclusive uniform points."""
    lo, hi, parts = _split(pattern, name, "lo:hi:n")
    try:
        n = int(parts[2])
    except ValueError:
        raise ValueError(f"{name}: n must be an integer, got {parts[2]!r}") from None
    if n < 1:
        raise ValueError(f"{name}: need at least one point, got {n}")
    if n == 1:
        return np.array([lo])
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ps_primes(args) -> int:
    window = _split(args.range, "--range", "lo:hi") if args.range else None
    path = Path(args.cache) if args.cache else None
    primes = load_full_set(args.gamma, args.limit, path=path).primes
    if window:
        primes = primes[(primes > window[0]) & (primes <= window[1])]
    _emit("".join(f"{int(p)}\n" for p in primes.tolist()), args.out)
    return 0


def _cmd_kernel(args) -> int:
    kern = make_kernel(args.epsilon, args.k)
    if args.emit_theta:
        _emit(theta_table(kern), args.emit_theta)
    if args.emit_transform:
        _emit(transform_table(kern), args.emit_transform)
    f = format_value
    print(f"epsilon={f(kern.epsilon)} k={kern.k} "
          f"mass={f(theta_transform(kern, 0.0))} "
          f"plateau={f(kern.plateau)} support={f(kern.support)}")
    if args.verify:
        x = np.geomspace(1e-3 / kern.epsilon, 1e3 / kern.epsilon, 10_000)
        report = verify_bounds(kern, x)
        ys = np.linspace(-1.1 * kern.epsilon, 1.1 * kern.epsilon, 201)
        err = float(np.max(np.abs(invert_transform(kern, ys) - theta(kern, ys))))
        ok = report.violations == 0 and err <= 1e-3
        print(f"bounds: {report.checked} checked, {report.violations} "
              f"violations, min slack {f(report.min_slack)}")
        print(f"inversion: max error {f(err)}")
        print("verify PASS" if ok else "verify FAIL")
        if not ok:
            return 4
    return 0


def _cmd_sums(args) -> int:
    params = RunParameters(
        parse_q0(args.q0), args.gamma, args.lambda0, epsilon_user=args.eps_user
    )
    alphas = _grid(args.alpha_grid, "--alpha-grid")
    inst = Instance(params)
    table = inst.table

    if args.kind == "I":
        zs = interval_integral(alphas, params).tolist()
    else:
        if args.kind == "S":
            sums = ps_exp_sum(alphas, params, inst.window_set)
        elif args.kind == "Sigma":
            sums = prime_exp_sum(alphas, params, table)
        elif args.kind == "Omega":
            sums = floor_error_sum(alphas, params, table)
        else:
            sums = chebyshev_sum(alphas, params.X, table)
        zs = [r.value for r in sums]
    cols = [alphas, [z.real for z in zs], [z.imag for z in zs], [abs(z) for z in zs]]
    _emit(csv_text(["alpha", "re", "im", "abs"], cols), args.out)
    return 0


def _cmd_cf(args) -> int:
    seq = continued_fraction(args.x, args.terms)
    conv = seq.convergents
    cols = [range(1, len(conv) + 1), seq.partial_quotients,
            [r.a for r in conv], [r.q for r in conv]]
    _emit(csv_text(["i", "a", "p", "q"], cols), args.out)
    if seq.rational_at_precision:
        print("terminated: remainder below the precision floor", file=sys.stderr)
    return 0


def _config_with_override(args):
    eps = getattr(args, "eps_user", None)
    return parse_config(args.config, epsilon_user=eps)


def _cmd_dichotomy(args) -> int:
    cfg = _config_with_override(args)
    c, conv = dichotomy_orientation(cfg)
    ts = _grid(args.t_grid, "--t-grid").tolist()
    _emit(dichotomy_table(c, conv, cfg.params, ts)[0], args.out)
    return 0


def _cmd_gamma_decomp(args) -> int:
    cfg = _config_with_override(args)
    params = cfg.params
    pieces = tuple(int(p) for p in args.pieces.split(",")) if args.pieces else (1, 2, 3)
    if any(p not in (1, 2, 3) for p in pieces):
        raise ValueError(f"--pieces must select from 1,2,3, got {args.pieces!r}")
    inst = Instance(params)
    pset, kern = inst.window_set, inst.kernel
    wall: dict[str, float] = {}
    report: dict[str, object] = {
        "tool_version": __version__,
        "config": dict(cfg.echo),
        "parameters": params_dict(cfg),
        "pieces": list(pieces),
    }
    t0 = time.perf_counter()
    if set(pieces) == {1, 2, 3}:
        res = decompose(params, cfg.coeffs, pset, kernel=kern)
        report["values"] = decomp_values(res)
    else:
        vals: dict[str, object] = {}
        for p in pieces:
            band = piece_quadrature(p, params, cfg.coeffs, kern, pset)
            vals[f"gamma{p}"] = _re_im_pair(band.value)
            vals[f"gamma{p}_error"] = band.error
        report["values"] = vals
    wall["decomposition"] = time.perf_counter() - t0
    if args.emit_triples:
        t0 = time.perf_counter()
        text, recs = triples_table(params, cfg.coeffs, pset)
        _emit(text, args.emit_triples)
        wall["triples"] = time.perf_counter() - t0
        report["triples"] = {
            "file": args.emit_triples,
            "found": len(recs),
            "eps_search": params.epsilon_effective,
            "formula_eps_vacuous": threshold_vacuous(params, cfg.coeffs),
        }
    report["wall_times_s"] = wall
    text = json.dumps(report, indent=1) + "\n"
    sys.stdout.write(text)
    if args.manifest:
        Path(args.manifest).write_text(text)
    return 0


def _cmd_run(args) -> int:
    cfg = _config_with_override(args)
    stages = tuple(args.stages.split(",")) if args.stages else STAGES
    manifest = run_pipeline(cfg, stages, args.out_dir)
    for st in manifest.stages:
        files = " ".join(o.file for o in st.outputs)
        print(f"{st.name}: {st.wall_time_s:.3f} s  [{files}]")
    print(f"manifest: {Path(args.out_dir) / 'manifest.json'}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pstriples",
        description="floor-power prime triple computations",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ps-primes", help="generate floor-power primes")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--range", help="lo:hi window filter (half-open (lo, hi])")
    p.add_argument("--cache", help="binary cache file (default: PSD_CACHE_DIR)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_ps_primes)

    p = sub.add_parser("kernel", help="smoothing kernel tables and checks")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit-theta", help="write y,theta CSV here")
    p.add_argument("--emit-transform", help="write x,transform,bound CSV here")
    p.add_argument("--verify", action="store_true",
                   help="check transform bounds and inversion")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("sums", help="exponential sums on an alpha grid")
    p.add_argument("--kind", choices=["S", "Sigma", "Omega", "I", "Psi"],
                   required=True)
    p.add_argument("--alpha-grid", required=True, metavar="lo:hi:n")
    p.add_argument("--q0", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--lambda0", type=float, default=0.5)
    p.add_argument("--eps-user", type=float, default=None)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_sums)

    p = sub.add_parser("cf", help="continued fraction convergents")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("dichotomy", help="two-scale denominator probe")
    p.add_argument("--config", required=True)
    p.add_argument("--t-grid", required=True, metavar="lo:hi:n")
    p.add_argument("--eps-user", type=float, default=None)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_dichotomy)

    p = sub.add_parser("gamma-decomp",
                       help="band decomposition with bounds")
    p.add_argument("--config", required=True)
    p.add_argument("--eps-user", type=float, default=None)
    p.add_argument("--emit-triples", metavar="FILE",
                   help="write the verified triple records here")
    p.add_argument("--pieces", help="comma subset of 1,2,3 (default all)")
    p.add_argument("--manifest", metavar="FILE",
                   help="also write the JSON report here")
    p.set_defaults(func=_cmd_gamma_decomp)

    p = sub.add_parser("run", help="staged pipeline with manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--stages", help=f"comma subset of {','.join(STAGES)}")
    p.add_argument("--out-dir", default="pstriples_run")
    p.add_argument("--eps-user", type=float, default=None)
    p.set_defaults(func=_cmd_run)

    return top


# Options whose lo:hi:n value may start with a minus sign.
_GRID_OPTIONS = ("--alpha-grid", "--t-grid")


def _attach_grid_values(argv: "list[str]") -> "list[str]":
    """Join '--alpha-grid -0.5:0.5:3' into '--alpha-grid=-0.5:0.5:3'.

    argparse takes a token that starts with '-' and is not a plain
    number for an option, so a grid with a negative lower end would
    lose its value.  Only a following token that starts with '-' and
    holds a ':' is joined; any other is left for argparse to judge."""
    out: "list[str]" = []
    for tok in argv:
        joins = out and out[-1] in _GRID_OPTIONS
        if joins and tok.startswith("-") and ":" in tok:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_grid_values(argv))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 3 if exc.all_hypothesis else 2
    except ParameterError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except QuadratureError as exc:
        print(f"numeric non-convergence: {exc}", file=sys.stderr)
        return 4
    except ApproxError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
