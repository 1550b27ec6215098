"""The benchmark's fixed instances, the operation each one times, and
the independent checks its outputs must pass.

Every instance uses coefficients (1, sqrt 2, -2), eta = 0 and
lambda0 = 0.5, written to a config file that set-up parses like a user's
run would.  Instance parameters never depend on the seed, so sizes and
counts repeat exactly from run to run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

# Coefficients shared by every instance: lambda2 is sqrt(2) to double
# precision, so q0 = 70 and 169 are convergent denominators of l1/l2.
LAMBDAS = (1.0, 1.4142135623730951, -2.0)
ETA = 0.0
LAMBDA0 = 0.5

# The spectral and direct sides of one decomposition must agree to the
# acceptance gate of criterion 9.
CLOSURE_GATE = 1e-2

# Sizes are chosen so one operation takes a few seconds and a run holds
# several repetitions to take the median of.  speed_exponent is how
# strongly the operation slows with the host (see probe.py).
WORKLOADS = {
    # Spectral side dominates (bands of ~1e7 points); small window (202
    # primes) where a blocked evaluator should beat the NUFFT; piece 3
    # is non-empty at eps 2.
    "decomp-A": {"kind": "decomp", "q0": 70, "gamma": 0.9, "eps": 2.0,
                 "speed_exponent": 0.83},
    # `pstriples run` without decomp on 1468 primes: the direct
    # collect-mode sweep dominates; q0 = 169 is a sqrt(2) convergent so
    # dichotomy succeeds.
    "run-witness": {
        "kind": "run", "q0": 169, "gamma": 0.94, "eps": 2.0,
        "stages": "primes,kernel,sums,dichotomy,triples",
        "speed_exponent": 1.38,
    },
}


def config_text(spec: dict) -> str:
    l1, l2, l3 = LAMBDAS
    return (
        f"q0 = {spec['q0']}\ngamma = {spec['gamma']!r}\n"
        f"lambda0 = {LAMBDA0!r}\nlambda1 = {l1!r}\nlambda2 = {l2!r}\n"
        f"lambda3 = {l3!r}\neta = {ETA!r}\nepsilon_user = {spec['eps']!r}\n"
    )


class Instance:
    """What set-up builds: the parsed config, the prime table, the
    window's floor-power primes and the canonical kernel."""

    def __init__(self, ps, config_path: Path) -> None:
        cfg = ps.config.parse_config(config_path)
        params = cfg.params
        table = ps.primes.sieve_primes(int(math.ceil(params.X)) + 1)
        self.cfg = cfg
        self.params = params
        self.pset = ps.primes.ps_primes_in(
            params.lambda0 * params.X, params.X, params.gamma.value, table
        )
        self.kernel = ps.kernel.make_kernel(
            params.epsilon_effective, max(1, math.floor(params.log_X))
        )


def run_operation(ps, spec: dict, inst: Instance, out_dir: Path):
    """One timed operation; returns what the checks need."""
    if spec["kind"] == "decomp":
        return ps.triplesum.decompose(
            inst.params, inst.cfg.coeffs, inst.pset, kernel=inst.kernel,
            with_direct=True,
        )
    argv = ["run", "--config", inst.cfg.path, "--stages", spec["stages"],
            "--out-dir", str(out_dir)]
    with redirect_stdout(io.StringIO()):
        return ps.cli.main(argv)


# ---------------------------------------------------------------------------
# independent oracles


def _pair_intervals(pset, eps: float, rows: slice):
    """Forms l1*p1 + l2*p2 + l3*p3 + eta for p1 in rows, with the sweep's
    association, and the [lo, hi) ranges of sorted l3*p3 inside
    |form| < eps.  Uses neither theta nor compensated sums."""
    l1, l2, l3 = LAMBDAS
    p = pset.primes.astype(np.float64)
    z3 = l3 * p
    order = np.argsort(z3, kind="stable")
    z3s = z3[order]
    targets = (l1 * p[rows, None] + ETA) + l2 * p[None, :]
    lo = np.searchsorted(z3s, -targets - eps, side="right")
    hi = np.searchsorted(z3s, -targets + eps, side="left")
    return targets, lo, hi, z3s, order


def triple_count(pset, eps: float) -> int:
    """Number of window triples with |form| < eps, by searchsorted."""
    total = 0
    for start in range(0, pset.count, 256):
        _, lo, hi, _, _ = _pair_intervals(pset, eps, slice(start, start + 256))
        total += int(np.sum(hi - lo))
    return total


def nearest_triples(pset, eps: float, limit: int):
    """All window triples with |form| < eps, nearest to zero first
    (ties by p1, p2, p3), cut to limit; and the uncut count."""
    p_int = pset.primes
    parts = []
    for start in range(0, pset.count, 256):
        rows = slice(start, start + 256)
        targets, lo, hi, z3s, order = _pair_intervals(pset, eps, rows)
        counts = (hi - lo).ravel()
        pair = np.repeat(np.arange(counts.size), counts)
        offset = np.arange(pair.size) - np.repeat(np.cumsum(counts) - counts, counts)
        k = lo.ravel()[pair] + offset
        i = start + pair // pset.count
        j = pair % pset.count
        forms = targets.ravel()[pair] + z3s[k]
        parts.append((p_int[i], p_int[j], p_int[order][k], forms))
    p1, p2, p3, forms = (np.concatenate(c) for c in zip(*parts))
    idx = np.lexsort((p3, p2, p1, np.abs(forms)))[:limit]
    return p1[idx], p2[idx], p3[idx], forms[idx], int(forms.size)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def _reverify(row, params, eps: float) -> "str | None":
    """Re-check one emitted triple the way acceptance criterion 10 does."""
    ps3 = (int(row["p1"]), int(row["p2"]), int(row["p3"]))
    g = params.gamma.value
    lo, hi = params.lambda0 * params.X, params.X
    for p in ps3:
        floor_power = math.floor(-(p ** g)) - math.floor(-((p + 1) ** g)) == 1
        if not (lo < p <= hi and _is_prime(p) and floor_power):
            return f"{p} is not a floor-power prime of the window"
    l1, l2, l3 = LAMBDAS
    form = l1 * ps3[0] + l2 * ps3[1] + l3 * ps3[2] + ETA
    emitted = float(row["form_value"])
    if not (abs(form) < eps + 1e-9 and abs(form - emitted) <= 1e-9):
        return f"form of {ps3} recomputes to {form!r}, emitted {emitted!r}"
    # No theta factor: the nearest triples sit on the kernel's plateau,
    # where theta is exactly 1.
    weight = (ps3[0] * ps3[1] * ps3[2]) ** (1.0 - g) * math.prod(
        math.log(p) for p in ps3
    )
    if abs(weight - float(row["weight"])) > 1e-12 * weight:
        return f"weight of {ps3} recomputes to {weight!r}"
    return None


def check_decomp(res, inst: Instance) -> "tuple[dict, list[str]]":
    """Closure under the acceptance gate; the sweep's triple count equal
    to the searchsorted count."""
    failures = []
    direct = res.direct_value
    closure = abs(res.gamma_total.real - direct) / abs(direct) if direct else math.inf
    if not closure < CLOSURE_GATE:
        failures.append(f"closure {closure!r} not under {CLOSURE_GATE}")
    want = triple_count(inst.pset, inst.params.epsilon_effective)
    if res.triples_found != want:
        failures.append(f"triples_found {res.triples_found} != oracle {want}")
    values = {
        "closure_rel_err": closure,
        "direct_triples": int(res.triples_found),
        "window_primes": inst.pset.count,
        "middle_points": int(res.middle.n_points),
        "truncation_empty": bool(res.truncation_empty),
    }
    return values, failures


def _file_digests(out_dir: Path, manifest: dict) -> "tuple[list, list[str]]":
    failures = []
    digests = []
    for stage in manifest["stages"]:
        for rec in stage["outputs"]:
            blob = (out_dir / rec["file"]).read_bytes()
            sha = hashlib.sha256(blob).hexdigest()
            if sha != rec["sha256"]:
                failures.append(f"{rec['file']}: manifest digest does not match bytes")
            digests.append([rec["file"], sha])
    return digests, failures


def check_run(exit_code, inst: Instance, spec: dict, out_dir: Path):
    """Complete manifest, digests that match the files, and every emitted
    triple re-verified and equal to the oracle's nearest triples."""
    if exit_code != 0:
        return {}, [f"pstriples run exited {exit_code}"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    failures = []
    if manifest.get("complete") is not True:
        failures.append("manifest not complete")
    stages = {s["name"]: s for s in manifest["stages"]}
    if list(stages) != spec["stages"].split(","):
        failures.append(f"stages run {list(stages)}")
    digests, bad = _file_digests(out_dir, manifest)
    failures += bad

    params = inst.params
    eps = params.epsilon_effective
    with open(out_dir / "triples.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        why = _reverify(row, params, eps)
        if why:
            failures.append(why)
            break
    p1, p2, p3, forms, total = nearest_triples(inst.pset, eps, 1000)
    emitted = [(int(r["p1"]), int(r["p2"]), int(r["p3"])) for r in rows]
    if emitted != list(zip(p1.tolist(), p2.tolist(), p3.tolist())):
        failures.append("emitted triples differ from the oracle's nearest 1000")
    elif rows and max(abs(float(r["form_value"]) - f)
                      for r, f in zip(rows, forms.tolist())) > 1e-9:
        failures.append("emitted form values differ from the oracle's")
    found = stages.get("triples", {}).get("values", {}).get("found")
    if found != len(rows):
        failures.append(f"manifest found {found}, triples.csv has {len(rows)} rows")
    values = {
        "identity_residual": stages["sums"]["values"]["max_identity_residual"],
        "find_triples_swept": total,
        "window_primes": inst.pset.count,
        "digests": digests,
        "stage_wall_s": {n: s["wall_time_s"] for n, s in stages.items()},
    }
    return values, failures


def import_package(src: Path):
    """Import pstriples from this checkout's src and nowhere else."""
    if not (src / "pstriples" / "__init__.py").is_file():
        raise SystemExit(f"no pstriples sources under {src}")
    sys.path.insert(0, str(src))
    import pstriples
    import pstriples.cli  # noqa: F401  (loads every layer the CLI uses)

    if Path(pstriples.__file__).resolve().parent != (src / "pstriples").resolve():
        raise SystemExit(f"pstriples imported from {pstriples.__file__}, not {src}")
    return pstriples
