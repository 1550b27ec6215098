"""pstriples benchmark: one workload, closed loop, one process per repetition.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): decomp-A, run-witness.  One
client runs one operation at a time, each in a fresh interpreter,
because every `pstriples` user pays the imports, the first FFT plan and
the NUFFT deconvolution cache.  Before the operations, a few set-up-only
processes time set-up alone, so setup_s is a median of several.
Operations repeat while another fits in --seconds (at least one; two on
run-witness, whose output digests must agree between runs).

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
the repetitions).  wall_s and setup_s are wall times rescaled to a
reference host speed by a probe that samples the speed of the
repetition's process throughout (see probe.py); the raw times are in
the report.  --trace 1 runs one
untraced and one traced repetition, in a seed-chosen order, and reports
the per-layer metrics with trace.overhead_s, the traced rescaled wall
time minus the untraced one.  The seed
also picks the evaluator probe points; instance sizes never depend on it.

Earlier stdout lines give a readable summary and a JSON report (machine
record, every metric with its sample count, failures); the last line is
the result object {"correct", "attempted", "failed", "metrics"}.  Spans
of the traced repetition are written to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import SETUP_EXPONENT
from tracing import RATIOS
from workloads import WORKLOADS, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REP = HERE / "rep.py"

SETUP_PROBES = 3          # set-up-only processes per run
HARD_LIMIT_S = 170.0      # every child is killed past this point


def _spawn(workload: str, seed: int, extra: "list[str]", rep_dir: Path,
           deadline: float):
    """Run rep.py once in rep_dir, with a fresh prime cache there;
    returns (record or None, error text)."""
    rep_dir.mkdir(parents=True)
    (rep_dir / "instance.conf").write_text(config_text(WORKLOADS[workload]))
    env = dict(os.environ, PSD_CACHE_DIR=str(rep_dir / "cache"))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(REP), "--workload", workload, "--seed", str(seed),
         "--work", str(rep_dir), *extra],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "repetition killed at the time limit"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {err.strip()[-2000:]}"
    rec = json.loads(out.strip().splitlines()[-1])
    rec["setup_raw_s"] = rec["setup_end"] - t_spawn
    rec["setup_s"] = ((rec["setup_raw_s"] - rec["setup_probe_s"])
                      * rec["setup_speed"] ** SETUP_EXPONENT)
    rec["process_s"] = time.monotonic() - t_spawn
    return rec, ""


def _stats(values: "list[float]") -> dict:
    if not values:
        return {"median": 0.0, "n": 0}
    return {"median": statistics.median(values), "n": len(values),
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds, so its child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "pstriples" / "__init__.py").is_file():
        print(f"no pstriples sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = WORKLOADS[args.workload]

    t_start = time.monotonic()
    deadline = t_start + args.seconds
    hard = t_start + HARD_LIMIT_S
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    spans_path = work_root / f"spans-{args.workload}.csv.gz"
    failures: list[str] = []
    setups: list[dict] = []
    reps: list[dict] = []
    machine = None
    try:
        for i in range(SETUP_PROBES):
            rec, err = _spawn(args.workload, args.seed, ["--setup-only"],
                              work / f"setup{i}", hard)
            if rec is None:
                failures.append(f"set-up: {err}")
                continue
            setups.append(rec)
            machine = rec["machine"]

        if args.trace:
            plan = [False, True]
            random.Random(args.seed).shuffle(plan)
        else:
            plan = [False] * (2 if spec["kind"] == "run" else 1)
        last = 0.0
        i = 0
        while i < len(plan) or (
            not args.trace and time.monotonic() + last <= min(deadline, hard)
        ):
            traced = plan[i] if i < len(plan) else False
            extra = ["--trace", "--spans", str(spans_path)] if traced else []
            t0 = time.monotonic()
            rec, err = _spawn(args.workload, args.seed, extra, work / f"rep{i}", hard)
            last = time.monotonic() - t0
            i += 1
            if rec is None:
                failures.append(f"repetition {i}: {err}")
                reps.append({"traced": traced, "failed": True})
                continue
            rec["traced"] = traced
            rec["failed"] = bool(rec["failures"])
            failures += [f"repetition {i}: {f}" for f in rec["failures"]]
            reps.append(rec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in reps if not r["failed"]]
    digests = {json.dumps(r["checked"]["digests"]) for r in ok
               if "digests" in r["checked"]}
    if len(digests) > 1:
        failures.append("output digests differ between repetitions")
        for r in ok[1:]:
            r["failed"] = True
    attempted = len(reps) + (SETUP_PROBES - len(setups))
    failed = sum(r["failed"] for r in reps) + (SETUP_PROBES - len(setups))
    plain = [r for r in reps if not r["failed"] and not r["traced"]]
    traced = [r for r in reps if not r["failed"] and r["traced"]]
    setups += plain

    first = (plain or traced or [{"checked": {}}])[0]["checked"]
    summary = {
        "wall_s": ("s", _stats([r["wall_s"] for r in plain])),
        "wall_raw_s": ("s", _stats([r["wall_raw_s"] for r in plain])),
        "setup_s": ("s", _stats([r["setup_s"] for r in setups])),
        "setup_raw_s": ("s", _stats([r["setup_raw_s"] for r in setups])),
        "speed": ("ratio", _stats([r["speed"] for r in plain])),
        "peak_rss_mb": ("MB", _stats([r["peak_rss_mb"] for r in plain])),
        "closure_rel_err": ("ratio", first.get("closure_rel_err")),
        "identity_residual": ("abs", first.get("identity_residual")),
        "failed_share": ("ratio", failed / attempted if attempted else 1.0),
    }
    values = {name: (v["median"] if isinstance(v, dict) else v)
              for name, (_, v) in summary.items()}
    if args.trace:
        layers = traced[0]["layers"] if traced else {}
        if traced and plain:
            layers["trace.overhead_s"] = traced[0]["wall_s"] - plain[0]["wall_s"]
        wanted = bench["per_layer"]
        source = layers
    else:
        wanted = bench["end_to_end"]
        source = values
    correct = not failures and all(m["name"] in source for m in wanted)
    metrics = {m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  set-ups {len(setups)}")
    for name, (unit, v) in summary.items():
        if isinstance(v, dict):
            print(f"  {name:<18} {v['median']:.6g} {unit}  (median of {v['n']})")
        else:
            print(f"  {name:<18} {'n/a' if v is None else f'{v:.6g}'} {unit}")
    if args.trace:
        print("  per layer, traced repetition:")
        for name, m in metrics.items():
            base = ""
            if name in RATIOS:
                num, den = RATIOS[name]
                base = f"  (= {metrics[num]['value']:.6g} / {metrics[den]['value']:.6g})"
            print(f"    {name:<34} {m['value']:.6g} {m['unit']}{base}")
    for f in failures:
        print(f"  FAILED: {f}")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine,
        "summary": {k: {"unit": u, "value": v} for k, (u, v) in summary.items()},
        "repetitions": reps, "failures": failures,
        "setup_samples_s": [r["setup_s"] for r in setups],
        "setup_raw_samples_s": [r["setup_raw_s"] for r in setups],
    }
    if args.trace and traced:
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
