"""One repetition of a workload in a fresh process.

    python3 perfbench/rep.py --workload NAME --work DIR --seed N
                             [--setup-only] [--trace] [--spans FILE]

Set-up (imports, config parse, sieve, window set, kernel) runs first;
its end is reported on the monotonic clock so the parent can time it
from the moment it started this process.  Then one operation is timed
with a speed probe running, its outputs are checked, and with --trace the
per-layer metrics are computed from spans recorded around the package's
public functions.  The last line of stdout is one JSON object.

Times are rescaled to a reference host speed with a probe that samples
the speed of this process throughout (see probe.py): wall_s is the
operation's wall time (wall_raw_s) so rescaled, and the parent rescales
set-up time with the speed the probe saw up to the end of set-up.  They
move with the package's code, not with the host's load.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    speed_probe = SpeedProbe()
    speed_probe.start()
    # Imported once the probe runs: the imports are part of set-up.
    import workloads
    from machine import machine_record
    from tracing import Tracer, grid_probe, layer_metrics

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    spec = workloads.WORKLOADS[args.workload]

    ps = workloads.import_package(ROOT / "src")
    tracer = None
    if args.trace:
        tracer = Tracer(ps)
        tracer.install()
    inst = workloads.Instance(ps, args.work / "instance.conf")
    out = {"setup_end": time.monotonic()}
    setup_end = time.perf_counter()
    speed, busy, n = speed_probe.window(float("-inf"), setup_end)
    out["setup_speed"], out["setup_probe_s"], out["setup_samples"] = speed, busy, n
    if args.setup_only:
        speed_probe.stop()
        out["machine"] = machine_record(ROOT)
        print(json.dumps(out))
        if not n:
            print("no speed samples in set-up", file=sys.stderr)
            return 1
        return 0

    run_dir = args.work / "run"
    t0 = time.perf_counter()
    result = workloads.run_operation(ps, spec, inst, run_dir)
    t1 = time.perf_counter()
    speed_probe.stop()
    speed, busy, n = speed_probe.window(t0, t1)
    out["wall_raw_s"] = t1 - t0
    out["wall_s"] = (t1 - t0 - busy) * speed ** spec["speed_exponent"]
    out["speed"], out["probe_s"], out["samples"] = speed, busy, n
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    if spec["kind"] == "decomp":
        checked, failures = workloads.check_decomp(result, inst)
    else:
        checked, failures = workloads.check_run(result, inst, spec, run_dir)
    if not (n and out["setup_samples"]):
        failures.append("no speed samples in set-up or operation")
    out["checked"] = checked
    out["failures"] = failures

    if tracer is not None:
        rng = random.Random(args.seed)
        probe = grid_probe(ps, tracer, inst, rng) if spec["kind"] == "decomp" else {}
        out["probe"] = probe
        out["layers"] = layer_metrics(tracer, probe, checked, inst)
        if args.spans:
            out["spans_written"] = tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
