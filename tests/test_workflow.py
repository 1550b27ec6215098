"""The CI workflow and the benchmark's tracer against the tree.

The workflow is read as text, so a renamed test file or a dropped
workload shows up here rather than only on a CI runner.  The tracer
(perfbench/tracing.py) and the workloads (perfbench/workloads.py) are
loaded by path, unchanged, so a package name they use that was renamed
or removed shows up here too, as does an exported name that no longer
resolves.
"""

import importlib
import importlib.util
import inspect
import json
import pkgutil
import re
from pathlib import Path

import pstriples
import pstriples.cli  # noqa: F401  (loads every layer the tracer wraps)

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workflow_test_paths_exist():
    paths = set(re.findall(r"\btests/[\w/]+\.py\b", WORKFLOW.read_text()))
    assert paths
    assert sorted(p for p in paths if not (ROOT / p).is_file()) == []


def test_tier1_step_runs_the_whole_suite_with_warnings_as_errors():
    # one run of every test file, so a new file cannot be left out of a list
    step = re.search(r"- name: Tier-1 tests.*?\n\s+run: ([^\n]+)", WORKFLOW.read_text(), re.S)
    assert step
    command = step.group(1).split()
    assert command[:2] == ["PYTHONWARNINGS=error", "PYTHONPATH=src"]
    assert command[2:6] == ["python", "-m", "pytest", "-q"]
    assert "-W error" in " ".join(command)
    assert [arg for arg in command if arg.startswith("tests")] == []


def test_benchmark_smoke_runs_without_cached_bytecode():
    # with the package's bytecode cached, set-up can end before the speed
    # probe's first sample and perfbench fails the repetition: the smoke
    # step deletes src's __pycache__ and writes none before any run, and
    # keeps its gate on correct and failed
    step = re.search(r"- name: Benchmark smoke.*?\n\s+run: \|\n(.*?)(?=\n\s+- name:|\Z)",
                     WORKFLOW.read_text(), re.S)
    assert step
    lines = [line.strip() for line in step.group(1).splitlines()]
    first_run = next(i for i, line in enumerate(lines) if "perfbench/run.py" in line)
    assert "find src -name __pycache__ -type d -prune -exec rm -rf {} +" in lines[:first_run]
    assert "export PYTHONDONTWRITEBYTECODE=1" in lines[:first_run]
    assert ('sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)\' "$w"'
            in lines)


def test_hash_seed_step_runs_the_witness_sums_stage():
    # the demo's 39 primes stay below the exact summation's extraction
    # size: the witness instance's sums stage (3096 window primes) must
    # run under both hash seeds and its reports compare byte for byte
    step = re.search(r"- name: Run outputs identical.*?\n\s+run: \|\n(.*?)(?=\n\s+- name:|\Z)",
                     WORKFLOW.read_text(), re.S)
    assert step
    script = step.group(1)
    assert "for s in 1 2; do" in script
    assert re.search(r'run \\\s+--config "\$d/witness\.conf" --stages primes,sums,dichotomy', script)
    assert "sed 's/^gamma = 0.9$/gamma = 0.94/'" in script and "'q0 = 169'" in script
    assert "for f in sums.csv sums_residual.csv dichotomy.csv; do" in script
    assert 'cmp "$d/1/witness/$f" "$d/2/witness/$f"' in script


def test_hash_seed_step_compares_every_sums_kind():
    # the CLI's sums of all five kinds run under both hash seeds, I on its
    # one array call over the grid, and each file is compared
    step = re.search(r"- name: Run outputs identical.*?\n\s+run: \|\n(.*?)(?=\n\s+- name:|\Z)",
                     WORKFLOW.read_text(), re.S)
    assert step
    script = step.group(1)
    kinds = re.search(r"for k in ([^;\n]+); do\n\s+PYTHONHASHSEED=\$s .*? sums \\\n"
                      r"\s+--kind \$k .*?--out \"\$d/\$s/sums_\$k\.txt\"", script, re.S)
    assert kinds
    assert kinds.group(1).split() == ["S", "Sigma", "Omega", "I", "Psi"]
    assert 'test "$(ls "$d"/1/sums_*.txt | wc -l)" -eq 5' in script
    assert re.search(r'for f in [^;]*"\$d"/1/sums_\*\.txt; do\n\s+cmp "\$f" "\$d/2/\$\(basename "\$f"\)"',
                     script)


def test_hash_seed_step_compares_sums_on_both_phase_paths():
    # the five kinds on 0:1:65 (alpha = j/64) take the dyadic phase table;
    # S and Psi on 0.1:1.1:65 take phase_factors per alpha: both grids run
    # under both hash seeds, and the two non-dyadic files are compared
    step = re.search(r"- name: Run outputs identical.*?\n\s+run: \|\n(.*?)(?=\n\s+- name:|\Z)",
                     WORKFLOW.read_text(), re.S)
    assert step
    script = step.group(1)
    loops = dict(re.findall(r"for k in ([^;\n]+); do\n\s+PYTHONHASHSEED=\$s .*? sums \\\n"
                            r"\s+--kind \$k --alpha-grid (\S+) --q0 169 --gamma 0\.94 \\\n"
                            r"\s+--eps-user 2 --out \"\$d/\$s/\w+_\$k\.txt\"", script))
    assert loops == {"S Sigma Omega I Psi": "0:1:65", "S Psi": "0.1:1.1:65"}
    assert '--out "$d/$s/nondyadic_$k.txt"' in script
    assert 'test "$(ls "$d"/1/nondyadic_*.txt | wc -l)" -eq 2' in script
    assert re.search(r'for f in [^;]*"\$d"/1/nondyadic_\*\.txt[^;]*; do\n\s+cmp "\$f" "\$d/2/\$\(basename "\$f"\)"',
                     script)


def test_workflow_workloads_are_benchmarked():
    text = WORKFLOW.read_text()
    # a shell loop variable stands for every value of its loop
    loops = {var: values.split()
             for var, values in re.findall(r"\bfor (\w+) in ([^;\n]+);", text)}
    passed = []
    for arg in re.findall(r"--workload[= ]+(\S+)", text):
        arg = arg.strip("\"'")
        var = re.fullmatch(r"\$\{?(\w+)\}?", arg)
        passed += loops[var.group(1)] if var else [arg]
    declared = {w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert passed
    assert sorted(set(passed) - declared) == []


def test_tracer_wrapped_names_resolve():
    missing = [f"{mod}.{attr}"
               for _, sites, _ in _load_perfbench("tracing").WRAPPED
               for mod, attr in sites
               if not callable(getattr(getattr(pstriples, mod, None), attr, None))]
    assert missing == []


def test_grid_evaluator_signature_matches_tracer():
    # the tracer reads ps_sum_grid's positional args[0..4]
    names = list(inspect.signature(pstriples.expsums.ps_sum_grid).parameters)
    assert names[:5] == ["pset", "lam", "t0", "dt", "n"]


def test_benchmark_instances_build(tmp_path):
    # each workload's set-up: parse its config, sieve, window set, kernel
    workloads = _load_perfbench("workloads")
    band_piece = _load_perfbench("tracing").band_piece
    for name, spec in workloads.WORKLOADS.items():
        path = tmp_path / f"{name}.conf"
        path.write_text(workloads.config_text(spec))
        inst = workloads.Instance(pstriples, path)
        p = inst.params
        assert (p.q0, p.gamma.value, p.epsilon_effective) == (
            spec["q0"], spec["gamma"], spec["eps"])
        assert inst.pset.count > 0 and inst.kernel.k == p.kernel_k
        assert [band_piece(t, p) for t in (0.0, p.Delta, p.H_effective)] == [1, 2, 3]


def test_exported_names_resolve():
    modules = [pstriples] + [
        importlib.import_module(f"pstriples.{info.name}")
        for info in pkgutil.iter_modules(pstriples.__path__)
        if info.name != "__main__"
    ]
    missing = [f"{m.__name__}.{name}"
               for m in modules for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []
