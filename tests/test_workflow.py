"""The CI workflow against the tree: test paths and benchmark workloads.

The workflow is read as text, so a renamed test file or a dropped
workload shows up here rather than only on a CI runner.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_workflow_test_paths_exist():
    paths = set(re.findall(r"\btests/[\w/]+\.py\b", WORKFLOW.read_text()))
    assert paths
    assert sorted(p for p in paths if not (ROOT / p).is_file()) == []


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
