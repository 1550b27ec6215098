"""Run directory orchestration: stage selection, manifests, determinism."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from pstriples import pipeline, summation
from pstriples.config import parse_config
from pstriples.params import ParameterError
from pstriples.pipeline import STAGES, Instance, csv_text, format_value, run_pipeline
from pstriples.primes import ps_primes_in, sieve_primes
from pstriples.triplesum import far_tail_majorant

DEMO = Path(__file__).resolve().parent.parent / "demos" / "sqrt2_demo.conf"

TINY = """\
q0 = 12
gamma = 0.9
lambda1 = 1.0
lambda2 = 1.0
lambda3 = -2.0
epsilon_user = 2.0
"""


@pytest.fixture(scope="module")
def demo_cfg():
    return parse_config(DEMO)


def read_manifest(out_dir):
    return json.loads((Path(out_dir) / "manifest.json").read_text())


def test_primes_stage_alone(demo_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("PSD_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "run"
    manifest = run_pipeline(demo_cfg, stages=("primes",), out_dir=out)
    assert manifest.complete
    assert [s.name for s in manifest.stages] == ["primes"]
    assert (out / "primes.csv").exists()
    assert not (out / "kernel_theta.csv").exists()
    data = read_manifest(out)
    assert data["complete"] is True
    assert data["stages"][0]["values"]["window_count"] > 0


def test_instance_builds_the_window_once(demo_cfg):
    params = demo_cfg.params
    inst = Instance(params)
    assert inst.window_set is inst.window_set
    table = sieve_primes(math.ceil(params.X) + 1)
    want = ps_primes_in(params.lambda0 * params.X, params.X,
                        params.gamma.value, table)
    assert inst.table.limit == table.limit
    assert inst.window_set.primes.tolist() == want.primes.tolist()
    assert inst.kernel.k == max(1, math.floor(params.log_X))
    assert inst.kernel.epsilon == params.epsilon_effective


def test_unknown_stage_is_rejected(demo_cfg, tmp_path):
    with pytest.raises(ValueError):
        run_pipeline(demo_cfg, stages=("primes", "polish"), out_dir=tmp_path)


def test_stage_order_is_canonical(demo_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("PSD_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "run"
    manifest = run_pipeline(demo_cfg, stages=("kernel", "primes"), out_dir=out)
    assert [s.name for s in manifest.stages] == ["primes", "kernel"]


def test_full_pipeline_and_determinism(demo_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("PSD_CACHE_DIR", str(tmp_path / "cache"))
    digests = []
    for label in ("a", "b"):
        out = tmp_path / label
        manifest = run_pipeline(demo_cfg, stages=STAGES, out_dir=out)
        assert manifest.complete
        table = {
            rec.file: rec.sha256
            for stage in manifest.stages
            for rec in stage.outputs
        }
        digests.append(table)
    assert digests[0] == digests[1]
    assert set(digests[0]) >= {
        "primes.csv", "kernel_theta.csv", "kernel_transform.csv",
        "sums.csv", "sums_residual.csv", "dichotomy.csv",
        "decomp.json", "triples.csv",
    }

    data = read_manifest(tmp_path / "a")
    values = {s["name"]: s["values"] for s in data["stages"]}
    assert values["dichotomy"]["unexplained"] == 0
    assert values["decomp"]["closure_error"] <= 1e-4
    gap = abs(values["decomp"]["j_integral"] - values["decomp"]["box_integral"])
    assert gap <= values["decomp"]["phi_bound"]
    # band grids at f_max h <= 0.8, a pin of the grid sizes and no
    # accuracy gate (Boole at 7 points per period, refined once on pieces
    # 1 and 2, used 7.55e6 points here)
    assert [values["decomp"][f"gamma{p}_points"] for p in (1, 2, 3)] == [
        24, 277_461, 398_218]
    assert values["decomp"]["gamma2_points"] == values["decomp"]["middle_points"]
    closure_gap = abs(values["decomp"]["gamma_total"][0] - values["decomp"]["direct_value"])
    assert closure_gap <= sum(values["decomp"][f"gamma{p}_error"] for p in (1, 2, 3))
    # one far-band bound: far_tail_majorant at H, over |gamma3|
    inst = Instance(demo_cfg.params)
    assert values["decomp"]["tail_bound"] == far_tail_majorant(
        demo_cfg.params, inst.kernel, inst.window_set)
    assert abs(values["decomp"]["gamma3"][0]) <= values["decomp"]["tail_bound"]
    assert not {"tail_base", "tail_below_one"} & set(values["decomp"])
    assert values["triples"]["found"] >= 1
    assert all(s["wall_time_s"] >= 0 for s in data["stages"])
    assert all(set(s) == {"name", "wall_time_s", "outputs", "values"}
               for s in data["stages"])
    assert data["parameters"]["q0"] == 29
    assert data["config_echo"]["gamma"] == "0.9"


def test_stage_failure_leaves_partial_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("PSD_CACHE_DIR", str(tmp_path / "cache"))
    conf = tmp_path / "tiny.conf"
    conf.write_text(TINY)
    cfg = parse_config(conf)
    out = tmp_path / "run"
    # lambda1/lambda2 = 1 has no convergent with denominator 12, so the
    # dichotomy stage cannot orient itself and must fail loudly
    with pytest.raises(ParameterError):
        run_pipeline(cfg, stages=("dichotomy",), out_dir=out)
    data = read_manifest(out)
    assert data["complete"] is False
    assert data["failure"]["stage"] == "dichotomy"
    assert "convergent" in data["failure"]["error"]


def test_prime_cache_reused_across_runs(demo_cfg, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("PSD_CACHE_DIR", str(cache))
    run_pipeline(demo_cfg, stages=("primes",), out_dir=tmp_path / "a")
    cached = list(cache.glob("*.psp"))
    assert len(cached) == 1
    stamp = cached[0].stat().st_mtime_ns
    run_pipeline(demo_cfg, stages=("primes",), out_dir=tmp_path / "b")
    assert cached[0].stat().st_mtime_ns == stamp


def test_csv_floats_round_trip(demo_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("PSD_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "run"
    run_pipeline(demo_cfg, stages=("primes",), out_dir=out)
    lines = (out / "primes.csv").read_text().splitlines()
    assert lines[0] == "p,weight_w,weight_log"
    p, w, wl = lines[1].split(",")
    g = demo_cfg.params.gamma.value
    assert float(w) == float(int(p)) ** (1.0 - g)
    assert float(wl) == math.log(float(int(p)))


def reference_csv(header, columns) -> str:
    """The per-cell writer: rows of the columns' own elements, each cell
    by format_value."""
    rows = zip(*[list(c) for c in columns])
    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def test_column_writer_matches_per_cell_reference_on_awkward_cells():
    inf, nan = float("inf"), float("nan")
    floats = [-0.0, inf, -inf, nan, 5e-324, 1e16, 0.1, np.float64(1.0 / 3.0)]
    ints = [2**53 + 1, 2**70, -(2**63) - 1, np.int64(-7), np.uint64(2**64 - 1),
            True, np.bool_(False), 0]
    words = ["a", "", "x y", "%d", "%s%%", "nan", "-0", "1e16"]
    columns = [
        floats,
        np.array(floats, dtype=np.float64),
        ints,
        np.array([2**53 + 1, -3, 0, 1, 2, 3, 4, 5], dtype=np.int64),
        np.array([True, False] * 4),
        [np.bool_(True), np.bool_(False)] * 4,
        words,
        # mixed kinds and types without a %-format go cell by cell
        [1e16, 2**53 + 1, "s", True, np.float32(0.1), -0.0, 3, np.int64(9)],
        [np.float32(0.1)] * 8,
        range(8),
    ]
    header = [f"c{i}" for i in range(len(columns))]
    text = csv_text(header, columns)
    assert text == reference_csv(header, columns)
    assert text.splitlines()[1].split(",")[:3] == ["-0", "-0", "9007199254740993"]


def test_column_writer_edge_shapes():
    assert csv_text(["a", "b"], [[], np.empty(0)]) == "a,b\n"
    assert csv_text(["a"], [[1.5]]) == "a\n1.5\n"
    with pytest.raises(ValueError):
        csv_text(["a", "b"], [[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        csv_text(["a", "b"], [[1.0]])


def test_column_writer_matches_per_cell_reference_on_demo_run(
    demo_cfg, tmp_path, monkeypatch
):
    monkeypatch.setenv("PSD_CACHE_DIR", str(tmp_path / "cache"))
    written = []
    real = pipeline.csv_text

    def recording(header, columns):
        columns = list(columns)
        text = real(header, columns)
        written.append((text, reference_csv(header, columns)))
        return text

    monkeypatch.setattr(pipeline, "csv_text", recording)
    out = tmp_path / "run"
    stages = tuple(s for s in STAGES if s != "decomp")
    run_pipeline(demo_cfg, stages=stages, out_dir=out)
    files = sorted(out.glob("*.csv"))
    assert [f.name for f in files] == [
        "dichotomy.csv", "kernel_theta.csv", "kernel_transform.csv",
        "primes.csv", "sums.csv", "sums_residual.csv", "triples.csv",
    ]
    assert len(written) == len(files)
    for text, ref in written:
        assert text == ref
    assert sorted(f.read_text() for f in files) == sorted(t for t, _ in written)


def test_public_and_traced_names_resolve():
    assert len(set(pipeline.__all__)) == len(pipeline.__all__)
    assert all(hasattr(pipeline, name) for name in pipeline.__all__)
    # the names an outside tracer wraps where the pipeline resolves them
    for name in ("decomposition_residual", "ps_exp_sum", "theta",
                 "theta_transform", "find_triples", "dichotomy_probe",
                 "cache_store", "sieve_primes", "ps_primes_in", "make_kernel"):
        assert callable(getattr(pipeline, name)), name
    assert callable(summation.compensated_sum)
