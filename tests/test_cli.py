"""Command line entry points: output formats and exit codes."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from pstriples.cli import main
from pstriples.kernel import make_kernel, theta
from pstriples.primes import cache_load, ps_primes_in, sieve_primes

DEMO = str(Path(__file__).resolve().parent.parent / "demos" / "sqrt2_demo.conf")
THIN = str(Path(__file__).resolve().parent.parent / "demos" / "thin_range.conf")

TINY = """\
q0 = 12
gamma = 0.9
lambda1 = 1.0
lambda2 = 1.0
lambda3 = -2.0
epsilon_user = 2.0
"""


def test_ps_primes_matches_library(capsys):
    assert main(["ps-primes", "--gamma", "0.9", "--limit", "500"]) == 0
    got = [int(v) for v in capsys.readouterr().out.split()]
    table = sieve_primes(500)
    want = ps_primes_in(0.0, 500.0, 0.9, table).primes.tolist()
    assert got == want


def test_ps_primes_range_filter(capsys):
    assert main(["ps-primes", "--gamma", "0.9", "--limit", "500",
                 "--range", "100:300"]) == 0
    got = [int(v) for v in capsys.readouterr().out.split()]
    assert got and all(100 < p <= 300 for p in got)


def test_ps_primes_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "primes.psp"
    main(["ps-primes", "--gamma", "0.9", "--limit", "400",
          "--cache", str(cache)])
    first = capsys.readouterr().out
    assert cache.exists()
    main(["ps-primes", "--gamma", "0.9", "--limit", "400",
          "--cache", str(cache)])
    assert capsys.readouterr().out == first


def test_ps_primes_cache_rebuilt_for_other_limit(tmp_path, capsys, caplog):
    cache = tmp_path / "primes.psp"
    main(["ps-primes", "--gamma", "0.9", "--limit", "400",
          "--cache", str(cache)])
    capsys.readouterr()
    assert main(["ps-primes", "--gamma", "0.9", "--limit", "5000",
                 "--cache", str(cache)]) == 0
    got = [int(v) for v in capsys.readouterr().out.split()]
    want = ps_primes_in(0.0, 5000.0, 0.9, sieve_primes(5000)).primes.tolist()
    assert got == want and got[-1] == 4993
    assert "limit 400, not 5000" in caplog.text
    assert cache_load(cache, 0.9).hi == 5000.0


def test_ps_primes_corrupt_cache_rebuilt(tmp_path, capsys, caplog):
    cache = tmp_path / "primes.psp"
    cache.write_bytes(b"not a cache file at all, but long enough")
    assert main(["ps-primes", "--gamma", "0.9", "--limit", "500",
                 "--cache", str(cache)]) == 0
    got = [int(v) for v in capsys.readouterr().out.split()]
    assert got == ps_primes_in(0.0, 500.0, 0.9, sieve_primes(500)).primes.tolist()
    assert "ignored: bad magic" in caplog.text
    assert cache_load(cache, 0.9).hi == 500.0


def test_kernel_verify_passes(capsys):
    assert main(["kernel", "--epsilon", "0.5", "--k", "6", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "verify PASS" in out


def test_kernel_theta_table(tmp_path, capsys):
    dest = tmp_path / "theta.csv"
    assert main(["kernel", "--epsilon", "0.5", "--k", "4",
                 "--emit-theta", str(dest)]) == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "y,theta"
    kern = make_kernel(0.5, 4)
    y, val = (float(v) for v in lines[len(lines) // 2].split(","))
    assert abs(theta(kern, np.array([y]))[0] - val) <= 1e-12


def test_sums_alpha_grid(tmp_path, capsys):
    dest = tmp_path / "sums.csv"
    assert main(["sums", "--kind", "S", "--alpha-grid", "0:0.5:3",
                 "--q0", "12", "--gamma", "0.9", "--eps-user", "1",
                 "--out", str(dest)]) == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "alpha,re,im,abs"
    assert len(lines) == 4
    alpha0 = [float(v) for v in lines[1].split(",")]
    # at alpha = 0 the sum collapses to its total weight, purely real
    assert alpha0[0] == 0.0
    assert abs(alpha0[2]) <= 1e-12 * alpha0[1]


def test_cf_lists_sqrt2_ladder(capsys):
    assert main(["cf", "--x", repr(math.sqrt(2.0)), "--terms", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "i,a,p,q"
    qs = [int(line.split(",")[3]) for line in lines[1:]]
    assert qs[:6] == [1, 2, 5, 12, 29, 70]


def test_dichotomy_table(tmp_path):
    dest = tmp_path / "dich.csv"
    assert main(["dichotomy", "--config", DEMO,
                 "--t-grid", "0.1:10:16", "--out", str(dest)]) == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "t,a1,q1,a2,q2,class1,class2,case"
    assert len(lines) == 17


def test_gamma_decomp_report_and_triples(tmp_path, capsys):
    conf = tmp_path / "tiny.conf"
    conf.write_text(TINY)
    triples = tmp_path / "triples.csv"
    manifest = tmp_path / "report.json"
    assert main(["gamma-decomp", "--config", str(conf),
                 "--emit-triples", str(triples),
                 "--manifest", str(manifest)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pieces"] == [1, 2, 3]
    assert report["values"]["closure_error"] <= 1e-4
    gap = abs(report["values"]["gamma_total"][0] - report["values"]["direct_value"])
    assert gap <= sum(report["values"][f"gamma{p}_error"] for p in (1, 2, 3))
    assert report["triples"]["found"] >= 1
    assert json.loads(manifest.read_text()) == report
    lines = triples.read_text().splitlines()
    assert lines[0] == "p1,p2,p3,form_value,weight"
    assert len(lines) == report["triples"]["found"] + 1


def test_gamma_decomp_single_piece(tmp_path, capsys):
    conf = tmp_path / "tiny.conf"
    conf.write_text(TINY)
    assert main(["gamma-decomp", "--config", str(conf), "--pieces", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pieces"] == [2]
    assert "gamma2" in report["values"]
    assert "gamma1" not in report["values"]
    assert 0.0 < report["values"]["gamma2_error"] < 1e-6 * abs(report["values"]["gamma2"][0])


def test_run_subcommand_writes_manifest(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PSD_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "run"
    assert main(["run", "--config", DEMO, "--stages", "primes,kernel",
                 "--out-dir", str(out)]) == 0
    data = json.loads((out / "manifest.json").read_text())
    assert data["complete"] is True
    assert [s["name"] for s in data["stages"]] == ["primes", "kernel"]


def test_exit_code_hypothesis_violation(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text(TINY.replace("gamma = 0.9", "gamma = 1.2"))
    assert main(["gamma-decomp", "--config", str(conf)]) == 3
    assert "37/38" in capsys.readouterr().err


def test_overflowing_q0_is_a_hypothesis_violation(tmp_path, capsys):
    # X = q0^(13/6) overflows a double: exit 3 before any output
    huge = str(10**200)
    conf = tmp_path / "huge.conf"
    conf.write_text(TINY.replace("q0 = 12", f"q0 = {huge}"))
    out = tmp_path / "run"
    assert main(["run", "--config", str(conf), "--out-dir", str(out)]) == 3
    assert f"q0={huge} is too large" in capsys.readouterr().err
    assert not out.exists()
    assert main(["sums", "--kind", "S", "--alpha-grid", "0:0.5:3",
                 "--q0", huge, "--gamma", "0.9", "--eps-user", "1"]) == 3
    assert f"q0={huge} is too large" in capsys.readouterr().err


def test_long_q0_is_a_hypothesis_violation(tmp_path, capsys):
    # 5000 digits is past int()'s conversion limit: still exit 3 from a
    # config file and from --q0, with the number echoed by its leading
    # digits and length, not in full
    conf = tmp_path / "long.conf"
    conf.write_text(TINY.replace("q0 = 12", "q0 = " + "7" * 5000))
    out = tmp_path / "run"
    assert main(["run", "--config", str(conf), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "q0=7.777778e+4999 (5000 digits) is too large" in err
    assert "7" * 400 not in err
    assert not out.exists()
    assert main(["sums", "--kind", "S", "--alpha-grid", "0:0.5:3",
                 "--q0", "7" * 5000, "--gamma", "0.9", "--eps-user", "1"]) == 3
    err = capsys.readouterr().err
    assert "(5000 digits) is too large" in err and "7" * 400 not in err
    assert main(["sums", "--kind", "S", "--alpha-grid", "0:0.5:3",
                 "--q0", "12.5", "--gamma", "0.9", "--eps-user", "1"]) == 2
    assert "q0 must be an integer" in capsys.readouterr().err


def test_run_checks_dichotomy_before_any_stage(tmp_path, monkeypatch, capsys):
    # q0 = 203 is not a convergent denominator of sqrt(2): the default
    # stages include dichotomy, so the run stops before primes, kernel
    # and sums write anything; only the failure manifest is left
    monkeypatch.setenv("PSD_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "run"
    assert main(["run", "--config", THIN, "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "q0=203 is not a convergent denominator" in err
    assert [p.name for p in tmp_path.iterdir()] == ["run"]
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    data = json.loads((out / "manifest.json").read_text())
    assert data["complete"] is False and data["stages"] == []
    assert data["failure"]["stage"] == "dichotomy"


def test_run_checks_band_cap_before_any_stage(tmp_path, monkeypatch, capsys):
    # the thin-range middle band needs ~3.7e9 grid points, past the
    # 2^31 cap: with decomp requested the run stops before primes and
    # kernel write anything; only the failure manifest is left
    monkeypatch.setenv("PSD_CACHE_DIR", str(tmp_path / "cache"))
    out = tmp_path / "run"
    assert main(["run", "--config", THIN, "--stages", "primes,kernel,decomp",
                 "--out-dir", str(out)]) == 4
    assert "beyond the 2147483648 cap" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run"]
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    data = json.loads((out / "manifest.json").read_text())
    assert data["complete"] is False and data["stages"] == []
    assert data["failure"]["stage"] == "decomp"
    assert data["failure"]["error"].startswith("QuadratureError")


def test_exit_code_config_error(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text(TINY.replace("lambda3 = -2.0\n", ""))
    assert main(["gamma-decomp", "--config", str(conf)]) == 2
    assert "lambda3" in capsys.readouterr().err


def test_exit_code_missing_file(capsys):
    assert main(["dichotomy", "--config", "/nonexistent.conf",
                 "--t-grid", "0.1:1:4"]) == 2


def test_exit_code_unknown_stage(tmp_path, capsys):
    assert main(["run", "--config", DEMO, "--stages", "primes,polish",
                 "--out-dir", str(tmp_path / "r")]) == 2
