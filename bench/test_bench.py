"""Tests for the benchmark's own code: seeded request lists, the
correctness gate, the traced-run wrappers and BENCHMARK.json."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_same_seed_same_requests():
    for name in workloads.WORKLOADS:
        first = workloads.requests(name, 7)
        assert first == workloads.requests(name, 7)
        assert first != workloads.requests(name, 8)
        json.dumps(first)


def test_spectra_session_mix():
    reqs = workloads.requests("spectra_session", 3)
    assert len(reqs) >= 100
    families = {(r["alpha"], r["beta"], r["N"]) for r in reqs}
    assert len(families) == 12
    fractional = [r for r in reqs if (r["alpha"], r["beta"]) in workloads.FRACTIONAL_FAMILIES]
    assert 2 * len(fractional) == len(reqs)


def _reply(exit_code=0, stdout="", arrays=None):
    return {"exit": exit_code, "stdout": stdout, "stderr": "", "arrays": arrays or {}}


def test_gate_flags_verify_fail_row():
    req = workloads.requests("verify_cli", 1)[0]
    good = "# hahnpoly 0.1.0\ncheck,value,tol,status\nparseval,1e-16,1e-08,pass\n"
    assert gate.judge(req, _reply(stdout=good)) is None
    bad = good + "series-vs-recurrence,3.5,1e-09,FAIL\n"
    assert "series-vs-recurrence" in gate.judge(req, _reply(stdout=bad))
    assert gate.judge(req, _reply(stdout=good.replace("1e-16", "nan"))) is not None


def test_gate_flags_scaled_coefficients():
    from hahnpoly import GridFunction, HahnParams, IntervalMap, project

    req = {"kind": "lib", "op": "project", "alpha": 0.5, "beta": 0.5, "N": 30,
           "target": "runge", "m": 12}
    p = HahnParams(0.5, 0.5, 30)
    u = GridFunction.from_callable(workloads.TARGETS["runge"], p,
                                   IntervalMap(-1.0, 1.0, 30).to_interval)
    coeffs = project(u, 12).coeffs
    assert gate.judge(req, _reply(arrays={"coeffs": coeffs.tolist()})) is None
    reason = gate.judge(req, _reply(arrays={"coeffs": (1e3 * coeffs).tolist()}))
    assert reason is not None and "Bessel" in reason
    # a small perturbation that Bessel cannot see is still caught by the oracle
    nudged = coeffs + 1e-6
    assert "oracle" in gate.judge(req, _reply(arrays={"coeffs": nudged.tolist()}))


def test_exact_references_match_oracle():
    # the uncapped Fraction routes used beyond N = 40 agree with the oracle
    from hahnpoly.oracle_exact import exact_norm_sq, exact_weight

    for alpha, beta in workloads.FAMILIES:
        assert gate.product_weights(alpha, beta, 20) == [
            exact_weight(x, alpha, beta, 20) for x in range(21)]
        assert gate.exact_norm_sq(5, alpha, beta, 20) == exact_norm_sq(5, alpha, beta, 20)


_WRAPPER_CHECK = """
import json, sys
sys.path.insert(0, {src!r})
import tracing
tracer = tracing.Tracer()
wrappers = tracing.install(tracer)
import hahnpoly
from hahnpoly import checks, expansion, hahn
p = hahn.HahnParams(0.5, 0.5, 12)
checks.check_parseval(p)
print(json.dumps({{
    "names": sorted(wrappers),
    "rebound": [checks.hahn_eval_all is hahn.hahn_eval_all,
                expansion.hahn_eval_all is hahn.hahn_eval_all,
                hahnpoly.project is expansion.project is checks.project,
                hasattr(hahn.hahn_eval_all, "__wrapped__")],
    "calls": tracer.calls,
    "dd_steps": tracer.dd_steps,
}}))
"""


def test_wrappers_rebind_every_importer():
    # a fresh interpreter, so the wrappers never touch this test session
    out = subprocess.run([sys.executable, "-c", _WRAPPER_CHECK.format(src=str(ROOT / "src"))],
                         cwd=HERE, capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(out.stdout)
    assert all(got["rebound"])
    # check_parseval reaches project, the basis and the weights inside the package
    for span in ("checks.check_parseval", "expansion.project", "hahn.weight_table",
                 "hahn.normalized_grid_matrix", "hahn.hahn_eval_all", "expansion.inner_product"):
        assert got["calls"].get(span, 0) >= 1, span
    assert got["dd_steps"] == 12 * 13
    # every per-layer metric of BENCHMARK.json names an installed span or a derived metric
    derived = {"hahn.dd_steps", "hahn.ns_per_dd_step", "trace.wall_s", "trace.overhead_s"}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        assert name in derived or name.rpartition(".")[0] in got["names"], name


def test_pass_count_depends_only_on_arguments():
    for name in workloads.WORKLOADS:
        assert workloads.passes(name, 1) == 1
        assert workloads.passes(name, 4 * workloads.PASS_SECONDS[name]) == 4
    assert workloads.passes("spectra_session", 30) == 2


def test_end_to_end_metrics_match_spec():
    replies = [{"seconds": s, "rss_kb": 2048} for s in (1.0, 2.0, 3.0)]
    p = run.Pass(replies=replies, setups=[0.2, 0.3], rss_kb=2048)
    values = run.end_to_end([p], [0.2, 0.3, 0.1])
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert values["wall_s"] == 6.0 and values["peak_rss_mb"] == 2.0
    assert values["setup_s"] == 0.2


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
