"""The benchmark's own tests: every correctness check must reject a doctored
output, the oracles must agree with hand counts, and the harness must run
end to end on tiny windows.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, sampled_blocks  # noqa: E402

VERIFY = WORKLOADS["verify-p3-k0"].win(smoke=True)
CHARTS = WORKLOADS["charts-p3-k9"].win(smoke=True)
STRUCTURE = WORKLOADS["structure-p3-t220"].win(smoke=True)


def _child(*args: str) -> str:
    argv = [sys.executable, str(BENCH / "child.py"), *args, "--smoke"]
    got = subprocess.run(argv, cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=170)
    assert got.returncode == 0, got.stderr
    return got.stdout


@pytest.fixture(scope="module")
def verify_report() -> str:
    res = run.spawn(run.rep_argv(WORKLOADS["verify-p3-k0"], True, False), run.child_env(), 170)
    assert res.code == 0, res.err
    return res.out


@pytest.fixture(scope="module")
def charts_out() -> dict:
    return json.loads(_child("run", "charts-p3-k9"))


@pytest.fixture(scope="module")
def structure_out() -> dict:
    return json.loads(_child("run", "structure-p3-t220"))


@pytest.fixture(scope="module")
def verify_probe() -> dict:
    return json.loads(_child("probe", "verify-p3-k0", "--seed", "1"))


@pytest.fixture(scope="module")
def charts_probe(charts_out) -> dict:
    spots = ",".join(f"{b['k']}:{b['gr']['t_max']}" for b in charts_out["blocks"])
    return json.loads(_child("probe", "charts-p3-k9", "--spots", spots))


def _doctor_report(text: str, edit) -> str:
    rep = json.loads(text)
    edit(rep)
    return json.dumps(rep)


def _check(rep: dict, name: str) -> dict:
    return next(c for c in rep["checks"] if c["name"] == name)


# -- oracles against hand counts ---------------------------------------------------


def test_poincare_series_by_hand():
    dims = oracles.bp2_dims(3, 60)
    # xi1 sits in degree 4, xi2 in 16, tau3 in 53 (p = 3)
    assert dims[:9] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
    assert dims[16] == 2  # xi1^4, xi2
    assert dims[53] == 1 and dims[57] == 1  # tau3, tau3 xi1
    assert oracles.length3_threshold(3) == 699


def test_unit_ext_by_hand():
    dims = oracles.unit_ext_dims(3, 2, 10)
    # v0 at (1, 1), v1 at (1, 5): v0^2 at (2, 2), v0 v1 at (2, 6), v1^2 at (2, 10)
    assert dims == {(0, 0): 1, (1, 1): 1, (1, 5): 1, (2, 2): 1, (2, 6): 1, (2, 10): 1}


def test_koszul_euler_of_a_free_module_vanishes():
    # E(Q_0) free on one generator lives in degrees 0 and 1; its Ext is F_p at
    # (0, 0), so the Euler characteristic is 1 at t = 0 and 0 above
    module = {0: 1, 1: 1}
    assert [oracles.koszul_euler(module, (1,), t) for t in range(4)] == [1, 0, 0, 0]


def test_presented_dims_subtracts_relations():
    gr = {"var_degrees": [1], "t_max": 3, "generators": [[0, 0]], "relations": [[1, 1]]}
    # F_p[v0] modulo (v0): one class at (0, 0)
    assert oracles.presented_dims(gr) == {(0, 0): 1}


def test_sampled_blocks_depend_on_seed_only():
    assert sampled_blocks(5, 3, 11) == sampled_blocks(5, 3, 11)
    picks = {tuple(sampled_blocks(seed, 3, 11)) for seed in range(20)}
    assert len(picks) > 1
    for pick in picks:
        assert len({k // 3 for k in pick}) == len(pick)


# -- the real outputs pass ---------------------------------------------------------


def test_real_outputs_pass(verify_report, charts_out, structure_out, verify_probe, charts_probe):
    assert oracles.check_verify_report(verify_report, 0, VERIFY) == []
    assert oracles.check_charts(charts_out, CHARTS) == []
    assert oracles.check_structure(structure_out, STRUCTURE) == []
    assert oracles.check_euler(verify_probe, 3) == []
    assert oracles.check_unit_ext(verify_probe, 3) == []
    assert oracles.check_presented(charts_probe, charts_out) == []
    assert oracles.check_routes(charts_probe) == []


# -- falsifiers: each check rejects a doctored output --------------------------------


def test_verify_rejects_flipped_verdict(verify_report):
    def flip(rep):
        _check(rep, "w-margolis")["passed"] = False

    assert oracles.check_verify_report(_doctor_report(verify_report, flip), 0, VERIFY)


def test_verify_rejects_nonzero_exit(verify_report):
    assert oracles.check_verify_report(verify_report, 1, VERIFY)


def test_verify_rejects_missing_check(verify_report):
    def drop(rep):
        rep["checks"].pop()

    assert oracles.check_verify_report(_doctor_report(verify_report, drop), 0, VERIFY)


def test_verify_rejects_reduced_dim_off_by_one(verify_report):
    def bump(rep):
        c = _check(rep, "length-splitting")
        dim = int(c["detail"].split("reduced dim ")[1].split(",")[0])
        c["detail"] = c["detail"].replace(f"reduced dim {dim}", f"reduced dim {dim + 1}")

    assert oracles.check_verify_report(_doctor_report(verify_report, bump), 0, VERIFY)


def test_verify_rejects_length_two_resolution(verify_report):
    def longer(rep):
        c = _check(rep, "pd-bound")
        c["detail"] = "resolution length <= 2 with empty socle for every block"

    assert oracles.check_verify_report(_doctor_report(verify_report, longer), 0, VERIFY)


def test_verify_rejects_vacuous_comparison_on_the_k9_row(verify_report):
    win = {**VERIFY, "max_degree": 60, "k_max": 9}

    def widen(rep):
        rep["config"].update(max_degree=60, k_max=9)
        rep["certified"] = {"degree_window": 60, "theta_blocks": 9, "comparison_blocks": 9}

    problems = oracles.check_verify_report(_doctor_report(verify_report, widen), 0, win)
    assert any("compared 0 columns" in p for p in problems)


def test_verify_rejects_wrong_block_count(verify_report):
    def miscount(rep):
        c = _check(rep, "theta-assembly")
        c["detail"] = "99 suspended blocks cover H exactly"

    assert oracles.check_verify_report(_doctor_report(verify_report, miscount), 0, VERIFY)


def test_charts_reject_doctored_outputs(charts_out):
    bad = copy.deepcopy(charts_out)
    bad["blocks"][0]["pd"]["length"] = 2
    assert oracles.check_charts(bad, CHARTS)
    bad = copy.deepcopy(charts_out)
    bad["blocks"][-1]["v_injectivity"][1]["passed"] = False
    assert oracles.check_charts(bad, CHARTS)
    bad = copy.deepcopy(charts_out)
    bad["blocks"][0]["pd"]["socle_empty"] = False
    assert oracles.check_charts(bad, CHARTS)
    bad = copy.deepcopy(charts_out)
    bad["blocks"].pop()
    assert oracles.check_charts(bad, CHARTS)


def test_structure_rejects_doctored_outputs(structure_out):
    bad = copy.deepcopy(structure_out)
    bad["checks"]["q-structure"]["h_dims"][4] += 1
    assert oracles.check_structure(bad, STRUCTURE)
    bad = copy.deepcopy(structure_out)
    bad["checks"]["length-splitting"]["free_dim"] = 4
    assert oracles.check_structure(bad, STRUCTURE)
    bad = copy.deepcopy(structure_out)
    bad["checks"]["si-ri-splittings"]["splits"][0]["free_dim"] = 5
    assert oracles.check_structure(bad, STRUCTURE)
    bad = copy.deepcopy(structure_out)
    bad["checks"]["even-concentration"]["passed"] = False
    assert oracles.check_structure(bad, STRUCTURE)
    bad = copy.deepcopy(structure_out)
    bad["margolis_bp2"][2]["passed"] = False
    assert oracles.check_structure(bad, STRUCTURE)
    bad = copy.deepcopy(structure_out)
    bad["checks"]["theta-assembly"]["target_counts"][0] = 2
    assert oracles.check_structure(bad, STRUCTURE)


def test_euler_rejects_ext_off_by_one(verify_probe):
    bad = copy.deepcopy(verify_probe)
    bad["euler"]["ext"][0][2] += 1
    assert oracles.check_euler(bad, 3)


def test_euler_rejects_a_pair_without_odd_columns(verify_probe):
    bad = copy.deepcopy(verify_probe)
    bad["euler"]["ext"] = [row for row in bad["euler"]["ext"] if (row[1] - row[0]) % 2 == 0]
    assert any("no odd column" in p for p in oracles.check_euler(bad, 3))


def test_unit_ext_rejects_off_by_one(verify_probe):
    bad = copy.deepcopy(verify_probe)
    bad["unit_ext"]["ext"][-1][2] += 1
    assert oracles.check_unit_ext(bad, 3)


def test_presented_and_routes_reject_off_by_one(charts_probe, charts_out):
    bad = copy.deepcopy(charts_probe)
    bad["presented"][0]["ext"][0][2] += 1
    assert oracles.check_presented(bad, charts_out)
    bad = copy.deepcopy(charts_probe)
    bad["routes"][0]["resolution"][0][2] += 1
    assert oracles.check_routes(bad)


# -- the harness end to end ----------------------------------------------------------


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=175)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    got = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke")
    assert got.returncode == 0, got.stderr
    result = json.loads(got.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "bench/run.py", "--workload", "verify-p3-k0", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    got = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=175)
    assert got.returncode != 0
    assert '"correct"' not in got.stdout
