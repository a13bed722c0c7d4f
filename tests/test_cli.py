"""End-to-end checks of the command-line front end."""

from __future__ import annotations

import json

from bgsplit.cli import main


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_basis_lists_degree_weight_length(capsys):
    code, payload = run_json(capsys, ["basis", "--p", "3", "--i", "1", "--max-degree", "17"])
    assert code == 0
    assert payload["row_count"] == 7
    rows = payload["rows"]
    assert sorted(r["degree"] for r in rows) == [0, 4, 8, 12, 16, 16, 17]
    tau = next(r for r in rows if r["monomial"] == "tau2")
    assert (tau["degree"], tau["weight"], tau["length"]) == (17, 9, 1)


def test_basis_degenerate_window(capsys):
    code, payload = run_json(capsys, ["basis", "--p", "3", "--i", "2", "--max-degree", "0"])
    assert code == 0
    assert payload["row_count"] == 1
    assert payload["rows"][0]["monomial"] == "1"


def test_even_prime_is_a_config_error(capsys):
    code = main(["basis", "--p", "4", "--i", "1", "--max-degree", "10"])
    assert code == 2
    assert "p must be an odd prime" in capsys.readouterr().err


def test_odd_composite_and_two_are_config_errors(capsys):
    for p in ("9", "2"):
        code = main(["verify-splitting", "--p", p, "--max-degree", "0", "--k-max", "0"])
        assert code == 2
        assert "p must be an odd prime" in capsys.readouterr().err


def test_bad_ranges_are_config_errors(capsys):
    assert main(["verify-splitting", "--jobs", "0", "--max-degree", "0"]) == 2
    assert "jobs" in capsys.readouterr().err
    assert main(["verify-splitting", "--max-degree", "10", "--t-max", "20"]) == 2
    assert "t_max" in capsys.readouterr().err


def test_theta_nine_is_permutation_like(capsys):
    code, payload = run_json(capsys, ["theta", "--p", "3", "--k", "9"])
    assert code == 0
    assert payload["passed"]
    assert payload["suspension"] == 36
    assert payload["target_weight"] == 27
    matrix = payload["matrix"]
    assert len(matrix) == 6 and all(len(row) == 6 for row in matrix)
    assert all(sum(1 for v in row if v) == 1 for row in matrix)
    for c in range(6):
        assert sum(1 for row in matrix if row[c]) == 1
    assert all(payload["checks"].values())


def test_theta_trivial_and_padding_blocks(capsys):
    code, payload = run_json(capsys, ["theta", "--p", "5", "--k", "0"])
    assert code == 0
    assert payload["matrix"] == [[1]]
    code, payload = run_json(capsys, ["theta", "--p", "3", "--k", "1"])
    assert code == 0
    assert payload["source_dim"] == 1
    assert payload["images"][0]["image"] == "xi1"


def test_verify_splitting_small_window(capsys):
    code, payload = run_json(
        capsys, ["verify-splitting", "--p", "3", "--max-degree", "24", "--k-max", "3"]
    )
    assert code == 0
    assert payload["passed"]
    assert len(payload["checks"]) == 12
    assert all(c["passed"] for c in payload["checks"])
    assert payload["conclusion"].startswith("verified at the E_2 page")
    assert "p >= 5" in payload["note"]
    names = [c["name"] for c in payload["checks"]]
    assert names[0] == "q-structure"
    assert "e2-comparison" in names and "obstruction-survival" in names


def test_verify_splitting_trivial_window_is_deterministic(capsys):
    code = main(["verify-splitting", "--max-degree", "0", "--k-max", "0", "--format", "json"])
    first = capsys.readouterr().out
    assert code == 0
    code = main(["verify-splitting", "--max-degree", "0", "--k-max", "0", "--format", "json"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second
    payload = json.loads(first)
    assert payload["passed"]


def test_injected_fault_is_caught(capsys):
    code, payload = run_json(
        capsys,
        ["verify-splitting", "--max-degree", "0", "--k-max", "0", "--inject-fault"],
    )
    assert code == 1
    assert not payload["passed"]
    bad = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in bad] == ["q-structure"]
    assert "Q_0^2 is nonzero" in bad[0]["detail"]
    assert "fault injected" in bad[0]["detail"]


def test_output_file_lands_under_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BGSPLIT_OUTPUT_DIR", str(tmp_path))
    code = main(
        ["basis", "--p", "3", "--i", "2", "--max-degree", "0",
         "--format", "json", "--output", "basis.json"]
    )
    assert code == 0
    on_disk = json.loads((tmp_path / "basis.json").read_text())
    assert on_disk == json.loads(capsys.readouterr().out)
