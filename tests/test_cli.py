"""End-to-end checks of the command-line front end."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bgsplit import cli, margolis
from bgsplit.cli import main
from bgsplit.ext.poly import projective_dimension
from bgsplit.monomials import PrimeContext
from bgsplit.qmodules import direct_sum, trivial_module
from p2_oracles import fp_v2_presentation, resolved, residue_field_presentation

GOLDEN_P3_K0 = Path(__file__).parent / "data" / "verify_p3_k0.json"
GOLDEN_P3_DEFAULT = Path(__file__).parent / "data" / "verify_p3_default.json"
GOLDEN_P3_DEFAULT_TEXT = Path(__file__).parent / "data" / "verify_p3_default.txt"
GOLDEN_P5_T100 = Path(__file__).parent / "data" / "verify_p5_t100.json"
GOLDEN_BASIS = Path(__file__).parent / "data" / "basis_p3_i2_d120.tsv"
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_basis_listing_is_byte_identical(capsys):
    # pins the monomial enumeration order and gradings through degree 120
    assert main(["basis", "--p", "3", "--i", "2", "--max-degree", "120", "--format", "tsv"]) == 0
    assert capsys.readouterr().out == GOLDEN_BASIS.read_text(encoding="utf-8")


def test_readme_basis_example_matches_the_cli(capsys):
    readme = README.read_text(encoding="utf-8")
    command = "bgsplit basis --i 1 --max-degree 17"
    shown = readme.split(f"```sh\n{command}\n```\n\n```\n", 1)[1].split("```", 1)[0]
    assert main(command.split()[1:]) == 0
    assert capsys.readouterr().out == shown


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


def test_prime_at_or_above_the_bound_is_a_config_error(capsys):
    # 65537 is prime but above fplin.MAX_PRIME, where int64 products stop being exact
    for argv in (["basis", "--i", "1"], ["verify-splitting", "--k-max", "0"]):
        assert main(argv + ["--p", "65537", "--max-degree", "0"]) == 2
        assert "p must be below 65536" in capsys.readouterr().err


def test_bad_ranges_are_config_errors(capsys):
    argv = ["verify-splitting", "--max-degree", "12", "--k-max", "0", "--s-max", "2"]
    assert main(argv + ["--t-max", "-5"]) == 2
    assert "t_max must be nonnegative" in capsys.readouterr().err
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


def test_theta_algebra_index_out_of_range_is_a_config_error(capsys):
    for i in ("3", "-1"):
        assert main(["theta", "--p", "3", "--i", i, "--k", "1"]) == 2
        assert "algebra index in 0..2" in capsys.readouterr().err


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


SMALL_WINDOW = ["verify-splitting", "--p", "3", "--max-degree", "24", "--k-max", "3"]


def _only_failure(capsys):
    code, payload = run_json(capsys, SMALL_WINDOW)
    assert code == 1
    assert not payload["passed"]
    bad = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in bad] == ["w-margolis"]
    return bad[0]["detail"]


def test_w_margolis_catches_a_misplaced_model(capsys, monkeypatch):
    real = cli.construct_model
    monkeypatch.setattr(
        cli, "construct_model", lambda ctx, pair, a, b: real(ctx, pair, a + 1, b)
    )
    detail = _only_failure(capsys)
    assert "W1(1) model misses the Q_1 homology degree 36" in detail


def test_w_margolis_catches_a_non_invertible_block(capsys, monkeypatch):
    real = cli.w_family

    def padded(ctx, which, n):
        block = real(ctx, which, n)
        return direct_sum([block, trivial_module(ctx, block.qs)])

    monkeypatch.setattr(cli, "w_family", padded)
    detail = _only_failure(capsys)
    assert "W1(1) not invertible" in detail


def test_w_margolis_counts_without_representatives(monkeypatch):
    def refuse(*args):
        raise AssertionError("w-margolis built Margolis representatives")

    monkeypatch.setattr(margolis, "homology_basis", refuse)
    entry = cli._check_w_margolis(PrimeContext(3), cli.RunConfig())
    assert entry["passed"]
    assert "W1(1) -> (31, -1)" in entry["detail"]


@pytest.mark.parametrize(
    "spec, u_max",
    [
        # F_p[v_2]: length 2 with an empty socle, so only the length bound fails
        (fp_v2_presentation, 4),
        # the residue field held through stage 1: length 1 with its socle at
        # (0, 0), so only the socle bound fails
        (residue_field_presentation, 1),
    ],
    ids=["length", "socle"],
)
def test_pd_bound_catches_a_doctored_presentation(capsys, monkeypatch, spec, u_max):
    pres = resolved(spec(3, (1, 5, 17), 60), u_max)
    report = projective_dimension(pres)
    assert (report.length <= 1) != report.socle_empty
    monkeypatch.setattr(cli, "gr_module", lambda module, t_max: pres)
    code, payload = run_json(capsys, ["verify-splitting", "--k-max", "0"])
    assert code == 1
    assert not payload["passed"]
    bad = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in bad] == ["pd-bound"]
    assert bad[0]["detail"] == "length or socle bound fails for k in [0]"


def test_output_file_lands_under_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BGSPLIT_OUTPUT_DIR", str(tmp_path))
    code = main(
        ["basis", "--p", "3", "--i", "2", "--max-degree", "0",
         "--format", "json", "--output", "basis.json"]
    )
    assert code == 0
    on_disk = json.loads((tmp_path / "basis.json").read_text())
    assert on_disk == json.loads(capsys.readouterr().out)


def test_benchmark_window_report_is_byte_identical(capsys):
    # the verify-p3-k0 benchmark window; a refactor must leave its report unchanged
    argv = ["verify-splitting", "--p", "3", "--max-degree", "60", "--k-max", "0", "--s-max", "6"]
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == GOLDEN_P3_K0.read_text(encoding="utf-8")


def test_default_window_report_is_byte_identical(capsys):
    # the default window: the only golden whose e2-comparison has nonzero columns
    assert main(["verify-splitting", "--format", "json"]) == 0
    assert capsys.readouterr().out == GOLDEN_P3_DEFAULT.read_text(encoding="utf-8")


def test_default_window_text_report_is_byte_identical(capsys):
    # the text renderer at the default window, with its nonzero comparison columns
    assert main(["verify-splitting"]) == 0
    assert capsys.readouterr().out == GOLDEN_P3_DEFAULT_TEXT.read_text(encoding="utf-8")


def test_p5_window_report_is_byte_identical(capsys):
    # p = 5 is the prime the hypothesis needs; this pins today's report there
    argv = ["verify-splitting", "--p", "5", "--max-degree", "100"]
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == GOLDEN_P5_T100.read_text(encoding="utf-8")
