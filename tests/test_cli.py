"""End-to-end checks of the command-line front end."""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bgsplit
from bgsplit import browngitler, cli
from bgsplit.cli import main
from bgsplit.ext import compare, koszul
from bgsplit.ext.poly import projective_dimension
from bgsplit.monomials import PrimeContext
from bgsplit.qmodules import (
    QModule,
    QModuleMap,
    _shift_grading,
    content_key,
    direct_sum,
    free_module,
    trivial_module,
)
from margolis_oracles import without_lowest_edge
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


def test_readme_documents_exactly_the_verify_splitting_flags():
    readme = README.read_text(encoding="utf-8")
    section = readme.split("## Command line\n", 1)[1].split("## Library layout\n", 1)[0]
    shared = section.split("All subcommands share", 1)[1].split("\n\n", 1)[0]
    verify = section.split("Run the whole pipeline:", 1)[1]
    documented = set(re.findall(r"--[a-z][a-z-]*", shared + verify))
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for a in subs.choices["verify-splitting"]._actions for s in a.option_strings}
    assert documented == options - {"-h", "--help"}


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


SMALL_WINDOW = ["verify-splitting", "--p", "3", "--max-degree", "24", "--k-max", "3"]
# the verify-p3-k0 benchmark window: it reaches tau3 (degree 53 at p = 3),
# below which no Q acts on H
K0_WINDOW = ["verify-splitting", "--p", "3", "--max-degree", "60", "--k-max", "0"]


def _only_failure(capsys, name, argv=SMALL_WINDOW):
    code, payload = run_json(capsys, argv)
    assert code == 1
    assert not payload["passed"]
    bad = [c for c in payload["checks"] if not c["passed"]]
    assert [c["name"] for c in bad] == [name]
    return bad[0]["detail"]


# Falsifiers, one or more per check: each doctors the input of one check with
# monkeypatch and requires that check, and no other, to fail.


def _flipped_square(module):
    """A copy of module with one action entry flipped so that a Q square fails.

    The flip lands where the next action down is nonzero, which makes the
    doctored square provably nonzero.
    """
    for i in module.qs:
        di = module.drop(i)
        for d in sorted(module.degrees(), reverse=True):
            prev = module.act(i, d - di)
            if module.dim(d) == 0 or not prev.any():
                continue
            r = int(np.flatnonzero(prev.any(axis=0))[0])
            actions = {j: dict(acts) for j, acts in module.actions.items()}
            mat = module.act(i, d).copy()
            mat[r, 0] = (mat[r, 0] + 1) % module.ctx.p
            actions[i][d] = mat
            return QModule(
                module.ctx, module.qs, module.basis, actions, module.truncated_above, _skip_check=True
            )
    raise AssertionError("no composable Q action to doctor")


def _non_equivariant(f):
    """A copy of the map f with one column negated where some Q_i is nonzero on its image.

    f(Q_i x) keeps its value while Q_i f(x) changes sign, so Q_i f = f Q_i
    fails there; every column keeps its nonzero pattern.
    """
    p = f.source.ctx.p
    for d in f.source.degrees():
        for i in f.target.qs:
            hit = (f.target.act(i, d + f.shift) @ f.mat(d)) % p
            cols = np.flatnonzero(hit.any(axis=0))
            if cols.size:
                mats = {e: f.mat(e).copy() for e in f.source.degrees()}
                mats[d][:, cols[0]] *= -1
                return QModuleMap(f.source, f.target, mats, f.shift)
    raise AssertionError("no column where a Q action sees the image")


def test_q_structure_catches_a_doctored_witness(capsys, monkeypatch):
    real = cli.tensor
    monkeypatch.setattr(cli, "tensor", lambda m, n: _flipped_square(real(m, n)))
    assert _only_failure(capsys, "q-structure") == "Q_0^2 is nonzero starting at degree 37"


def test_q_structure_catches_a_doctored_homology(capsys, monkeypatch):
    # a Q_0 matrix one row too tall must be reported as a failure, not raised out of main
    real = cli.bp_homology

    def padded(ctx, n, max_degree):
        hom = real(ctx, n, max_degree)
        h = hom.module
        d = max(h.actions[0])
        actions = {i: dict(acts) for i, acts in h.actions.items()}
        actions[0][d] = np.vstack([actions[0][d], np.zeros((1, h.dim(d)), dtype=np.int64)])
        module = QModule(ctx, h.qs, h.basis, actions, h.truncated_above, _skip_check=True)
        return replace(hom, module=module)

    monkeypatch.setattr(cli, "bp_homology", padded)
    detail = _only_failure(capsys, "q-structure", K0_WINDOW)
    assert detail == "Q_0 matrix at degree 57 has shape (6, 1), expected (5, 1)"


def test_theta_assembly_catches_a_short_homology(capsys, monkeypatch):
    # H built one degree short of the window leaves the top degree uncovered:
    # the theta images of degree 24 are missing from H, so the map has no
    # rows there and fails the bijection gate and the degree counts;
    # theta-blocks and length-splitting read H too, so it is short only here
    real = cli.assemble_bp_splitting
    bp_homology = browngitler.bp_homology

    def assemble(ctx, n, max_degree):
        with monkeypatch.context() as m:
            m.setattr(browngitler, "bp_homology", lambda c, i, t: bp_homology(c, i, t - 1))
            return real(ctx, n, max_degree)

    monkeypatch.setattr(cli, "assemble_bp_splitting", assemble)
    assert _only_failure(capsys, "theta-assembly") == "coverage first fails at degree 24"


def _lossy(theta_map, k, d=None):
    """The theta builder `_theta_map`, except that theta_k sends its last basis element of degree d to zero.

    Block k is the whole source when theta_k is built alone, and the
    elements labelled (k, x) in the assembly's direct sum.  d defaults to
    the top degree of block k; a block without degree d is left alone.
    """

    def lossy(ctx, source, target, row, block):
        f = theta_map(ctx, source, target, row, block)
        cols = {e: [c for c, label in enumerate(labels) if block(label)[0] == k] for e, labels in source.basis.items()}
        cols = {e: c for e, c in cols.items() if c}
        top = max(cols, default=None) if d is None else d
        mats = {e: f.mat(e).copy() for e in f.source.degrees()}
        if top in cols:
            mats[top][:, cols[top][-1]] = 0
        return QModuleMap(f.source, f.target, mats, f.shift)

    return lossy


def test_theta_assembly_catches_a_lost_monomial(capsys, monkeypatch):
    # the one map goes through the bijection gate, so a column with no
    # image fails the check instead of raising out of main; theta-blocks
    # builds theta with the same formula, so it is doctored only inside
    # this check
    real = cli.assemble_bp_splitting

    def assemble(ctx, n, max_degree):
        with monkeypatch.context() as m:
            m.setattr(browngitler, "_theta_map", _lossy(browngitler._theta_map, 3))
            return real(ctx, n, max_degree)

    monkeypatch.setattr(cli, "assemble_bp_splitting", assemble)
    assert _only_failure(capsys, "theta-assembly") == "a block-level theta check failed"


def test_theta_assembly_catches_an_entry_that_breaks_equivariance_only(capsys, monkeypatch):
    # one image negated where a Q_j sees it keeps the map a bijection on
    # basis monomials with every degree count matching, so the report names
    # the block-level check, not a degree; a window without tau3 has no
    # nonzero Q_j on H
    real, reports = cli.assemble_bp_splitting, []

    def assemble(ctx, n, max_degree):
        with monkeypatch.context() as m:
            theta_map = browngitler._theta_map
            m.setattr(browngitler, "_theta_map", lambda *args: _non_equivariant(theta_map(*args)))
            reports.append(real(ctx, n, max_degree))
            return reports[-1]

    monkeypatch.setattr(cli, "assemble_bp_splitting", assemble)
    assert _only_failure(capsys, "theta-assembly", K0_WINDOW) == "a block-level theta check failed"
    (report,) = reports
    assert report.first_failing_degree is None
    assert report.gate.bijective and not report.gate.equivariant


def test_theta_blocks_catches_a_lost_monomial(capsys, monkeypatch):
    # theta-assembly builds theta with the same formula, so it is doctored only inside this check
    real = cli.theta_report

    def report(ctx, i, k):
        with monkeypatch.context() as m:
            m.setattr(browngitler, "_theta_map", _lossy(browngitler._theta_map, 3))
            return real(ctx, i, k)

    monkeypatch.setattr(cli, "theta_report", report)
    assert _only_failure(capsys, "theta-blocks") == "theta fails for k in [3]"


def test_theta_blocks_catches_a_lost_monomial_above_the_window(capsys, monkeypatch):
    # at degree 40, kt = 9 and theta_9 reaches tau2 -> tau3 in degree 53,
    # which theta-assembly's window does not hold; so one doctored formula,
    # shared by both checks, fails theta-blocks alone
    monkeypatch.setattr(browngitler, "_theta_map", _lossy(browngitler._theta_map, 9, 53))
    argv = ["verify-splitting", "--p", "3", "--max-degree", "40", "--k-max", "9"]
    assert _only_failure(capsys, "theta-blocks", argv) == "theta fails for k in [9]"


def test_length_splitting_catches_a_non_equivariant_projection(capsys, monkeypatch):
    # the reduced part also feeds C-bar, so only the projection is doctored
    real = cli.length_splitting

    def split(ctx, depth):
        pair = real(ctx, depth)
        return replace(pair, projection=_non_equivariant(pair.projection))

    monkeypatch.setattr(cli, "length_splitting", split)
    detail = _only_failure(capsys, "length-splitting", K0_WINDOW)
    assert detail == "inclusion/projection/retraction equivariance or freeness failed"


def test_si_ri_catches_a_non_equivariant_projection(capsys, monkeypatch):
    real = cli.si_ri_splitting

    def split(ctx, perm, depth):
        pair = real(ctx, perm, depth)
        if perm[0] != 1:
            return pair
        return replace(pair, projection=_non_equivariant(pair.projection))

    monkeypatch.setattr(cli, "si_ri_splitting", split)
    assert _only_failure(capsys, "si-ri-splittings", K0_WINDOW) == "failed for ['s1']"


def _off_summand_retraction(pair):
    """The retraction r plus f (x) w, which still inverts the inclusion but is not equivariant.

    w is a row of the projection, which vanishes on the free part, so
    r o inc = id survives and `SplitPair` accepts the copy.  f is a free
    basis vector in the same degree d with some Q_i f nonzero, so Q_i
    sees the added (Q_i f) (x) w at d, while nothing is added below d.
    """
    free, r = pair.free_part, pair.retraction
    for d in free.degrees():
        moved = [j for i in free.qs for j in np.flatnonzero(free.act(i, d).any(axis=0))]
        if moved and pair.reduced_part.dim(d):
            mats = {e: r.mat(e).copy() for e in r.source.degrees()}
            mats[d][moved[0]] += pair.projection.mat(d)[0]
            return replace(pair, retraction=QModuleMap(r.source, r.target, mats, r.shift))
    raise AssertionError("no degree holds both parts and a moved free vector")


def test_si_ri_catches_a_non_equivariant_retraction(capsys, monkeypatch):
    # at degree 60 every free part is 0, so the doctored retraction would
    # compare nothing there; at 220 each S_i has dimension 8
    real = cli.si_ri_splitting

    def split(ctx, perm, depth):
        pair = real(ctx, perm, depth)
        return _off_summand_retraction(pair) if perm[0] == 0 else pair

    monkeypatch.setattr(cli, "si_ri_splitting", split)
    argv = ["verify-splitting", "--p", "3", "--max-degree", "220", "--k-max", "0", "--s-max", "2"]
    assert _only_failure(capsys, "si-ri-splittings", argv) == "failed for ['s0']"


def test_si_ri_splits_nonzero_summands_at_260(capsys):
    argv = ["verify-splitting", "--p", "3", "--max-degree", "260", "--k-max", "0", "--s-max", "4"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    si_ri = next(c for c in payload["checks"] if c["name"] == "si-ri-splittings")
    assert si_ri["detail"] == "S_i free and split off for each omitted Q (free dim 96, free dim 96, free dim 96)"


def test_w_margolis_catches_a_misplaced_model(capsys, monkeypatch):
    real = cli.construct_model
    monkeypatch.setattr(
        cli, "construct_model", lambda ctx, pair, a, b: real(ctx, pair, a + 1, b)
    )
    detail = _only_failure(capsys, "w-margolis")
    assert "W1(1) model misses the Q_1 homology degree 36" in detail


def test_w_margolis_catches_a_model_missing_an_edge(capsys, monkeypatch):
    real = cli.construct_model
    monkeypatch.setattr(
        cli,
        "construct_model",
        lambda ctx, pair, a, b: without_lowest_edge(real(ctx, pair, a, b), max(pair)),
    )
    detail = _only_failure(capsys, "w-margolis")
    assert "W1(1) model misses the Q_2 homology degree 48" in detail


def test_w_margolis_catches_a_non_invertible_block(capsys, monkeypatch):
    real = cli.w_family

    def padded(ctx, which, n):
        block = real(ctx, which, n)
        return direct_sum([block, trivial_module(ctx, block.qs)])

    monkeypatch.setattr(cli, "w_family", padded)
    detail = _only_failure(capsys, "w-margolis")
    assert "W1(1) not invertible" in detail


def test_w_margolis_counts_without_representatives(monkeypatch):
    def refuse(*args):
        raise AssertionError("w-margolis built Margolis representatives")

    # every binding of the homology primitive in the package
    for name, module in list(sys.modules.items()):
        if name.startswith("bgsplit") and hasattr(module, "homology_basis"):
            monkeypatch.setattr(module, "homology_basis", refuse)
    entry = cli._check_w_margolis(PrimeContext(3), cli.RunConfig())
    assert entry["passed"]
    assert "W1(1) -> (31, -1)" in entry["detail"]


def test_even_concentration_catches_odd_classes(capsys, monkeypatch):
    # regrading each pair module by 1 moves every class to odd t - s
    real = cli.restrict_qs
    monkeypatch.setattr(cli, "restrict_qs", lambda m, qs: _shift_grading(real(m, qs), 1))
    detail = _only_failure(capsys, "even-concentration")
    assert detail == "odd classes at [(0, 1, 1), (0, 1, 1), (0, 1, 1), (0, 5, 1)]"


def test_bockstein_collapse_catches_an_extra_class(capsys, monkeypatch):
    # one more class in the three-operator chart of C-bar, at the top of the
    # window; the pair charts, and so the E_1 pages, stay even and unchanged
    cbar = content_key(browngitler.length_splitting(PrimeContext(3), 24).reduced_part)
    real = koszul.ext_koszul

    def doctored(module, *args, **kwargs):
        ext = real(module, *args, **kwargs)
        if content_key(module) == cbar:
            ext.dims[(0, 24)] = ext.dim(0, 24) + 1
        return ext

    monkeypatch.setattr(koszul, "ext_koszul", doctored)
    detail = _only_failure(capsys, "bockstein-collapse")
    assert detail == "Ext differs from the E_1 count for i in [0, 1, 2]"


def test_v_injectivity_catches_a_kernel(capsys, monkeypatch):
    # the free module's Ext sits at s = 0, so every v_i has a kernel there
    real = cli.v_injectivity
    monkeypatch.setattr(
        cli, "v_injectivity", lambda ck, *args: real(free_module(ck.ctx, ck.qs), *args)
    )
    detail = _only_failure(capsys, "v-injectivity")
    assert detail == "kernel found: [(0, [(0, -23)]), (1, [(0, -23)]), (2, [(0, -23)])]"


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
    detail = _only_failure(capsys, "pd-bound", K0_WINDOW)
    assert detail == "length or socle bound fails for k in [0]"


def test_e2_comparison_catches_a_mismatched_column(capsys, monkeypatch):
    real = cli.propiso_check

    def doctored(ctx, k, m):
        rep = real(ctx, k, m)
        rhs = dict(rep.rhs_columns)
        rhs[rep.t_hi] = rhs.get(rep.t_hi, 0) + 1
        return replace(rep, rhs_columns=rhs)

    monkeypatch.setattr(cli, "propiso_check", doctored)
    detail = _only_failure(capsys, "e2-comparison")
    assert detail == "mismatched pairs: [(0, 0, (24,)), (0, 1, (28,)), (0, 2, (32,))]"


def test_obstruction_survival_catches_an_unmatched_class(capsys, monkeypatch):
    # no real window has an odd class with s >= 2, so one is added to the
    # exterior side of the first block's top column, which then stops matching;
    # e2-comparison calls propiso_check too, so it is doctored only in here
    real = cli.obstruction_report
    propiso = compare.propiso_check

    def doctored(ctx, k, m, t_hi=None):
        rep = propiso(ctx, k, m, t_hi=t_hi)
        if m:
            return rep
        t = rep.t_hi
        s = 2 if (t - 2) % 2 else 3
        dims = dict(rep.exterior_dims.dims)
        dims[(s, t)] = dims.get((s, t), 0) + 1
        lhs = dict(rep.lhs_columns)
        lhs[t] = lhs.get(t, 0) + 1
        return replace(rep, lhs_columns=lhs, exterior_dims=replace(rep.exterior_dims, dims=dims))

    def report(ctx, k):
        with monkeypatch.context() as m:
            m.setattr(compare, "propiso_check", doctored)
            return real(ctx, k)

    monkeypatch.setattr(cli, "obstruction_report", report)
    detail = _only_failure(capsys, "obstruction-survival")
    assert detail.startswith("unmatched obstruction classes at [(3, 44)]; 10 blocks")


def test_output_file_lands_under_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BGSPLIT_OUTPUT_DIR", str(tmp_path))
    code = main(
        ["basis", "--p", "3", "--i", "2", "--max-degree", "0",
         "--format", "json", "--output", "basis.json"]
    )
    assert code == 0
    on_disk = json.loads((tmp_path / "basis.json").read_text())
    assert on_disk == json.loads(capsys.readouterr().out)


def test_verify_splitting_leaves_numpy_ma_unimported():
    # the window charts and every rank avoid np.unique, whose first call
    # imports numpy.ma, about 9 ms and 1.7 MB of RSS per invocation
    code = (
        "import contextlib, io, sys\n"
        "from bgsplit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify-splitting', '--k-max', '0', '--format', 'json'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bgsplit.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "False"]


def test_v_injectivity_stops_at_the_chart_for_a_huge_s_max(capsys):
    # C^{s,t} = 0 once s exceeds t - min degree, so an --s-max far past the
    # window must cost no more than one that reaches its edge
    env = dict(os.environ, PYTHONPATH=str(Path(bgsplit.__file__).resolve().parents[1]))
    argv = ["verify-splitting", "--max-degree", "12", "--k-max", "0", "--format", "json"]
    out = subprocess.run(
        [sys.executable, "-m", "bgsplit.cli", *argv, "--s-max", "100000"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert main(argv + ["--s-max", "12"]) == 0
    small = json.loads(capsys.readouterr().out)

    def detail(report):
        return next(c["detail"] for c in report["checks"] if c["name"] == "v-injectivity")

    assert detail(json.loads(out.stdout)) == detail(small)
    assert "72 classes" in detail(small)


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


def test_default_run_builds_each_block_at_its_widest_window(capsys, poly_work):
    # the P(2) checks run last, widest windows first; in report order the
    # block memo regrew to 28 builds
    assert main(["verify-splitting"]) == 0
    assert capsys.readouterr().out == GOLDEN_P3_DEFAULT_TEXT.read_text(encoding="utf-8")
    assert len(poly_work.blocks) == 8
    assert len({content_key(m) for m in poly_work.blocks}) == 7


def test_p5_window_report_is_byte_identical(capsys):
    # p = 5 is the prime the hypothesis needs; this pins today's report there
    argv = ["verify-splitting", "--p", "5", "--max-degree", "100"]
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == GOLDEN_P5_T100.read_text(encoding="utf-8")
