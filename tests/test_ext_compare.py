"""Dual-route Ext and the odd-line comparison between the two algebras."""

from __future__ import annotations

import pytest

from bgsplit import fplin
from bgsplit.browngitler import bp_homology, brown_gitler, weight_restricted_C
from bgsplit.ext import compare, koszul, poly
from bgsplit.ext.compare import (
    PropisoReport,
    dual_module,
    ext_via_dual,
    obstruction_report,
    propiso_check,
)
from bgsplit.ext.koszul import BigradedDims
from bgsplit.ext.resolution import ext_general
from bgsplit.monomials import PrimeContext
from bgsplit.qmodules import content_key, suspend, trivial_module
from p2_oracles import dense_ext_from_resolution

P3 = PrimeContext(3)
FULL = (0, 1, 2)

# Ext(C_9, F_p) for s <= 5, t in [-20, 5]; same table the resolution
# route is pinned to, reached here through the dual module instead
EXT_C9_UNIT = {
    (0, -17): 1, (0, -8): 1, (0, -4): 1,
    (1, -11): 1, (1, -7): 1, (1, -3): 2, (1, 1): 2, (1, 5): 1,
    (2, -10): 1, (2, -6): 2, (2, -2): 2, (2, 2): 3,
    (3, -9): 1, (3, -5): 2, (3, -1): 3, (3, 3): 3,
    (4, -8): 1, (4, -4): 2, (4, 0): 3, (4, 4): 4,
    (5, -7): 1, (5, -3): 2, (5, 1): 3, (5, 5): 4,
}


def test_dual_negates_degrees_and_is_an_involution():
    c9 = weight_restricted_C(P3, 9)
    dual = dual_module(c9)
    assert {-d: dual.dim(-d) for d in c9.degrees()} == {
        -d: c9.dim(d) for d in c9.degrees()
    }
    double = dual_module(dual)
    assert {d: double.dim(d) for d in double.degrees()} == {
        d: c9.dim(d) for d in c9.degrees()
    }


def test_dual_requires_a_complete_module():
    bounded = bp_homology(P3, 2, 20).module
    with pytest.raises(ValueError, match="complete"):
        dual_module(bounded)


def test_dual_route_matches_resolution_route():
    c9 = weight_restricted_C(P3, 9)
    unit = trivial_module(P3, FULL)
    via_dual = ext_via_dual(c9, unit, 5, 5, t_min=-20)
    assert via_dual.dims == EXT_C9_UNIT
    via_resolution = ext_general(c9, unit, 5, 5, t_min=-20)
    assert via_dual.dims == via_resolution.dims


def test_self_ext_column_at_the_suspension_degree():
    c9 = weight_restricted_C(P3, 9)
    col = ext_via_dual(c9, suspend(c9, 36), 60, 36, t_min=36)
    assert all(t == 36 for _, t in col.dims)
    assert {s: d for (s, t), d in col.dims.items()} == {0: 3, 4: 6, 8: 3, 12: 1}


def test_propiso_trivial_blocks_have_empty_columns():
    report = propiso_check(P3, 0, 0)
    assert report.passed
    assert report.column_rows() == []


def test_propiso_nine_zero_sees_the_bottom_class():
    report = propiso_check(P3, 9, 0)
    assert report.passed
    assert report.column_rows() == [(-17, 1, 1)]


def test_propiso_nine_nine_columns():
    report = propiso_check(P3, 9, 9)
    assert report.passed
    assert report.column_rows() == [
        (19, 1, 1), (23, 1, 1), (27, 1, 1), (31, 1, 1), (35, 1, 1),
    ]


def test_propiso_report_flags_a_doctored_column():
    report = PropisoReport(
        k=9, m=0, suspension=0, t_lo=-20, t_hi=-10,
        lhs_columns={-17: 1},
        rhs_columns={-17: 1, -12: 1},
        exterior_dims=BigradedDims({}, 0, -10, -20),
    )
    assert report.mismatches == (-12,)
    assert not report.passed


def test_propiso_rejects_an_empty_window():
    # C_0 sits in degree 0, so its window starts at t = 0
    with pytest.raises(ValueError, match="empty comparison window"):
        propiso_check(P3, 0, 0, t_hi=-10)


@pytest.mark.parametrize("k, m", [(9, 0), (9, 9), (3, 9)])
def test_propiso_windows_come_from_the_block_degrees(k, m):
    report = propiso_check(P3, k, m)
    qm = P3.q * m
    assert report.t_lo == qm - weight_restricted_C(P3, k).max_degree()
    assert report.t_hi == qm + weight_restricted_C(P3, m).max_degree() + 24


@pytest.mark.parametrize("m", [0, 3, 9])
def test_propiso_rejects_a_source_resolution_above_its_block(poly_work, monkeypatch, m):
    # C_9's resolution has generators above D_0 = 0, so resolving C_0 by it
    # must shrink the certified window below t_hi, and the check must say so
    c9 = weight_restricted_C(P3, 9)
    # the target block reads only the Ext of its entry, so swapping in
    # C_9's stages doctors the source alone
    def with_c9_stages(module, t_max):
        return poly.resolved_block(module, t_max)[0], poly.resolved_block(c9, t_max)[1]

    monkeypatch.setattr(compare, "resolved_block", with_c9_stages)
    with pytest.raises(ArithmeticError, match="certified only to"):
        propiso_check(P3, 0, m)


def test_propiso_rejects_an_uncut_target(poly_work, monkeypatch):
    # the source asks for C_9 at a larger window first, so an uncut target
    # reaches past hi + D_9 and lifts the certified floor above -D_9
    monkeypatch.setattr(poly.PModule, "truncated", lambda self, t_max: self)
    with pytest.raises(ValueError, match="below the certified floor"):
        propiso_check(P3, 9, 9)


@pytest.mark.parametrize(
    "pairs, nonzero",
    [(((9, 0), (10, 2), (11, 1)), 1), (((9, 9), (10, 11)), 5)],
)
def test_class_pairs_are_shifts(pairs, nonzero):
    # C_k depends only on floor(k/p): a pair with the same two contents is
    # the first one shifted by q(m - m0), windows and exterior chart included
    (k0, m0), *rest = pairs
    first = propiso_check(P3, k0, m0)
    assert len(first.column_rows()) == nonzero
    for k, m in rest:
        d = P3.q * (m - m0)
        report = propiso_check(P3, k, m)
        assert (report.t_lo, report.t_hi) == (first.t_lo + d, first.t_hi + d)
        assert report.lhs_columns == {t + d: n for t, n in first.lhs_columns.items()}
        assert report.rhs_columns == {t + d: n for t, n in first.rhs_columns.items()}
        assert report.exterior_dims.dims == {
            (s, t + d): n for (s, t), n in first.exterior_dims.dims.items()
        }


def test_brown_gitler_length_one_agrees_with_weight_restriction():
    for k in (0, 9, 20, 40):
        b1 = brown_gitler(P3, 1, k).module
        ck = weight_restricted_C(P3, k)
        assert {d: b1.dim(d) for d in b1.degrees()} == {
            d: ck.dim(d) for d in ck.degrees()
        }


def test_obstruction_theta_zero_is_clean():
    report = obstruction_report(P3, 0)
    assert report.classes == ()
    assert report.all_matched
    assert report.message == "theta_0 survives at E_2-comparison level"
    assert report.block_reports
    assert all(r.passed for r in report.block_reports.values())


def test_obstruction_report_refuses_a_free_complement_in_the_source(monkeypatch):
    # a source block smaller than B_1(k) has lost monomials to a free
    # complement; here C_2 (the unit alone) stands in for C_3 = {1, xi1}
    real = compare.weight_restricted_C
    monkeypatch.setattr(compare, "weight_restricted_C", lambda ctx, k: real(ctx, k - 1))
    with pytest.raises(ValueError, match="free complement at this weight"):
        obstruction_report(P3, 3)


def test_obstruction_report_refuses_a_free_component_in_reach(monkeypatch):
    # H_*BP<0> keeps tau_1, so tau1 tau2 tau3 sits in degree 5 + 17 + 53 = 75:
    # a target homology with a length-3 monomial inside the window's reach
    real = compare.bp_homology
    monkeypatch.setattr(compare, "bp_homology", lambda ctx, n, max_degree: real(ctx, 0, max_degree))
    assert obstruction_report(P3, 0, t_hi=74).free_checked_through == 74
    with pytest.raises(ValueError, match="free component enters the requested range"):
        obstruction_report(P3, 0, t_hi=75)


def test_obstruction_theta_nine_survives():
    report = obstruction_report(P3, 9, t_hi=60)
    assert report.suspension == 36
    assert report.source_dim == 6
    assert report.free_checked_through == 77
    assert report.blocks == tuple(range(11))
    assert report.all_matched
    assert report.message == "theta_9 survives at E_2-comparison level"
    # no odd classes in s >= 2 enter this window, but the comparison
    # itself is not vacuous: the blockwise columns carry real classes
    assert any(r.column_rows() for r in report.block_reports.values())


# -- the block memo ---------------------------------------------------------------


def _columns(report: PropisoReport) -> tuple:
    return report.t_lo, report.t_hi, report.lhs_columns, report.rhs_columns


def test_comparison_resolves_the_trivial_block_at_its_window(poly_work):
    assert propiso_check(P3, 0, 0).passed
    assert poly._BLOCKS[content_key(weight_restricted_C(P3, 0))][0].t_max == 24


def test_equal_blocks_share_one_gr_presentation(poly_work):
    # C_k depends only on floor(k/p), so C_0, C_1 and C_2 have one content
    for k in (0, 1, 2):
        assert propiso_check(P3, k, 0).passed
    assert [content_key(m) for m in poly_work.blocks] == [content_key(weight_restricted_C(P3, 0))]


def test_comparison_does_not_depend_on_cache_history(poly_work):
    small = _columns(propiso_check(P3, 3, 3))
    # the larger window must regrow the entries the small one left behind
    big = _columns(propiso_check(P3, 3, 9))
    assert _columns(propiso_check(P3, 3, 3)) == small
    poly._BLOCKS.clear()
    assert _columns(propiso_check(P3, 3, 9)) == big


def test_comparison_resolves_only_block_builds(poly_work):
    # the source block's resolution is the one its gr presentation came
    # from, and the target is the block's own Ext: nothing is resolved twice
    for m in (0, 9):
        assert propiso_check(P3, 9, m).passed
    assert poly_work.blocks
    assert len(poly_work.resolved) == len(poly_work.blocks)
    assert not poly_work.outside


# -- the Hom table -------------------------------------------------------------------


@pytest.mark.parametrize("p, top, with_ext1", [(3, 12, 52), (5, 9, 0)])
def test_hom_table_matches_the_dense_reference_on_every_pair(monkeypatch, p, top, with_ext1):
    # every pair with k, m <= top, and every one has Ext^0; the p = 5 pairs
    # are those of the verify_p5_t100 golden
    seen = []

    def both(*args, **kwargs):
        seen.append(poly.ext_from_resolution(*args, **kwargs))
        assert seen[-1] == dense_ext_from_resolution(*args, **kwargs)
        return seen[-1]

    monkeypatch.setattr(compare, "ext_from_resolution", both)
    ctx = PrimeContext(p)
    for k in range(top + 1):
        for m in range(top + 1):
            propiso_check(ctx, k, m)
    assert len(seen) == (top + 1) ** 2
    assert all(ext.dims for ext in seen)
    assert sum(any(u == 1 for u, _ in ext.dims) for ext in seen) == with_ext1


def test_comparison_ranks_its_hom_table_once(poly_work, monkeypatch):
    # the blocks are built before the polynomial side runs, so every rank
    # asked for inside it is the Hom table's
    calls, inside = [], []
    for module in (fplin, koszul, poly):
        for name in ("rank", "ranks"):
            if hasattr(module, name):
                real = getattr(module, name)

                def counted(*args, real=real, name=name):
                    if inside:
                        calls.append(name)
                    return real(*args)

                monkeypatch.setattr(module, name, counted)
    route = compare.ext_from_resolution

    def traced(*args, **kwargs):
        inside.append(True)
        try:
            return route(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(compare, "ext_from_resolution", traced)
    assert propiso_check(P3, 9, 9).passed
    assert calls == ["ranks"]
