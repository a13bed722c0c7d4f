"""Dual-route Ext and the odd-line comparison between the two algebras."""

from __future__ import annotations

import pytest

from bgsplit.browngitler import bp_homology, brown_gitler, weight_restricted_C
from bgsplit.ext import poly
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
    with pytest.raises(ValueError, match="empty comparison window"):
        propiso_check(P3, 0, 0, t_hi=0, t_lo=10)


def test_brown_gitler_length_one_agrees_with_weight_restriction():
    for k in (0, 9, 20, 40):
        b1 = brown_gitler(P3, 1, k).module
        ck = weight_restricted_C(P3, k)
        assert {d: b1.dim(d) for d in b1.degrees()} == {
            d: ck.dim(d) for d in ck.degrees()
        }


def test_obstruction_theta_zero_is_clean():
    report = obstruction_report(P3, 0)
    assert report.free_dim == 0
    assert report.classes == ()
    assert report.all_matched
    assert report.message == "theta_0 survives at E_2-comparison level"
    assert report.block_reports
    assert all(r.passed for r in report.block_reports.values())


def test_obstruction_theta_nine_survives():
    report = obstruction_report(P3, 9, t_hi=60)
    assert report.suspension == 36
    assert report.source_dim == 6
    assert report.free_dim == 0
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
    # from: nothing is realized and resolved a second time
    for m in (0, 9):
        assert propiso_check(P3, 9, m).passed
    assert poly_work.blocks
    assert len(poly_work.resolved) == len(poly_work.blocks)
    assert not poly_work.outside
    assert not any(a is r for a in poly_work.resolved for r in poly_work.realized)
