"""gr presentations, realization, P(2)-resolutions, Ext over P(2), pd."""

from __future__ import annotations

import numpy as np
import pytest

from bgsplit.browngitler import bp_homology, weight_restricted_C
from bgsplit.ext import poly
from bgsplit.ext.poly import (
    PolyPresentation,
    ext_over_P2,
    ext_p_module,
    free_presentation,
    gr_module,
    p_resolution,
    projective_dimension,
    realize,
    residue_field_presentation,
)
from bgsplit.monomials import PrimeContext
from bgsplit.qmodules import QModule

P3 = PrimeContext(3)
VARS = (1, 5, 17)


def test_gr_c9_presentation():
    pres = gr_module(weight_restricted_C(P3, 9), 60)
    assert pres.var_degrees == VARS
    assert pres.generators == ((0, 0), (0, 4), (0, 8), (0, 12), (0, 16))
    assert len(pres.relations) == 1
    (bidegree, entries), = pres.relations
    assert bidegree == (1, 17)
    assert entries == ((0, (0, 0, 1), 1), (3, (0, 1, 0), 1), (4, (1, 0, 0), 1))
    assert pres.relation_strings() == ["v2*g0 + v1*g3 + v0*g4"]


def test_gr_small_blocks_are_free():
    # below the first tau every block has zero operator action, so gr is
    # free on one generator per basis element
    for k in (0, 3, 6, 8):
        block = weight_restricted_C(P3, k)
        pres = gr_module(block, 40)
        assert pres.relations == ()
        assert len(pres.generators) == block.total_dim
        assert all(s == 0 for s, _ in pres.generators)


def test_no_relation_contains_a_unit():
    for k in (9, 12, 15, 18):
        pres = gr_module(weight_restricted_C(P3, k), 70)
        for _, entries in pres.relations:
            for _, alpha, coeff in entries:
                assert any(alpha)
                assert coeff % 3


def test_realize_roundtrip_matches_koszul_module():
    c9 = weight_restricted_C(P3, 9)
    pres = gr_module(c9, 44)
    built = realize(pres)
    direct = ext_p_module(c9, 44)
    assert built.dims == direct.dims
    # spot-check one action block against the chain-level multiplication
    for j in range(3):
        for bd in sorted(direct.dims)[:40]:
            s, t = bd
            if t + VARS[j] <= 44:
                assert built.act(j, s, t).shape == direct.act(j, s, t).shape


def test_gr_caps_to_certified_window():
    bounded = bp_homology(P3, 2, 30).module
    pres = gr_module(bounded, 90)
    assert pres.t_max == 30
    assert pres.note is not None


def test_residue_field_resolution_is_koszul():
    k = residue_field_presentation(3, VARS, 64)
    stages = p_resolution(realize(k), 4)
    bidegrees = [st.gen_bidegrees for st in stages]
    assert bidegrees[0] == ((0, 0),)
    assert bidegrees[1] == ((1, 1), (1, 5), (1, 17))
    assert bidegrees[2] == ((2, 6), (2, 18), (2, 22))
    assert bidegrees[3] == ((3, 23),)
    assert len(bidegrees) == 4


def test_ext_unit_unit_dims():
    a = residue_field_presentation(3, VARS, 64)
    b = residue_field_presentation(3, VARS, 32)
    ext = ext_over_P2(a, b, 3, 8)
    per_u = {}
    for (u, t), d in ext.dims.items():
        assert d == 1
        per_u.setdefault(u, set()).add(t)
    assert per_u == {
        0: {0},
        1: {-1, -5, -17},
        2: {-6, -18, -22},
        3: {-23},
    }
    assert ext.t_min <= -23
    assert ext.t_max >= 0


def test_ext_from_residue_field_into_free_is_the_top_class():
    # the polynomial algebra has no socle, so everything cancels except
    # the top Koszul class, 1 + 5 + 17 below the generator
    a = residue_field_presentation(3, VARS, 64)
    b = free_presentation(3, VARS, ((0, 0),), 32)
    ext = ext_over_P2(a, b, 3, 8)
    assert ext.dims == {(3, -23): 1}


def test_ext_from_free_source_is_hom_only():
    a = free_presentation(3, VARS, ((0, 0),), 64)
    b = residue_field_presentation(3, VARS, 32)
    ext = ext_over_P2(a, b, 3, 8)
    assert ext.dims == {(0, 0): 1}


def test_ext_u_line_vanishes_above_projective_dimension():
    a = gr_module(weight_restricted_C(P3, 9), 70)
    for m, shift in ((0, 0), (3, 12), (9, 36)):
        b = gr_module(weight_restricted_C(P3, m), 40).shifted(shift)
        ext = ext_over_P2(a, b, 4, 20)
        assert all(u <= 1 for u, _ in ext.dims), sorted(ext.dims)


def test_projective_dimension_oracles():
    assert projective_dimension(residue_field_presentation(3, VARS, 60)).length == 3
    free = free_presentation(3, VARS, ((0, 0), (2, 10)), 60)
    report = projective_dimension(free)
    assert report.length == 0
    assert report.socle_empty

    gr9 = projective_dimension(gr_module(weight_restricted_C(P3, 9), 60))
    assert gr9.length == 1
    assert gr9.socle_empty
    assert gr9.passed


def test_projective_dimension_gate_rejects_length_two():
    # F_p[v_2] = P(2)/(v_0, v_1): two Koszul relation stages, and v_2 acts
    # freely, so the socle is empty and only the length bound can fail
    pres = PolyPresentation(
        3,
        VARS,
        ((0, 0),),
        (((1, 1), ((0, (1, 0, 0), 1),)), ((1, 5), ((0, (0, 1, 0), 1),))),
        60,
    )
    report = projective_dimension(pres)
    assert report.length == 2
    assert report.socle_empty
    assert not report.passed


def test_residue_field_socle_is_the_generator():
    report = projective_dimension(residue_field_presentation(3, VARS, 60))
    assert not report.socle_empty
    assert report.socle_bidegrees == ((0, 0),)
    assert not report.passed


def test_redundant_cover_generator_trips_the_unit_check(monkeypatch):
    module = realize(gr_module(weight_restricted_C(P3, 9), 44))
    assert len(p_resolution(module, 2)) == 2
    find = poly._p_min_generators
    covers = []

    def with_a_redundant_generator(m):
        bidegrees, reps = find(m)
        covers.append(m)
        if len(covers) == 1:
            # the module's own cover gets its first generator twice
            bidegrees, reps = [bidegrees[0], *bidegrees], [reps[0], *reps]
        return bidegrees, reps

    monkeypatch.setattr(poly, "_p_min_generators", with_a_redundant_generator)
    with pytest.raises(AssertionError, match="relation matrix contains a unit"):
        p_resolution(module, 2)


@pytest.mark.parametrize("p, k", [(3, 9), (3, 18), (3, 27), (5, 25)])
def test_re_resolving_a_realized_gr_gives_its_presentation(p, k):
    # the gr presentation and a fresh resolution of the module it presents
    # must agree: same generators, relations in the same bidegrees, pd <= 1
    ck = weight_restricted_C(PrimeContext(p), k)
    pres = gr_module(ck, ck.max_degree() + 8 * p)
    stages = p_resolution(realize(pres), 4)
    assert stages[0].gen_bidegrees == pres.generators
    assert stages[1].gen_bidegrees == tuple(bd for bd, _ in pres.relations)
    assert len(stages) <= 2


def test_shifted_presentation_moves_everything():
    pres = gr_module(weight_restricted_C(P3, 9), 50)
    moved = pres.shifted(36)
    assert moved.generators == tuple((s, t + 36) for s, t in pres.generators)
    assert moved.relations[0][0] == (1, 17 + 36)
    assert moved.t_max == 86
    back = realize(moved, 60)
    base = realize(pres, 24)
    assert back.dims == {(s, t + 36): d for (s, t), d in base.dims.items()}


# -- block and projective-dimension memos -------------------------------------------


def test_equal_blocks_share_one_gr_and_one_resolution(poly_work):
    # C_k depends only on floor(k/p), so C_0, C_1 and C_2 have one content
    reports = []
    for k in (0, 1, 2):
        ck = weight_restricted_C(P3, k)
        reports.append(projective_dimension(gr_module(ck, ck.max_degree() + 24)))
    assert len(poly_work.blocks) == 1
    assert len(poly_work.outside) == 1
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].passed


def test_same_basis_with_zero_actions_gets_its_own_gr(poly_work):
    c9 = weight_restricted_C(P3, 9)
    # zero matrices of the same shapes: only the matrix entries differ, and
    # with no action gr is free on one generator per basis element
    zero = QModule(
        P3,
        c9.qs,
        c9.basis,
        {i: {d: np.zeros_like(mat) for d, mat in c9.actions[i].items()} for i in c9.qs},
        c9.truncated_above,
    )
    acted = gr_module(c9, 41)
    inert = gr_module(zero, 41)
    assert len(poly_work.blocks) == 2
    assert acted.relations and not inert.relations
    poly._BLOCKS.clear()
    assert inert == gr_module(zero, 41)
    assert projective_dimension(inert).length == 0
    assert projective_dimension(acted).length == 1
    assert len(poly_work.outside) == 2


def test_mutating_a_returned_pd_report_leaves_the_memo_alone(poly_work):
    pres = gr_module(weight_restricted_C(P3, 9), 41)
    first = projective_dimension(pres)
    expected = (first.length, first.socle_empty, first.socle_bidegrees, first.t_max)
    first.length = 7
    first.socle_empty = False
    first.socle_bidegrees = ((9, 9),)
    again = projective_dimension(pres)
    assert (again.length, again.socle_empty, again.socle_bidegrees, again.t_max) == expected
    assert len(poly_work.outside) == 1


@pytest.mark.parametrize(
    "p, k", [(3, k) for k in range(0, 28, 3)] + [(5, 0), (5, 5), (5, 25)]
)
def test_truncated_gr_equals_a_cold_build(poly_work, p, k):
    # the memo holds the pd-bound window; smaller windows are served by
    # truncation and must equal a presentation computed at that window
    ck = weight_restricted_C(PrimeContext(p), k)
    top = ck.max_degree() + 8 * p
    gr_module(ck, top)
    windows = (top // 4, top // 2)
    warm = [gr_module(ck, t) for t in windows]
    cold = []
    for t in windows:
        poly._BLOCKS.clear()
        cold.append(gr_module(ck, t))
    assert warm == cold
