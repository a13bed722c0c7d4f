"""gr presentations, P(2)-resolutions, Ext over P(2), pd; realization as an oracle."""

from __future__ import annotations

import numpy as np
import pytest

from bgsplit import cli
from bgsplit.browngitler import bp_homology, weight_restricted_C
from bgsplit.ext import poly
from bgsplit.ext.poly import (
    PModule,
    PolyPresentation,
    ext_p_module,
    gr_module,
    p_resolution,
    projective_dimension,
)
from bgsplit.monomials import PrimeContext
from bgsplit.qmodules import QModule
from p2_oracles import (
    Spec,
    dense_ext_from_resolution,
    dense_ext_p_module,
    dense_p_resolution,
    ext_over_P2,
    fields,
    fp_v2_presentation,
    free_presentation,
    realize,
    resolved,
    residue_field_presentation,
)

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


def test_gr_rejects_a_window_past_the_certified_degree():
    # a truncated module certifies nothing above its truncation, so the
    # window is refused rather than quietly cut
    bounded = bp_homology(P3, 2, 30).module
    with pytest.raises(ValueError, match="exceeds the certified degree 30"):
        gr_module(bounded, 90)
    assert gr_module(bounded, 30).t_max == 30


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
    for m in (0, 3, 9):
        b = gr_module(weight_restricted_C(P3, m), 40)
        ext = ext_over_P2(a, b, 4, 20)
        assert all(u <= 1 for u, _ in ext.dims), sorted(ext.dims)


def test_hom_table_sums_entries_that_share_a_position(monkeypatch):
    # P/(v_0^3 v_2 - v_1^4): the one relation has two entries from one
    # generator with equal |alpha| and degree, so both land in the same
    # pairs of Hom blocks and their entries must be added
    gens, rels = ((0, 0),), (((4, 20), ((0, (0, 4, 0), 2), (0, (3, 0, 1), 1))),)
    a, b = Spec(3, VARS, gens, rels, 80), Spec(3, VARS, gens, rels, 60)
    table = ext_over_P2(a, b, 1, 40)
    assert (table.t_min, table.t_max) == (-20, 40)
    assert table == ext_over_P2(a, b, 1, 40, route=dense_ext_from_resolution)
    # summed, no two entries share a position, which `fplin.ranks` would reject
    held, hom_table = [], poly._hom_table

    def kept(*args):
        held.append(hom_table(*args))
        return held[-1]

    monkeypatch.setattr(poly, "_hom_table", kept)
    assert ext_over_P2(a, b, 1, 40) == table
    _, rows, cols, _ = held[0]
    assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size


def test_a_dropped_hom_entry_changes_ext(monkeypatch):
    # P/(v_0) into P: every Hom differential is v_0, which is injective, so
    # without any one of its entries a rank falls and Ext grows
    a = Spec(3, VARS, ((0, 0),), (((1, 1), ((0, (1, 0, 0), 1),)),), 64)
    b = free_presentation(3, VARS, ((0, 0),), 32)
    assert ext_over_P2(a, b, 1, 8).dims == {(1, -1): 1, (1, 4): 1}
    table = poly._hom_table

    def one_short(*args):
        hom, rows, cols, vals = table(*args)
        return hom, rows[1:], cols[1:], vals[1:]

    monkeypatch.setattr(poly, "_hom_table", one_short)
    assert ext_over_P2(a, b, 1, 8).dims != {(1, -1): 1, (1, 4): 1}


def test_a_cover_missing_a_generator_is_caught(monkeypatch):
    # without one of stage 0's generators the free cover of C_9's Ext is not
    # onto; the first bidegree it misses still has columns from the others
    ext = ext_p_module(weight_restricted_C(P3, 9), 41)
    generators = poly._p_min_generators

    def one_short(m):
        bidegrees, reps = generators(m)
        return (bidegrees[1:], reps[1:]) if m is ext else (bidegrees, reps)

    assert p_resolution(ext, 1)
    monkeypatch.setattr(poly, "_p_min_generators", one_short)
    with pytest.raises(AssertionError, match=r"free cover misses part of the target at \(1, 5\)"):
        p_resolution(ext, 1)


# -- entry tables against the dense per-bidegree reference --------------------------


def _dense_relations(stages):
    cover, syzygies = stages[:2]
    return tuple(
        (bd, tuple((g, alpha, int(v[pos])) for pos, (g, alpha) in enumerate(cover.columns[bd]) if v[pos]))
        for bd, v in zip(syzygies.gen_bidegrees, syzygies.gen_vectors)
    )


@pytest.mark.parametrize(
    "p, k", [(3, k) for k in range(0, 28, 3)] + [(5, k) for k in range(0, 26, 5)]
)
def test_entry_tables_match_the_dense_reference(p, k):
    # C_k depends only on floor(k/p), so these are every C_k with k <= 27 at
    # p = 3 and k <= 25 at p = 5; the window is the pd-bound's
    ck = weight_restricted_C(PrimeContext(p), k)
    t_max = ck.max_degree() + 8 * p
    ext, dense = ext_p_module(ck, t_max), dense_ext_p_module(ck, t_max)
    assert ext.dims == dense.dims
    read = [(j, s, t) for s, t in ext.dims for j, dv in enumerate(ext.var_degrees) if t + dv <= t_max]
    for at in read:
        assert np.array_equal(ext.act(*at), dense.act(*at)), at
    stages, ref = p_resolution(ext, 2), dense_p_resolution(dense, 2)
    assert [st.gen_bidegrees for st in stages] == [st.gen_bidegrees for st in ref]
    for st, want in zip(stages, ref):
        assert all(np.array_equal(x, y) for x, y in zip(st.gen_vectors, want.gen_vectors))
        assert {bd: st.free.keys(bd) for bd in st.free.bidegrees} == want.columns
    if len(ref) > 1:
        assert PolyPresentation(ext, stages).relations == _dense_relations(ref)
    # the relations are compared where they exist, as for C_9 and above at p = 3
    assert len(ref) > 1 or p == 5 or k < 9


def test_kernel_array_runs_only_where_a_new_relation_appears(monkeypatch):
    # a kernel is the echelon form of the v-pushes of the kernels below it
    # wherever they span it, which fails exactly at the bidegrees of the
    # next stage's generators
    real, calls = poly.kernel_array, []

    def counted(mat, p):
        calls.append(mat.shape)
        return real(mat, p)

    monkeypatch.setattr(poly, "kernel_array", counted)
    for module, u_max in (
        (ext_p_module(weight_restricted_C(P3, 9), 60), 2),
        (realize(residue_field_presentation(3, VARS, 40)), 3),
    ):
        calls.clear()
        stages = p_resolution(module, u_max)
        assert len(stages) > 1
        assert len(calls) == sum(len(set(st.gen_bidegrees)) for st in stages[1:])


def test_a_doctored_v_map_entry_trips_the_commutation_check():
    ext = ext_p_module(weight_restricted_C(P3, 9), 41)
    maps = {j: tuple(x.copy() for x in entries) for j, entries in ext.maps.items()}
    assert PModule(ext.p, ext.var_degrees, ext.dims, maps, ext.t_max).dims == ext.dims
    # an entry of v_0 whose target v_1 moves on: v_1 v_0 changes, v_0 v_1 does not
    src, dst, val = maps[0]
    e = int(np.flatnonzero(np.isin(dst, maps[1][0]))[0])
    val[e] = (val[e] + 1) % 3
    with pytest.raises(ValueError, match="v_0 and v_1 fail to commute at"):
        PModule(ext.p, ext.var_degrees, ext.dims, maps, ext.t_max)
    # an entry of v_0 that stays in its source's bidegree
    maps[0] = (src[:1], src[:1], val[:1])
    with pytest.raises(ValueError, match=r"v_0 entry from \(0, 0\) lands at \(0, 0\), expected \(1, 1\)"):
        PModule(ext.p, ext.var_degrees, ext.dims, maps, ext.t_max)


def test_a_doctored_cover_is_caught(monkeypatch):
    # without the image of the first column, generator (0, 0) covers nothing
    ext = ext_p_module(weight_restricted_C(P3, 9), 41)
    images = poly._cover_images

    def without_first_column(*args):
        col, cls, val = images(*args)
        return col[col > 0], cls[col > 0], val[col > 0]

    monkeypatch.setattr(poly, "_cover_images", without_first_column)
    with pytest.raises(AssertionError, match=r"free cover misses part of the target at \(0, 0\)"):
        p_resolution(ext, 1)


def test_a_dropped_kernel_row_is_caught(monkeypatch):
    # the lowest kernel bidegree's v_0 images land one bidegree up; without
    # one of that bidegree's rows they no longer reduce to zero
    ext = ext_p_module(weight_restricted_C(P3, 9), 41)
    kernels = poly._cover_and_kernels
    dropped = []

    def one_row_short(*args):
        got = kernels(*args)
        s, t = min(got, key=lambda bd: (bd[1], bd[0]))
        up = (s + 1, t + VARS[0])
        dropped.append(up)
        got[up] = got[up][:-1]
        return got

    assert len(p_resolution(ext, 1)) == 2
    monkeypatch.setattr(poly, "_cover_and_kernels", one_row_short)
    with pytest.raises(AssertionError, match="kernel is not closed under the v's"):
        p_resolution(ext, 1)
    assert dropped == [(2, 18)]


def test_projective_dimension_oracles():
    assert projective_dimension(resolved(residue_field_presentation(3, VARS, 60))).length == 3
    free = free_presentation(3, VARS, ((0, 0), (2, 10)), 60)
    report = projective_dimension(resolved(free))
    assert report.length == 0
    assert report.socle_empty

    gr9 = projective_dimension(gr_module(weight_restricted_C(P3, 9), 60))
    assert gr9.length == 1
    assert gr9.socle_empty
    assert gr9.passed


def test_projective_dimension_gate_rejects_length_two():
    # F_p[v_2] = P(2)/(v_0, v_1): two Koszul relation stages, and v_2 acts
    # freely, so the socle is empty and only the length bound can fail
    report = projective_dimension(resolved(fp_v2_presentation(3, VARS, 60)))
    assert report.length == 2
    assert report.socle_empty
    assert not report.passed


def test_residue_field_socle_is_the_generator():
    report = projective_dimension(resolved(residue_field_presentation(3, VARS, 60)))
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


@pytest.mark.parametrize("p, k", [(3, 0), (3, 3), (3, 9), (3, 18), (3, 27), (5, 25)])
def test_re_resolving_a_realized_gr_gives_its_presentation(p, k):
    # the pipeline reads gr and pd off the block memo; realizing the
    # presentation and resolving it afresh through stage 4 must agree: same
    # generators, relations in the same bidegrees, the same pd report
    ck = weight_restricted_C(PrimeContext(p), k)
    pres = gr_module(ck, ck.max_degree() + 8 * p)
    fresh = resolved(pres)
    assert fresh.generators == pres.generators
    assert [bd for bd, _ in fresh.relations] == [bd for bd, _ in pres.relations]
    read, again = projective_dimension(pres), projective_dimension(fresh)
    assert (read.length, read.socle_bidegrees, read.t_max, read.socle_t_max) == (
        again.length, again.socle_bidegrees, again.t_max, again.socle_t_max
    )
    assert again.length <= 1


# -- the block memo ----------------------------------------------------------------


def test_equal_blocks_share_one_gr_and_one_resolution(poly_work):
    # C_k depends only on floor(k/p), so C_0, C_1 and C_2 have one content
    reports = []
    for k in (0, 1, 2):
        ck = weight_restricted_C(P3, k)
        reports.append(projective_dimension(gr_module(ck, ck.max_degree() + 24)))
    assert len(poly_work.blocks) == 1
    assert not poly_work.outside
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
    assert fields(inert) == fields(gr_module(zero, 41))
    assert projective_dimension(inert).length == 0
    assert projective_dimension(acted).length == 1
    assert not poly_work.outside


@pytest.mark.parametrize("t_max", [41, 58])
def test_truncated_block_equals_a_build_at_that_window(poly_work, t_max):
    # the comparison cuts a held block's Ext down to its window; the cut
    # must be what a build at that window gives, matrix for matrix
    c9 = weight_restricted_C(P3, 9)
    held, _ = poly.resolved_block(c9, 75)
    assert held.t_max == 75
    cut = held.truncated(t_max)
    direct = ext_p_module(c9, t_max)
    assert cut.t_max == direct.t_max == t_max
    assert cut.dims == direct.dims
    read = [(j, bd) for bd in direct.dims for j, dv in enumerate(VARS) if bd[1] + dv <= t_max]
    assert any(direct.act(j, *bd).any() for j, bd in read)
    for j, bd in read:
        assert np.array_equal(cut.act(j, *bd), direct.act(j, *bd)), (j, bd)
    for j, (src, dst, val) in direct.maps.items():
        assert all(np.array_equal(x, y) for x, y in zip(cut.maps[j], (src, dst, val))), j
    with pytest.raises(ValueError, match="exceeds the certified window 75"):
        held.truncated(76)


def test_pd_bound_resolves_nothing_outside_the_block_memo(poly_work):
    # pd-bound over k <= 9: one build per distinct content (C_k depends
    # only on floor(k/3)), and no resolution beyond those builds
    entry = cli._check_pd_bound(P3, cli.RunConfig(), 9)
    assert entry["passed"]
    assert len(poly_work.blocks) == 4
    assert len(poly_work.resolved) == 4
    assert not poly_work.outside


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
    assert [fields(pres) for pres in warm] == [fields(pres) for pres in cold]
    assert [projective_dimension(pres) for pres in warm] == [
        projective_dimension(pres) for pres in cold
    ]
