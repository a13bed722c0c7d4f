"""Brown-Gitler blocks, theta maps, assembly, and the further splittings."""

from __future__ import annotations

import random

import numpy as np
import pytest

import bgsplit.browngitler as browngitler
from bgsplit.browngitler import (
    WeightBlock,
    assemble_bp_splitting,
    bp_homology,
    brown_gitler,
    length_splitting,
    si_ri_splitting,
    theta,
    theta_report,
    w_family,
    weight_block,
    weight_restricted_C,
)
from bgsplit.monomials import (
    AlgebraSpec,
    Monomial,
    PrimeContext,
    degree,
    enumerate_by_degree,
    enumerate_by_weight,
    format_monomial,
    weight,
)
from bgsplit.qmodules import (
    ClosureError,
    QModuleMap,
    direct_sum,
    free_module,
    module_from_monomials,
    quotient,
    submodule_generated,
    trivial_module,
    verify_map,
)
from factorization_oracles import verify_tensor_factorization, w_family_truncated
from monomial_oracles import parse_monomial
from theta_oracles import whole_block_assembly

P3 = PrimeContext(3)
P5 = PrimeContext(5)


def mono(text: str) -> Monomial:
    return parse_monomial(text)


def labels(module) -> list[str]:
    return [format_monomial(lab) for d in module.degrees() for lab in module.basis[d]]


# -- blocks ---------------------------------------------------------------


def test_brown_gitler_bases():
    b9 = brown_gitler(P3, 1, 9)
    assert labels(b9.module) == ["1", "xi1", "xi1^2", "xi1^3", "xi2", "tau2"]
    assert b9.module.qs == (0, 1, 2)
    b4 = brown_gitler(P3, 1, 4)
    assert labels(b4.module) == ["1", "xi1"]
    b0 = brown_gitler(P3, 1, 0)
    assert labels(b0.module) == ["1"]
    b05 = brown_gitler(P3, 0, 5)
    assert b05.module.qs == (0, 1)
    assert "tau1" in labels(b05.module)


def test_weight_block_bases():
    m27 = weight_block(P3, 2, 27)
    assert labels(m27.module) == ["xi1^9", "xi1^6 xi2", "xi1^3 xi2^2", "xi2^3", "xi3", "tau3"]
    assert m27.module.qs == (0, 1, 2)
    assert labels(weight_block(P5, 2, 5).module) == ["xi1"]
    assert labels(weight_block(P3, 2, 0).module) == ["1"]


def _cold_brown_gitler(ctx, i, k):
    """B_i(k) built from scratch over every weight <= k."""
    spec = AlgebraSpec(i)
    monos = [m for w in range(k + 1) for m in enumerate_by_weight(ctx, spec, w)]
    return module_from_monomials(ctx, spec, monos, tuple(range(min(i + 1, 2) + 1)))


def _assert_same_module(got, want):
    assert got.qs == want.qs
    assert got.basis == want.basis
    assert list(got.basis) == list(want.basis)
    for j in want.qs:
        assert got.actions[j].keys() == want.actions[j].keys()
        for d, mat in want.actions[j].items():
            assert np.array_equal(got.actions[j][d], mat), (j, d)


@pytest.mark.parametrize("ctx, k_max", [(P3, 39), (P5, 29)], ids=["p3", "p5"])
@pytest.mark.parametrize("i", [-1, 0, 1, 2])
def test_held_brown_gitler_equals_cold_builds(monkeypatch, ctx, k_max, i):
    cold = {k: _cold_brown_gitler(ctx, i, k) for k in range(k_max + 1)}
    order = list(range(k_max + 1))
    random.Random(k_max + i).shuffle(order)
    # the shuffled pass grows the held module and slices it; the reverse
    # pass starts from an empty memo, grows once and then only slices
    for ks in (order, order[::-1]):
        monkeypatch.setattr(browngitler, "_HELD", {})
        for k in ks:
            got = brown_gitler(ctx, i, k)
            assert (got.i, got.k) == (i, k)
            _assert_same_module(got.module, cold[k])
        assert list(browngitler._HELD) == [(ctx, i)]
        assert browngitler._HELD[(ctx, i)][0] == max(ks)


def test_growing_brown_gitler_runs_the_closure_check(monkeypatch):
    monkeypatch.setattr(browngitler, "_HELD", {})
    held = brown_gitler(P3, 1, 8).module
    real = browngitler.enumerate_by_weight
    xi2 = mono("xi2")

    def without_xi2(ctx, spec, w):
        return [m for m in real(ctx, spec, w) if m != xi2]

    monkeypatch.setattr(browngitler, "enumerate_by_weight", without_xi2)
    # Q_0 tau2 = xi2, both of weight 9
    with pytest.raises(ClosureError, match=r"Q_0\(tau2\) has term xi2 outside the span"):
        brown_gitler(P3, 1, 9)
    assert browngitler._HELD[(P3, 1)] == (8, held)
    monkeypatch.setattr(browngitler, "enumerate_by_weight", real)
    _assert_same_module(brown_gitler(P3, 1, 9).module, _cold_brown_gitler(P3, 1, 9))


def _record_builds(monkeypatch) -> list:
    """Every module browngitler builds from here on, as (held, result)."""
    builds = []
    real = browngitler.module_from_monomials

    def recording(ctx, spec, monomials, qs, truncated_above=None, held=None):
        out = real(ctx, spec, monomials, qs, truncated_above, held=held)
        builds.append((held, out))
        return out

    monkeypatch.setattr(browngitler, "module_from_monomials", recording)
    return builds


def test_assembly_holds_one_brown_gitler_module(monkeypatch):
    monkeypatch.setattr(browngitler, "_HELD", {})
    monkeypatch.setattr(browngitler, "_BP", {})
    builds = _record_builds(monkeypatch)
    assemble_bp_splitting(P3, 2, 60)
    # H_*BP<2> and B_1(k_max) are the only builds, each from nothing: every
    # block of the assembly's source is a cut of B_1(k_max), and its target is H
    assert list(browngitler._HELD) == [(P3, 1)]
    k_max, b1 = browngitler._HELD[(P3, 1)]
    assert k_max == 60 // P3.q
    assert all(held is None for held, _ in builds)
    assert len(builds) == 2
    assert sum(out is b1 for _, out in builds) == 1
    weight_restricted_C.__wrapped__(P3, 3)
    brown_gitler(P3, 1, k_max + 1)
    # a larger k is one growth step on the held module
    grown = [(held, out) for held, out in builds if held is not None]
    assert grown == [(b1, browngitler._HELD[(P3, 1)][1])]
    assert list(browngitler._HELD) == [(P3, 1)]


def _cold_bp_homology(top):
    spec = AlgebraSpec(2)
    return module_from_monomials(
        P3, spec, enumerate_by_degree(P3, spec, top), (0, 1, 2), truncated_above=top
    )


@pytest.mark.parametrize("order", [(220, 237), (237, 220)], ids=["grown", "cut"])
def test_held_bp_homology_equals_cold_builds(monkeypatch, order):
    monkeypatch.setattr(browngitler, "_BP", {})
    for top in order:
        got = bp_homology(P3, 2, top)
        assert (got.max_degree, got.module.truncated_above) == (top, top)
        _assert_same_module(got.module, _cold_bp_homology(top))
        # one module per (prime, n), the largest built: a smaller degree is
        # cut from it afresh, and only the held degree returns the held object
        held = browngitler._BP[(P3, 2)]
        assert held.max_degree == max(order[: order.index(top) + 1])
        assert (bp_homology(P3, 2, top) is got) == (top == held.max_degree)
        _assert_same_module(bp_homology(P3, 2, top).module, got.module)


def test_a_cut_that_is_no_submodule_raises():
    # slices skip the Q relations, so the submodule condition is their check:
    # keep the source of one Q_j entry of H_*BP<2> and drop its target
    held = _cold_bp_homology(60)
    j, d, mat = next((j, d, mat) for j in held.qs for d, mat in sorted(held.actions[j].items()) if mat.any())
    row = int(np.nonzero(mat)[0][0])
    whole = {e: held.dim(e) for e in held.degrees()}
    assert browngitler._prefix(held, whole).total_dim == held.total_dim
    with pytest.raises(ValueError, match=f"no submodule: Q_{j} takes a kept element of degree {d}"):
        browngitler._prefix(held, whole | {d - held.drop(j): row})


def test_builder_grows_a_held_brown_gitler_module():
    spec = AlgebraSpec(1)
    b4 = _cold_brown_gitler(P3, 1, 4)
    heavier = [m for w in range(5, 9) for m in enumerate_by_weight(P3, spec, w)]
    grown = module_from_monomials(P3, spec, heavier, b4.qs, held=b4)
    _assert_same_module(grown, _cold_brown_gitler(P3, 1, 8))
    # a held matrix is kept as is exactly where neither of its degrees gained a monomial
    for j in b4.qs:
        for d, mat in b4.actions[j].items():
            assert (grown.actions[j][d] is mat) == (grown.actions[j][d].shape == mat.shape), (j, d)


def test_builder_grows_a_held_bp_homology_by_degree():
    spec = AlgebraSpec(2)
    h100 = _cold_bp_homology(100)
    above = [m for m in enumerate_by_degree(P3, spec, 140) if degree(P3, m) > 100]
    grown = module_from_monomials(P3, spec, above, (0, 1, 2), truncated_above=140, held=h100)
    assert grown.truncated_above == 140
    _assert_same_module(grown, _cold_bp_homology(140))
    # no degree through 100 gains a monomial, so every held matrix is kept as is
    assert all(grown.actions[j][d] is mat for j in h100.qs for d, mat in h100.actions[j].items())


# -- theta -----------------------------------------------------------------


def theta_images(ctx, i, k) -> dict[str, str]:
    f = theta(ctx, i, k)
    out = {}
    for d in f.source.degrees():
        for col, x in enumerate(f.source.basis[d]):
            rows = np.nonzero(f.mat(d)[:, col])[0]
            out[format_monomial(x)] = format_monomial(f.target.basis[d][int(rows[0])])
    return out


def test_theta_images_at_p3_k9():
    got = theta_images(P3, 1, 9)
    assert got == {
        "1": "xi1^9",
        "xi1": "xi1^6 xi2",
        "xi1^2": "xi1^3 xi2^2",
        "xi1^3": "xi2^3",
        "xi2": "xi3",
        "tau2": "tau3",
    }


def test_theta_small_blocks():
    assert theta_images(P3, 1, 0) == {"1": "1"}
    assert theta_images(P3, 1, 1) == {"1": "xi1"}
    assert theta_images(P5, 1, 5) == {"1": "xi1^5", "xi1": "xi2"}


def test_theta_reports_pass_for_small_weights():
    for k in range(7):
        _, rep = theta_report(P3, 1, k)
        assert rep.passed, rep.failures
    _, rep = theta_report(P3, 1, 9)
    assert rep.passed and rep.bijective and rep.equivariant


def test_theta_image_outside_the_target_fails(monkeypatch):
    # M_2(3) is spanned by xi1 alone, the image of 1 under theta_1
    empty = module_from_monomials(P3, AlgebraSpec(2), [], (0, 1, 2))
    monkeypatch.setattr(
        browngitler, "weight_block", lambda ctx, i, j: WeightBlock(ctx, i, j, empty)
    )
    with pytest.raises(KeyError):
        theta(P3, 1, 1)


def test_theta_suspension_grading():
    f = theta(P3, 1, 9)
    # tau2 sits in degree 17, suspended by qk = 36; image tau3 has degree 53
    assert 17 + 36 in f.source.degrees()
    assert f.target.dim(53) == 1


# -- assembly --------------------------------------------------------------


def test_assembly_matches_bp2_homology_smallrange():
    report = assemble_bp_splitting(P3, 2, 17)
    assert report.passed
    assert report.per_degree[16] == (2, 2)
    assert report.per_degree[17] == (0, 0)
    assert report.per_degree[0] == (1, 1)


def test_assembly_trivial_range():
    report = assemble_bp_splitting(P3, 2, 0)
    assert report.passed
    assert report.per_degree[0] == (1, 1)
    assert report.block_count == 1


def test_assembly_bp1_smallrange():
    report = assemble_bp_splitting(P3, 1, 20)
    assert report.passed


def test_assembly_p5_block_five_carries_xi2():
    report = assemble_bp_splitting(P5, 2, 48)
    assert report.passed
    assert theta_images(P5, 1, 5)["xi1"] == "xi2"


def test_assembly_reads_images_missing_from_a_short_homology(monkeypatch):
    # H one degree short: the degree-24 images of theta_5 and theta_6 are
    # not in H, so the map has no rows there and fails the bijection gate
    # instead of raising
    real = browngitler.bp_homology
    monkeypatch.setattr(browngitler, "bp_homology", lambda ctx, n, top: real(ctx, n, top - 1))
    report = assemble_bp_splitting(P3, 2, 24)
    assert not report.passed and not report.gate.bijective
    assert report.first_failing_degree == 24
    assert report.per_degree[24] == (2, 0)
    assert report.gate.failures == [
        "source and target are supported in different degrees",
        "non-square block at degree 24",
    ]


def _assembly_with_map(monkeypatch, ctx, n, top):
    """The assembly report and the one map it puts through the gate."""
    maps = []
    real = browngitler._theta_gate

    def gate(f, i, k):
        maps.append(f)
        return real(f, i, k)

    monkeypatch.setattr(browngitler, "_theta_gate", gate)
    report = assemble_bp_splitting(ctx, n, top)
    (f,) = maps
    return report, f


def test_assembly_builds_one_map_and_gates_it_once(monkeypatch):
    calls = []

    def counting(name):
        real = getattr(browngitler, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(browngitler, name, call)

    counting("_theta_map")
    counting("verify_map")
    report, f = _assembly_with_map(monkeypatch, P3, 2, 60)
    assert report.passed and calls == ["_theta_map", "verify_map"]
    # the one map's source holds every block k <= 60/q
    assert {k for d in f.source.degrees() for k, _ in f.source.basis[d]} == set(range(report.block_count))
    assert report.block_count == 16 and (report.gate.i, report.gate.k) == (1, 15)


def _doctored_assembly(monkeypatch, doctor):
    """The assembly at p = 3 through t = 60, its map's matrices passed through doctor(f, mats) before the gate."""
    real = browngitler._theta_map

    def doctored(ctx, source, target, row, block):
        f = real(ctx, source, target, row, block)
        mats = {d: f.mat(d).copy() for d in f.source.degrees()}
        doctor(f, mats)
        return QModuleMap(f.source, f.target, mats)

    monkeypatch.setattr(browngitler, "_theta_map", doctored)
    return assemble_bp_splitting(P3, 2, 60)


def test_assembly_gate_rejects_two_columns_at_one_row(monkeypatch):
    # the first degree with two basis elements sends both to one row of H:
    # every count still matches, but one row is hit twice and one never
    doubled = []

    def double(f, mats):
        d = next(d for d in f.source.degrees() if f.source.dim(d) > 1)
        mats[d][:, 1] = mats[d][:, 0]
        doubled.append(d)

    report = _doctored_assembly(monkeypatch, double)
    assert not report.passed and report.first_failing_degree is None
    assert not report.gate.bijective
    assert f"block at degree {doubled[0]} is not a bijection on basis monomials" in report.gate.failures


def test_assembly_gate_rejects_an_entry_that_breaks_equivariance_only(monkeypatch):
    # one image negated where a Q_j sees it: still a bijection on basis
    # monomials, with every count matching, but Q_j f = f Q_j fails
    def flip(f, mats):
        d, c = next(
            (d, c)
            for d in f.source.degrees()
            for j in f.target.qs
            for c in np.flatnonzero((f.target.act(j, d) @ mats[d]).any(axis=0))
        )
        mats[d][:, c] *= -1

    report = _doctored_assembly(monkeypatch, flip)
    assert not report.passed and report.first_failing_degree is None
    assert report.gate.bijective and report.gate.degrees_match and not report.gate.equivariant


def test_assembly_builds_no_weight_block(monkeypatch):
    calls = []
    real = browngitler.weight_block

    def counting(ctx, i, j):
        calls.append((i, j))
        return real(ctx, i, j)

    monkeypatch.setattr(browngitler, "weight_block", counting)
    assert assemble_bp_splitting(P3, 2, 220).passed
    assert assemble_bp_splitting(P5, 1, 100).passed
    assert calls == []


def _block_positions(module, d, k) -> list[int]:
    """The positions of block k's basis elements of degree d in a direct sum."""
    return [c for c, (kk, _) in enumerate(module.basis.get(d, ())) if kk == k]


@pytest.mark.parametrize("ctx, top", [(P3, 120), (P5, 100)], ids=["p3", "p5"])
@pytest.mark.parametrize("n", [1, 2])
def test_windowed_theta_is_the_cut_of_the_whole_block(monkeypatch, ctx, top, n):
    # block k of the one assembled map is theta_k on its whole block, cut to
    # the window: the same basis and source actions, and its columns hold
    # theta_k's images at H's rows
    report, f = _assembly_with_map(monkeypatch, ctx, n, top)
    H = f.target
    assert f.shift == 0 and report.block_count == top // ctx.q + 1
    assert H.basis == bp_homology(ctx, n, top).module.basis
    for k in range(report.block_count):
        whole = theta(ctx, n - 1, k)
        window = [d for d in whole.source.degrees() if d <= top]
        assert window == [d for d in f.source.degrees() if _block_positions(f.source, d, k)], k
        for d in window:
            cols = _block_positions(f.source, d, k)
            assert [f.source.basis[d][c][1] for c in cols] == list(whole.source.basis[d])
            for j in f.source.qs:
                rows = _block_positions(f.source, d - f.source.drop(j), k)
                assert np.array_equal(f.source.act(j, d)[np.ix_(rows, cols)], whole.source.act(j, d)), (k, j, d)
            want = np.zeros((H.dim(d), len(cols)), dtype=np.int64)
            for r, c in zip(*np.nonzero(whole.mat(d))):
                want[H.label_index(whole.target.basis[d][r])[1], c] = whole.mat(d)[r, c]
            assert np.array_equal(f.mat(d)[:, cols], want), (k, d)


@pytest.mark.parametrize("ctx, top", [(P3, 120), (P5, 100)], ids=["p3", "p5"])
@pytest.mark.parametrize("n", [1, 2])
def test_assembly_report_matches_the_whole_block_reference(ctx, top, n):
    got = assemble_bp_splitting(ctx, n, top)
    want = whole_block_assembly(ctx, n, top)
    assert got.per_degree == want.per_degree
    assert (got.block_count, got.gate.bijective, got.first_failing_degree, got.passed) == (
        want.block_count,
        want.coverage_exact,
        want.first_failing_degree,
        want.passed,
    )
    assert got.passed


# -- length splitting --------------------------------------------------------


def test_length_splitting_below_first_length_three_monomial():
    split = length_splitting(P3, 60)
    H = split.whole
    assert split.free_part.total_dim == 0
    for d in H.degrees():
        assert split.reduced_part.dim(d) == H.dim(d)
    assert verify_map(split.projection).passed


def _same_content(a, b) -> bool:
    if a.qs != b.qs or a.basis != b.basis:
        return False
    return all(
        (a.act(i, d) == b.act(i, d)).all() for i in a.qs for d in a.degrees()
    )


def test_length_splitting_is_built_once_per_window(monkeypatch):
    assert length_splitting(P3, 220) is length_splitting(P3, 220)
    assert length_splitting(P3, 60) is not length_splitting(P3, 220)
    perms = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    shared = [si_ri_splitting(P3, perm, 220) for perm in perms]
    # the same S_i / R_i as when every call builds its own length splitting
    monkeypatch.setattr(browngitler, "length_splitting", length_splitting.__wrapped__)
    for perm, split in zip(perms, shared):
        fresh = si_ri_splitting(P3, perm, 220)
        for part in ("whole", "free_part", "reduced_part"):
            assert _same_content(getattr(split, part), getattr(fresh, part))


def test_weight_restricted_blocks_sum_to_reduced_part():
    split = length_splitting(P3, 40)
    for d in range(41):
        total = 0
        for k in range(0, 40 // P3.q + 1):
            block = weight_restricted_C(P3, k)
            total += block.dim(d - P3.q * k)
        assert total == split.reduced_part.dim(d)


def test_weight_restricted_C9_is_whole_block():
    c9 = weight_restricted_C(P3, 9)
    assert labels(c9) == ["1", "xi1", "xi1^2", "xi1^3", "xi2", "tau2"]
    assert [c9.dim(d) for d in (0, 4, 8, 12, 16, 17)] == [1, 1, 1, 1, 1, 1]


# -- S/R splitting ------------------------------------------------------------


def test_si_ri_splitting_nontrivial_range():
    # The first length-2 monomial is tau3 tau4 in degree 214; going to 220
    # also catches tau3 tau4 xi1 at 218.  Both generate free summands over
    # E(Q_1,Q_2), so S_0 has eight basis vectors in the listed degrees.
    split = si_ri_splitting(P3, (0, 1, 2), 220)
    S = split.free_part
    assert S.total_dim == 8
    assert {d: S.dim(d) for d in S.degrees()} == {
        192: 1, 196: 1, 197: 1, 201: 1, 209: 1, 213: 1, 214: 1, 218: 1,
    }
    assert verify_map(split.retraction).passed
    assert verify_map(split.inclusion).passed
    for d in split.whole.degrees():
        assert split.whole.dim(d) == S.dim(d) + split.reduced_part.dim(d)


@pytest.mark.parametrize("perm", [(0, 1, 2), (1, 0, 2), (2, 0, 1)])
def test_si_ri_splitting_at_p5(perm):
    # through degree 1550 at p = 5 each S_i is free of dimension 32
    split = si_ri_splitting(P5, perm, 1550)
    assert split.free_part.total_dim == 32
    assert verify_map(split.retraction).passed


def test_retraction_splits_a_free_summand_off_the_axes():
    # v = a + b + c, with a, b free generators and c spanning a trivial
    # module, generates a free summand whose basis meets no coordinate axis
    qs = (0, 1, 2)
    whole = direct_sum([free_module(P3, qs, 23, "a"), free_module(P3, qs, 23, "b"), trivial_module(P3, qs, 23)])
    part = free_module(P3, qs, 23, "v")
    # v's orbit Q_I v = Q_I a + Q_I b, and c as well at degree 23
    mats = {}
    for d in part.degrees():
        n = part.dim(d)
        mats[d] = np.vstack([np.eye(n), np.eye(n), np.ones((whole.dim(d) - 2 * n, n))])
    inc = QModuleMap(part, whole, mats)
    assert verify_map(inc).passed
    reduced, proj = quotient(inc)
    retraction = browngitler._retraction(whole, part, inc)
    split = browngitler.SplitPair(whole, part, reduced, inc, proj, retraction)
    assert verify_map(split.retraction).passed


def test_retraction_rejects_a_summand_that_is_not_free():
    # Q_0 g spans E(Q_0, Q_1, Q_2)/(Q_0) inside the free module on g
    free = free_module(P3, (0, 1, 2), 23)
    part, inc = submodule_generated(free, [("g", (0,))])
    with pytest.raises(ValueError, match="not free"):
        browngitler._retraction(free, part, inc)


def test_si_ri_other_permutations_trivial_range():
    for perm in ((1, 0, 2), (2, 0, 1)):
        split = si_ri_splitting(P3, perm, 60)
        assert split.free_part.total_dim == 0


# -- W families ----------------------------------------------------------------


def test_w_family_weight_one_components():
    w1 = w_family(P3, "W1", 1)
    assert labels(w1) == ["xi1^9", "xi2^3", "tau3"]
    assert w1.qs == (1, 2)
    wo = w_family(P3, "Wo", 1)
    assert labels(wo) == ["xi1^9", "xi3", "tau3"]
    assert wo.qs == (0, 2)
    we = w_family(P3, "We", 1)
    assert labels(we) == ["xi2^9", "xi4", "tau4"]
    assert we.qs == (0, 2)
    assert labels(w_family(P3, "W1", 0)) == ["1"]


def test_w_family_component_weights():
    for n in (2, 3):
        for which, expo in (("W1", 3), ("Wo", 3), ("We", 4)):
            m = w_family(P3, which, n)
            for d in m.degrees():
                for lab in m.basis[d]:
                    assert weight(P3, lab) == n * 3**expo


def test_w_family_truncations_have_divisible_weights():
    w1 = w_family_truncated(P3, "W1", 120)
    assert w1.truncated_above == 120
    for d in w1.degrees():
        for lab in w1.basis[d]:
            assert weight(P3, lab) % 27 == 0


# -- tensor factorizations --------------------------------------------------------


def test_tensor_factorization_e12():
    report = verify_tensor_factorization(P3, "E12", 60)
    assert report.passed, report.failures
    for d, (lhs, rhs) in report.per_degree.items():
        assert lhs == rhs


def test_tensor_factorization_e02_with_sign_case():
    report = verify_tensor_factorization(P3, "E02", 220)
    assert report.passed, report.failures


def test_tensor_factorization_spot_values():
    # xi1^10 must factor as (xi1^9) * (xi1): weights 27 + 3
    h = bp_homology(P3, 2, 40).module
    assert mono("xi1^10") in h.basis[40]
    w1 = w_family_truncated(P3, "W1", 40)
    assert mono("xi1^9") in w1.basis[36]
