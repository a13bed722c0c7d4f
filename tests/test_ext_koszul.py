"""Koszul-complex Ext, concentration checks, Bocksteins, v-injectivity."""

from __future__ import annotations

import numpy as np
import pytest

import bgsplit.ext.koszul as koszul
from bgsplit.browngitler import bp_homology, length_splitting, weight_restricted_C
from bgsplit.ext.compare import dual_module
from bgsplit.ext.koszul import (
    KoszulComplex,
    bockstein_e1,
    even_concentration_check,
    ext_koszul,
    v_injectivity,
    v_monomials,
)
from bgsplit.margolis import classify_invertible, construct_model
from bgsplit.monomials import PrimeContext
from bgsplit.qmodules import (
    QModule,
    direct_sum,
    free_module,
    restrict_qs,
    suspend,
    tensor,
    trivial_module,
)

P3 = PrimeContext(3)
P5 = PrimeContext(5)
FULL = (0, 1, 2)
DROPS = (1, 5, 17)


def test_unit_ext_matches_v_monomial_count():
    unit = trivial_module(P3, FULL)
    ext = ext_koszul(unit, 6, 120)
    expected = {}
    for s in range(7):
        for alpha in v_monomials(FULL, s):
            t = sum(a * d for a, d in zip(alpha, DROPS))
            if t <= 120:
                expected[(s, t)] = expected.get((s, t), 0) + 1
    assert ext.dims == expected
    # one monomial, v_1 v_2, in this bidegree
    assert ext.dim(2, 22) == 1


def test_differential_squares_to_zero():
    c9 = weight_restricted_C(P3, 9)
    kc = KoszulComplex(c9)
    for t in range(0, 30):
        for s in range(0, 6):
            down = kc.differential(s, t)
            up = kc.differential(s + 1, t)
            if down.size and up.size:
                assert not ((up @ down) % 3).any()


RANK_ROUTE_MODULES = [
    pytest.param(lambda: weight_restricted_C(P3, 9), id="C9"),
    *(
        pytest.param(
            lambda pair=pair: restrict_qs(length_splitting(P3, 60).reduced_part, pair),
            id="reduced-over-Q{}Q{}".format(*pair),
        )
        for pair in ((0, 1), (0, 2), (1, 2))
    ),
    *(
        pytest.param(
            lambda k=k: tensor(
                dual_module(weight_restricted_C(P3, k)), suspend(weight_restricted_C(P3, k), 4 * P3.q)
            ),
            id=f"dual-C{k}-tensor-C{k}",
        )
        for k in (3, 9)
    ),
    # C_25 is the first p = 5 block on which the operators act
    pytest.param(lambda: weight_restricted_C(P5, 25), id="p5-C25"),
]


@pytest.mark.parametrize("make", RANK_ROUTE_MODULES)
def test_dim_from_ranks_matches_homology_basis(make):
    module = make()
    kc = KoszulComplex(module)
    lo = module.min_degree()
    classes = 0
    for t in range(lo, lo + 61):
        for s in range(7):
            d = kc.dim(s, t)
            assert d == kc.homology(s, t)[0].shape[0], (s, t)
            classes += d
    assert classes


@pytest.mark.parametrize("make", RANK_ROUTE_MODULES)
def test_dim_euler_characteristic_matches_chains(make):
    # for fixed t the complex is finite: C^{s,t} = 0 once s * min drop
    # exceeds t - min degree, so both alternating sums are finite
    module = make()
    kc = KoszulComplex(module)
    lo = module.min_degree()
    for t in range(lo, lo + 41):
        s_top = (t - lo) // min(kc.drops) + 1
        ext = sum((-1) ** s * kc.dim(s, t) for s in range(s_top + 1))
        chains = sum((-1) ** s * kc.chain_dim(s, t) for s in range(s_top + 1))
        assert ext == chains, t


def _brute_force_blocks(kc, s, t):
    blocks = []
    for alpha in v_monomials(kc.qs, s):
        d = t - sum(a * dv for a, dv in zip(alpha, kc.drops))
        if kc.module.dim(d):
            blocks.append((alpha, d, kc.module.dim(d)))
    return blocks


@pytest.mark.parametrize(
    "module",
    [
        weight_restricted_C(P3, 9),
        suspend(weight_restricted_C(P3, 3), 8),
        bp_homology(P3, 2, 24).module,
        restrict_qs(weight_restricted_C(P3, 9), (0, 1)),
    ],
    ids=["C9", "sigma8-C3", "truncated-bp2", "C9-over-Q0Q1"],
)
def test_chain_blocks_match_brute_force(module):
    kc = KoszulComplex(module)
    nonempty = 0
    for t in range(module.min_degree() - 5, 50):
        for s in range(9):
            blocks = kc.chain_blocks(s, t)
            assert list(blocks) == _brute_force_blocks(kc, s, t), (s, t)
            assert kc.chain_blocks(s, t) is blocks
            nonempty += len(blocks)
    assert nonempty


def test_v_multiplication_commutes_with_the_differential():
    for module in (weight_restricted_C(P3, 9), restrict_qs(weight_restricted_C(P3, 9), (1, 2))):
        kc = KoszulComplex(module)
        for i, drop in zip(kc.qs, kc.drops):
            for t in range(0, 30):
                for s in range(4):
                    lhs = kc.differential(s + 1, t + drop) @ kc.v_mult_chain(s, t, i)
                    rhs = kc.v_mult_chain(s + 1, t, i) @ kc.differential(s, t)
                    assert lhs.shape == rhs.shape
                    assert not ((lhs - rhs) % 3).any(), (i, s, t)


def test_free_module_ext_concentrated_in_s0():
    free = free_module(P3, FULL, 6)
    ext = ext_koszul(free, 5, 60)
    # the socle class carries every operator, 23 below the generator
    assert ext.dims == {(0, -17): 1}


def test_ext_of_suspension_translates():
    c3 = weight_restricted_C(P3, 3)
    base = ext_koszul(c3, 4, 40)
    moved = ext_koszul(suspend(c3, 8), 4, 48)
    assert moved.dims == {(s, t + 8): d for (s, t), d in base.dims.items()}


def test_truncated_module_certifies_window():
    trunc = bp_homology(P3, 2, 24).module
    with pytest.raises(ValueError, match="certified"):
        ext_koszul(trunc, 3, 60)
    ext = ext_koszul(trunc, 3, 24)
    assert ext.t_max == 24
    # every operator acts by zero this low (the first tau sits at 53), so
    # the s = 0 line reads the module itself
    for t in range(25):
        assert ext.dim(0, t) == trunc.dim(t)


def test_even_concentration_of_blocks_over_pairs():
    for pair in ((0, 1), (0, 2), (1, 2)):
        for k in (0, 3, 6, 9):
            block = restrict_qs(weight_restricted_C(P3, k), pair)
            report = even_concentration_check(block, 0, 10, 40)
            assert report.passed, report.violations


def test_even_concentration_over_the_full_triple():
    # even over all three operators at once, from s = 0 up
    c9 = weight_restricted_C(P3, 9)
    report = even_concentration_check(c9, 0, 8, 40)
    assert report.passed


def test_even_concentration_violations_are_listed():
    # a free module on an even generator has its socle class in odd t - s
    free = free_module(P3, FULL, 6)
    report = even_concentration_check(free, 0, 4, 20)
    assert not report.passed
    assert report.violations == [(0, -17, 1)]


def test_bockstein_collapse_on_blocks():
    c9 = weight_restricted_C(P3, 9)
    for i in FULL:
        page = bockstein_e1(c9, i, 6, 40, r_max=2)
        assert page.collapse
        assert page.pair == tuple(x for x in FULL if x != i)
        assert all((t - s) % 2 == 0 for s, t, _ in page.dims)


def test_bockstein_page_repeats_per_power():
    # the v_i^r factor is implicit, so every power column carries the
    # same pair-Ext dimensions
    c9 = weight_restricted_C(P3, 9)
    page = bockstein_e1(c9, 0, 4, 30, r_max=3)
    base = {(s, t): d for (s, t, r), d in page.dims.items() if r == 0}
    assert base
    for r in (1, 2, 3):
        assert {(s, t): d for (s, t, rr), d in page.dims.items() if rr == r} == base


def test_v_injectivity_on_small_blocks():
    for k in (0, 3, 9):
        block = weight_restricted_C(P3, k)
        for i in FULL:
            report = v_injectivity(block, i, 6, 40)
            assert report.passed
            assert report.checked_classes > 0
            assert report.kernel_at == []


def test_v_injectivity_fails_on_free_targets():
    # Ext of a free module dies above s = 0, so v_0 kills its classes
    free = free_module(P3, FULL)
    report = v_injectivity(free, 0, 3, 40)
    assert not report.passed
    assert report.kernel_at


def test_invertible_model_ext_translation():
    # Ext^{s,t}(F_p, model(a,b)) for s > 0 must equal Ext^{s-b,t-c}(F_p,F_p)
    # over the pair for one uniform translation c; c comes out as a
    model = construct_model(P3, (1, 2), 31, -1)
    cls = classify_invertible(model)
    assert (cls.a, cls.b) == (31, -1)
    em = ext_koszul(model, 6, 70, t_min=model.min_degree())
    ee = ext_koszul(trivial_module(P3, (1, 2)), 9, 110, t_min=0)
    candidates = None
    for (s, t), d in sorted(em.dims.items()):
        if s <= 0:
            continue
        here = {t - t2 for (s2, t2), d2 in ee.dims.items() if s2 == s - cls.b and d2 == d}
        candidates = here if candidates is None else candidates & here
    assert candidates == {cls.a}
    for s in range(1, 6):
        for t in range(model.min_degree(), 71):
            assert em.dims.get((s, t), 0) == ee.dims.get((s - cls.b, t - cls.a), 0)


def test_zero_action_tensor_ext_is_a_shifted_sum():
    # both blocks carry zero operator actions, so Ext of their tensor is
    # the unit Ext shifted by each basis degree of the tensor
    a = restrict_qs(weight_restricted_C(P3, 3), (1, 2))
    b = restrict_qs(weight_restricted_C(P3, 6), (1, 2))
    both = tensor(a, b)
    assert all(not both.act(i, d).any() for i in both.qs for d in both.degrees())
    ext = ext_koszul(both, 4, 36)
    unit = ext_koszul(trivial_module(P3, (1, 2)), 4, 36)
    expected = {}
    for d in both.degrees():
        for (s, t), dim in unit.dims.items():
            if t + d <= 36:
                key = (s, t + d)
                expected[key] = expected.get(key, 0) + dim * both.dim(d)
    assert ext.dims == expected


def test_chart_rows_deterministic():
    ext = ext_koszul(weight_restricted_C(P3, 9), 3, 24)
    rows = ext.chart_rows()
    assert rows == sorted(rows)
    assert ext.to_json() == ext.to_json()


# -- chart memo ------------------------------------------------------------------


@pytest.fixture
def complex_count(monkeypatch):
    """Empty the chart memo and count the complexes ext_koszul builds."""
    built = []

    class Counting(koszul.KoszulComplex):
        def __init__(self, module):
            built.append(module)
            super().__init__(module)

    monkeypatch.setattr(koszul, "_CHARTS", {})
    monkeypatch.setattr(koszul, "KoszulComplex", Counting)
    return built


def test_equal_modules_built_apart_share_one_chart(complex_count):
    cbar = length_splitting(P3, 60).reduced_part
    first = ext_koszul(restrict_qs(cbar, (0, 1)), 6, 60)
    assert len(complex_count) == 1
    second = ext_koszul(restrict_qs(cbar, (0, 1)), 6, 60)
    assert len(complex_count) == 1
    assert second.dims == first.dims
    assert second.to_json() == first.to_json()


def test_same_basis_with_zero_actions_gets_its_own_chart(complex_count):
    cbar = restrict_qs(length_splitting(P3, 60).reduced_part, (0, 1))
    # zero matrices of the same shapes and the same truncation, so only the
    # matrix entries tell the two modules apart
    zero = QModule(
        P3,
        cbar.qs,
        cbar.basis,
        {i: {d: np.zeros_like(mat) for d, mat in cbar.actions[i].items()} for i in cbar.qs},
        cbar.truncated_above,
    )
    acted = ext_koszul(cbar, 6, 60)
    inert = ext_koszul(zero, 6, 60)
    assert len(complex_count) == 2
    assert inert.dims != acted.dims
    kc = KoszulComplex(zero)
    direct = {(s, t): kc.dim(s, t) for t in range(61) for s in range(7)}
    assert inert.dims == {key: d for key, d in direct.items() if d}


def test_mutating_a_returned_chart_leaves_the_memo_alone(complex_count):
    c9 = weight_restricted_C(P3, 9)
    first = ext_koszul(c9, 4, 30)
    expected = dict(first.dims)
    first.dims.clear()
    first.dims[(0, 0)] = 99
    again = ext_koszul(c9, 4, 30)
    assert again.dims == expected
    assert len(complex_count) == 1
