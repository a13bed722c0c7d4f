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
from bgsplit.ext.poly import ext_p_module
from bgsplit.fplin import rref_array
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


def _classes(kc, s, t):
    """dim Ext^{s,t} as the size of a homology basis, by dense elimination."""
    return kc.homology(s, t)[0].shape[0] if kc.chain_dim(s, t) else 0


@pytest.mark.parametrize("make", RANK_ROUTE_MODULES)
def test_dim_from_ranks_matches_homology_basis(make):
    module = make()
    kc = KoszulComplex(module)
    lo = module.min_degree()
    chart = kc.chart(6, lo, lo + 60)
    classes = 0
    for t in range(lo, lo + 61):
        for s in range(7):
            d = _classes(kc, s, t)
            assert chart.get((s, t), 0) == d, (s, t)
            classes += d
    assert classes


@pytest.mark.parametrize("make", RANK_ROUTE_MODULES)
def test_dim_euler_characteristic_matches_chains(make):
    # for fixed t the complex is finite: C^{s,t} = 0 once s * min drop
    # exceeds t - min degree, so both alternating sums are finite
    module = make()
    kc = KoszulComplex(module)
    lo = module.min_degree()
    chart = kc.chart(40 // min(kc.drops) + 1, lo, lo + 40)
    for t in range(lo, lo + 41):
        s_top = (t - lo) // min(kc.drops) + 1
        ext = sum((-1) ** s * chart.get((s, t), 0) for s in range(s_top + 1))
        chains = sum((-1) ** s * kc.chain_dim(s, t) for s in range(s_top + 1))
        assert ext == chains, t


def _lazy_chart(module, s_max, t_min, t_max):
    """Nonzero homology-basis counts of a fresh complex, one bidegree at a time, t-major."""
    kc = KoszulComplex(module)
    dims = {}
    for t in range(t_min, t_max + 1):
        for s in range(s_max + 1):
            if _classes(kc, s, t):
                dims[(s, t)] = _classes(kc, s, t)
    return dims


def _cbar_pair(pair):
    return restrict_qs(length_splitting(P3, 220).reduced_part, pair)


def _dual_tensor():
    # the e2-comparison route: negative degrees, and s up to the width of the window
    c9 = weight_restricted_C(P3, 9)
    return tensor(dual_module(c9), weight_restricted_C(P3, 3))


@pytest.mark.parametrize(
    "make, s_max, t_max",
    [
        (lambda: _cbar_pair((0, 1)), 6, 220),
        (lambda: _cbar_pair((0, 2)), 6, 220),
        (lambda: _cbar_pair((1, 2)), 6, 220),
        (lambda: weight_restricted_C(P3, 9), 6, 60),
        (lambda: weight_restricted_C(P3, 27), 6, 120),
        (lambda: weight_restricted_C(P5, 25), 6, 200),
        (_dual_tensor, 80, 40),
    ],
    ids=["cbar-Q0Q1", "cbar-Q0Q2", "cbar-Q1Q2", "C9", "C27", "p5-C25", "dual-C9-C3"],
)
def test_window_chart_equals_the_per_bidegree_dims(make, s_max, t_max):
    module = make()
    t_min = module.min_degree()
    chart = KoszulComplex(module).chart(s_max, t_min, t_max)
    lazy = _lazy_chart(module, s_max, t_min, t_max)
    assert chart
    assert chart == lazy
    assert list(chart) == list(lazy)


def test_halved_slabs_give_the_same_chart(monkeypatch):
    # the three-operator C-bar chart through 220 has slabs far past the bound
    cbar = length_splitting(P3, 220).reduced_part
    whole = KoszulComplex(cbar).chart(6, 0, 220)
    for bound in (10**9, 64):
        monkeypatch.setattr(koszul, "_COLUMNS", bound)
        chart = KoszulComplex(cbar).chart(6, 0, 220)
        assert chart == whole
        assert list(chart) == list(whole)
    assert whole


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


def test_p_module_dims_match_homology_bases():
    # ext_p_module reads one rectangular chart, s <= (t_max - min degree)
    # // smallest drop, which must hold every class with t <= t_max
    c9 = weight_restricted_C(P3, 9)
    ext = ext_p_module(c9, 41)
    kc = KoszulComplex(c9)
    lo = c9.min_degree()
    direct = {
        (s, t): _classes(kc, s, t)
        for t in range(lo, 42)
        for s in range((t - lo) // min(kc.drops) + 2)
    }
    assert ext.dims
    assert ext.dims == {key: d for key, d in direct.items() if d}


def test_v_mult_rejects_images_that_are_not_cycles(monkeypatch):
    # An all-ones "multiplication" is no chain map.  The free summand puts
    # nonzero differentials beside the trivial summand's classes, so some
    # image is not a cycle.  On C_9 and C_27 through t = 60 every differential
    # out of a v_mult target is zero, so a block cannot reach the guard.
    def all_ones(self, s, t, i):
        target = self.chain_dim(s + 1, t + self.module.ctx.q_degree(i))
        return np.ones((target, self.chain_dim(s, t)), dtype=np.int64)

    module = direct_sum([trivial_module(P3, FULL), free_module(P3, FULL, 6)])
    assert ext_p_module(module, 30).dims
    monkeypatch.setattr(KoszulComplex, "v_mult_chain", all_ones)
    with pytest.raises(ValueError, match="not a cycle"):
        ext_p_module(module, 30)


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
        page = bockstein_e1(c9, i, 6, 40)
        assert page.collapse
        assert page.pair == tuple(x for x in FULL if x != i)
        # the page holds the pair chart once; each power of v_i repeats it
        assert page.dims == ext_koszul(restrict_qs(c9, page.pair), 6, 40).dims
        assert page.dims
        assert all((t - s) % 2 == 0 for s, t in page.dims)


def test_bockstein_collapse_fails_where_v_i_kills_a_class():
    # the free module's one class, at s = 0, is killed by every v_i, so Ext
    # is smaller than each E_1 count
    free = free_module(P3, FULL)
    assert [bockstein_e1(free, i, 4, 40).collapse for i in FULL] == [False] * 3


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


def test_v_injectivity_rejects_an_undefined_operator():
    pair = restrict_qs(weight_restricted_C(P3, 9), (0, 1))
    with pytest.raises(KeyError, match="Q_2 is not defined"):
        v_injectivity(pair, 2, 6, 40)


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
    """Empty the chart memo and record (qs, s_max, t_min, t_max) of each chart computed."""
    charts = []

    class Counting(koszul.KoszulComplex):
        def chart(self, s_max, t_min, t_max):
            charts.append((self.qs, s_max, t_min, t_max))
            return super().chart(s_max, t_min, t_max)

    monkeypatch.setattr(koszul, "_CHARTS", {})
    monkeypatch.setattr(koszul, "KoszulComplex", Counting)
    return charts


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
    zero = _zero_actions(cbar)
    acted = ext_koszul(cbar, 6, 60)
    inert = ext_koszul(zero, 6, 60)
    assert len(complex_count) == 2
    assert inert.dims != acted.dims
    kc = KoszulComplex(zero)
    direct = {(s, t): _classes(kc, s, t) for t in range(61) for s in range(7)}
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


def test_a_window_inside_a_held_chart_is_cut_from_it(complex_count):
    c9 = weight_restricted_C(P3, 9)
    ext_koszul(c9, 6, 60)
    inner = ext_koszul(c9, 4, 30, t_min=10)
    assert len(complex_count) == 1
    assert (inner.s_max, inner.t_min, inner.t_max) == (4, 10, 30)
    assert inner.dims == _lazy_chart(c9, 4, 10, 30)
    # one bound outside the held chart is a miss
    ext_koszul(c9, 7, 30)
    assert len(complex_count) == 2


def _direct_v_injectivity(module, i, s_max, t_max):
    """(checked classes, kernel bidegrees) from class representatives and `v_mult`, no memo."""
    kc = KoszulComplex(module)
    checked, kernel_at = 0, []
    for t in range(module.min_degree(), t_max + 1):
        for s in range(s_max + 1):
            n = _classes(kc, s, t)
            if n:
                checked += n
                if len(rref_array(kc.v_mult(s, t, i), module.ctx.p)[1]) < n:
                    kernel_at.append((s, t))
    return checked, kernel_at


def _zero_actions(module):
    """The module with every operator matrix replaced by zeros of its shape."""
    actions = {i: {d: np.zeros_like(mat) for d, mat in module.actions[i].items()} for i in module.qs}
    return QModule(module.ctx, module.qs, module.basis, actions, module.truncated_above)


COUNT_ROUTE_MODULES = [
    *(
        pytest.param(lambda k=k: weight_restricted_C(P3, k), 6, 40, id=f"C{k}")
        for k in (0, 3, 6, 9, 12, 27)
    ),
    pytest.param(lambda: free_module(P3, FULL), 3, 40, id="free"),
    pytest.param(lambda: _zero_actions(free_module(P3, FULL)), 3, 40, id="zero-action"),
    pytest.param(lambda: bp_homology(P3, 2, 40).module, 4, 23, id="bp2-t40"),
    pytest.param(lambda: _cbar_pair((0, 1)), 6, 60, id="cbar-Q0Q1"),
    pytest.param(lambda: restrict_qs(weight_restricted_C(P3, 9), (1,)), 4, 30, id="C9-Q1"),
]


@pytest.mark.parametrize("make, s_max, t_max", COUNT_ROUTE_MODULES)
def test_v_injectivity_counts_equal_the_representatives(make, s_max, t_max):
    module = make()
    for i in module.qs:
        report = v_injectivity(module, i, s_max, t_max)
        direct = _direct_v_injectivity(module, i, s_max, t_max)
        assert (report.checked_classes, report.kernel_at) == direct
        assert report.passed == (not direct[1])


def test_v_injectivity_reads_no_class_representatives(complex_count, monkeypatch):
    calls = []
    for name in ("homology", "v_mult"):
        monkeypatch.setattr(KoszulComplex, name, lambda self, *args, name=name: calls.append(name))
    c9 = weight_restricted_C(P3, 9)
    assert all(v_injectivity(c9, i, 6, 40).passed for i in FULL)
    assert calls == []
    assert len(complex_count) == 4


def test_v_injectivity_on_a_single_operator():
    # over E(Q_1) alone the cokernel of v_1 has no operators: its Ext is M at s = 0
    single = restrict_qs(weight_restricted_C(P3, 9), (1,))
    report = v_injectivity(single, 1, 4, 30)
    assert (report.checked_classes, report.kernel_at) == (19, [(0, 12)])


def test_ext_over_no_operators_is_the_module_at_s_zero():
    bare = restrict_qs(weight_restricted_C(P3, 9), ())
    ext = ext_koszul(bare, 3, 30)
    assert ext.dims == {(0, d): bare.dim(d) for d in bare.degrees() if d <= 30}
    assert ext.dims


def test_equal_blocks_share_one_v_injectivity_complex(complex_count):
    # C_k depends only on floor(k/p), so C_0, C_1 and C_2 have one content:
    # one module chart through 40 + d_2, and one pair chart per operator
    reports = [
        v_injectivity(weight_restricted_C(P3, k), i, 6, 40) for k in (0, 1, 2) for i in FULL
    ]
    assert complex_count == [
        (FULL, 6, 0, 57), ((1, 2), 6, 0, 41), ((0, 2), 6, 0, 45), ((0, 1), 6, 0, 57)
    ]
    assert all(r.passed and r.checked_classes == reports[0].checked_classes for r in reports)
    assert [r.i for r in reports] == [0, 1, 2] * 3


def test_same_basis_with_zero_actions_gets_its_own_v_injectivity(complex_count):
    # zero matrices of the same shapes: only the matrix entries differ, and
    # with no action every v_i acts freely on Ext
    free = free_module(P3, FULL)
    zero = _zero_actions(free)
    acted = v_injectivity(free, 0, 3, 40)
    inert = v_injectivity(zero, 0, 3, 40)
    assert [qs for qs, *_ in complex_count] == [FULL, (1, 2), FULL, (1, 2)]
    assert not acted.passed and inert.passed
    assert (inert.checked_classes, inert.kernel_at) == _direct_v_injectivity(zero, 0, 3, 40)
    assert (acted.checked_classes, acted.kernel_at) == _direct_v_injectivity(free, 0, 3, 40)


def test_mutating_a_returned_kernel_leaves_the_v_injectivity_memo_alone(complex_count):
    free = free_module(P3, FULL)
    first = v_injectivity(free, 0, 3, 40)
    expected = list(first.kernel_at)
    first.kernel_at.clear()
    first.kernel_at.append((99, 99))
    again = v_injectivity(free, 0, 3, 40)
    assert again.kernel_at == expected
    assert not again.passed
    assert len(complex_count) == 2


@pytest.mark.parametrize("order", [(2, 0, 1), (0, 1, 2)])
def test_v_injectivity_memo_keeps_the_truncation_gate(complex_count, order):
    # t_max + d_0 = 31 and t_max + d_1 = 35 stay within the truncation at 40,
    # t_max + d_2 = 47 does not, so only v_2 must be refused, and the module
    # chart reaches 35 whichever operator comes first
    bounded = bp_homology(P3, 2, 40).module
    reports = {}
    for i in order:
        if i == 2:
            with pytest.raises(ValueError, match="beyond the certified degree 40"):
                v_injectivity(bounded, i, 4, 30)
        else:
            reports[i] = v_injectivity(bounded, i, 4, 30)
    assert sorted(complex_count) == [(FULL, 4, 0, 35), ((0, 2), 4, 0, 35), ((1, 2), 4, 0, 31)]
    for i, rep in reports.items():
        assert (rep.checked_classes, rep.kernel_at) == _direct_v_injectivity(bounded, i, 4, 30)
