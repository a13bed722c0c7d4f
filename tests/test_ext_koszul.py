"""Koszul-complex Ext, concentration checks, Bocksteins, v-injectivity."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

import bgsplit.ext.koszul as koszul
from bgsplit.browngitler import bp_homology, length_splitting, weight_restricted_C
from bgsplit.ext.compare import dual_module
from bgsplit.ext.koszul import (
    BlockTable,
    KoszulComplex,
    bockstein_e1,
    even_concentration_check,
    ext_koszul,
    v_injectivity,
)
from bgsplit.ext.poly import ext_p_module
from bgsplit.fplin import homology_basis, reduce_mod_rows, rref_array
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
from monomial_oracles import v_monomials

P3 = PrimeContext(3)
P5 = PrimeContext(5)
FULL = (0, 1, 2)
DROPS = (1, 5, 17)


@pytest.mark.parametrize("ctx", [P3, P5], ids=["p3", "p5"])
def test_v_levels_are_the_v_monomials_cut_to_each_window(ctx):
    # one enumeration per (drops, top s, v-degree budget), bounded by both;
    # each level is v_monomials(qs, s) cut at the budget, stably sorted by
    # v-degree, so one v-degree keeps lex order
    for n in range(4):
        for qs in combinations(FULL, n):
            drops = tuple(ctx.q_degree(i) for i in qs)

            def vdeg(alpha):
                return sum(a * d for a, d in zip(alpha, drops))

            for s_top, budget in ((0, 0), (3, 10), (6, 60), (9, 30), (40, 45)):
                levels = koszul._v_levels(drops, s_top, budget)
                assert len(levels) == s_top + 1
                for s, (degrees, alphas) in enumerate(levels):
                    want = sorted((a for a in v_monomials(qs, s) if vdeg(a) <= budget), key=vdeg)
                    assert alphas.reshape(len(want), n).tolist() == [list(a) for a in want], (qs, s)
                    assert degrees.tolist() == [vdeg(a) for a in want], (qs, s)


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


# -- a dense reference, block by block ------------------------------------------


def _up(alpha, ix):
    return alpha[:ix] + (alpha[ix] + 1,) + alpha[ix + 1 :]


class _Reference:
    """The Koszul complex laid out from `_brute_force_blocks` and `module.act` alone.

    Each map is built block by block on each call, with no reference to
    `BlockTable`, so the table is checked against an independent layout.
    """

    def __init__(self, module):
        self.module, self.qs, self.p = module, module.qs, module.ctx.p
        self.drops = tuple(module.ctx.q_degree(i) for i in module.qs)
        self._bases, self._offsets = {}, {}

    def offsets(self, s, t):
        """The first row of each block of C^{s,t}, keyed by its alpha, and dim C^{s,t}."""
        if (s, t) not in self._offsets:
            blocks = _brute_force_blocks(self, s, t)
            starts = np.cumsum([0] + [dim for _, _, dim in blocks]).tolist()
            self._offsets[(s, t)] = dict(zip([alpha for alpha, _, _ in blocks], starts)), starts[-1]
        return self._offsets[(s, t)]

    def d(self, s, t):
        """d = sum Q_i (x) v_i from C^{s,t} to C^{s+1,t}."""
        rows, n = self.offsets(s + 1, t)
        cols, m = self.offsets(s, t)
        mat = np.zeros((n, m), dtype=np.int64)
        for alpha, d, dim in _brute_force_blocks(self, s, t):
            for ix, i in enumerate(self.qs):
                row = rows.get(_up(alpha, ix))
                if row is not None:
                    action = self.module.act(i, d)
                    mat[row : row + action.shape[0], cols[alpha] : cols[alpha] + dim] = action
        return mat % self.p

    def v(self, s, t, ix):
        """Multiplication by v_{qs[ix]} from C^{s,t} to C^{s+1,t+d}: each block to alpha + e_ix."""
        rows, n = self.offsets(s + 1, t + self.drops[ix])
        cols, m = self.offsets(s, t)
        mat = np.zeros((n, m), dtype=np.int64)
        for alpha, _, dim in _brute_force_blocks(self, s, t):
            row = rows[_up(alpha, ix)]
            mat[row : row + dim, cols[alpha] : cols[alpha] + dim] = np.eye(dim, dtype=np.int64)
        return mat

    def homology(self, s, t):
        if (s, t) not in self._bases:
            self._bases[(s, t)] = homology_basis(self.d(s, t), self.d(s - 1, t), self.p)
        return self._bases[(s, t)]

    def classes(self, s, t):
        """dim Ext^{s,t} as the size of a homology basis, by dense elimination."""
        return self.homology(s, t)[0].shape[0] if self.offsets(s, t)[1] else 0

    def v_mult(self, s, t, ix):
        """v_{qs[ix]} on classes, columns = sources, by reducing the images of the representatives."""
        reps = self.homology(s, t)[0]
        treps, trep_piv, borders, border_piv = self.homology(s + 1, t + self.drops[ix])
        if reps.shape[0] == 0 or treps.shape[0] == 0:
            return np.zeros((treps.shape[0], reps.shape[0]), dtype=np.int64)
        images = (reps @ self.v(s, t, ix).T) % self.p
        reduced = reduce_mod_rows(images, borders, border_piv, self.p)
        coords = reduced[:, list(trep_piv)]
        assert np.array_equal((coords @ treps) % self.p, reduced)
        return coords.T


@lru_cache(maxsize=None)
def _by_v_degree(qs, drops, s):
    """The v-monomials of length s, in lex order, grouped by v-degree."""
    groups = {}
    for alpha in v_monomials(qs, s):
        groups.setdefault(sum(a * dv for a, dv in zip(alpha, drops)), []).append(alpha)
    return groups


def _brute_force_blocks(ref, s, t):
    """(alpha, module degree, dim) of every block v^alpha (x) M_d of C^{s,t} with M_d != 0, lex in alpha."""
    return sorted(
        (alpha, t - v, ref.module.dim(t - v))
        for v, alphas in _by_v_degree(ref.qs, ref.drops, s).items()
        if ref.module.dim(t - v)
        for alpha in alphas
    )


def test_differential_squares_to_zero():
    # C_9 has a single nonzero operator column; on the free module every
    # Q_i Q_j is nonzero, so only the signs of d make d^2 vanish
    squares = 0
    for module in (weight_restricted_C(P3, 9), free_module(P3, FULL, 6)):
        lo = module.min_degree()
        table, ref = KoszulComplex(module).table(6, lo, lo + 29), _Reference(module)
        for t in range(lo, lo + 30):
            for s in range(0, 6):
                down = table.d(s, t)
                up = table.d(s + 1, t)
                assert np.array_equal(down, ref.d(s, t)), (s, t)
                assert not ((up @ down) % 3).any(), (s, t)
                squares += bool(up.any() and down.any())
    assert squares


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
    ref = _Reference(module)
    lo = module.min_degree()
    chart = KoszulComplex(module).chart(6, lo, lo + 60)
    classes = 0
    for t in range(lo, lo + 61):
        for s in range(7):
            d = ref.classes(s, t)
            assert chart.get((s, t), 0) == d, (s, t)
            classes += d
    assert classes


@pytest.mark.parametrize("make", RANK_ROUTE_MODULES)
def test_dim_euler_characteristic_matches_chains(make):
    # for fixed t the complex is finite: C^{s,t} = 0 once s * min drop
    # exceeds t - min degree, so both alternating sums are finite
    module = make()
    ref = _Reference(module)
    lo = module.min_degree()
    chart = KoszulComplex(module).chart(40 // min(ref.drops) + 1, lo, lo + 40)
    for t in range(lo, lo + 41):
        s_top = (t - lo) // min(ref.drops) + 1
        ext = sum((-1) ** s * chart.get((s, t), 0) for s in range(s_top + 1))
        chains = sum((-1) ** s * ref.offsets(s, t)[1] for s in range(s_top + 1))
        assert ext == chains, t


def _lazy_chart(module, s_max, t_min, t_max):
    """Nonzero homology-basis counts of the dense reference, one bidegree at a time, t-major."""
    ref = _Reference(module)
    dims = {}
    for t in range(t_min, t_max + 1):
        for s in range(s_max + 1):
            if ref.classes(s, t):
                dims[(s, t)] = ref.classes(s, t)
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
    # d fixes the width of both ends and where each acting block sits; v_j
    # sends every block, acted on or not, to alpha + e_j, so equal v-maps
    # put every block of the table where the brute-force layout puts it
    ref = _Reference(module)
    lo = module.min_degree() - 5
    table = KoszulComplex(module).table(8, lo, 49 + max(ref.drops))
    nonempty = 0
    for t in range(lo, 50):
        for s in range(9):
            blocks = _brute_force_blocks(ref, s, t)
            assert np.array_equal(table.d(s, t), ref.d(s, t)), (s, t)
            unit = np.eye(ref.offsets(s, t)[1], dtype=np.int64)
            for ix in range(len(ref.qs)):
                assert np.array_equal(table.v_image(unit, s, t, ix), ref.v(s, t, ix).T), (s, t, ix)
            nonempty += len(blocks)
    assert nonempty


def test_v_multiplication_commutes_with_the_differential():
    for module in (weight_restricted_C(P3, 9), restrict_qs(weight_restricted_C(P3, 9), (1, 2))):
        ref = _Reference(module)
        table = KoszulComplex(module).table(5, 0, 29 + max(ref.drops))

        def v(s, t, ix):
            return table.v_image(np.eye(ref.offsets(s, t)[1], dtype=np.int64), s, t, ix).T

        for ix, drop in enumerate(ref.drops):
            for t in range(0, 30):
                for s in range(4):
                    lhs = table.d(s + 1, t + drop) @ v(s, t, ix)
                    rhs = v(s + 1, t, ix) @ table.d(s, t)
                    assert lhs.shape == rhs.shape
                    assert not ((lhs - rhs) % 3).any(), (ix, s, t)
                    assert np.array_equal(v(s, t, ix), ref.v(s, t, ix))


def test_p_module_dims_match_homology_bases():
    # ext_p_module reads one rectangular chart, s <= (t_max - min degree)
    # // smallest drop, which must hold every class with t <= t_max
    c9 = weight_restricted_C(P3, 9)
    ext = ext_p_module(c9, 41)
    ref = _Reference(c9)
    lo = c9.min_degree()
    direct = {
        (s, t): ref.classes(s, t)
        for t in range(lo, 42)
        for s in range((t - lo) // min(ref.drops) + 2)
    }
    assert ext.dims
    assert ext.dims == {key: d for key, d in direct.items() if d}


@pytest.mark.parametrize(
    "make, t_max",
    [
        (lambda: weight_restricted_C(P3, 6), 60),
        (lambda: weight_restricted_C(P3, 9), 41),
        (lambda: weight_restricted_C(P3, 27), 80),
        (lambda: weight_restricted_C(P5, 25), 120),
    ],
    ids=["C6", "C9", "C27", "p5-C25"],
)
def test_p_module_acts_match_the_dense_reference(make, t_max):
    # C_6 sits in even degrees, so every d of it is zero and no bidegree is
    # marked: its v-maps are the chain-level maps on the chain basis
    module = make()
    ext = ext_p_module(module, t_max)
    ref = _Reference(module)
    expected = {j: {} for j in range(len(ref.qs))}
    for s, t in ext.dims:
        for j, drop in enumerate(ref.drops):
            if t + drop <= t_max and ref.classes(s + 1, t + drop):
                expected[j][(s, t)] = ref.v_mult(s, t, j)
    assert any(expected.values())
    assert ext.maps.keys() == expected.keys()
    for j, maps in expected.items():
        for s, t in ext.dims:
            if t + ref.drops[j] <= t_max:
                want = maps.get((s, t), np.zeros((ext.dim(s + 1, t + ref.drops[j]), ext.dim(s, t))))
                assert np.array_equal(ext.act(j, s, t), want), (j, s, t)


def test_v_mult_rejects_images_that_are_not_cycles(monkeypatch):
    # An all-ones "multiplication" is no chain map.  The free summand puts
    # nonzero differentials beside the trivial summand's classes, so some
    # image is not a cycle.  The guard runs only at targets that an entry of
    # d leaves or enters: elsewhere every vector is a cycle.  A block C_k,
    # k <= 8, at p = 3 sits in even degrees and every drop 2p^i - 1 is odd,
    # so its chains at (s, t) need t = s mod 2, each d is zero, and no
    # target of it reaches the guard.
    image = BlockTable.v_image

    def all_ones(self, rows, s, t, j):
        return np.ones_like(image(self, rows, s, t, j))

    module = direct_sum([trivial_module(P3, FULL), free_module(P3, FULL, 6)])
    assert ext_p_module(module, 30).dims
    monkeypatch.setattr(BlockTable, "v_image", all_ones)
    with pytest.raises(ValueError, match="not a cycle"):
        ext_p_module(module, 30)


def test_v_maps_eliminate_only_where_a_differential_is_nonzero(monkeypatch):
    calls = []

    def counted(d_out, d_in, p):
        calls.append((d_out, d_in))
        return homology_basis(d_out, d_in, p)

    monkeypatch.setattr(koszul, "homology_basis", counted)
    # C_6 sits in even degrees, so every d of it is zero
    even = ext_p_module(weight_restricted_C(P3, 6), 60)
    assert calls == []
    assert sum(even.dims.values()) == 1831
    read = [(j, s, t) for s, t in even.dims for j, dv in enumerate(even.var_degrees) if t + dv <= 60]
    assert sum(even.act(*at).any() for at in read) == 1107

    # C_9 has odd degrees: one call per bidegree read whose d in or out is
    # nonzero, by the dense reference
    c9 = weight_restricted_C(P3, 9)
    ext = ext_p_module(c9, 41)
    ref = _Reference(c9)
    read = {
        bd
        for s, t in ext.dims
        for drop in ref.drops
        if (s + 1, t + drop) in ext.dims
        for bd in ((s, t), (s + 1, t + drop))
    }
    touched = {(s, t) for s, t in read if ref.d(s, t).any() or ref.d(s - 1, t).any()}
    assert len(calls) == len(touched) == 81
    assert all(d_out.any() or d_in.any() for d_out, d_in in calls)


def test_windows_without_chains_are_empty():
    # a window below the module's lowest degree, and a module with no basis
    unit = trivial_module(P3, (0,))
    empty = QModule(P3, FULL, {}, {i: {} for i in FULL})
    assert ext_koszul(unit, 4, -3).dims == {}
    assert ext_koszul(unit, 4, -3, t_min=-10).dims == {}
    assert ext_koszul(empty, 4, 40).dims == {}
    assert ext_p_module(unit, -3).dims == {}
    assert ext_p_module(empty, 40).dims == {}
    assert ext_p_module(unit, 5).dims == {(s, s): 1 for s in range(6)}


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
    assert (second.s_max, second.t_min, second.t_max) == (first.s_max, first.t_min, first.t_max)


def test_same_basis_with_zero_actions_gets_its_own_chart(complex_count):
    cbar = restrict_qs(length_splitting(P3, 60).reduced_part, (0, 1))
    # zero matrices of the same shapes and the same truncation, so only the
    # matrix entries tell the two modules apart
    zero = _zero_actions(cbar)
    acted = ext_koszul(cbar, 6, 60)
    inert = ext_koszul(zero, 6, 60)
    assert len(complex_count) == 2
    assert inert.dims != acted.dims
    ref = _Reference(zero)
    direct = {(s, t): ref.classes(s, t) for t in range(61) for s in range(7)}
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
    """(checked classes, kernel bidegrees) from the dense reference's representatives and v-maps."""
    ref = _Reference(module)
    checked, kernel_at = 0, []
    for t in range(module.min_degree(), t_max + 1):
        for s in range(s_max + 1):
            n = ref.classes(s, t)
            if n:
                checked += n
                if len(rref_array(ref.v_mult(s, t, module.qs.index(i)), module.ctx.p)[1]) < n:
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
    monkeypatch.setattr(koszul, "homology_basis", lambda *args: calls.append("homology_basis"))
    for name in ("d", "v_image", "v_maps"):
        monkeypatch.setattr(BlockTable, name, lambda self, *args, name=name: calls.append(name))
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
