"""Module constructors over E(Q_0,Q_1,Q_2): actions, sums, tensors, quotients."""

from __future__ import annotations

import numpy as np
import pytest

from bgsplit.browngitler import brown_gitler, si_ri_splitting, weight_restricted_C
from bgsplit.ext.compare import dual_module
from bgsplit.monomials import AlgebraSpec, Monomial, PrimeContext, length
from bgsplit.qmodules import (
    ClosureError,
    QModule,
    QModuleMap,
    _shift_grading,
    compose,
    content_key,
    direct_sum,
    free_module,
    module_from_monomials,
    q_action_on_monomial,
    q_word,
    quotient,
    restrict_qs,
    submodule_generated,
    suspend,
    tensor,
    trivial_module,
    verify_map,
)
from monomial_oracles import parse_monomial
from qmodule_oracles import dense_quotient, identity_map, kron_tensor, truncated_tensor

P3 = PrimeContext(3)
P5 = PrimeContext(5)
A1 = AlgebraSpec(1)
A2 = AlgebraSpec(2)


def mono(text: str) -> Monomial:
    return parse_monomial(text)


def b19_module(qs=(0, 1, 2)):
    monos = [mono(s) for s in ["1", "xi1", "xi1^2", "xi1^3", "xi2", "tau2"]]
    return module_from_monomials(P3, A1, monos, qs)


# -- primitive action on monomials ------------------------------------------


def test_q_action_basic_values():
    assert q_action_on_monomial(P5, A1, 1, mono("tau2")) == [(1, mono("xi1^5"))]
    assert q_action_on_monomial(P3, A1, 0, mono("tau2")) == [(1, mono("xi2"))]
    assert q_action_on_monomial(P3, A1, 2, mono("tau2")) == [(1, mono("1"))]
    assert q_action_on_monomial(P3, A1, 1, mono("xi3")) == []
    assert q_action_on_monomial(P3, A1, 2, mono("xi1 tau2")) == [(1, mono("xi1"))]


def test_q_action_signs_and_higher_index_vanishing():
    got = q_action_on_monomial(P3, A2, 0, mono("tau3 tau4"))
    assert sorted(got, key=lambda t: t[1].tau) == [
        (2, mono("xi4 tau3")),
        (1, mono("xi3 tau4")),
    ]
    # Q_i kills tau_b for i > b
    assert q_action_on_monomial(P3, AlgebraSpec(-1), 2, mono("tau1")) == []
    assert q_action_on_monomial(P3, AlgebraSpec(-1), 1, mono("tau1")) == [(1, mono("1"))]


def test_q_action_preserves_weight_when_index_in_range():
    # Weight preservation needs i <= truncation index: every surviving tau_b
    # then has b > i, so tau_b -> xi_{b-i}^{p^i} keeps weight p^b.  The
    # boundary action Q_b(tau_b) = 1 drops weight, which is why
    # Brown-Gitler modules are weight-bounded rather than homogeneous.
    from bgsplit.monomials import degree, weight

    m = mono("xi1^2 tau3 tau4")
    for i in (0, 1, 2):
        terms = q_action_on_monomial(P3, A2, i, m)
        assert terms
        for coeff, term in terms:
            assert weight(P3, term) == weight(P3, m)
            assert degree(P3, term) == degree(P3, m) - P3.q_degree(i)
    boundary = q_action_on_monomial(P3, A1, 2, mono("tau2"))
    assert boundary == [(1, mono("1"))]
    assert weight(P3, mono("1")) == 0


# -- module construction ------------------------------------------------------


def test_module_from_monomials_b19_actions():
    m = b19_module()
    assert m.total_dim == 6
    assert m.degrees() == [0, 4, 8, 12, 16, 17]
    d_tau2, v = m.element(mono("tau2"))
    assert d_tau2 == 17
    # Q_0 tau2 = xi2 at degree 16
    img = m.act(0, 17) @ v % 3
    d_xi2, w = m.element(mono("xi2"))
    assert d_xi2 == 16
    assert np.array_equal(img, w)
    # Q_1 tau2 = xi1^3 at degree 12
    img = m.act(1, 17) @ v % 3
    _, w = m.element(mono("xi1^3"))
    assert np.array_equal(img, w)
    # Q_2 tau2 = 1 at degree 0
    img = m.act(2, 17) @ v % 3
    _, w = m.element(mono("1"))
    assert np.array_equal(img, w)


def test_closure_error_names_offender():
    with pytest.raises(ClosureError, match=r"Q_0\(tau2\).*xi2"):
        module_from_monomials(P3, A1, [mono("tau2"), mono("1"), mono("xi1^3")], (0,))


def test_q_word_applies_the_last_index_first():
    free = free_module(P3, (0, 1, 2), 23)
    _, g = free.element(("g", ()))
    got = q_word(free, (0, 1), 23, g)
    assert np.array_equal(got, free.act(0, 18) @ free.act(1, 23) @ g % 3)
    assert np.array_equal(got, free.element(("g", (0, 1)))[1])
    # the other order is Q_1 Q_0 = -Q_0 Q_1
    assert np.array_equal(free.act(1, 22) @ free.act(0, 23) @ g % 3, -got % 3)


def test_relation_validation_rejects_corrupt_actions():
    # Flipping the sign of Q_1 on the Q_2-line of a free module breaks
    # anticommutativity, which construction must catch.
    free = free_module(P3, (1, 2))
    acts = {i: dict(free.actions[i]) for i in free.qs}
    bad = acts[1][-17].copy()
    bad[0, 0] = (-bad[0, 0]) % 3
    acts[1][-17] = bad

    with pytest.raises(ValueError, match="Q_1Q_2"):
        QModule(P3, free.qs, free.basis, acts)


def test_relation_validation_rejects_a_nonzero_square():
    # Q_0 carries a -> b -> c at p = 3, so Q_0^2 sends a to c
    one = np.ones((1, 1), dtype=np.int64)
    with pytest.raises(ValueError, match=r"Q_0\^2 is nonzero starting at degree 2"):
        QModule(P3, (0,), {2: ("a",), 1: ("b",), 0: ("c",)}, {0: {2: one, 1: one}})


@pytest.mark.parametrize(
    "middle",
    # a in degree 6 reaches c in degree 0 through b.  Through degree 1,
    # Q_0Q_1 is stored and Q_1Q_0 would pass the empty degree 5; through
    # degree 5 it is the other way round.
    [1, 5],
    ids=["only-Q0Q1-stored", "only-Q1Q0-stored"],
)
def test_relation_validation_checks_a_one_sided_anticommutator(middle):
    one = np.ones((1, 1), dtype=np.int64)
    first, second = (1, 0) if middle == 1 else (0, 1)
    acts = {first: {6: one}, second: {middle: one}}
    basis = {6: ("a",), middle: ("b",), 0: ("c",)}
    with pytest.raises(ValueError, match=r"Q_0Q_1 \+ Q_1Q_0 is nonzero starting at degree 6"):
        QModule(P3, (0, 1), basis, acts)


# -- suspension, sums, tensors ------------------------------------------------


def test_suspend_shifts_grading_only():
    m = b19_module()
    s = suspend(m, 36)
    assert s.degrees() == [d + 36 for d in m.degrees()]
    assert np.array_equal(s.act(0, 17 + 36), m.act(0, 17))
    with pytest.raises(ValueError):
        suspend(m, 3)
    back = suspend(s, -36)
    assert back.degrees() == m.degrees()


def test_direct_sum_dims_and_block_action():
    m = b19_module()
    t = trivial_module(P3, (0, 1, 2), degree=4)
    s = direct_sum([m, t])
    assert s.dim(4) == m.dim(4) + 1
    assert s.total_dim == m.total_dim + 1
    r = verify_map(identity_map(s))
    assert r.passed


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


def test_a_checked_module_copies_only_what_a_caller_could_write():
    # a suspension or restriction skips the checks and shares the held matrices
    m = b19_module()
    for trusted, shift in ((suspend(m, 4), 4), (restrict_qs(m, (0, 1)), 0)):
        for i in trusted.qs:
            assert all(trusted.actions[i][d + shift] is mat for d, mat in m.actions[i].items())
    # a read-only reduced matrix is shared
    t = tensor(m, m)
    shared = QModule(P3, t.qs, t.basis, t.actions)
    assert all(shared.actions[i][d] is mat for i in t.qs for d, mat in t.actions[i].items())
    # a writeable matrix, a read-only view of a writeable owner and an unreduced one are copied and frozen
    for hand_over in (np.copy, lambda mat: _read_only(mat.copy().view()), lambda mat: _read_only(mat + 3)):
        given = {i: {d: hand_over(mat) for d, mat in acts.items()} for i, acts in t.actions.items()}
        checked = QModule(P3, t.qs, t.basis, given)
        for i in t.qs:
            for d, mat in given[i].items():
                assert checked.actions[i][d] is not mat and not checked.actions[i][d].flags.writeable
                # the caller changes every entry through whatever it can still write
                owner = mat if mat.base is None else mat.base
                if owner.flags.writeable:
                    owner[...] = (owner + 1) % P3.p
        assert content_key(checked) == content_key(t)


def test_no_matrix_a_checked_module_or_map_holds_can_be_written():
    m = b19_module()
    sub, inc = submodule_generated(m, [mono("tau2")])
    quot, proj = quotient(inc)
    big = direct_sum([m, free_module(P3, m.qs, 23)])
    modules = [m, sub, quot, big, suspend(m, 4), tensor(m, m), QModule(P3, big.qs, big.basis, big.actions)]
    modules.append(module_from_monomials(P3, A1, [mono("xi1^4")], m.qs, held=m))
    held = [mat for x in modules for acts in x.actions.values() for mat in acts.values()]
    held += [mat for f in (inc, proj, identity_map(m)) for mat in f.mats.values()]
    assert len(held) > 40
    for mat in held:
        with pytest.raises(ValueError, match="read-only"):
            mat[...] = 0


def test_direct_sum_places_only_the_blocks_its_summands_hold():
    m, n = b19_module(), suspend(b19_module(), 4)
    s = direct_sum([m, n])
    for i in s.qs:
        for d in s.degrees():
            a, b = m.act(i, d), n.act(i, d)
            want = np.block([[a, np.zeros((a.shape[0], b.shape[1]))], [np.zeros((b.shape[0], a.shape[1])), b]])
            assert np.array_equal(s.act(i, d), want), (i, d)
        assert set(s.actions[i]) == {d for x in (m, n) for d, mat in x.actions[i].items() if mat.size}
    QModule(P3, s.qs, s.basis, s.actions)
    # Q_0 drops degree 1 to 0, where the second summand sits, but neither summand holds a matrix
    t = direct_sum([trivial_module(P3, (0,), 1), trivial_module(P3, (0,), 0)])
    assert t.actions[0] == {} and np.array_equal(t.act(0, 1), np.zeros((1, 1)))


def test_tensor_signs_on_odd_factors():
    m = b19_module()
    t = tensor(m, m)
    # Q_0(tau2 (x) tau2) = xi2 (x) tau2 - tau2 (x) xi2
    d = 34
    labels = t.basis[d]
    col = labels.index((mono("tau2"), mono("tau2")))
    v = np.zeros(t.dim(d), dtype=np.int64)
    v[col] = 1
    img = (t.act(0, d) @ v) % 3
    lower = t.basis[d - 1]
    expect = np.zeros(t.dim(d - 1), dtype=np.int64)
    expect[lower.index((mono("xi2"), mono("tau2")))] = 1
    expect[lower.index((mono("tau2"), mono("xi2")))] = 2
    assert np.array_equal(img, expect)


def test_tensor_with_unit_is_isomorphic():
    m = b19_module()
    unit = trivial_module(P3, (0, 1, 2), degree=0)
    t = tensor(unit, m)
    assert [t.dim(d) for d in m.degrees()] == [m.dim(d) for d in m.degrees()]
    for i in m.qs:
        for d in m.degrees():
            assert np.array_equal(t.act(i, d), m.act(i, d))


def assert_matches_kron(m, n):
    got = tensor(m, n)
    basis, actions = kron_tensor(m, n)
    assert got.basis == basis
    want = QModule(m.ctx, m.qs, basis, actions, got.truncated_above)
    assert content_key(got) == content_key(want)


def test_tensor_matches_kron_on_odd_degree_factors():
    m = b19_module()
    odd = _shift_grading(m, 3)
    assert any(d % 2 for d in odd.degrees())
    assert_matches_kron(odd, m)
    assert_matches_kron(m, odd)
    assert_matches_kron(odd, _shift_grading(m, -7))


def test_tensor_matches_kron_under_truncation():
    # the truncated Kronecker product, which the factorization oracle
    # builds on, is the tensor product's part through the cut
    m = b19_module()
    for n, cut in ((_shift_grading(m, 1), 20), (m, 0)):
        full = tensor(m, n)
        got = truncated_tensor(m, n, cut)
        assert got.truncated_above == cut
        assert got.degrees() == [d for d in full.degrees() if d <= cut]
        for d in got.degrees():
            assert got.basis[d] == full.basis[d]
            for i in m.qs:
                assert np.array_equal(got.act(i, d), full.act(i, d))


def test_tensor_matches_kron_with_an_empty_factor():
    m = b19_module()
    empty = QModule(P3, m.qs, {}, {})
    assert_matches_kron(m, empty)
    assert_matches_kron(empty, m)
    assert tensor(m, empty).total_dim == 0


@pytest.mark.parametrize("k", [0, 3, 9])
@pytest.mark.parametrize("m", [0, 3, 9])
def test_tensor_matches_kron_on_dual_weight_blocks(k, m):
    ck, cm = weight_restricted_C(P3, k), weight_restricted_C(P3, m)
    assert_matches_kron(dual_module(ck), suspend(cm, P3.q * m))


# -- submodules and quotients -------------------------------------------------


def test_submodule_generated_by_unit_is_trivial():
    m = b19_module()
    sub, inc = submodule_generated(m, [mono("1")])
    assert sub.total_dim == 1
    assert sub.degrees() == [0]
    assert verify_map(inc).passed


def test_submodule_generated_by_tau2_spans_free_orbit():
    m = b19_module()
    sub, inc = submodule_generated(m, [mono("tau2")])
    # orbit: tau2, xi2, xi1^3, 1 (Q_0, Q_1, Q_2 images)
    assert sub.total_dim == 4
    assert sorted(sub.degrees()) == [0, 12, 16, 17]
    assert verify_map(inc).passed


def test_submodule_generated_rejects_an_image_the_sweep_missed():
    # every action read after the closure sweep is perturbed, so the sweep's span is not closed
    m = direct_sum([b19_module(), b19_module()])
    real, read = m.act, set()

    def act(i, d):
        if (i, d) in read:
            return (real(i, d) + 1) % P3.p
        read.add((i, d))
        return real(i, d)

    m.act = act
    with pytest.raises(ValueError, match="closure sweep missed a Q-image"):
        submodule_generated(m, [(0, mono("tau2"))])


def test_submodule_generated_reads_a_direct_sum_label_as_a_label():
    # (1, ("g", ())) is the generator of the second summand
    free = free_module(P3, (0, 1))
    both = direct_sum([free, free])
    sub, inc = submodule_generated(both, [(1, ("g", ()))])
    assert sub.total_dim == 4
    assert verify_map(inc).passed
    assert not inc.mat(0)[: free.dim(0)].any()


def test_quotient_by_nothing_and_by_everything():
    m = b19_module()
    q0, proj0 = quotient(submodule_generated(m, [])[1])
    assert q0.total_dim == m.total_dim
    everything = [mono(s) for s in ["1", "xi1", "xi1^2", "xi1^3", "xi2", "tau2"]]
    qall, projall = quotient(submodule_generated(m, everything)[1])
    assert qall.total_dim == 0


def test_quotient_of_free_by_socle_is_three_dimensional():
    free = free_module(P3, (1, 2))
    socle_label = ("g", (1, 2))
    quot, proj = quotient(submodule_generated(free, [socle_label])[1])
    assert quot.total_dim == 3
    assert sorted(quot.degrees()) == [-17, -5, 0]
    assert verify_map(proj).passed
    # Q_1 then Q_2 on the generator class both die in the quotient
    d, v = quot.element(("g", ()))
    img = quot.act(1, d) @ v % 3
    img2 = quot.act(2, d - 5) @ img % 3
    assert not img2.any()


def test_projection_is_equivariant_and_surjective():
    m = b19_module()
    quot, proj = quotient(submodule_generated(m, [mono("tau2")])[1])
    assert verify_map(proj).passed
    assert quot.total_dim == 2  # xi1, xi1^2 survive
    assert set(quot.basis[4]) == {mono("xi1")}


def assert_matches_dense_quotient(inc: QModuleMap) -> int:
    """quotient(inc) equals the dense reference; returns how many whole-module matrices it shares."""
    whole = inc.target
    (quot, proj), (want, want_proj) = quotient(inc), dense_quotient(inc)
    assert quot.basis == want.basis and content_key(quot) == content_key(want)
    for i in quot.qs:
        assert quot.actions[i].keys() == want.actions[i].keys()
        assert all(np.array_equal(mat, want.actions[i][d]) for d, mat in quot.actions[i].items())
    assert proj.mats.keys() == want_proj.mats.keys()
    assert all(np.array_equal(mat, want_proj.mats[d]) for d, mat in proj.mats.items())
    missed = {d for d in whole.degrees() if not inc.source.dim(d)}
    shared = 0
    for i in whole.qs:
        for d, mat in whole.actions[i].items():
            if d in missed and d - whole.drop(i) in missed:
                assert quot.actions[i][d] is mat, (i, d)
                shared += 1
    return shared


@pytest.mark.parametrize("perm", [(0, 1, 2), (1, 0, 2), (2, 0, 1)])
def test_quotient_matches_the_dense_reference_on_si_ri(perm):
    split = si_ri_splitting(P3, perm, 220)
    # S_i lives at degrees 192-218 only, so the quotient keeps the rest of C
    assert 192 <= split.free_part.min_degree() and split.free_part.max_degree() <= 218
    assert assert_matches_dense_quotient(split.inclusion) > 50


def test_quotient_matches_the_dense_reference_on_the_weight_blocks():
    for k in range(28):
        b = brown_gitler(P3, 1, k).module
        inc = submodule_generated(b, [lab for d in b.degrees() for lab in b.basis[d] if length(lab) >= 3])[1]
        assert_matches_dense_quotient(inc)
        assert content_key(quotient(inc)[0]) == content_key(weight_restricted_C(P3, k))


def test_quotient_matches_the_dense_reference_on_a_sum_of_free_and_non_free():
    whole = direct_sum([free_module(P3, (0, 1, 2), 23, "a"), suspend(b19_module(), 40)])
    for labels in ([(0, ("a", ()))], [(1, mono("tau2"))], [(0, ("a", (0,))), (1, mono("xi1"))]):
        assert assert_matches_dense_quotient(submodule_generated(whole, labels)[1]) > 0


# -- content keys ----------------------------------------------------------------


def test_content_key_tells_apart_a_value_a_shape_and_a_degree():
    base = free_module(P3, (0,))
    flipped = QModule(P3, (0,), base.basis, {0: {0: 2 * base.actions[0][0]}})
    # one entry at flat index 0, as a 1 x 2 and as a 2 x 1 matrix
    wide = QModule(P3, (0,), {1: ("a", "b"), 0: ("c",)}, {0: {1: np.array([[1, 0]])}})
    tall = QModule(P3, (0,), {1: ("a",), 0: ("b", "c")}, {0: {1: np.array([[1], [0]])}})
    # the same 1 x 1 matrix out of degree 1 and out of degree 2, over the same dimensions
    line = {0: ("a",), 1: ("b",), 2: ("c",)}
    low = QModule(P3, (0,), line, {0: {1: np.array([[1]])}})
    high = QModule(P3, (0,), line, {0: {2: np.array([[1]])}})
    keys = [content_key(x) for x in (base, flipped, wide, tall, low, high)]
    assert len(set(keys)) == len(keys)


def test_equal_modules_built_apart_share_one_content_key():
    m = b19_module()
    monos = [mono(x) for x in ["xi1^3", "1", "xi1^2", "xi1", "tau2", "xi2"]]
    again = module_from_monomials(P3, A1, monos[:4], m.qs)
    again = module_from_monomials(P3, A1, monos[4:], m.qs, held=again)
    copied = QModule(P3, m.qs, m.basis, {i: {d: mat.copy() for d, mat in acts.items()} for i, acts in m.actions.items()})
    assert content_key(again) == content_key(copied) == content_key(m)
    # a stored zero block and no block are the same module
    sparse = direct_sum([trivial_module(P3, (0,), 1), trivial_module(P3, (0,), 0)])
    dense = QModule(P3, (0,), sparse.basis, {0: {1: np.zeros((1, 1), dtype=np.int64)}})
    assert content_key(sparse) == content_key(dense)


def test_restrict_qs_drops_action():
    m = b19_module()
    r = restrict_qs(m, (1, 2))
    assert r.qs == (1, 2)
    with pytest.raises(KeyError):
        r.act(0, 17)


# -- maps ----------------------------------------------------------------------


def test_verify_map_flags_non_equivariant_assignment():
    m = b19_module()
    # identity on tau2 and zero everywhere else is not E-linear
    mat = np.zeros((m.dim(17), m.dim(17)), dtype=np.int64)
    src = m.basis[17].index(mono("tau2"))
    mat[src, src] = 1
    bad = QModuleMap(m, m, {17: mat})
    report = verify_map(bad)
    assert not report.passed
    assert ("Q_0", 17) in report.failures


def test_verify_map_flags_a_one_sided_target_action():
    # only Q_0 f is stored: f(a) = x with Q_0 x = y, while Q_0 a = 0
    one = np.ones((1, 1), dtype=np.int64)
    source = QModule(P3, (0,), {1: ("a",)}, {})
    target = QModule(P3, (0,), {1: ("x",), 0: ("y",)}, {0: {1: one}})
    report = verify_map(QModuleMap(source, target, {1: one}))
    assert report.failures == [("Q_0", 1)]


def test_verify_map_flags_a_one_sided_source_action():
    # only f Q_0 is stored: Q_0 a = b and f(b) = y, while Q_0 x = 0
    one = np.ones((1, 1), dtype=np.int64)
    source = QModule(P3, (0,), {1: ("a",), 0: ("b",)}, {0: {1: one}})
    target = QModule(P3, (0,), {1: ("x",), 0: ("y",)}, {})
    report = verify_map(QModuleMap(source, target, {1: one, 0: one}))
    assert report.failures == [("Q_0", 1)]


def test_identity_and_composition():
    m = b19_module()
    ident = identity_map(m)
    assert verify_map(ident).passed
    both = compose(ident, ident)
    assert verify_map(both).passed

