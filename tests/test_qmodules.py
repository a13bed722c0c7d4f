"""Module constructors over E(Q_0,Q_1,Q_2): actions, sums, tensors, quotients."""

from __future__ import annotations

import numpy as np
import pytest

from bgsplit.monomials import AlgebraSpec, Monomial, PrimeContext, parse_monomial
from bgsplit.qmodules import (
    ClosureError,
    QModuleMap,
    compose,
    direct_sum,
    free_module,
    identity_map,
    module_from_monomials,
    q_action_on_monomial,
    quotient,
    restrict_qs,
    submodule_generated,
    suspend,
    tensor,
    trivial_module,
    verify_map,
)

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


def test_relation_validation_rejects_corrupt_actions():
    # Flipping the sign of Q_1 on the Q_2-line of a free module breaks
    # anticommutativity, which construction must catch.
    free = free_module(P3, (1, 2))
    acts = {i: dict(free.actions[i]) for i in free.qs}
    bad = acts[1][-17].copy()
    bad[0, 0] = (-bad[0, 0]) % 3
    acts[1][-17] = bad
    from bgsplit.qmodules import QModule

    with pytest.raises(ValueError, match="Q_1Q_2"):
        QModule(P3, free.qs, free.basis, acts)


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


def test_tensor_truncation_marks_certified_range():
    m = b19_module()
    t = tensor(m, m, max_degree=20)
    assert t.truncated_above == 20
    assert t.max_degree() <= 20
    full = tensor(m, m)
    for d in t.degrees():
        assert t.dim(d) == full.dim(d)


def test_tensor_with_unit_is_isomorphic():
    m = b19_module()
    unit = trivial_module(P3, (0, 1, 2), degree=0)
    t = tensor(unit, m)
    assert [t.dim(d) for d in m.degrees()] == [m.dim(d) for d in m.degrees()]
    for i in m.qs:
        for d in m.degrees():
            assert np.array_equal(t.act(i, d), m.act(i, d))


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


def test_quotient_by_nothing_and_by_everything():
    m = b19_module()
    q0, proj0 = quotient(m, [])
    assert q0.total_dim == m.total_dim
    qall, projall = quotient(m, [mono(s) for s in ["1", "xi1", "xi1^2", "xi1^3", "xi2", "tau2"]])
    assert qall.total_dim == 0


def test_quotient_of_free_by_socle_is_three_dimensional():
    free = free_module(P3, (1, 2))
    socle_label = ("g", (1, 2))
    quot, proj = quotient(free, [socle_label])
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
    quot, proj = quotient(m, [mono("tau2")])
    assert verify_map(proj).passed
    assert quot.total_dim == 2  # xi1, xi1^2 survive
    assert set(quot.basis[4]) == {mono("xi1")}


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


def test_identity_and_composition():
    m = b19_module()
    ident = identity_map(m)
    assert verify_map(ident).passed
    both = compose(ident, ident)
    assert verify_map(both).passed

