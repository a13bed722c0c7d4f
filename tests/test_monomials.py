"""Monomial grading, enumeration order, and the text form."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit.monomials import (
    UNIT,
    AlgebraSpec,
    Monomial,
    PrimeContext,
    degree,
    enumerate_by_degree,
    enumerate_by_weight,
    exponent_vectors,
    format_monomial,
    length,
    sort_key,
    weight,
)
from monomial_oracles import parse_monomial, times

P3 = PrimeContext(3)
P5 = PrimeContext(5)


def test_context_rejects_non_odd_primes():
    for bad in (1, 2, 4, 9):
        with pytest.raises(ValueError):
            PrimeContext(bad)


def test_generator_gradings_at_p3():
    assert degree(P3, Monomial.make({1: 1})) == 4
    assert degree(P3, Monomial.make({2: 1})) == 16
    assert degree(P3, Monomial.make({3: 1})) == 52
    assert degree(P3, Monomial.make((), [2])) == 17
    assert degree(P3, Monomial.make((), [3])) == 53
    assert weight(P3, Monomial.make({1: 1})) == 3
    assert weight(P3, Monomial.make((), [2])) == 9
    assert degree(P3, UNIT) == 0 and weight(P3, UNIT) == 0


def test_mixed_monomial_gradings_at_p5():
    m = Monomial.make({1: 2}, [3])
    assert degree(P5, m) == 2 * 8 + 249
    assert weight(P5, m) == 2 * 5 + 125
    assert length(m) == 1
    assert length(Monomial.make((), [0, 1, 4])) == 3


def test_repeated_tau_is_rejected():
    with pytest.raises(ValueError):
        Monomial.make((), [2, 2])
    assert times(Monomial.make((), [2]), Monomial.make((), [2])) is None


def test_make_reads_a_one_shot_tau_iterable_once():
    assert Monomial.make({1: 2}, iter([3])) == Monomial.make({1: 2}, (3,))
    assert Monomial.make({}, (t for t in (5, 2))) == Monomial.make({}, (2, 5))
    with pytest.raises(ValueError, match="squares to zero"):
        Monomial.make({}, iter([3, 3]))


def test_times_merges_exponents():
    a = Monomial.make({1: 2}, [2])
    b = Monomial.make({1: 1, 3: 1}, [4])
    ab = times(a, b)
    assert ab == Monomial.make({1: 3, 3: 1}, [2, 4])


def test_enumerate_by_degree_small_windows():
    assert enumerate_by_degree(P3, AlgebraSpec(2), 4) == [UNIT, Monomial.make({1: 1})]
    got = enumerate_by_degree(P3, AlgebraSpec(1), 17)
    expect = [
        UNIT,
        Monomial.make({1: 1}),
        Monomial.make({1: 2}),
        Monomial.make({1: 3}),
        Monomial.make({2: 1}),
        Monomial.make({1: 4}),
        Monomial.make((), [2]),
    ]
    assert got == expect
    assert enumerate_by_degree(P3, AlgebraSpec(-1), 0) == [UNIT]
    assert enumerate_by_degree(P3, AlgebraSpec(2), -1) == []


def test_enumerate_by_degree_sees_low_taus():
    got = enumerate_by_degree(P3, AlgebraSpec(-1), 1)
    assert got == [UNIT, Monomial.make((), [0])]


def test_enumerate_by_weight_examples():
    got = enumerate_by_weight(P3, AlgebraSpec(1), 9)
    assert got == [
        Monomial.make({1: 3}),
        Monomial.make({2: 1}),
        Monomial.make((), [2]),
    ]
    block = enumerate_by_weight(P3, AlgebraSpec(2), 27)
    assert [format_monomial(m) for m in block] == [
        "xi1^9",
        "xi1^6 xi2",
        "xi1^3 xi2^2",
        "xi2^3",
        "xi3",
        "tau3",
    ]
    assert enumerate_by_weight(P3, AlgebraSpec(2), 0) == [UNIT]
    assert enumerate_by_weight(P5, AlgebraSpec(1), 5) == [Monomial.make({1: 1})]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(min_value=-1, max_value=2), st.integers(min_value=0, max_value=30))
def test_degree_enumeration_is_prefix_closed(p, i, bound):
    ctx = PrimeContext(p)
    spec = AlgebraSpec(i)
    small = enumerate_by_degree(ctx, spec, bound)
    big = enumerate_by_degree(ctx, spec, bound + 7)
    filtered = [m for m in big if degree(ctx, m) <= bound]
    assert small == filtered
    keys = [sort_key(ctx, m) for m in small]
    assert keys == sorted(keys)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(min_value=-1, max_value=2), st.integers(min_value=0, max_value=40))
def test_weight_enumeration_is_the_exact_weight_slice(p, i, w):
    # every generator's degree is below twice its weight, so degree 2w
    # reaches every monomial of weight w
    ctx = PrimeContext(p)
    spec = AlgebraSpec(i)
    expected = [m for m in enumerate_by_degree(ctx, spec, 2 * w) if weight(ctx, m) == w]
    assert enumerate_by_weight(ctx, spec, w) == expected


def _reference_vectors(costs, budget, caps, exact):
    """Brute force over the box each cap (or the budget) allows, in lex order."""
    box = [range((budget // c if cap is None else cap) + 1) for c, cap in zip(costs, caps)]
    out = []
    for e in product(*box):
        total = sum(k * c for k, c in zip(e, costs))
        if total == budget or (total < budget and not exact):
            out.append(e)
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=7), st.none() | st.integers(min_value=0, max_value=3)),
        max_size=4,
    ),
    st.integers(min_value=-3, max_value=20),
    st.booleans(),
)
def test_exponent_vectors_match_brute_force(positions, budget, exact):
    costs = [c for c, _ in positions]
    caps = [cap for _, cap in positions]
    expected = _reference_vectors(costs, budget, caps, exact) if budget >= 0 else []
    assert exponent_vectors(costs, budget, caps, exact) == expected
    if all(cap is None for cap in caps):
        assert exponent_vectors(costs, budget, exact=exact) == expected


def test_exponent_vector_edge_cases():
    assert exponent_vectors((), 0) == [()]
    assert exponent_vectors((), 0, exact=True) == [()]
    assert exponent_vectors((), 3) == [()]
    assert exponent_vectors((), 3, exact=True) == []
    assert exponent_vectors((2, 1), -1) == []
    assert exponent_vectors((2, 1), 0, exact=True) == [(0, 0)]
    assert exponent_vectors((2, 1), 0) == [(0, 0)]
    assert exponent_vectors((2,), 3, exact=True) == []
    assert exponent_vectors((2, 2), 3) == [(0, 0), (0, 1), (1, 0)]
    assert exponent_vectors((1, 1), 2, [None, 1], exact=True) == [(1, 1), (2, 0)]
    assert exponent_vectors((3, 1), 4, [1, 0]) == [(0, 0), (1, 0)]


@st.composite
def monomial_pairs(draw):
    p = draw(st.sampled_from([3, 5]))
    ctx = PrimeContext(p)

    def one(taus_from):
        xi = {
            a: draw(st.integers(min_value=0, max_value=3))
            for a in draw(st.sets(st.integers(min_value=1, max_value=4), max_size=3))
        }
        taus = draw(st.sets(st.sampled_from(taus_from), max_size=len(taus_from)))
        return Monomial.make(xi, taus)

    return ctx, one([0, 2, 4]), one([1, 3, 5])


@settings(max_examples=100, deadline=None)
@given(monomial_pairs())
def test_gradings_are_additive(data):
    ctx, a, b = data
    ab = times(a, b)
    assert ab is not None
    assert degree(ctx, ab) == degree(ctx, a) + degree(ctx, b)
    assert weight(ctx, ab) == weight(ctx, a) + weight(ctx, b)
    assert length(ab) == length(a) + length(b)


def test_weights_divisible_by_p_above_bottom_truncation():
    for m in enumerate_by_degree(P3, AlgebraSpec(0), 60):
        assert weight(P3, m) % 3 == 0 or m.is_unit


def test_text_round_trip():
    mono = Monomial.make({1: 3, 2: 1}, [2, 5])
    assert format_monomial(mono) == "xi1^3 xi2 tau2 tau5"
    assert parse_monomial("xi1^3 xi2 tau2 tau5") == mono
    assert parse_monomial("1") == UNIT
    assert format_monomial(UNIT) == "1"
    for m in enumerate_by_degree(P3, AlgebraSpec(-1), 20):
        assert parse_monomial(format_monomial(m)) == m


def test_parse_rejects_malformed_text():
    for bad in ["xi0", "tau2^2", "zeta3", "xi1^", "xi-1"]:
        with pytest.raises(ValueError):
            parse_monomial(bad)
