"""Margolis homology, Kunneth, invertible classification, model construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgsplit import margolis
from bgsplit.browngitler import (
    bp_homology,
    brown_gitler,
    length_splitting,
    w_family,
)
from bgsplit.fplin import homology_basis, kernel_array
from bgsplit.margolis import (
    InvertibleClass,
    NotInvertible,
    classify_invertible,
    construct_model,
    freeness_check,
    margolis_bp2,
    margolis_homology,
    solve_degree_equations,
)
from bgsplit.monomials import PrimeContext
from bgsplit.qmodules import direct_sum, free_module, suspend, trivial_module
from factorization_oracles import w_family_truncated
from margolis_oracles import classes, kunneth_check, tensor_power_model, to_json, without_lowest_edge

P3 = PrimeContext(3)


def test_free_module_is_acyclic():
    free = free_module(P3, (1, 2))
    for i in (1, 2):
        assert margolis_homology(free, i).total_dim == 0
    assert freeness_check(free, (free.min_degree(), free.max_degree()))


def test_trivial_module_has_one_class_per_q():
    triv = trivial_module(P3, (0, 1, 2))
    for i in (0, 1, 2):
        h = margolis_homology(triv, i)
        assert h.dims() == {0: 1}
    assert not freeness_check(triv, (0, 0))


def test_w1_1_representatives():
    w = w_family(P3, "W1", 1)
    h1 = margolis_homology(w, 1)
    h2 = margolis_homology(w, 2)
    assert to_json(h1, "W1(1)") == {
        "module": "W1(1)",
        "Q": 1,
        "classes": [{"degree": 36, "representative": "xi1^9"}],
    }
    assert to_json(h2, "W1(1)") == {
        "module": "W1(1)",
        "Q": 2,
        "classes": [{"degree": 48, "representative": "xi2^3"}],
    }


def test_homology_bounded_by_kernel():
    b = brown_gitler(P3, 1, 9).module
    for i in b.qs:
        h = margolis_homology(b, i)
        for d in b.degrees():
            kernel_dim = kernel_array(b.act(i, d), 3).shape[0]
            assert h.dim(d) <= kernel_dim <= b.dim(d)


def _rank_route_cases():
    """(module, Q index, degree range) over the modules the pipeline classifies."""
    modules = [w_family(P3, which, n) for which in ("W1", "We", "Wo") for n in range(4)]
    modules.append(brown_gitler(P3, 1, 9).module)
    for which in ("W1", "We", "Wo"):
        for n in range(6):
            cls = classify_invertible(w_family(P3, which, n))
            modules.append(construct_model(P3, cls.pair, cls.a, cls.b))
            modules.append(tensor_power_model(P3, cls.pair, cls.a, cls.b))
    modules.append(construct_model(P3, (1, 2), 31, -1))
    for module in modules:
        for i in module.qs:
            yield module, i, None
    bp = bp_homology(P3, 2, 60).module
    for i in bp.qs:
        yield bp, i, (0, 60 - bp.drop(i))


def test_dimensions_from_ranks_match_representatives():
    checked = 0
    for module, i, window in _rank_route_cases():
        h = margolis_homology(module, i, window)
        reps_of = classes(h)
        lo, hi = h.degrees
        for d in range(lo, hi + 1):
            rows = reps_of.get(d)
            counted = 0 if rows is None else rows.shape[0]
            reps = homology_basis(module.act(i, d), module.act(i, d + module.drop(i)), 3)[0]
            assert h.dim(d) == counted == reps.shape[0], (i, d)
            checked += counted
    assert checked > 100


def test_w1_2_dimensions_classification_and_representative():
    w = w_family(P3, "W1", 2)
    h = margolis_homology(w, 2)
    assert h.dims() == {96: 1} and h.support() == [96] and h.total_dim == 1
    assert classify_invertible(w).margolis_degrees == (72, 96)
    assert freeness_check(w, (w.min_degree(), w.max_degree())) is False
    assert to_json(h, "a")["classes"] == [{"degree": 96, "representative": "xi2^6"}]


def test_margolis_bp2_small_degrees():
    for i in (0, 1, 2):
        rep = margolis_bp2(P3, i, 36)
        assert rep.passed
        assert rep.per_degree[0] == (1, 1)
        assert rep.per_degree[4] == (1, 1)
    # the polynomial part of the Q_0 answer: 1, xi1, xi1^2, xi1^3 | xi1^4, xi2
    rep0 = margolis_bp2(P3, 0, 20)
    supported = {d: v for d, v in rep0.per_degree.items() if v != (0, 0)}
    assert supported == {0: (1, 1), 4: (1, 1), 8: (1, 1), 12: (1, 1), 16: (2, 2), 20: (2, 2)}


def _doctored_closed_form(monkeypatch, degree, doctor):
    """Replace the closed-form list at one degree by doctor(list)."""
    closed_form = margolis._closed_form

    def doctored(ctx, i, max_degree):
        forms = closed_form(ctx, i, max_degree)
        forms[degree] = doctor(forms.get(degree, []))
        return forms

    monkeypatch.setattr(margolis, "_closed_form", doctored)


def test_margolis_bp2_fails_on_a_missing_class(monkeypatch):
    # degree 16 of the Q_0 answer holds xi1^4 and xi2
    _doctored_closed_form(monkeypatch, 16, lambda monos: monos[:-1])
    rep = margolis_bp2(P3, 0, 20)
    assert not rep.passed and rep.first_failing_degree == 16
    assert rep.per_degree[16] == (2, 1)
    assert any("homology dimension" in f for f in rep.failures)


def test_margolis_bp2_fails_on_dependent_classes(monkeypatch):
    _doctored_closed_form(monkeypatch, 16, lambda monos: [monos[0], monos[0]])
    rep = margolis_bp2(P3, 0, 20)
    assert not rep.passed and rep.first_failing_degree == 16
    assert rep.failures == ["degree 16: closed-form classes are dependent modulo boundaries"]


def test_margolis_bp2_ranks_its_classes_in_one_batch(monkeypatch):
    def refuse(*args):
        raise AssertionError("margolis_bp2 ranked a matrix alone")

    monkeypatch.setattr(margolis, "rank", refuse, raising=False)
    batches = []
    real = margolis.dense_ranks

    def counted(mats, p):
        batches.append(1)
        return real(mats, p)

    monkeypatch.setattr(margolis, "dense_ranks", counted)
    for i in (0, 1, 2):
        batches.clear()
        assert margolis_bp2(P3, i, 60).passed
        # one call ranks the Q_i matrices, one the closed-form stacks
        assert len(batches) == 2


def test_margolis_bp2_truncation_boundary():
    # xi1^9 is a cycle at degree 36 but bounds via tau3 one drop above, so
    # the height-9 truncation in the Q_2 answer shows up exactly there.
    rep = margolis_bp2(P3, 2, 36)
    assert rep.passed
    assert rep.per_degree[36] == (2, 2)


def test_homology_range_certification():
    module = bp_homology(P3, 2, 36).module
    with pytest.raises(ValueError, match="not certified"):
        margolis_homology(module, 2, (0, 36))
    certified = margolis_homology(module, 2, (0, 19))
    assert certified.dims() == {0: 1, 4: 1, 8: 1, 12: 1, 16: 2}


def test_classification_spot_values():
    w = w_family(P3, "W1", 1)
    cls = classify_invertible(w)
    assert (cls.a, cls.b) == (31, -1)
    assert cls.margolis_degrees == (36, 48)

    aug = construct_model(P3, (1, 2), 0, 1)
    assert aug.degrees() == [-22, -17, -5]
    cls = classify_invertible(aug)
    assert (cls.a, cls.b) == (0, 1)

    cls = classify_invertible(trivial_module(P3, (1, 2)))
    assert (cls.a, cls.b) == (0, 0)

    socle_quotient = construct_model(P3, (1, 2), -22, -1)
    cls = classify_invertible(socle_quotient)
    assert (cls.a, cls.b) == (-22, -1)
    assert cls.margolis_degrees == (-17, -5)


W_BLOCK_TABLE = {
    ("W1", 1): (31, -1, 36, 48),
    ("W1", 2): (62, -2, 72, 96),
    ("W1", 3): (88, -4, 108, 156),
    ("W1", 4): (119, -5, 144, 204),
    ("W1", 5): (150, -6, 180, 252),
    ("Wo", 1): (35, -1, 36, 52),
    ("Wo", 2): (70, -2, 72, 104),
    ("Wo", 3): (105, -3, 108, 156),
    ("Wo", 4): (140, -4, 144, 208),
    ("Wo", 5): (175, -5, 180, 260),
    ("We", 1): (143, -1, 144, 160),
    ("We", 2): (286, -2, 288, 320),
    ("We", 3): (429, -3, 432, 480),
    ("We", 4): (572, -4, 576, 640),
    ("We", 5): (715, -5, 720, 800),
}


@pytest.mark.parametrize("which,n", sorted(W_BLOCK_TABLE))
def test_w_block_classification(which, n):
    a, b, x, y = W_BLOCK_TABLE[(which, n)]
    block = w_family(P3, which, n)
    cls = classify_invertible(block)
    assert isinstance(cls, InvertibleClass)
    assert (cls.a, cls.b) == (a, b)
    assert cls.margolis_degrees == (x, y)
    # lower homology even and below the higher one, integral negative power,
    # and parity a = b mod 2 (odd pairs do occur, W1(1) is one)
    assert x % 2 == 0 and 0 < x < y
    assert b < 0
    assert (cls.a - cls.b) % 2 == 0
    j, h = block.qs
    model = construct_model(P3, (j, h), a, b)
    assert margolis_homology(model, j).support() == [x]
    assert margolis_homology(model, h).support() == [y]


def test_w_block_digit_representatives():
    reps = {
        ("W1", 3, 2): [{"degree": 156, "representative": "xi3^3"}],
        ("W1", 4, 2): [{"degree": 204, "representative": "xi2^3 xi3^3"}],
        ("Wo", 4, 2): [{"degree": 208, "representative": "xi3^4"}],
        ("We", 5, 2): [{"degree": 800, "representative": "xi4^5"}],
        ("W1", 3, 1): [{"degree": 108, "representative": "xi1^27"}],
        ("We", 2, 0): [{"degree": 288, "representative": "xi2^18"}],
    }
    for (which, n, i), want in reps.items():
        h = margolis_homology(w_family(P3, which, n), i)
        assert to_json(h, "w")["classes"] == want


def test_not_invertible_diagnostics():
    free = free_module(P3, (1, 2))
    verdict = classify_invertible(free)
    assert isinstance(verdict, NotInvertible)
    assert "dimension 0" in verdict.reason

    doubled = direct_sum([trivial_module(P3, (1, 2)), suspend(trivial_module(P3, (1, 2)), 4)])
    verdict = classify_invertible(doubled)
    assert isinstance(verdict, NotInvertible)
    assert "dimension 2" in verdict.reason


def test_degree_equations():
    assert solve_degree_equations(36, 48, 5, 17) == (31, -1)
    assert solve_degree_equations(0, 0, 5, 17) == (0, 0)
    assert solve_degree_equations(-5, -17, 5, 17) == (0, 1)
    # a degree difference off the lattice has no integral solution
    assert solve_degree_equations(0, 2, 5, 17) is None
    assert solve_degree_equations(0, 2, 1, 17) is None


def test_classification_input_validation():
    with pytest.raises(ValueError, match="exactly two"):
        classify_invertible(trivial_module(P3, (0, 1, 2)))
    bounded = w_family_truncated(P3, "W1", 60)
    with pytest.raises(ValueError, match="complete"):
        classify_invertible(bounded)


def test_construct_model_examples():
    point = construct_model(P3, (1, 2), 0, 0)
    assert point.total_dim == 1 and point.degrees() == [0]

    shifted_socle = construct_model(P3, (1, 2), 0, -1)
    assert shifted_socle.degrees() == [5, 17, 22]
    assert margolis_homology(shifted_socle, 1).support() == [5]
    assert margolis_homology(shifted_socle, 2).support() == [17]

    square = construct_model(P3, (1, 2), 0, 2)
    assert margolis_homology(square, 1).support() == [-10]
    assert margolis_homology(square, 2).support() == [-34]

    odd_shift = construct_model(P3, (1, 2), 31, -1)
    assert margolis_homology(odd_shift, 1).support() == [36]
    assert margolis_homology(odd_shift, 2).support() == [48]


@settings(max_examples=50, deadline=None)
@given(
    pair=st.sampled_from([(0, 1), (0, 2), (1, 2)]),
    b=st.integers(min_value=-8, max_value=8),
    halfshift=st.integers(min_value=-8, max_value=8),
)
def test_model_classification_roundtrip(pair, b, halfshift):
    a = b + 2 * halfshift
    model = construct_model(P3, pair, a, b)
    assert model.total_dim == 2 * abs(b) + 1
    cls = classify_invertible(model)
    assert isinstance(cls, InvertibleClass)
    assert (cls.a, cls.b, cls.pair) == (a, b, pair)


@pytest.mark.parametrize("p", [3, 5])
def test_zigzag_model_matches_the_tensor_power(p):
    ctx = PrimeContext(p)
    for pair in ((0, 1), (0, 2), (1, 2)):
        for b in range(-4, 5):
            for a in (-7, 0, 3, 40):
                model = construct_model(ctx, pair, a, b)
                oracle = tensor_power_model(ctx, pair, a, b)
                assert model.total_dim == 2 * abs(b) + 1
                assert oracle.total_dim == 3 ** abs(b)
                # the two differ by a free summand, made of rank-one free modules of dimension 4
                assert (oracle.total_dim - model.total_dim) % 4 == 0
                for i in pair:
                    got = margolis_homology(model, i).dims()
                    assert got == margolis_homology(oracle, i).dims(), (pair, a, b, i)
                    assert got == {a - b * ctx.q_degree(i): 1}


def test_model_without_a_q_h_edge_is_not_invertible():
    for b in (-6, -1, 1, 3):
        broken = without_lowest_edge(construct_model(P3, (1, 2), 31, b), 2)
        assert margolis_homology(broken, 1).total_dim == 1
        assert margolis_homology(broken, 2).total_dim == 3
        verdict = classify_invertible(broken)
        assert isinstance(verdict, NotInvertible)
        assert "Q_2-homology 3" in verdict.reason


def test_kunneth_reports():
    aug = construct_model(P3, (1, 2), 0, 1)
    socle_quotient = construct_model(P3, (1, 2), 22, -1)
    for i in (1, 2):
        rep = kunneth_check(aug, socle_quotient, i)
        assert rep.passed
        assert rep.per_degree == {22: (1, 1)}
    rep = kunneth_check(trivial_module(P3, (1, 2)), aug, 1)
    assert rep.passed and rep.per_degree == {-5: (1, 1)}
    rep = kunneth_check(free_module(P3, (1, 2)), aug, 2)
    assert rep.passed and rep.per_degree == {}
    rep = kunneth_check(socle_quotient, socle_quotient, 1)
    assert rep.passed and rep.per_degree == {54: (1, 1)}


def test_kunneth_requires_complete_modules():
    bounded = bp_homology(P3, 2, 20).module
    with pytest.raises(ValueError, match="complete"):
        kunneth_check(bounded, trivial_module(P3, (0, 1, 2)), 0)


def test_freeness_of_length_parts():
    split = length_splitting(P3, 60)
    # below the first length-3 monomial the complement is zero, which is free
    assert split.free_part.total_dim == 0
    assert freeness_check(split.free_part, (0, 60))
    # the range through which every Q_i's image is visible, as the CLI reads it
    assert not freeness_check(split.reduced_part, (0, 60 - P3.q_degree(2)))


def test_json_stability():
    w = w_family(P3, "W1", 2)
    h = margolis_homology(w, 2)
    assert to_json(h, "a") == to_json(h, "a")
    assert to_json(h, "a")["classes"] == [{"degree": 96, "representative": "xi2^6"}]
