"""Brown-Gitler blocks, theta maps, assembly, and the further splittings."""

from __future__ import annotations

import numpy as np
import pytest

import bgsplit.browngitler as browngitler
from bgsplit.browngitler import (
    assemble_bp_splitting,
    bp_homology,
    brown_gitler,
    length_splitting,
    si_ri_splitting,
    theta,
    theta_report,
    verify_tensor_factorization,
    w_family,
    w_family_truncated,
    weight_block,
    weight_restricted_C,
)
from bgsplit.monomials import (
    Monomial,
    PrimeContext,
    format_monomial,
    parse_monomial,
    weight,
)
from bgsplit.qmodules import verify_map

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
