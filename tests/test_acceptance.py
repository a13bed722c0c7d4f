"""Acceptance gate: one test per headline criterion, exact tolerances.

Each test prints a single pass line with its runtime; run with -s to see
them, or read the per-test verdicts from pytest -v.
"""

from __future__ import annotations

import time

from bgsplit.browngitler import (
    assemble_bp_splitting,
    bp_homology,
    length_splitting,
    theta_report,
    w_family,
    weight_restricted_C,
)
from bgsplit.ext.compare import dual_module, obstruction_report, propiso_check
from bgsplit.ext.koszul import (
    ext_koszul,
    even_concentration_check,
    v_injectivity,
)
from bgsplit.ext.poly import gr_module, projective_dimension
from bgsplit.ext.resolution import ext_general
from bgsplit.margolis import (
    InvertibleClass,
    classify_invertible,
    construct_model,
    margolis_bp2,
    margolis_homology,
)
from bgsplit.monomials import (
    AlgebraSpec,
    PrimeContext,
    degree,
    enumerate_by_degree,
    length,
    weight,
)
from bgsplit.qmodules import (
    QModule,
    free_module,
    restrict_qs,
    suspend,
    tensor,
    trivial_module,
)
from margolis_oracles import kunneth_check
from monomial_oracles import times, v_monomials

P3 = PrimeContext(3)
P5 = PrimeContext(5)
FULL = (0, 1, 2)


def _ok(n: int, detail: str, t0: float) -> None:
    print(f"criterion {n} PASS: {detail} ({time.time() - t0:.1f}s)")


def test_criterion_1_theta_isomorphisms():
    t0 = time.time()
    assembly3 = assemble_bp_splitting(P3, 2, 120)
    assert assembly3.passed and assembly3.gate.bijective
    for k in range(28):
        f, rep = theta_report(P3, 1, k)
        assert rep.passed, f"theta_{k} fails at p = 3"
        for d in f.target.degrees():
            assert all(weight(P3, x) == 3 * k for x in f.target.basis[d])
    assembly5 = assemble_bp_splitting(P5, 2, 100)
    assert assembly5.passed and assembly5.gate.bijective
    for k in range(11):
        assert theta_report(P5, 1, k)[1].passed, f"theta_{k} fails at p = 5"
    _ok(
        1,
        f"theta bijective, weight-exact, equivariant for k <= 27 at p = 3 "
        f"(assembly through t = 120, {assembly3.block_count} blocks) and "
        f"k <= 10 at p = 5 (t = 100)",
        t0,
    )


def test_criterion_2_margolis_homology_of_bp2():
    t0 = time.time()
    for i in (0, 1, 2):
        rep = margolis_bp2(P3, i, 120)
        assert rep.passed, f"Q_{i} homology deviates from the closed form"
        assert rep.first_failing_degree is None
    _ok(2, "Q_0, Q_1, Q_2 homology of H matches the closed-form bases, t <= 120", t0)


def test_criterion_3_w_block_classification():
    t0 = time.time()
    for fam in ("W1", "We", "Wo"):
        for n in range(6):
            block = w_family(P3, fam, n)
            cls = classify_invertible(block)
            assert isinstance(cls, InvertibleClass), f"{fam}({n}) not invertible"
            low, high = sorted(cls.margolis_degrees)
            # a matches b in parity; the even grading lives on the lower
            # Margolis degree (W1(1) -> (31, -1) has odd a)
            assert (cls.a - cls.b) % 2 == 0 and low % 2 == 0
            if n >= 1:
                assert cls.b < 0
            model = construct_model(P3, cls.pair, cls.a, cls.b)
            for j, want in zip(cls.pair, cls.margolis_degrees):
                assert margolis_homology(model, j).dims() == {want: 1}
    spot = classify_invertible(w_family(P3, "W1", 1))
    assert (spot.a, spot.b) == (31, -1)
    _ok(3, "W1, We, Wo blocks classified and reproduced on models for n <= 5", t0)


def test_criterion_4_even_concentration():
    t0 = time.time()
    cbar = length_splitting(P3, 120).reduced_part
    for pair in ((0, 1), (0, 2), (1, 2)):
        # s is exhausted within t <= 120: the chart degree of a class is
        # at least s times the smallest Q drop in the pair
        s_cap = 120 // min(P3.q_degree(i) for i in pair)
        rep = even_concentration_check(restrict_qs(cbar, pair), 0, s_cap, 120)
        assert rep.passed, f"odd classes over pair {pair}: {rep.violations[:4]}"
    _ok(4, "Ext over all three pairs even-concentrated from s = 0, t <= 120", t0)


def test_criterion_5_v_injectivity():
    t0 = time.time()
    checked = 0
    for k in range(28):
        ck = weight_restricted_C(P3, k)
        for i in (0, 1, 2):
            rep = v_injectivity(ck, i, 10, 120)
            assert rep.passed, f"v_{i} has kernel on Ext of C_{k}: {rep.kernel_at[:4]}"
            checked += rep.checked_classes
    _ok(5, f"v_0, v_1, v_2 injective on {checked} classes, k <= 27, s <= 10, t <= 120", t0)


def test_criterion_6_vanishing_line():
    t0 = time.time()
    longest = 0
    for k in range(28):
        ck = weight_restricted_C(P3, k)
        pres = gr_module(ck, ck.max_degree() + 24)
        rep = projective_dimension(pres)
        assert rep.length <= 1, f"gr C_{k} resolves in {rep.length} stages"
        assert rep.socle_empty, f"gr C_{k} has socle at {rep.socle_bidegrees[:4]}"
        longest = max(longest, rep.length)
    _ok(6, f"gr C_k resolutions have length <= {longest} and empty socle, k <= 27", t0)


def test_criterion_7_e2_comparison_and_obstructions():
    t0 = time.time()
    columns = 0
    for k in range(10):
        for m in range(10):
            rep = propiso_check(P3, k, m)
            assert rep.passed, f"columns differ at ({k}, {m}): t in {rep.mismatches[:4]}"
            columns += len(rep.column_rows())
    assert columns == 23
    ob = obstruction_report(P3, 9)
    assert ob.all_matched
    assert ob.message == "theta_9 survives at E_2-comparison level"
    _ok(
        7,
        f"odd exterior columns equal the u = 1 line on {columns} columns for "
        f"k, m <= 9; obstruction report clean through t = {ob.t_hi}",
        t0,
    )


def test_criterion_8_property_suites():
    t0 = time.time()
    c9 = weight_restricted_C(P3, 9)
    c27 = weight_restricted_C(P3, 27)
    constructed = [
        bp_homology(P3, 2, 60).module,
        bp_homology(P5, 2, 40).module,
        c9,
        c27,
        w_family(P3, "W1", 2),
        w_family(P3, "We", 1),
        w_family(P3, "Wo", 2),
        free_module(P3, FULL, 20),
        tensor(dual_module(c9), suspend(c9, 36)),
    ]
    for m in constructed:
        QModule(m.ctx, m.qs, m.basis, m.actions, truncated_above=m.truncated_above)

    monos = enumerate_by_degree(P3, AlgebraSpec(0), 24)
    products = 0
    for a in monos:
        for b in monos:
            ab = times(a, b)
            if ab is None:
                continue
            assert degree(P3, ab) == degree(P3, a) + degree(P3, b)
            assert weight(P3, ab) == weight(P3, a) + weight(P3, b)
            assert length(ab) == length(a) + length(b)
            products += 1
    assert products > 100

    for i in (0, 1, 2):
        assert kunneth_check(c9, weight_restricted_C(P3, 3), i).passed
        assert kunneth_check(c9, c9, i).passed

    unit = trivial_module(P3, FULL)
    for module in (c9, free_module(P3, FULL, 10)):
        assert ext_general(unit, module, 4, 40).dims == {
            bd: v for bd, v in ext_koszul(module, 4, 40).dims.items() if bd[0] <= 4
        }

    ext = ext_koszul(unit, 6, 120)
    drops = [P3.q_degree(i) for i in FULL]
    expected = {}
    for s in range(7):
        for alpha in v_monomials(FULL, s):
            t = sum(a * d for a, d in zip(alpha, drops))
            if t <= 120:
                expected[(s, t)] = expected.get((s, t), 0) + 1
    assert ext.dims == expected
    _ok(
        8,
        f"Q relations on {len(constructed)} modules, grading additivity on "
        f"{products} products, Kunneth, resolution/Koszul agreement, and the "
        f"closed-form unit Ext",
        t0,
    )
