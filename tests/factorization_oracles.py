"""The tensor factorizations of H_*BP<2> over the pair algebras, as a test oracle.

Over E(Q_1,Q_2) and over E(Q_0,Q_2) the homology of BP<2> factors as a
W family (or two) tensored with a Q-trivial truncated polynomial algebra.
No command checks these factorizations; the tests do, through degree 220,
with truncated tensor products built by the Kronecker reference in
`qmodule_oracles` and monomial products with Koszul signs from
`monomial_oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from bgsplit.browngitler import _family_runs, bp_homology
from bgsplit.monomials import AlgebraSpec, Monomial, PrimeContext, degree, format_monomial, products
from bgsplit.qmodules import QModule, QModuleMap, module_from_monomials, restrict_qs, verify_map
from monomial_oracles import times_signed
from qmodule_oracles import truncated_tensor


def w_family_truncated(ctx: PrimeContext, which: str, max_degree: int) -> QModule:
    """Degreewise truncation of the whole family (all weights at once)."""
    qs, runs = _family_runs(ctx, which)
    monos = products(ctx, runs, degree, max_degree)
    return module_from_monomials(ctx, AlgebraSpec(2), monos, qs, truncated_above=max_degree)


@dataclass
class FactorizationReport:
    which: str
    max_degree: int
    per_degree: dict[int, tuple[int, int]]
    bijective: bool
    equivariant: bool
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.bijective and self.equivariant


def truncated_polynomial_complement(ctx: PrimeContext, which: str, max_degree: int) -> list[Monomial]:
    """Monomial basis of the Q-trivial tensor complement of a W family."""
    p = ctx.p
    if which == "E12":
        # xi_1 below p^2, xi_2 .. xi_11 below p
        caps = [p * p - 1] + [p - 1] * 10
    else:
        # xi_1 and xi_2 below p^2
        caps = [p * p - 1] * 2
    xis = [(Monomial(((a, 1),), ()), cap) for a, cap in enumerate(caps, 1)]
    return products(ctx, [xis], degree, max_degree)


def verify_tensor_factorization(ctx: PrimeContext, which: str, max_degree: int) -> FactorizationReport:
    """Check H_*BP<2> = (W part) (x) (Q-trivial truncated polynomial part).

    E12 factors over E(Q_1,Q_2) as W1 (x) T_2(xi_1) (x) T_1(xi_2, ...);
    E02 factors over E(Q_0,Q_2) as We (x) Wo (x) T_2(xi_1, xi_2).  The
    multiplication map from the truncated tensor product is matched
    monomial by monomial (with Koszul signs from tau reordering) and must
    be a degreewise bijection commuting with the pair of primitives.
    """
    if which not in ("E12", "E02"):
        raise ValueError("factorization selector must be E12 or E02")
    pair = (1, 2) if which == "E12" else (0, 2)
    H = restrict_qs(bp_homology(ctx, 2, max_degree).module, pair)
    spec = AlgebraSpec(2)
    t_monos = truncated_polynomial_complement(ctx, which, max_degree)
    t_mod = module_from_monomials(ctx, spec, t_monos, pair)
    if which == "E12":
        w = w_family_truncated(ctx, "W1", max_degree)
        big = truncated_tensor(w, t_mod, max_degree)

        def product(label) -> tuple[int, Monomial] | None:
            return times_signed(label[0], label[1])
    else:
        we = w_family_truncated(ctx, "We", max_degree)
        wo = w_family_truncated(ctx, "Wo", max_degree)
        big = truncated_tensor(truncated_tensor(we, wo, max_degree), t_mod, max_degree)

        def product(label) -> tuple[int, Monomial] | None:
            inner = times_signed(label[0][0], label[0][1])
            if inner is None:
                return None
            sign, m = inner
            outer = times_signed(m, label[1])
            if outer is None:
                return None
            return sign * outer[0], outer[1]

    failures: list[str] = []
    per_degree: dict[int, tuple[int, int]] = {}
    bijective = True
    mats: dict[int, np.ndarray] = {}
    for d in range(max_degree + 1):
        rows, cols = H.dim(d), big.dim(d)
        per_degree[d] = (cols, rows)
        if rows != cols:
            bijective = False
            if len(failures) < 5:
                failures.append(f"dimension mismatch at degree {d}: {cols} vs {rows}")
    for d in big.degrees():
        mat = np.zeros((H.dim(d), big.dim(d)), dtype=np.int64)
        hit: set[int] = set()
        for col, label in enumerate(big.basis[d]):
            res = product(label)
            if res is None:
                bijective = False
                failures.append(f"zero product at degree {d}")
                continue
            sign, mono = res
            try:
                row = H.basis[d].index(mono)
            except ValueError:
                bijective = False
                failures.append(f"product {format_monomial(mono)} missing from target")
                continue
            if row in hit:
                bijective = False
                failures.append(f"monomial {format_monomial(mono)} hit twice")
            hit.add(row)
            mat[row, col] = sign % ctx.p
        mats[d] = mat
    phi = QModuleMap(big, H, mats)
    eq = verify_map(phi)
    if not eq.passed:
        failures.extend(f"Q-commutation fails: {q} at degree {d}" for q, d in eq.failures[:5])
    return FactorizationReport(which, max_degree, per_degree, bijective, eq.passed, failures)
