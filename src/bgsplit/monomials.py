"""Monomials in the dual Steenrod algebra at an odd prime.

A monomial is a finite product of polynomial generators xi_a (a >= 1) and
exterior generators tau_b (b >= 0) with

    degree(xi_a) = 2(p^a - 1)      weight(xi_a) = p^a
    degree(tau_b) = 2 p^b - 1      weight(tau_b) = p^b

Weight is additive under multiplication, and length counts the tau
factors.  An AlgebraSpec selects the quotient Hopf algebroid
F_p[xi_1, xi_2, ...] (x) E(tau_{i+1}, tau_{i+2}, ...), the homology of the
(i)-truncated Brown-Peterson spectrum; i = -1 keeps every tau.

Every basis in the package is enumerated by `exponent_vectors`: all
exponent vectors e >= 0 with sum e_j c_j within a budget, or equal to
it, under optional caps.  `products` reads those vectors as products of
factor powers, which gives the monomial bases by degree and by weight
here, the W families in `browngitler` and the Margolis closed forms in
`margolis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, takewhile
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .fplin import is_prime

__all__ = [
    "PrimeContext",
    "AlgebraSpec",
    "Monomial",
    "UNIT",
    "degree",
    "weight",
    "length",
    "exponent_vectors",
    "products",
    "enumerate_by_degree",
    "enumerate_by_weight",
    "sort_key",
    "format_monomial",
]


@dataclass(frozen=True)
class PrimeContext:
    """Ambient odd prime; q = 2(p-1) is the degree of the bottom xi."""

    p: int

    def __post_init__(self) -> None:
        if self.p < 3 or not is_prime(self.p):
            raise ValueError("p must be an odd prime")

    @property
    def q(self) -> int:
        return 2 * (self.p - 1)

    def q_degree(self, i: int) -> int:
        """Degree drop of the Milnor primitive Q_i."""
        return 2 * self.p**i - 1


@dataclass(frozen=True)
class AlgebraSpec:
    """Quotient algebra selector: tau_b survives only for b >= i + 1."""

    i: int

    def __post_init__(self) -> None:
        if self.i < -1:
            raise ValueError("algebra index must be at least -1")

    @property
    def min_tau(self) -> int:
        return self.i + 1


class Monomial(NamedTuple):
    """A product of xi and tau generators in normal form.

    `xi` maps generator index a >= 1 to a positive exponent, stored as a
    sorted tuple of (index, exponent) pairs.  `tau` is the strictly
    increasing tuple of exterior indices; repeating one kills the monomial,
    so no Monomial ever holds a repeat.  A named tuple, so hashing and
    equality run in C; code that builds one directly keeps the normal form.
    """

    xi: tuple[tuple[int, int], ...]
    tau: tuple[int, ...]

    @staticmethod
    def make(xi: Mapping[int, int] | Iterable[tuple[int, int]] = (), tau: Iterable[int] = ()) -> "Monomial":
        pairs = dict(xi)
        clean = []
        for a, e in sorted(pairs.items()):
            if a < 1:
                raise ValueError(f"xi index {a} out of range")
            if e < 0:
                raise ValueError(f"negative exponent on xi{a}")
            if e:
                clean.append((a, e))
        tau = tuple(tau)
        taus = sorted(set(tau))
        if taus and taus[0] < 0:
            raise ValueError("tau index out of range")
        if len(taus) != len(tau):
            raise ValueError("repeated tau factor squares to zero")
        return Monomial(tuple(clean), tuple(taus))

    @property
    def is_unit(self) -> bool:
        return not self.xi and not self.tau


UNIT = Monomial((), ())


def degree(ctx: PrimeContext, m: Monomial) -> int:
    p = ctx.p
    d = 0
    for a, e in m.xi:
        d += 2 * e * (p**a - 1)
    for b in m.tau:
        d += 2 * p**b - 1
    return d


def weight(ctx: PrimeContext, m: Monomial) -> int:
    p = ctx.p
    w = 0
    for a, e in m.xi:
        w += e * p**a
    for b in m.tau:
        w += p**b
    return w


def length(m: Monomial) -> int:
    return len(m.tau)


def sort_key(ctx: PrimeContext, m: Monomial) -> tuple:
    """Canonical total order: degree, then weight, then exponent lex."""
    return (degree(ctx, m), weight(ctx, m), m.xi, m.tau)


def exponent_vectors(
    costs: Sequence[int],
    budget: int,
    caps: Sequence[int | None] | None = None,
    exact: bool = False,
) -> list[tuple[int, ...]]:
    """Every e >= 0 with sum e_j costs[j] <= budget, or = budget if `exact`.

    Costs are positive; caps[j] bounds e_j (None leaves it unbounded).  The
    vectors come in lexicographic order.  A branch stops as soon as the
    budget left is below every remaining cost, and in exact mode as soon
    as it is not a multiple of their gcd; the last position is solved
    directly.  Passing the costs in descending order prunes the most.
    """
    n = len(costs)
    if budget < 0:
        return []
    caps = [None] * n if caps is None else list(caps)
    low = [budget + 1] * (n + 1)
    div = [0] * (n + 1)
    for j in reversed(range(n)):
        low[j] = min(costs[j], low[j + 1])
        div[j] = gcd(costs[j], div[j + 1])
    out: list[tuple[int, ...]] = []

    def rec(j: int, left: int, head: tuple[int, ...]) -> None:
        if left < low[j]:
            if left == 0 or not exact:
                out.append(head + (0,) * (n - j))
            return
        c, cap = costs[j], caps[j]
        top = left // c if cap is None else min(cap, left // c)
        if j == n - 1:
            if not exact:
                out.extend([head + (e,) for e in range(top + 1)])
            elif top * c == left:
                out.append(head + (top,))
            return
        if exact and left % div[j]:
            return
        for e in range(top + 1):
            rec(j + 1, left - e * c, head + (e,))

    rec(0, budget, ())
    return out


def products(
    ctx: PrimeContext,
    runs: Iterable[Iterable[tuple[Monomial, int | None]]],
    measure: Callable[[PrimeContext, Monomial], int],
    budget: int,
    exact: bool = False,
) -> list[Monomial]:
    """Every product of factor powers with `measure` <= budget (= budget if `exact`).

    A run yields (factor, cap) pairs, each factor a power of one generator
    that no other factor uses, and the cap bounds its exponent (None
    leaves it unbounded; a tau factor needs cap 1).  Each run is read only
    while its factors fit in the budget, so a run's cost must rise along
    it and a run may be infinite.  The result is sorted by `sort_key`.
    """
    factors = [fc for run in runs for fc in takewhile(lambda fc: measure(ctx, fc[0]) <= budget, run)]
    factors.sort(key=lambda fc: -measure(ctx, fc[0]))
    costs = [measure(ctx, f) for f, _ in factors]
    out = []
    for e in exponent_vectors(costs, budget, [cap for _, cap in factors], exact):
        xi, tau = [], []
        for (f, _), k in zip(factors, e):
            if not k:
                continue
            if f.tau:
                tau.append(f.tau[0])
            else:
                xi.append((f.xi[0][0], f.xi[0][1] * k))
        out.append(Monomial(tuple(sorted(xi)), tuple(sorted(tau))))
    out.sort(key=lambda m: sort_key(ctx, m))
    return out


def _generators(spec: AlgebraSpec) -> list[Iterator[tuple[Monomial, int | None]]]:
    """The generators of the algebra as two runs: every xi_a, then every surviving tau_b."""
    return [
        ((Monomial(((a, 1),), ()), None) for a in count(1)),
        ((Monomial((), (b,)), 1) for b in count(max(spec.min_tau, 0))),
    ]


def enumerate_by_degree(ctx: PrimeContext, spec: AlgebraSpec, max_degree: int) -> list[Monomial]:
    """Every monomial of the algebra with degree <= max_degree.

    The result is sorted by the canonical order and is a prefix of the
    enumeration at any larger bound, which pins down basis indexing.
    """
    return products(ctx, _generators(spec), degree, max_degree)


def enumerate_by_weight(ctx: PrimeContext, spec: AlgebraSpec, exact_weight: int) -> list[Monomial]:
    """Every monomial of the algebra with weight exactly `exact_weight`.

    Generation is exact: no monomial of another weight is built.
    """
    return products(ctx, _generators(spec), weight, exact_weight, exact=True)


def format_monomial(m: Monomial) -> str:
    if m.is_unit:
        return "1"
    parts = []
    for a, e in m.xi:
        parts.append(f"xi{a}" if e == 1 else f"xi{a}^{e}")
    for b in m.tau:
        parts.append(f"tau{b}")
    return " ".join(parts)
