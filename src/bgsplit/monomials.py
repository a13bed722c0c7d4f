"""Monomials in the dual Steenrod algebra at an odd prime.

A monomial is a finite product of polynomial generators xi_a (a >= 1) and
exterior generators tau_b (b >= 0) with

    degree(xi_a) = 2(p^a - 1)      weight(xi_a) = p^a
    degree(tau_b) = 2 p^b - 1      weight(tau_b) = p^b

Weight is additive under multiplication, and length counts the tau
factors.  An AlgebraSpec selects the quotient Hopf algebroid
F_p[xi_1, xi_2, ...] (x) E(tau_{i+1}, tau_{i+2}, ...), the homology of the
(i)-truncated Brown-Peterson spectrum; i = -1 keeps every tau.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .fplin import is_prime

__all__ = [
    "PrimeContext",
    "AlgebraSpec",
    "Monomial",
    "UNIT",
    "degree",
    "weight",
    "length",
    "enumerate_by_degree",
    "enumerate_by_weight",
    "sort_key",
    "format_monomial",
    "parse_monomial",
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

    def xi_degree(self, a: int) -> int:
        return 2 * (self.p**a - 1)

    def tau_degree(self, b: int) -> int:
        return 2 * self.p**b - 1

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


@dataclass(frozen=True)
class Monomial:
    """A product of xi and tau generators in normal form.

    `xi` maps generator index a >= 1 to a positive exponent, stored as a
    sorted tuple of (index, exponent) pairs.  `tau` is the strictly
    increasing tuple of exterior indices; repeating one kills the monomial,
    so no Monomial ever holds a repeat.
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
        taus = sorted(set(tau))
        if taus and taus[0] < 0:
            raise ValueError("tau index out of range")
        if len(taus) != len(tuple(tau)):
            raise ValueError("repeated tau factor squares to zero")
        return Monomial(tuple(clean), tuple(taus))

    def xi_exponent(self, a: int) -> int:
        for idx, e in self.xi:
            if idx == a:
                return e
        return 0

    def times(self, other: "Monomial") -> "Monomial | None":
        """Product, or None when a shared tau factor squares to zero."""
        if set(self.tau) & set(other.tau):
            return None
        xi = dict(self.xi)
        for a, e in other.xi:
            xi[a] = xi.get(a, 0) + e
        return Monomial.make(xi, self.tau + other.tau)

    def times_signed(self, other: "Monomial") -> "tuple[int, Monomial] | None":
        """Product with the Koszul sign of sorting the tau factors.

        The normal form keeps taus ascending, so tau_a tau_b with a > b
        picks up a -1 per inversion.  Returns None when the product is
        zero.
        """
        prod = self.times(other)
        if prod is None:
            return None
        inversions = sum(1 for x in self.tau for y in other.tau if y < x)
        return (-1 if inversions % 2 else 1), prod

    @property
    def is_unit(self) -> bool:
        return not self.xi and not self.tau


UNIT = Monomial((), ())


def degree(ctx: PrimeContext, m: Monomial) -> int:
    d = sum(e * ctx.xi_degree(a) for a, e in m.xi)
    d += sum(ctx.tau_degree(b) for b in m.tau)
    return d


def weight(ctx: PrimeContext, m: Monomial) -> int:
    w = sum(e * ctx.p**a for a, e in m.xi)
    w += sum(ctx.p**b for b in m.tau)
    return w


def length(m: Monomial) -> int:
    return len(m.tau)


def sort_key(ctx: PrimeContext, m: Monomial) -> tuple:
    """Canonical total order: degree, then weight, then exponent lex."""
    return (degree(ctx, m), weight(ctx, m), m.xi, m.tau)


def _xi_parts(
    ctx: PrimeContext, cost, budget: int, a_start: int = 1, exact: bool = False
) -> Iterator[dict[int, int]]:
    """All xi exponent maps with total `cost` within budget, or equal to it if `exact`.

    `cost` maps a generator index to its price (degree or weight); the
    recursion stops as soon as the cheapest remaining generator no longer
    fits, so only finitely many indices are touched.  With `exact`, a
    branch that stops with budget left over yields nothing.
    """
    def rec(a: int, left: int) -> Iterator[dict[int, int]]:
        price = cost(a)
        if price > left:
            if left == 0 or not exact:
                yield {}
            return
        for tail in rec(a + 1, left):
            yield tail
        e = 1
        while e * price <= left:
            for tail in rec(a + 1, left - e * price):
                out = dict(tail)
                out[a] = e
                yield out
            e += 1

    yield from rec(a_start, budget)


def _tau_parts(spec: AlgebraSpec, cost, budget: int) -> Iterator[tuple[int, ...]]:
    def rec(b: int, left: int) -> Iterator[tuple[int, ...]]:
        price = cost(b)
        if price > left:
            yield ()
            return
        for tail in rec(b + 1, left):
            yield tail
        for tail in rec(b + 1, left - price):
            yield (b,) + tail

    yield from rec(max(spec.min_tau, 0), budget)


def enumerate_by_degree(ctx: PrimeContext, spec: AlgebraSpec, max_degree: int) -> list[Monomial]:
    """Every monomial of the algebra with degree <= max_degree.

    The result is sorted by the canonical order and is a prefix of the
    enumeration at any larger bound, which pins down basis indexing.
    """
    if max_degree < 0:
        return []
    out = []
    for taus in _tau_parts(spec, ctx.tau_degree, max_degree):
        left = max_degree - sum(ctx.tau_degree(b) for b in taus)
        for xi in _xi_parts(ctx, ctx.xi_degree, left):
            out.append(Monomial.make(xi, taus))
    out.sort(key=lambda m: sort_key(ctx, m))
    return out


def enumerate_by_weight(ctx: PrimeContext, spec: AlgebraSpec, exact_weight: int) -> list[Monomial]:
    """Every monomial of the algebra with weight exactly `exact_weight`.

    Generation is exact: the xi parts fill the weight the taus leave over
    to the last unit, so no monomial of smaller weight is built.
    """
    if exact_weight < 0:
        return []
    out = []
    for taus in _tau_parts(spec, lambda b: ctx.p**b, exact_weight):
        left = exact_weight - sum(ctx.p**b for b in taus)
        for xi in _xi_parts(ctx, lambda a: ctx.p**a, left, exact=True):
            out.append(Monomial.make(xi, taus))
    out.sort(key=lambda m: sort_key(ctx, m))
    return out


def format_monomial(m: Monomial) -> str:
    if m.is_unit:
        return "1"
    parts = []
    for a, e in m.xi:
        parts.append(f"xi{a}" if e == 1 else f"xi{a}^{e}")
    for b in m.tau:
        parts.append(f"tau{b}")
    return " ".join(parts)


_TOKEN = re.compile(r"^(xi|tau)(\d+)(?:\^(\d+))?$")


def parse_monomial(text: str) -> Monomial:
    """Inverse of format_monomial; raises ValueError on malformed input."""
    text = text.strip()
    if text == "1":
        return UNIT
    xi: dict[int, int] = {}
    tau: list[int] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"bad monomial token {token!r}")
        kind, idx, exp = m.group(1), int(m.group(2)), m.group(3)
        if kind == "xi":
            if idx < 1:
                raise ValueError("xi index must be at least 1")
            xi[idx] = xi.get(idx, 0) + (int(exp) if exp else 1)
        else:
            if exp is not None:
                raise ValueError("tau factors cannot carry exponents")
            tau.append(idx)
    return Monomial.make(xi, tau)
