"""Monomial products, the text parser and v-monomials, as test oracles.

The library enumerates monomials and prints them, but never multiplies
two of them, parses one back or lists v-monomials by length alone.  The
tests do, to check gradings for additivity, to write modules by hand, to
hold `format_monomial` to a round trip and to count Ext(F_p, F_p) in
closed form.
"""

from __future__ import annotations

import re

from bgsplit.monomials import UNIT, Monomial, exponent_vectors


def times(a: Monomial, b: Monomial) -> Monomial | None:
    """Product, or None when a shared tau factor squares to zero."""
    if set(a.tau) & set(b.tau):
        return None
    xi = dict(a.xi)
    for i, e in b.xi:
        xi[i] = xi.get(i, 0) + e
    return Monomial.make(xi, a.tau + b.tau)


def times_signed(a: Monomial, b: Monomial) -> tuple[int, Monomial] | None:
    """Product with the Koszul sign of sorting the tau factors.

    The normal form keeps taus ascending, so tau_a tau_b with a > b
    picks up a -1 per inversion.  Returns None when the product is
    zero.
    """
    prod = times(a, b)
    if prod is None:
        return None
    inversions = sum(1 for x in a.tau for y in b.tau if y < x)
    return (-1 if inversions % 2 else 1), prod


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


def v_monomials(qs: tuple[int, ...], s: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples over qs with |alpha| = s, in lexicographic order."""
    return tuple(exponent_vectors((1,) * len(qs), s, exact=True))
