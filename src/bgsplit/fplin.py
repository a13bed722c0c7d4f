"""Exact linear algebra over the prime field F_p.

Matrices are dense numpy int64 arrays whose entries are residues in
[0, p).  Every routine here is deterministic: pivots are always the first
nonzero entry in scan order, so identical inputs give identical outputs
across runs and platforms.  All functions are pure; inputs are never
mutated.

Entries stay far below int64 overflow because every product is reduced
mod p before the next accumulation (p is small, at most a few hundred).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "rref_array",
    "reduce_mod_rows",
    "kernel_array",
    "coset_representatives",
    "solve_columns",
    "is_prime",
]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> np.ndarray:
    """Multiplicative inverses mod p, indexed by residue; slot 0 unused."""
    inv = np.zeros(p, dtype=np.int64)
    for x in range(1, p):
        inv[x] = pow(x, p - 2, p)
    return inv


def rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of `a` mod p; returns (rref, pivot columns)."""
    m = np.mod(np.asarray(a, dtype=np.int64), p)
    rows, cols = m.shape
    inv = _inverse_table(p)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * inv[m[r, c]]) % p
        col = m[:, c].copy()
        col[r] = 0
        nzrows = np.nonzero(col)[0]
        if nzrows.size:
            m[nzrows] = (m[nzrows] - np.outer(col[nzrows], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def reduce_mod_rows(v: np.ndarray, rref_rows: np.ndarray, pivots: tuple[int, ...], p: int) -> np.ndarray:
    """Reduce a residue vector against reduced-echelon rows (pure)."""
    out = v.copy()
    for k, c in enumerate(pivots):
        coeff = out[c]
        if coeff:
            out = (out - coeff * rref_rows[k]) % p
    return out


def kernel_array(a: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning {x : a @ x = 0 mod p}, in reduced echelon form."""
    a = np.asarray(a, dtype=np.int64)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    red, pivots = rref_array(a, p)
    free = [c for c in range(cols) if c not in set(pivots)]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    vecs = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        vecs[k, f] = 1
        for r, c in enumerate(pivots):
            vecs[k, c] = (-red[r, f]) % p
    normal, _ = rref_array(vecs, p)
    return normal


def coset_representatives(vectors: np.ndarray, subspace_rows: np.ndarray, p: int) -> np.ndarray:
    """Canonical rows spanning span(vectors) modulo span(subspace_rows).

    Both inputs are row collections over the same ambient space.  The
    result is the reduced echelon basis of the reductions, so it is
    deterministic and its rows are honest coset representatives.
    """
    vectors = np.mod(np.asarray(vectors, dtype=np.int64), p)
    if vectors.shape[0] == 0:
        return vectors
    sub, spiv = rref_array(np.asarray(subspace_rows, dtype=np.int64), p)
    sub = sub[: len(spiv)]
    reduced = np.array([reduce_mod_rows(v, sub, tuple(spiv), p) for v in vectors])
    rows, piv = rref_array(reduced, p)
    return rows[: len(piv)]


def solve_columns(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """One solution X of a @ X = b mod p, or None if inconsistent.

    Free variables are set to zero, so the solution is deterministic.
    `b` may be a vector or a matrix of stacked right-hand sides.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    single = b.ndim == 1
    if single:
        b = b[:, None]
    rows, cols = a.shape
    if b.shape[0] != rows:
        raise ValueError("right-hand side has wrong height")
    aug = np.concatenate([a, b], axis=1) % p
    red, pivots = rref_array(aug, p)
    x = np.zeros((cols, b.shape[1]), dtype=np.int64)
    for r, c in enumerate(pivots):
        if c >= cols:
            return None
        x[c] = red[r, cols:]
    return x[:, 0] if single else x
