"""Exact linear algebra over the prime field F_p.

Every routine here is deterministic: pivots are always the first nonzero
entry in scan order, so identical inputs give identical outputs across
runs and platforms.  All functions are pure; inputs are never mutated.

A matrix is a dense numpy int64 array of residues in [0, p), or a table
of entries: int64 arrays (a, b, val) of one length, entry e being val[e]
at row, or source, a[e] and column, or target, b[e].  Values need not be
reduced, and a position may repeat until `summed` adds it up.  Tables
are gathered, joined and searched here and nowhere else: `nonzeros`,
`joined`, `summed`, `minus`, `compose`, `ragged`, `run_starts`, `lookup`.

Callers that need only a dimension ask `ranks`, which builds no echelon
form: it takes a whole batch of matrices as entries whose rows and
columns are numbered across the batch, peels singleton columns and rows
of every matrix at once (structured Gaussian elimination,
LaMacchia-Odlyzko) and hands each core left over to `rref_array`.
`dense_ranks` gathers dense matrices into such batches of at most
_COLUMNS columns; `rank` is a batch of one.  All return only integers,
so the order in which pivots are taken cannot show in any output.

Primes stay below `MAX_PRIME` = 2^16 (the CLI rejects larger ones), so
a product of two residues is below 2^32 and a matrix product of residues
over fewer than 2^31 terms stays inside int64.  That makes a single
`% p` after a whole product exact, which `reduce_mod_rows` relies on.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

import numpy as np

__all__ = [
    "MAX_PRIME",
    "Entries",
    "nonzeros",
    "joined",
    "summed",
    "minus",
    "compose",
    "ragged",
    "run_starts",
    "lookup",
    "ranks",
    "dense_ranks",
    "rank",
    "rref_array",
    "reduce_mod_rows",
    "kernel_array",
    "coset_representatives",
    "homology_basis",
    "quotient_projection",
    "is_prime",
]

MAX_PRIME = 2**16

# the most columns one `dense_ranks` batch, or one pass of
# `koszul.KoszulComplex.chart`, holds, which bounds the entries ranked at
# once: C-bar's three-operator chart has 35,667 in t = 192..220, and one
# pass over them cost 2.7 MB of peak RSS
_COLUMNS = 8192

Entries = tuple[np.ndarray, np.ndarray, np.ndarray]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def nonzeros(mats: Iterable[np.ndarray]) -> tuple[np.ndarray, ...]:
    """The nonzero entries of dense matrices, row-major and matrix by matrix, one matrix held at a time.

    Returns (entries per matrix, the start of each matrix's entries, rows,
    columns, values), so a matrix's entries are one slice.
    """
    parts = [(r, c, m[r, c]) for m in mats for r, c in [np.nonzero(m)]]
    count = np.array([r.size for r, _, _ in parts], dtype=np.int64)
    return (count, count.cumsum() - count, *joined(parts))


def joined(parts: Iterable[tuple[np.ndarray, ...]]) -> Entries:
    """Tables of entries concatenated field by field; no parts give no entries."""
    return tuple(np.concatenate(x) for x in zip(*parts)) or tuple(np.zeros(0, dtype=np.int64) for _ in range(3))


def summed(a: np.ndarray, b: np.ndarray, val: np.ndarray, p: int) -> Entries:
    """Entries with one (a, b) added up, reduced mod p, zeros dropped, sorted by (a, b)."""
    if not a.size:
        return a, b, val
    order = np.lexsort((b, a))
    a, b, val = a[order], b[order], val[order]
    new = run_starts(a, b)
    val = np.add.reduceat(val, new) % p
    keep = new[val != 0]
    return a[keep], b[keep], val[val != 0]


def minus(first: Entries, second: Entries, p: int) -> Entries:
    """The entries of first - second, summed."""
    return summed(*joined([first, (*second[:2], -second[2])]), p)


def compose(first: Entries, second: Entries, p: int) -> Entries:
    """The entries of `second` after `first`, summed: (a, b) and (b, c) give (a, c); second's are sorted by a."""
    src, mid, val = first
    lo = np.searchsorted(second[0], mid, "left")
    count = np.searchsorted(second[0], mid, "right") - lo
    at = ragged(lo, count)
    return summed(np.repeat(src, count), second[1][at], np.repeat(val, count) * second[2][at], p)


def ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[j] .. starts[j] + counts[j] - 1, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Where each run of equal (keys[0][e], keys[1][e], ...) begins, for arrays of one length."""
    new = np.zeros(keys[0].size, dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(new)


def lookup(keys: np.ndarray, want: np.ndarray, sorter: np.ndarray | None = None) -> np.ndarray:
    """The index in keys of each wanted key, or -1 where there is none.

    keys are distinct and ascending, or ascend in sorter's order, as `np.searchsorted` reads it.
    """
    if not keys.size:
        return np.full(np.shape(want), -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, want, sorter=sorter), keys.size - 1)
    at = at if sorter is None else sorter[at]
    return np.where(keys[at] == want, at, -1)


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


def ranks(row: np.ndarray, col: np.ndarray, val: np.ndarray, shapes: np.ndarray, p: int) -> np.ndarray:
    """Rank mod p of every matrix in a batch given by its entries.

    The rows, and the columns, of the batch are numbered matrix by matrix,
    in the order and with the shapes of shapes.  Entry e is val[e] at
    (row[e], col[e]), and values need not be reduced.  No two entries
    share a position: a caller adds up any that would with `summed`, and
    `_compressed` raises on two that reach a core.  The whole batch is
    peeled together by `_peel`.
    """
    shapes = np.asarray(shapes, dtype=np.int64).reshape(-1, 2)
    val = np.mod(np.asarray(val, dtype=np.int64), p)
    keep = val != 0
    row, col = (np.asarray(x, dtype=np.int64)[keep] for x in (row, col))
    row_of, col_of = (np.repeat(np.arange(len(shapes)), n) for n in shapes.T)
    return _peel(row, col, val[keep], row_of, col_of, len(shapes), p)


def dense_ranks(mats: Iterable[np.ndarray], p: int) -> np.ndarray:
    """Rank mod p of every dense matrix of mats, in order.

    Each matrix's entries are gathered with `np.nonzero` as it comes (one
    `nonzeros` call per matrix was 1.6 times slower on Margolis homology),
    so no two dense matrices are held at once, and numbered across a batch
    of at most _COLUMNS columns (a wider matrix is a batch alone) for `ranks`.
    """
    out, parts, shapes = [], [], []
    height = width = 0
    for a in mats:
        a = np.asarray(a, dtype=np.int64)
        if shapes and width + a.shape[1] > _COLUMNS:
            out.append(ranks(*joined(parts), shapes, p))
            parts, shapes, height, width = [], [], 0, 0
        rows, cols = np.nonzero(a)
        parts.append((rows + height, cols + width, a[rows, cols]))
        shapes.append(a.shape)
        height, width = height + a.shape[0], width + a.shape[1]
    return np.concatenate([*out, ranks(*joined(parts), shapes, p)])


def rank(a: np.ndarray, p: int) -> int:
    """Rank of `a` mod p: `dense_ranks` of a batch of one."""
    return int(dense_ranks([a], p)[0])


def _peel(
    rows: np.ndarray,
    cols: np.ndarray,
    val: np.ndarray,
    row_of: np.ndarray,
    col_of: np.ndarray,
    n: int,
    p: int,
) -> np.ndarray:
    """Ranks of a batch of n matrices whose nonzero entries sit at (rows, cols).

    Rows and columns are numbered across the batch, and row_of and col_of
    give the matrix of each.  A column with a single nonzero entry is a
    pivot whose row can be deleted with no fill-in, and singleton columns
    that hit the same row give that row's one pivot.  So each pass counts
    the entries of every column of the batch with one `bincount`, adds to
    each matrix the number of distinct rows its singleton columns hit, and
    deletes those rows, which empties the singleton columns; then rows and
    columns swap roles, so passes alternate between columns and rows
    (structured Gaussian elimination, LaMacchia-Odlyzko).  They stop when
    a column pass and a row pass in a row find no singleton, and
    `rref_array` eliminates each core left, the only dense matrices built.
    """
    out = np.zeros(n, dtype=np.int64)
    idle = 0
    while val.size and idle < 2:
        single = np.bincount(cols, minlength=col_of.size)[cols] == 1
        hit = np.zeros(row_of.size, dtype=bool)
        hit[rows[single]] = True
        out += np.bincount(row_of[hit], minlength=n)
        idle = 0 if single.any() else idle + 1
        keep = ~hit[rows]
        rows, cols, val = cols[keep], rows[keep], val[keep]
        row_of, col_of = col_of, row_of
    if val.size:
        owner = row_of[rows]
        for b in np.flatnonzero(np.bincount(owner, minlength=n)):
            mine = owner == b
            out[b] += len(rref_array(_compressed(rows[mine], cols[mine], val[mine]), p)[1])
    return out


def _compressed(rows: np.ndarray, cols: np.ndarray, val: np.ndarray) -> np.ndarray:
    """The dense matrix of some nonzero entries, with its empty rows and columns left out.

    Two entries at one position would keep only one value, so they raise:
    the matrix then has fewer nonzeros than there are entries.  Such a pair
    is never a singleton, since it counts twice in its row and in its
    column, so it reaches a core unless the peel deletes its whole row or
    column, which cannot change the rank.
    """
    r = np.cumsum(np.bincount(rows - rows.min()) > 0) - 1
    c = np.cumsum(np.bincount(cols - cols.min()) > 0) - 1
    dense = np.zeros((r[-1] + 1, c[-1] + 1), dtype=np.int64)
    dense[r[rows - rows.min()], c[cols - cols.min()]] = val
    if np.count_nonzero(dense) < val.size:
        raise ValueError("two entries share a position")
    return dense


def reduce_mod_rows(v: np.ndarray, rref_rows: np.ndarray, pivots: tuple[int, ...], p: int) -> np.ndarray:
    """Reduce a residue vector, or each row of a matrix, against reduced-echelon rows.

    Each row is zero at every other row's pivot, so the coefficient of a
    row is the input's entry at its pivot and the whole reduction is one
    product followed by one `% p`.
    """
    v = np.asarray(v, dtype=np.int64)
    return (v - v[..., list(pivots)] @ rref_rows) % p


def kernel_array(a: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning {x : a @ x = 0 mod p}, in reduced echelon form."""
    a = np.asarray(a, dtype=np.int64)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    red, pivots = rref_array(a, p)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    if not free:
        return np.zeros((0, cols), dtype=np.int64)
    vecs = np.zeros((len(free), cols), dtype=np.int64)
    vecs[np.arange(len(free)), free] = 1
    vecs[:, pivots] = (-red[: len(pivots)][:, free].T) % p
    normal, _ = rref_array(vecs, p)
    return normal


def _echelon_rows(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The nonzero rows of rref(a) and their pivot columns."""
    rows, pivots = rref_array(a, p)
    return rows[: len(pivots)], tuple(pivots)


def coset_representatives(vectors: np.ndarray, subspace_rows: np.ndarray, p: int) -> np.ndarray:
    """Canonical rows spanning span(vectors) modulo span(subspace_rows).

    Both inputs are row collections over the same ambient space.  The
    result is the reduced echelon basis of the reductions, so it is
    deterministic and its rows are honest coset representatives.
    """
    vectors = np.mod(np.asarray(vectors, dtype=np.int64), p)
    if vectors.shape[0] == 0:
        return vectors
    sub, spiv = _echelon_rows(np.asarray(subspace_rows, dtype=np.int64), p)
    return _echelon_rows(reduce_mod_rows(vectors, sub, spiv, p), p)[0]


def homology_basis(
    d_out: np.ndarray, d_in: np.ndarray, p: int
) -> tuple[np.ndarray, tuple[int, ...], np.ndarray, tuple[int, ...]]:
    """Canonical basis of ker d_out / im d_in, for composable maps with d_out @ d_in = 0.

    Returns (reps, rep_pivots, borders, border_pivots): echelon rows of
    the boundaries im d_in, and echelon rows of the cycles reduced against
    them, one per homology class.  An (n x 0) d_in has no boundaries.
    """
    borders, border_pivots = _echelon_rows(np.asarray(d_in, dtype=np.int64).T, p)
    cycles = reduce_mod_rows(kernel_array(d_out, p), borders, border_pivots, p)
    reps, rep_pivots = _echelon_rows(cycles, p)
    return reps, rep_pivots, borders, border_pivots


def quotient_projection(
    rows: np.ndarray, pivots: tuple[int, ...], n: int, p: int
) -> tuple[list[int], np.ndarray]:
    """Projection of F_p^n onto its quotient by the span of reduced-echelon rows.

    The quotient's coordinates are the non-pivot columns `keep`.  Reducing
    a unit vector against the rows leaves a non-pivot unit vector alone and
    turns the pivot unit vector of a row into minus the rest of that row,
    so proj is the identity on `keep` and -row[keep] at each pivot column.
    """
    piv = set(pivots)
    keep = [c for c in range(n) if c not in piv]
    proj = np.zeros((len(keep), n), dtype=np.int64)
    proj[np.arange(len(keep)), keep] = 1
    if pivots:
        proj[:, list(pivots)] = (-rows[:, keep].T) % p
    return keep, proj
