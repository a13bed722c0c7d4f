"""Ext over exterior algebras via the complex M (x) F_p[v_i].

The minimal free resolution of F_p over E(Q_i : i in qs) dualizes to the
complex with cochains M tensor the v-monomials and differential
d = sum_i Q_i (x) v_i, so its cohomology is Ext_E(F_p, M) and the
v_i-multiplications are visible at chain level.  Chart coordinates put a
cochain m (x) v^alpha at s = |alpha| and t = deg(m) + sum alpha_i d_i
with d_i = 2p^i - 1, so v_i sits at (1, d_i) and d preserves t.

A `BlockTable` is the one chain layout: it tabulates every chain block
of a window by index arithmetic and emits each differential once, as an
`fplin` entry table.  Dimensions come from ranks, dim Ext^{s,t} =
dim C^{s,t} - rank d^{s,t} - rank d^{s-1,t}, and a table ranks all its
differentials with one `fplin.ranks` call.  `KoszulComplex.chart` takes
a window in t-slabs of bounded size, one table each, and charts
(`ext_koszul`) read it.  `ext_p_module` takes its whole window as one
table, reads its dimensions from the same ranks, and asks the table for
the v-multiplications on classes as entries over one numbering of the
classes (`BlockTable.v_maps`).  Where no entry of d leaves or enters a
bidegree, the chain basis is the class basis and a v-map is index
arithmetic on `BlockTable.v_target`, which moves every block to its v_j
target by one `fplin.lookup` on its keys.  Only at the bidegrees that
some entry of d does touch are dense differentials cut from the entries,
for `fplin.homology_basis`, the one homology primitive (Margolis homology
reads only ranks, from `fplin.dense_ranks`).  The v-monomials of a window
come from one enumeration bounded by length and v-degree (`_v_levels`).  v-injectivity and
Bockstein collapse read charts alone: v_i is injective on cochains with
cokernel the complex of M over the other operators, so a long exact
sequence counts the kernel of v_i on Ext (`_v_kernels`).

Charts are the one Koszul memo, keyed by module content
(`qmodules.content_key`, the same identity the gr and comparison caches
use): `ext_koszul` computes each (module, window) once per process, so
equal modules built apart, such as the same `restrict_qs` pair asked for
by two checks or the blocks C_k with one floor(k/p), share one chart, and
a window inside a held chart of the same content is cut from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..fplin import _COLUMNS, homology_basis, joined, lookup, nonzeros, ragged, ranks, reduce_mod_rows
from ..qmodules import QModule, content_key, restrict_qs


@lru_cache(maxsize=None)
def _v_levels(drops: tuple[int, ...], s_top: int, budget: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per s <= s_top, (v-degrees ascending, exponent rows) of the alphas with |alpha| = s and v-degree <= budget.

    One enumeration bounds both quantities: each variable in turn extends
    every partial alpha by every exponent that keeps the length within
    s_top and the v-degree within budget, so the rows come in lex order.
    A stable sort by (s, v-degree) keeps that order within one v-degree.
    """
    alphas = np.zeros((1, 0), dtype=np.int64)
    size = vdeg = np.zeros(1, dtype=np.int64)
    for d in drops:
        count = np.minimum(s_top - size, (budget - vdeg) // d) + 1
        rep = np.repeat(np.arange(size.size), count)
        e = ragged(np.zeros_like(count), count)
        alphas, size, vdeg = np.column_stack([alphas[rep], e]), size[rep] + e, vdeg[rep] + e * d
    order = np.lexsort((vdeg, size))
    cuts = np.searchsorted(size[order], np.arange(1, s_top + 1))
    return tuple((vdeg[at], alphas[at]) for at in np.split(order, cuts))


def dims_from_ranks(table: tuple[np.ndarray, ...], p: int, s_max: int, t0: int) -> dict[tuple[int, int], int]:
    """The nonzero dim H^{s,t}, s <= s_max, t-major, of a tabulated complex, from one `fplin.ranks` call.

    table is (chain, rows, cols, vals): chain[s, t - t0] = dim C^{s,t}, with an
    empty level above the top, and the entries of every d^{s,t}, numbered
    across the table with columns from level 0 and rows from level 1.
    """
    chain, rows, cols, vals = table
    shapes = np.stack([chain[1:].ravel(), chain[:-1].ravel()], axis=1)
    rk = ranks(rows, cols, vals, shapes, p).reshape(chain[1:].shape)
    ext = (chain[:-1] - rk - np.vstack([np.zeros_like(rk[:1]), rk[:-1]]))[: s_max + 1]
    t_ix, s_ix = np.nonzero(ext.T)
    return {(int(s), t0 + int(t)): int(ext[s, t]) for t, s in zip(t_ix, s_ix)}


@dataclass
class BigradedDims:
    """Ext dimensions per (s, t) with the certified window they live in."""

    dims: dict[tuple[int, int], int]
    s_max: int
    t_max: int
    t_min: int
    note: str | None = None

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)


class BlockTable:
    """The blocks of C^{s,t}, s <= s_max + 1 and t0 <= t <= t1, and the entries of d between them.

    Blocks v^alpha (x) M_d are tabulated by index arithmetic over the
    v-degrees of each s and the module's degrees, then put in (s, t, lex
    alpha) order by one sort of a combined key; a bidegree's columns are
    its blocks in that order.  Every (i, module degree) whose Q_i matrix is
    nonzero sends each source block at that degree to its block alpha + e_i
    one s higher, found by `np.searchsorted` on the key, and contributes the
    matrix's entries at the two blocks' offsets.  Only d^{s,t} with
    s <= s_max is tabulated, numbered as `dims_from_ranks` reads it.
    """

    def __init__(self, kc: KoszulComplex, s_max: int, t0: int, t1: int, runs: list):
        degs = kc._degrees
        levels, nt = len(runs), t1 - t0 + 1
        self.p, self.drops, self.s_max, self.t0, self.nt = kc.p, kc.drops, s_max, t0, nt
        # alpha as digits in base `levels`, which every exponent is below:
        # the code orders alphas of one length lex, and alpha + e_ix adds place[ix]
        self.place = levels ** np.arange(len(kc.qs) - 1, -1, -1, dtype=np.int64)
        self.span = levels ** len(kc.qs)
        bids, keys, ds = [], [], []
        for s, (vdeg, alphas, lo, counts) in enumerate(runs):
            at = ragged(lo, counts)
            d = np.repeat(np.arange(degs.size), counts)
            # the bidegree s * nt + t - t0, and (s, t, alpha) as one integer
            bids.append(s * nt - t0 + vdeg[at] + degs[d])
            keys.append(bids[-1] * self.span + alphas[at] @ self.place)
            ds.append(d)
        key = np.concatenate(keys)
        order = np.argsort(key, kind="stable")
        self.key, self.bid, D = key[order], np.concatenate(bids)[order], np.concatenate(ds)[order]
        del bids, keys, ds
        self.width = kc._dims[D]
        # dim C^{s,t} per level, with an empty level above the top
        chain = np.bincount(np.repeat(self.bid, self.width), minlength=(levels + 1) * nt)
        self.chain = chain.reshape(levels + 1, nt)
        self.first = (np.cumsum(chain) - chain).reshape(levels + 1, nt)
        self.pos, self.lead = np.cumsum(self.width) - self.width, chain[:nt].sum()
        self.v_targets: dict[int, np.ndarray] = {}

        src = np.flatnonzero(self.bid < (min(s_max, levels - 2) + 1) * nt)
        parts: list[tuple[np.ndarray, ...]] = []
        for ix, (count, start, qr, qc, qv) in enumerate(kc._actions):
            k = count[D[src]]
            b, k = src[k > 0], k[k > 0]
            target = np.searchsorted(self.key, self.key[b] + nt * self.span + self.place[ix])
            at = ragged(start[D[b]], k)
            rows = np.repeat(self.pos[target] - self.lead, k) + qr[at]
            parts.append((rows, np.repeat(self.pos[b], k) + qc[at], qv[at]))
        # each operator's entries come in source block order, so the columns
        # of one bidegree are one run of them
        self.bounds = np.cumsum([0] + [part[0].size for part in parts]).tolist()
        self.rows, self.cols, self.vals = joined(parts)

    def ext(self) -> dict[tuple[int, int], int]:
        """The nonzero dim Ext^{s,t}, s <= s_max, t-major, from one `fplin.ranks` call."""
        return dims_from_ranks((self.chain, self.rows, self.cols, self.vals), self.p, self.s_max, self.t0)

    def d(self, s: int, t: int) -> np.ndarray:
        """The dense d^{s,t}: C^{s,t} -> C^{s+1,t}, cut from the entries; C^{-1,t} = 0."""
        t -= self.t0
        if s < 0:
            return np.zeros((self.chain[0, t], 0), dtype=np.int64)
        c0, r0 = self.first[s, t], self.first[s + 1, t] - self.lead
        mat = np.zeros((self.chain[s + 1, t], self.chain[s, t]), dtype=np.int64)
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            a, z = lo + np.searchsorted(self.cols[lo:hi], (c0, c0 + self.chain[s, t]))
            mat[self.rows[a:z] - r0, self.cols[a:z] - c0] = self.vals[a:z]
        return mat

    def v_target(self, j: int) -> np.ndarray:
        """Per chain column of the table, the column of its image under v_{qs[j]}, or -1 outside the table.

        The v's act on the monomial factor alone, so each block moves
        unchanged to its block alpha + e_j of the same module degree, found
        by one search on the table's keys the first time j is asked for.
        Both columns are numbered across the table.
        """
        if j not in self.v_targets:
            target = lookup(self.key, self.key + (self.nt + self.drops[j]) * self.span + self.place[j])
            columns = np.repeat(self.pos[target] - self.pos, self.width) + np.arange(self.width.sum())
            columns[np.repeat(target < 0, self.width)] = -1
            self.v_targets[j] = columns
        return self.v_targets[j]

    def v_image(self, rows: np.ndarray, s: int, t: int, j: int) -> np.ndarray:
        """rows over C^{s,t} times v_{qs[j]}, over C^{s+1,t+d_j}, which the table must hold."""
        flat = self.first.ravel()
        c0, n = flat[s * self.nt + t - self.t0], self.chain[s, t - self.t0]
        up = (s + 1) * self.nt + t + self.drops[j] - self.t0
        out = np.zeros((rows.shape[0], self.chain.ravel()[up]), dtype=np.int64)
        out[:, self.v_target(j)[c0 : c0 + n] - flat[up]] = rows
        return out

    def v_maps(self, dims: dict[tuple[int, int], int]) -> dict[int, tuple[np.ndarray, ...]]:
        """Per j, the entries (src, dst, val) of v_{qs[j]} on the classes of dims, numbered in dims' order.

        A class of (s, t) is numbered after every class of the bidegrees
        before (s, t) in dims, and only maps whose source and target are
        both in dims are given.  One pass over the entries of d marks each
        bidegree that an entry leaves or enters.  An unmarked bidegree has
        H = C: its classes are its chain columns in order, it has no
        borders and every vector is a cycle, so between two unmarked
        bidegrees v_j sends class to class with coefficient 1, read off
        `v_target` for every chain column at once.  A map from or to a
        marked bidegree gets one `fplin.homology_basis` of the two d's cut
        at each marked end: the source's representatives are moved by
        `v_image`, reduced mod the target's borders, and read at the pivots
        of the target's representatives, a reduced image that is not a
        combination of them raising.  Where the module sits in degrees of
        one parity, as every C_k with k <= 8 does at p = 3, every drop
        2p^i - 1 is odd, so C^{s,t} != 0 forces t = s mod 2 and d^{s,t},
        which keeps t and raises s, is zero: no bidegree is marked.
        """
        nt, p, t0 = self.nt, self.p, self.t0
        flat = self.first.ravel()
        leaves = np.searchsorted(flat, self.cols, "right") - 1
        marked = np.zeros(self.chain.size, dtype=bool)
        marked[leaves] = marked[leaves + nt] = True
        at = {bd: bd[0] * nt + bd[1] - t0 for bd in dims}
        count = np.fromiter(dims.values(), dtype=np.int64, count=len(dims))
        start = np.full(self.chain.size, -1, dtype=np.int64)
        start[list(at.values())] = np.cumsum(count) - count
        plain = np.where(marked, -1, start)
        # each chain column's class where its bidegree is in dims and unmarked, else -1
        bid = np.repeat(np.arange(self.chain.size), self.chain.ravel())
        cls = np.where(plain[bid] >= 0, plain[bid] + np.arange(bid.size) - flat[bid], -1)
        del bid
        parts: dict[int, list[tuple[np.ndarray, ...]]] = {}
        for j in range(len(self.drops)):
            target = self.v_target(j)
            src = np.flatnonzero((cls >= 0) & (target >= 0))
            dst = cls[target[src]]
            src, dst = cls[src[dst >= 0]], dst[dst >= 0]
            parts[j] = [(src, dst, np.ones_like(src))]

        bases: dict[tuple[int, int], tuple | None] = {}

        def basis(s: int, t: int) -> tuple | None:
            """homology_basis at (s, t), or None where it is marked by no entry."""
            if (s, t) not in bases:
                touched = marked[at[(s, t)]]
                bases[(s, t)] = homology_basis(self.d(s, t), self.d(s - 1, t), p) if touched else None
            return bases[(s, t)]

        # dims from `ext` is t-major, so the pairs go up in source t and
        # every target lies above it: no later pair reads a basis below t,
        # and one dropped too early would only be computed again
        pairs = [
            (s, t, j)
            for s, t in dims
            for j, drop in enumerate(self.drops)
            if (s + 1, t + drop) in dims and (marked[at[(s, t)]] or marked[at[(s + 1, t + drop)]])
        ]
        low = None
        for s, t, j in pairs:
            if t != low:
                low = t
                for below in [bd for bd in bases if bd[1] < t]:
                    del bases[below]
            source = basis(s, t)
            reps = np.eye(self.chain[s, t - t0], dtype=np.int64) if source is None else source[0]
            images = self.v_image(reps, s, t, j)
            up = (s + 1, t + self.drops[j])
            target = basis(*up)
            if target is None:
                coords = images
            else:
                treps, trep_piv, borders, border_piv = target
                reduced = reduce_mod_rows(images, borders, border_piv, p)
                coords = reduced[:, list(trep_piv)]
                if not np.array_equal((coords @ treps) % p, reduced):
                    raise ValueError("vector is not a cycle at this bidegree")
            col, row = np.nonzero(coords)
            parts[j].append((start[at[(s, t)]] + col, start[at[up]] + row, coords[col, row]))
        return {j: joined(part) for j, part in parts.items()}


class KoszulComplex:
    """Cochain complex computing Ext_E(F_p, M), tabulated a window at a time."""

    def __init__(self, module: QModule):
        self.module = module
        self.qs = module.qs
        self.p = module.ctx.p
        self.drops = tuple(module.ctx.q_degree(i) for i in self.qs)
        self._degrees = np.array(module.degrees(), dtype=np.int64)
        self._dims = np.array([module.dim(d) for d in module.degrees()], dtype=np.int64)
        none = np.zeros((0, 0), dtype=np.int64)
        self._actions = [nonzeros([module.actions[i].get(d, none) for d in module.degrees()]) for i in self.qs]

    def table(self, s_max: int, t0: int, t1: int) -> BlockTable:
        """The whole window s <= s_max, t0 <= t <= t1 as one `BlockTable`."""
        return BlockTable(self, s_max, t0, t1, self._runs(s_max, t0, t1))

    def chart(self, s_max: int, t_min: int, t_max: int) -> dict[tuple[int, int], int]:
        """The nonzero dim Ext^{s,t} for s <= s_max and t_min <= t <= t_max, t-major.

        d preserves t, so the window is taken in independent t-slabs, halved
        until each has at most _COLUMNS chain columns, and each slab's
        `BlockTable` ranks its differentials d^{s,t}, s <= s_max, together
        with one `fplin.ranks` call on their entries.  No dense differential
        is built and nothing is memoised on the complex.
        """
        return self._slab(s_max, t_min, t_max) if t_min <= t_max else {}

    def _slab(self, s_max: int, t0: int, t1: int) -> dict[tuple[int, int], int]:
        """`chart` on t0 <= t <= t1.

        A slab with more than _COLUMNS chain columns, counted before any
        block is tabulated, is halved.
        """
        runs = self._runs(s_max, t0, t1)
        if t1 > t0 and sum(int(c @ self._dims) for *_, c in runs) > _COLUMNS:
            mid = (t0 + t1) // 2
            return self._slab(s_max, t0, mid) | self._slab(s_max, mid + 1, t1)
        return BlockTable(self, s_max, t0, t1, runs).ext()

    def _runs(self, s_max: int, t0: int, t1: int) -> list[tuple[np.ndarray, ...]]:
        """Per level s, `_v_levels` and each module degree's first alpha and count in the window.

        A block needs v-degree <= t1 - min degree, and v-degree >= s, since
        every drop is >= 1, so s stops there too; level 0 is kept even when
        it is empty.
        """
        degs = self._degrees
        budget = max(t1 - self.module.min_degree(), 0)
        runs = []
        for vdeg, alphas in _v_levels(self.drops, min(s_max + 1, budget), budget):
            lo = np.searchsorted(vdeg, t0 - degs, "left")
            runs.append((vdeg, alphas, lo, np.searchsorted(vdeg, t1 - degs, "right") - lo))
        return runs


# content key -> every chart computed for it: (s_max, t_min, t_max, dims)
_CHARTS: dict[tuple, list[tuple[int, int, int, dict[tuple[int, int], int]]]] = {}


def ext_koszul(
    module: QModule, s_max: int, t_max: int, t_min: int | None = None
) -> BigradedDims:
    """Ext_E(F_p, M) dimensions for s <= s_max, t in [t_min, t_max].

    Truncated modules certify only t_max <= truncation, since the s = 0
    and s = 1 columns read the module at degree t itself.  Charts are
    memoised by module content: a window inside one already computed for
    the same content is cut from it, since dim Ext^{s,t} does not depend
    on the window, and any other window is computed whole by
    `KoszulComplex.chart`.  Each call gets its own copy.
    """
    top = module.truncated_above
    if top is not None and t_max > top:
        raise ValueError(
            f"t_max {t_max} exceeds the certified degree {top} of the truncated module"
        )
    lo = (module.min_degree() if module.basis else 0) if t_min is None else t_min
    held = _CHARTS.setdefault(content_key(module), [])
    for h_s, h_lo, h_t, dims in held:
        if s_max <= h_s and h_lo <= lo and t_max <= h_t:
            cut = {(s, t): d for (s, t), d in dims.items() if s <= s_max and lo <= t <= t_max}
            return BigradedDims(cut, s_max, t_max, lo)
    dims = KoszulComplex(module).chart(s_max, lo, t_max)
    held.append((s_max, lo, t_max, dims))
    return BigradedDims(dict(dims), s_max, t_max, lo)


# -- concentration, Bockstein, injectivity ------------------------------------


@dataclass
class EvenConcentrationReport:
    s_min: int
    passed: bool
    violations: list[tuple[int, int, int]]
    window: tuple[int, int, int]


def even_concentration_check(
    module: QModule, s_min: int, s_max: int, t_max: int
) -> EvenConcentrationReport:
    """Assert all classes with s >= s_min sit in even t - s."""
    ext = ext_koszul(module, s_max, t_max)
    violations = [
        (s, t, d)
        for (s, t), d in sorted(ext.dims.items())
        if s >= s_min and (t - s) % 2
    ]
    return EvenConcentrationReport(
        s_min=s_min,
        passed=not violations,
        violations=violations,
        window=(s_max, ext.t_min, t_max),
    )


def _v_kernels(
    module: QModule, ext: dict[tuple[int, int], int], i: int, s_max: int, t_max: int
) -> dict[tuple[int, int], int]:
    """The nonzero dim ker(v_i on Ext^{s,t}), s <= s_max and t <= t_max, t-major.

    ext is the module's chart through t_max + d_i.  With H' the Ext over the
    other operators, 0 -> C^{s-1,t} -> C^{s,t+d_i} -> C'^{s,t+d_i} -> 0 gives
    ker^{s,t} = dim H'^{s,t+d_i} - dim H^{s,t+d_i} + dim H^{s-1,t} - ker^{s-1,t},
    counted wherever a term can be nonzero, so inexact charts show a kernel.
    The recurrence runs for every t at once: with a^{s,t} the first three
    terms, (-1)^s ker^{s,t} is the running sum over s of (-1)^s a^{s,t}.
    """
    drop, lo = module.drop(i), (module.min_degree() if module.basis else 0)
    pair = restrict_qs(module, tuple(j for j in module.qs if j != i))
    rest = ext_koszul(pair, s_max, t_max + drop).dims
    if t_max < lo:
        return {}
    nt = t_max + drop - lo + 1

    def dense(dims: dict[tuple[int, int], int]) -> np.ndarray:
        """dims as an (s_max + 1) x nt array over t = lo .. t_max + d_i."""
        out = np.zeros((s_max + 1, nt), dtype=np.int64)
        s, t = np.array(list(dims), dtype=np.int64).reshape(-1, 2).T
        keep = (s <= s_max) & (t >= lo) & (t < lo + nt)
        out[s[keep], t[keep] - lo] = np.fromiter(dims.values(), dtype=np.int64, count=len(dims))[keep]
        return out

    total, part = dense(ext), dense(rest)
    a = part[:, drop:] - total[:, drop:]
    a[1:] += total[:-1, : nt - drop]
    sign = 1 - 2 * (np.arange(s_max + 1) % 2)[:, None]
    kernel = sign * np.cumsum(sign * a, axis=0)
    # C^{s,t+d_i} = 0 once s > t + d_i - lo, and the recurrence stops there
    kernel[np.arange(s_max + 1)[:, None] > np.arange(nt - drop) + drop] = 0
    t_ix, s_ix = np.nonzero(kernel.T)
    return {(int(s), lo + int(t)): int(kernel[s, t]) for t, s in zip(t_ix, s_ix)}


@dataclass
class BocksteinE1:
    """E_1 page of the v_i-Bockstein spectral sequence.

    The page is Ext over the remaining operators tensor F_p[v_i]; dims[(s,
    t)] is the dimension of that pair Ext^{s,t}, which the column of each
    power v_i^r repeats, shifted by r times the bidegree of v_i.  collapse
    records the Cartan-Eilenberg count through t_max: dim Ext^{s,t} = sum_r
    dim Ext_pair^{s-r, t-r d_i}, that is, `_v_kernels` finds no kernel.
    """

    i: int
    pair: tuple[int, ...]
    dims: dict[tuple[int, int], int]
    collapse: bool


def bockstein_e1(module: QModule, i: int, s_max: int, t_max: int) -> BocksteinE1:
    if i not in module.qs:
        raise KeyError(f"Q_{i} is not defined on this module")
    pair = tuple(x for x in module.qs if x != i)
    if not pair:
        raise ValueError("the Bockstein direction must leave at least one operator")
    ext = ext_koszul(module, s_max, t_max).dims
    kernels = _v_kernels(module, ext, i, s_max, t_max - module.drop(i))
    dims = ext_koszul(restrict_qs(module, pair), s_max, t_max).dims
    return BocksteinE1(i, pair, dims, not kernels)


@dataclass
class VInjectivityReport:
    i: int
    passed: bool
    checked_classes: int
    kernel_at: list[tuple[int, int]]
    window: tuple[int, int, int]


def v_injectivity(module: QModule, i: int, s_max: int, t_max: int) -> VInjectivityReport:
    """Check v_i-multiplication has zero kernel on classes in the window.

    Sources run over s <= s_max and t <= t_max; targets live one v_i
    bidegree higher, so a truncated module must certify t_max + d_i.  Every
    operator shares the module's chart through t_max plus the largest drop
    it certifies, and reads its own pair chart.
    """
    if i not in module.qs:
        raise KeyError(f"Q_{i} is not defined on this module")
    top = module.truncated_above
    drop = module.drop(i)
    if top is not None and t_max + drop > top:
        raise ValueError(
            f"targets reach t = {t_max + drop}, beyond the certified degree {top}; "
            f"lower t_max to {top - drop}"
        )
    reach = max(d for d in map(module.drop, module.qs) if top is None or t_max + d <= top)
    ext = ext_koszul(module, s_max, t_max + reach).dims
    kernel_at = list(_v_kernels(module, ext, i, s_max, t_max))
    return VInjectivityReport(
        i=i,
        passed=not kernel_at,
        checked_classes=sum(n for (_, t), n in ext.items() if t <= t_max),
        kernel_at=kernel_at,
        window=(s_max, module.min_degree() if module.basis else 0, t_max),
    )
