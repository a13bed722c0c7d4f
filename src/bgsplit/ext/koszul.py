"""Ext over exterior algebras via the complex M (x) F_p[v_i].

The minimal free resolution of F_p over E(Q_i : i in qs) dualizes to the
complex with cochains M tensor the v-monomials and differential
d = sum_i Q_i (x) v_i, so its cohomology is Ext_E(F_p, M) and the
v_i-multiplications are visible at chain level.  Chart coordinates put a
cochain m (x) v^alpha at s = |alpha| and t = deg(m) + sum alpha_i d_i
with d_i = 2p^i - 1, so v_i sits at (1, d_i) and d preserves t.

Dimensions come from ranks, dim Ext^{s,t} = dim C^{s,t} - rank d^{s,t} -
rank d^{s-1,t}, and only `KoszulComplex.chart` computes them: it takes a
whole window at once, tabulates the chain blocks by index arithmetic,
emits the differentials' entries, never a dense differential, and ranks
every differential of a t-slab with one `fplin.ranks` call.  Charts
(`ext_koszul`), `ext_p_module` and v-injectivity all read their
dimensions from it; v-injectivity then compares the rank of each
v_i-multiplication with the dimension of its source.  Class
representatives are built only by `KoszulComplex.homology`, for
`v_mult`, which reduces the chain images of all representatives at once;
it is one call to `fplin.homology_basis`, the primitive Margolis
homology uses too.  The chain blocks it eliminates over are read from
`_v_exponents`, the v-monomial table the chart tabulates from.
Differentials are built where they are read and not kept: `homology`
keeps only its bases.

Charts and v-injectivity reports are memoised by module content
(`qmodules.content_key`, the same identity the gr and comparison caches
use): `ext_koszul` and `v_injectivity` compute each (module, window) once
per process, so two equal modules built apart, such as the same
`restrict_qs` pair asked for by two checks or the blocks C_k with one
floor(k/p), share one result, and a chart window inside one already
computed for the same content is cut from it.  The complex itself is
dropped after each computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..fplin import homology_basis, rank, ranks, reduce_mod_rows
from ..monomials import exponent_vectors
from ..qmodules import QModule, content_key, restrict_qs


def v_monomials(qs: tuple[int, ...], s: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples over qs with |alpha| = s, in lexicographic order."""
    return tuple(exponent_vectors((1,) * len(qs), s, exact=True))


@lru_cache(maxsize=None)
def _v_exponents(
    qs: tuple[int, ...], drops: tuple[int, ...], s: int
) -> tuple[np.ndarray, np.ndarray]:
    """The v-degrees of v_monomials(qs, s), ascending, and the exponents as rows in that order.

    The sort is stable, so alphas of one v-degree stay in lex order.
    """
    alphas = np.array(v_monomials(qs, s), dtype=np.int64).reshape(-1, len(qs))
    vdeg = alphas @ np.array(drops, dtype=np.int64)
    order = np.argsort(vdeg, kind="stable")
    return vdeg[order], alphas[order]


def _ragged(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[j] .. starts[j] + counts[j] - 1, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + counts, counts)


def _nonzeros(module: QModule, i: int) -> tuple[np.ndarray, ...]:
    """The nonzero entries of every Q_i matrix, concatenated in degree order.

    Returns (entries per degree of module.degrees(), the start of each
    degree's entries, rows, columns, values), so a degree's entries are
    one slice.
    """
    none = np.zeros((0, 0), dtype=np.int64)
    mats = [module.actions[i].get(d, none) for d in module.degrees()]
    at = [np.nonzero(mat) for mat in mats]
    count = np.array([r.size for r, _ in at], dtype=np.int64)
    rows, cols = (np.concatenate([x[k] for x in at]) for k in (0, 1))
    return count, np.cumsum(count) - count, rows, cols, np.concatenate([m[x] for m, x in zip(mats, at)])


# t-width of one pass of `KoszulComplex.chart`: bounds the entries held at
# once; at 64 the structure checks' peak RSS rose by about 0.1 MB over 32
_SLAB = 32


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

    @property
    def total(self) -> int:
        return sum(self.dims.values())

    def chart_rows(self) -> list[tuple[int, int, int]]:
        return [(s, t, d) for (s, t), d in sorted(self.dims.items())]

    def to_json(self) -> dict:
        return {
            "s_max": self.s_max,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "classes": [{"s": s, "t": t, "dim": d} for s, t, d in self.chart_rows()],
            "note": self.note,
        }


class KoszulComplex:
    """Cochain complex computing Ext_E(F_p, M) with chain-level v-action."""

    def __init__(self, module: QModule):
        self.module = module
        self.qs = module.qs
        self.p = module.ctx.p
        self.drops = tuple(module.ctx.q_degree(i) for i in self.qs)
        self._degrees = np.array(module.degrees(), dtype=np.int64)
        self._chains: dict[tuple[int, int], tuple[tuple, int]] = {}
        self._homology: dict[tuple[int, int], tuple] = {}

    # -- chain level ---------------------------------------------------------

    def chain_blocks(self, s: int, t: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
        """(alpha, module degree, block dim) per nonempty block of C^{s,t}, in lex order.

        Blocks v^alpha (x) M_d with M_d = 0 add no columns, so they are left
        out.  Each module degree d finds its alphas, those of v-degree
        t - d, in the `_v_exponents` table that `chart` reads too.
        """
        return self._chain(s, t)[0]

    def chain_dim(self, s: int, t: int) -> int:
        return self._chain(s, t)[1]

    def _chain(self, s: int, t: int) -> tuple[tuple, int]:
        """The blocks of C^{s,t} and their total dimension, memoised per (s, t)."""
        key = (s, t)
        cached = self._chains.get(key)
        if cached is not None:
            return cached
        vdeg, alphas = _v_exponents(self.qs, self.drops, s)
        want = t - self._degrees
        spans = zip(
            self.module.degrees(),
            vdeg.searchsorted(want, "left").tolist(),
            vdeg.searchsorted(want, "right").tolist(),
        )
        blocks = tuple(
            sorted(
                (tuple(alpha), d, self.module.dim(d))
                for d, lo, hi in spans
                if lo < hi
                for alpha in alphas[lo:hi].tolist()
            )
        )
        cached = self._chains[key] = (blocks, sum(dim for _, _, dim in blocks))
        return cached

    def differential(self, s: int, t: int) -> np.ndarray:
        """Matrix of d = sum Q_i (x) v_i from C^{s,t} to C^{s+1,t}.

        The v's commute and the Q's square to zero and anticommute, so no
        extra signs are needed for d^2 = 0.  Built on each call, not kept.
        """
        src = self.chain_blocks(s, t)
        dst = self.chain_blocks(s + 1, t)
        offsets = {}
        total = 0
        for alpha, _, dim in dst:
            offsets[alpha] = total
            total += dim
        mat = np.zeros((total, self.chain_dim(s, t)), dtype=np.int64)
        col = 0
        for alpha, d, dim in src:
            for ix, i in enumerate(self.qs):
                beta = alpha[:ix] + (alpha[ix] + 1,) + alpha[ix + 1 :]
                row = offsets.get(beta)
                if row is not None:
                    action = self.module.act(i, d)
                    mat[row : row + action.shape[0], col : col + dim] += action
            col += dim
        mat %= self.p
        return mat

    def v_mult_chain(self, s: int, t: int, i: int) -> np.ndarray:
        """Chain-level multiplication by v_i: C^{s,t} -> C^{s+1,t+d_i}."""
        ix = self.qs.index(i)
        src = self.chain_blocks(s, t)
        dst = self.chain_blocks(s + 1, t + self.drops[ix])
        offsets = {}
        total = 0
        for alpha, _, dim in dst:
            offsets[alpha] = total
            total += dim
        mat = np.zeros((total, self.chain_dim(s, t)), dtype=np.int64)
        col = 0
        for alpha, _, dim in src:
            beta = alpha[:ix] + (alpha[ix] + 1,) + alpha[ix + 1 :]
            row = offsets[beta]
            mat[row : row + dim, col : col + dim] = np.eye(dim, dtype=np.int64)
            col += dim
        return mat

    # -- cohomology ----------------------------------------------------------

    def homology(self, s: int, t: int) -> tuple[np.ndarray, tuple, np.ndarray, tuple]:
        """(representative rows, their pivots, border rows, border pivots).

        d^{-1,t} is the empty (n x 0) map, so s = 0 has no borders.
        """
        key = (s, t)
        cached = self._homology.get(key)
        if cached is None:
            cached = self._homology[key] = homology_basis(
                self.differential(s, t), self.differential(s - 1, t), self.p
            )
        return cached

    # -- a whole window at once ----------------------------------------------

    def chart(self, s_max: int, t_min: int, t_max: int) -> dict[tuple[int, int], int]:
        """The nonzero dim Ext^{s,t} for s <= s_max and t_min <= t <= t_max, t-major.

        d preserves t, so the window is taken in independent t-slabs of
        width _SLAB, and each slab's differentials d^{s,t}, s <= s_max, are
        ranked together by one `fplin.ranks` call on their entries.  No
        dense differential is built and nothing is memoised on the complex.
        """
        dims: dict[tuple[int, int], int] = {}
        if not self.module.basis:
            return dims
        actions = [_nonzeros(self.module, i) for i in self.qs]
        for t0 in range(t_min, t_max + 1, _SLAB):
            dims.update(self._slab(s_max, t0, min(t0 + _SLAB - 1, t_max), actions))
        return dims

    def _slab(
        self, s_max: int, t0: int, t1: int, actions: list[tuple[np.ndarray, ...]]
    ) -> dict[tuple[int, int], int]:
        """`chart` on t0 <= t <= t1, with `_nonzeros` of each operator of qs.

        Blocks v^alpha (x) M_d are tabulated by index arithmetic over the
        v-degrees of each s and the module's degrees, then put in (s, t,
        lex alpha) order by one sort of a combined key, so each bidegree
        keeps the block order of `chain_blocks`.  Every (i, module degree)
        whose Q_i matrix is nonzero sends each source block at that degree
        to its block alpha + e_i one s higher, found by `np.searchsorted`
        on the key, and contributes the matrix's entries at the two blocks'
        offsets.  A block needs v-degree >= s, since every drop is >= 1, so
        s stops at t1 - min degree.
        """
        nt = t1 - t0 + 1
        degs = self._degrees
        levels = min(s_max + 1, t1 - int(degs[0])) + 1
        if levels <= 0:
            return {}
        # alpha as digits in base `levels`, which every exponent is below:
        # the code orders alphas of one length lex, and alpha + e_ix adds place[ix]
        place = levels ** np.arange(len(self.qs) - 1, -1, -1, dtype=np.int64)
        span = levels ** len(self.qs)
        bids, keys, ds = [], [], []
        for s in range(levels):
            vdeg, alphas = _v_exponents(self.qs, self.drops, s)
            lo = np.searchsorted(vdeg, t0 - degs, "left")
            counts = np.searchsorted(vdeg, t1 - degs, "right") - lo
            at = _ragged(lo, counts)
            d = np.repeat(np.arange(degs.size), counts)
            # the bidegree s * nt + t - t0, and (s, t, alpha) as one integer
            bids.append(s * nt - t0 + vdeg[at] + degs[d])
            keys.append(bids[-1] * span + alphas[at] @ place)
            ds.append(d)
        # one sort puts the blocks in (s, t, lex alpha) order, and a target
        # block is found by searching for its key
        key = np.concatenate(keys)
        order = np.argsort(key, kind="stable")
        key, bid, D = key[order], np.concatenate(bids)[order], np.concatenate(ds)[order]
        del bids, keys, ds
        width = np.array([self.module.dim(d) for d in degs], dtype=np.int64)[D]
        chain = np.bincount(np.repeat(bid, width), minlength=levels * nt)
        offset = np.cumsum(width) - width - (np.cumsum(chain) - chain)[bid]

        src = np.flatnonzero(bid < (min(s_max, levels - 2) + 1) * nt)
        parts: list[tuple[np.ndarray, ...]] = []
        for ix, (count, start, qr, qc, qv) in enumerate(actions):
            k = count[D[src]]
            b, k = src[k > 0], k[k > 0]
            target = np.searchsorted(key, key[b] + nt * span + place[ix])
            at = _ragged(start[D[b]], k)
            parts.append(
                (
                    np.repeat(bid[b], k),
                    np.repeat(offset[target], k) + qr[at],
                    np.repeat(offset[b], k) + qc[at],
                    qv[at],
                )
            )
        none = np.zeros(0, dtype=np.int64)
        entries = [np.concatenate(x) for x in zip(*parts, (none,) * 4)]
        del parts
        # d^{s,t} maps C^{s,t} to C^{s+1,t}; the top level has no sources, so
        # its targets, one level up, are not tabulated
        shapes = np.stack([np.append(chain[nt:], np.zeros(nt, dtype=np.int64)), chain], axis=1)
        rk = ranks(*entries, shapes, self.p).reshape(levels, nt)
        top = min(s_max, levels - 1) + 1
        ext = (chain.reshape(levels, nt) - rk - np.vstack([np.zeros((1, nt), dtype=np.int64), rk[:-1]]))[:top]
        t_ix, s_ix = np.nonzero(ext.T)
        return {(int(s), t0 + int(t)): int(ext[s, t]) for t, s in zip(t_ix, s_ix)}

    def v_mult(self, s: int, t: int, i: int) -> np.ndarray:
        """Induced map on classes (s,t) -> (s+1, t+d_i), columns = sources.

        A reduced image's class coordinates are its entries at the pivots
        of the target's representatives.
        """
        reps = self.homology(s, t)[0]
        target = (s + 1, t + self.module.ctx.q_degree(i))
        treps, trep_piv, borders, border_piv = self.homology(*target)
        if reps.shape[0] == 0 or treps.shape[0] == 0:
            return np.zeros((treps.shape[0], reps.shape[0]), dtype=np.int64)
        images = (reps @ self.v_mult_chain(s, t, i).T) % self.p
        reduced = reduce_mod_rows(images, borders, border_piv, self.p)
        coords = reduced[:, list(trep_piv)]
        if not np.array_equal((coords @ treps) % self.p, reduced):
            raise ValueError("vector is not a cycle at this bidegree")
        return coords.T


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


@dataclass
class BocksteinE1:
    """E_1 page of the v_i-Bockstein spectral sequence.

    The page is Ext over the remaining operators tensor F_p[v_i]; dims[(s,
    t)] is the dimension of that pair Ext^{s,t}, which the column of each
    power v_i^r repeats, shifted by r times the bidegree of v_i.  When it
    is concentrated in even t - s no differential can be nonzero, since
    each page's differential flips the parity of the total t - s; collapse
    records that.
    """

    i: int
    pair: tuple[int, ...]
    dims: dict[tuple[int, int], int]
    collapse: bool

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)


def bockstein_e1(module: QModule, i: int, s_max: int, t_max: int) -> BocksteinE1:
    if i not in module.qs:
        raise KeyError(f"Q_{i} is not defined on this module")
    pair = tuple(x for x in module.qs if x != i)
    if not pair:
        raise ValueError("the Bockstein direction must leave at least one operator")
    rest = restrict_qs(module, pair)
    ext = ext_koszul(rest, s_max, t_max)
    collapse = all((t - s) % 2 == 0 for (s, t) in ext.dims)
    return BocksteinE1(i, pair, ext.dims, collapse)


@dataclass
class VInjectivityReport:
    i: int
    passed: bool
    checked_classes: int
    kernel_at: list[tuple[int, int]]
    window: tuple[int, int, int]


_V_INJECTIVITY: dict[tuple, dict[int, tuple[int, tuple[tuple[int, int], ...]]]] = {}


def v_injectivity(module: QModule, i: int, s_max: int, t_max: int) -> VInjectivityReport:
    """Check v_i-multiplication has zero kernel on classes in the window.

    Sources run over s <= s_max and t <= t_max; targets live one v_i
    bidegree higher, so a truncated module must certify t_max + d_i.
    Reports are memoised by module content and window: the first call
    builds one complex and checks every operator whose targets the module
    certifies, so later calls for any i are lookups.
    """
    if i not in module.qs:
        raise KeyError(f"Q_{i} is not defined on this module")
    top = module.truncated_above
    ops = [j for j in module.qs if top is None or t_max + module.ctx.q_degree(j) <= top]
    if i not in ops:
        drop = module.ctx.q_degree(i)
        raise ValueError(
            f"targets reach t = {t_max + drop}, beyond the certified degree {top}; "
            f"lower t_max to {top - drop}"
        )
    lo = module.min_degree() if module.basis else 0
    key = (content_key(module), s_max, t_max)
    reports = _V_INJECTIVITY.get(key)
    if reports is None:
        complex_ = KoszulComplex(module)
        dims = complex_.chart(s_max, lo, t_max)
        kernel_at: dict[int, list[tuple[int, int]]] = {j: [] for j in ops}
        for (s, t), n in dims.items():
            for j in ops:
                if rank(complex_.v_mult(s, t, j), module.ctx.p) < n:
                    kernel_at[j].append((s, t))
        checked = sum(dims.values())
        reports = _V_INJECTIVITY[key] = {j: (checked, tuple(kernel_at[j])) for j in ops}
    checked, kernel_at = reports[i]
    return VInjectivityReport(
        i=i,
        passed=not kernel_at,
        checked_classes=checked,
        kernel_at=list(kernel_at),
        window=(s_max, lo, t_max),
    )
