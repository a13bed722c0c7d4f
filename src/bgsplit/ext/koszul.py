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
(`ext_koszul`) and `ext_p_module` read their dimensions from it.
v-injectivity and Bockstein collapse read charts alone: v_i is injective
on cochains with cokernel the complex of M over the other operators, so
a long exact sequence counts the kernel of v_i on Ext (`_v_kernels`).
Class representatives are built only by `KoszulComplex.homology`, for
the `v_mult` of `ext_p_module`, which reduces the chain images of all
representatives at once; it is one call to `fplin.homology_basis`, the
primitive Margolis homology uses too.  Differentials are built where
they are read and not kept: `homology` keeps only its bases.

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

from ..fplin import homology_basis, ranks, reduce_mod_rows
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
    monos = v_monomials(qs, s)
    alphas = np.array(monos, dtype=np.int64).reshape(len(monos), len(qs))
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


# the most chain columns one pass of `KoszulComplex.chart` holds, which bounds
# the entries it ranks at once: C-bar's three-operator chart has 35,667 in
# t = 192..220, and one pass over them cost 2.7 MB of peak RSS
_COLUMNS = 8192


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
        self._dims = np.array([module.dim(d) for d in module.degrees()], dtype=np.int64)
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

    def _offsets(self, s: int, t: int) -> tuple[dict[tuple[int, ...], int], int]:
        """The first row of each block of C^{s,t}, keyed by its alpha, and dim C^{s,t}."""
        blocks = self.chain_blocks(s, t)
        starts = np.cumsum([0] + [dim for _, _, dim in blocks]).tolist()
        return dict(zip([alpha for alpha, _, _ in blocks], starts)), starts[-1]

    def differential(self, s: int, t: int) -> np.ndarray:
        """Matrix of d = sum Q_i (x) v_i from C^{s,t} to C^{s+1,t}.

        The v's commute and the Q's square to zero and anticommute, so no
        extra signs are needed for d^2 = 0.  Built on each call, not kept.
        """
        offsets, rows = self._offsets(s + 1, t)
        mat = np.zeros((rows, self.chain_dim(s, t)), dtype=np.int64)
        col = 0
        for alpha, d, dim in self.chain_blocks(s, t):
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
        offsets, rows = self._offsets(s + 1, t + self.drops[ix])
        mat = np.zeros((rows, self.chain_dim(s, t)), dtype=np.int64)
        col = 0
        for alpha, _, dim in self.chain_blocks(s, t):
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

        d preserves t, so the window is taken in independent t-slabs, halved
        until each has at most _COLUMNS chain columns, and each slab's
        differentials d^{s,t}, s <= s_max, are ranked together by one
        `fplin.ranks` call on their entries.  No dense differential is built
        and nothing is memoised on the complex.
        """
        if not self.module.basis:
            return {}
        return self._slab(s_max, t_min, t_max, [_nonzeros(self.module, i) for i in self.qs])

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
        s stops at t1 - min degree.  A slab with more than _COLUMNS chain
        columns, counted before any block is tabulated, is halved.
        """
        degs = self._degrees
        levels = min(s_max + 1, t1 - int(degs[0])) + 1
        if levels <= 0:
            return {}
        runs = []
        for s in range(levels):
            vdeg, alphas = _v_exponents(self.qs, self.drops, s)
            lo = np.searchsorted(vdeg, t0 - degs, "left")
            runs.append((vdeg, alphas, lo, np.searchsorted(vdeg, t1 - degs, "right") - lo))
        if t1 > t0 and sum(int(c @ self._dims) for *_, c in runs) > _COLUMNS:
            mid = (t0 + t1) // 2
            return self._slab(s_max, t0, mid, actions) | self._slab(s_max, mid + 1, t1, actions)
        nt = t1 - t0 + 1
        # alpha as digits in base `levels`, which every exponent is below:
        # the code orders alphas of one length lex, and alpha + e_ix adds place[ix]
        place = levels ** np.arange(len(self.qs) - 1, -1, -1, dtype=np.int64)
        span = levels ** len(self.qs)
        bids, keys, ds = [], [], []
        for s, (vdeg, alphas, lo, counts) in enumerate(runs):
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
        width = self._dims[D]
        chain = np.bincount(np.repeat(bid, width), minlength=levels * nt)
        # the batch numbers columns from level 0 and rows from level 1
        pos, lead = np.cumsum(width) - width, chain[:nt].sum()

        src = np.flatnonzero(bid < (min(s_max, levels - 2) + 1) * nt)
        parts: list[tuple[np.ndarray, ...]] = []
        for ix, (count, start, qr, qc, qv) in enumerate(actions):
            k = count[D[src]]
            b, k = src[k > 0], k[k > 0]
            target = np.searchsorted(key, key[b] + nt * span + place[ix])
            at = _ragged(start[D[b]], k)
            parts.append(
                (np.repeat(pos[target] - lead, k) + qr[at], np.repeat(pos[b], k) + qc[at], qv[at])
            )
        none = np.zeros(0, dtype=np.int64)
        entries = [np.concatenate(x) for x in zip(*parts, (none,) * 3)]
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


def _v_kernels(
    module: QModule, ext: dict[tuple[int, int], int], i: int, s_max: int, t_max: int
) -> dict[tuple[int, int], int]:
    """The nonzero dim ker(v_i on Ext^{s,t}), s <= s_max and t <= t_max, t-major.

    ext is the module's chart through t_max + d_i.  With H' the Ext over the
    other operators, 0 -> C^{s-1,t} -> C^{s,t+d_i} -> C'^{s,t+d_i} -> 0 gives
    ker^{s,t} = dim H'^{s,t+d_i} - dim H^{s,t+d_i} + dim H^{s-1,t} - ker^{s-1,t},
    counted wherever a term can be nonzero, so inexact charts show a kernel.
    """
    drop, lo = module.drop(i), (module.min_degree() if module.basis else 0)
    pair = restrict_qs(module, tuple(j for j in module.qs if j != i))
    rest = ext_koszul(pair, s_max, t_max + drop).dims
    kernels: dict[tuple[int, int], int] = {}
    for t in range(lo, t_max + 1):
        below = 0  # ker^{-1,t}; C^{s,t+d_i} = 0 once s > t + d_i - lo
        for s in range(min(s_max, t + drop - lo) + 1):
            up = (s, t + drop)
            below = rest.get(up, 0) - ext.get(up, 0) + ext.get((s - 1, t), 0) - below
            if below:
                kernels[(s, t)] = below
    return kernels


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

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)


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
