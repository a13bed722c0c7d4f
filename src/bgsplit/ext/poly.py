"""Truncated bigraded modules over F_p[v_0, v_1, ...] and their Ext.

The polynomial side of Koszul duality: Ext over an exterior algebra,
carried with its chain-level v-multiplications, is a bigraded module over
P = F_p[v_j : j in qs] with v_j in bidegree (1, 2p^j - 1).  Since every
v_j strictly raises the internal degree t, all computations can run
degreewise below a ceiling t_max, and every derived object records the
window it is exact on.

Each weight block is resolved once: `resolved_block` holds Ext(F_p, C)
and stages 0..2 of its minimal resolution per block content.  A gr
presentation is a view of that memo, projective dimension reads its length
and socle off the view, and the E_2 comparison maps the same stages into
a target block's Ext: `ext_from_resolution` lays out Hom(F_u, B) of its
whole window as one table, as `koszul.BlockTable` lays out chains, and
ranks every differential with one `fplin.ranks` call.  The v-maps, cover
images, kernels and Hom table are `fplin` entry tables, joined by its helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fplin import Entries, compose, coset_representatives, joined, kernel_array, lookup, minus, nonzeros
from ..fplin import ragged, ranks, rref_array, run_starts, summed
from ..qmodules import QModule, content_key
from .koszul import BigradedDims, KoszulComplex, _v_levels, dims_from_ranks

Bidegree = tuple[int, int]


class PModule:
    """Bigraded P-module known exactly for internal degrees t <= t_max.

    Its classes are numbered once, bidegree by bidegree in ascending
    (t, s): dims[(s, t)] holds the nonzero dimensions and first[(s, t)]
    the number of the bidegree's first class; as arrays over the
    bidegrees in that order, (ss[b], ts[b]) is bidegree b, counts[b] its
    dimension and starts[b] its first class, and home[c] is the bidegree
    of class c.  maps[j] = (src, dst, val) holds the entries of v_j over
    that numbering, sorted by (src, dst): v_j sends class src[e] to the
    sum of val[e] times class dst[e].  No entry can reach above t_max, and
    `act` refuses an action whose target lies there; it cuts one
    bidegree's dense matrix from the entries.
    """

    def __init__(
        self,
        p: int,
        var_degrees: tuple[int, ...],
        dims: dict[Bidegree, int],
        maps: dict[int, Entries],
        t_max: int,
        _skip_check: bool = False,
    ) -> None:
        self.p = p
        self.var_degrees = tuple(var_degrees)
        self.t_max = t_max
        self.dims = {bd: n for bd, n in sorted(dims.items(), key=lambda x: (x[0][1], x[0][0])) if n}
        self.counts = np.fromiter(self.dims.values(), dtype=np.int64, count=len(self.dims))
        self.starts = np.cumsum(self.counts) - self.counts
        self.first = dict(zip(self.dims, self.starts.tolist()))
        self.ss, self.ts = np.array(list(self.dims), dtype=np.int64).reshape(-1, 2).T
        self.home = np.repeat(np.arange(self.counts.size), self.counts)
        self.maps = {j: summed(*maps.get(j, joined([])), p) for j in range(len(self.var_degrees))}
        if not _skip_check:
            self._check()

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)

    def bidegrees(self) -> list[Bidegree]:
        return list(self.dims)

    def min_t(self) -> int:
        return min((t for _, t in self.dims), default=0)

    def act(self, j: int, s: int, t: int) -> np.ndarray:
        dv = self.var_degrees[j]
        if t + dv > self.t_max:
            raise ValueError(f"v_{j} from t = {t} leaves the certified window")
        mat = np.zeros((self.dim(s + 1, t + dv), self.dim(s, t)), dtype=np.int64)
        if mat.size:
            src, dst, val = self.maps[j]
            c0 = self.first[(s, t)]
            a, z = np.searchsorted(src, (c0, c0 + mat.shape[1]))
            mat[dst[a:z] - self.first[(s + 1, t + dv)], src[a:z] - c0] = val[a:z]
        return mat

    def truncated(self, t_max: int) -> "PModule":
        """The same module, known only for t <= t_max: a prefix of the classes."""
        if t_max > self.t_max:
            raise ValueError(f"t_max {t_max} exceeds the certified window {self.t_max}")
        n = int(self.counts[self.ts <= t_max].sum())
        dims = {bd: k for bd, k in self.dims.items() if bd[1] <= t_max}
        view = PModule(self.p, self.var_degrees, dims, {}, t_max, _skip_check=True)
        # a prefix of summed entries is summed and sorted, so it is set without a second pass
        view.maps = {j: tuple(x[dst < n] for x in (src, dst, val)) for j, (src, dst, val) in self.maps.items()}
        return view

    def locate(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The index in dims of each bidegree (s[e], t[e]), or -1 where the module is zero."""
        width = int(self.ss.max(initial=0)) + 1
        return np.where((s >= 0) & (s < width), lookup(self.ts * width + self.ss, t * width + s), -1)

    def stacked_ranks(self, count: int, into: bool) -> np.ndarray:
        """The rank of each of the first `count` bidegrees' v-stacks, from one `fplin.ranks` call.

        Stack b has b's classes as columns and, as rows, the classes of
        b + v_j (or b - v_j, with into), for each j in turn, with each
        entry of v_j between them: the v-maps out of b stacked, or the
        transposed v-images into b.  The stacks are numbered as the
        bidegrees are, so a class's number is its column across the batch.
        """
        nb, nv = self.counts.size, len(self.var_degrees)
        ends = []
        for dv in self.var_degrees:
            up = self.locate(self.ss + 1, self.ts + dv)
            if into:
                up, down = np.full(nb, -1, dtype=np.int64), up
                up[down[down >= 0]] = np.flatnonzero(down >= 0)
            ends.append(up)
        heights = np.stack([np.where(e >= 0, self.counts[e], 0) for e in ends])
        offset = (np.cumsum(heights.T) - heights.T.ravel()).reshape(nb, nv).T
        parts = []
        for j, (src, dst, val) in self.maps.items():
            near, far = (dst, src) if into else (src, dst)
            keep = self.home[near] < count
            near, far = near[keep], far[keep]
            parts.append((offset[j, self.home[near]] + far - self.starts[self.home[far]], near, val[keep]))
        shapes = np.stack([heights.sum(axis=0)[:count], self.counts[:count]], axis=1)
        return ranks(*joined(parts), shapes, self.p)

    def _check(self) -> None:
        """Every entry of v_j goes from (s, t) to (s + 1, t + d_j), and the v's commute.

        Commutation composes the entry maps: v_h v_j and v_j v_h are each
        one join of two entry lists, and their difference must vanish.
        """
        ss, ts = self.ss, self.ts
        for j, (src, dst, _) in self.maps.items():
            a, b = self.home[src], self.home[dst]
            dv = self.var_degrees[j]
            wrong = np.flatnonzero((ss[b] != ss[a] + 1) | (ts[b] != ts[a] + dv))
            if wrong.size:
                a, b = a[wrong[0]], b[wrong[0]]
                raise ValueError(
                    f"v_{j} entry from {(int(ss[a]), int(ts[a]))} lands at {(int(ss[b]), int(ts[b]))}, "
                    f"expected {(int(ss[a]) + 1, int(ts[a]) + dv)}"
                )
        first = None
        nv = len(self.var_degrees)
        for j in range(nv):
            for h in range(j + 1, nv):
                lhs = compose(self.maps[j], self.maps[h], self.p)
                diff = minus(lhs, compose(self.maps[h], self.maps[j], self.p), self.p)
                if diff[0].size and (first is None or self.home[diff[0][0]] < first[0]):
                    first = (self.home[diff[0][0]], j, h)
        if first is not None:
            b, j, h = first
            raise ValueError(f"v_{j} and v_{h} fail to commute at {(int(ss[b]), int(ts[b]))}")


def ext_p_module(module: QModule, t_max: int) -> PModule:
    """Ext(F_p, module) for t <= t_max, as a module over the v's of its pair.

    One `BlockTable` over the whole window gives the dimensions and the
    v-maps' entries over the classes, numbered in the order `PModule` uses.
    """
    cap = module.truncated_above
    if cap is not None and t_max > cap:
        raise ValueError(f"t_max {t_max} exceeds the certified degree {cap}")
    kc = KoszulComplex(module)
    if not kc.drops:
        raise ValueError("the module must carry at least one operator")
    # a block at (s, t) needs t >= t0 + s * min drop, so this rectangle
    # holds every class with t <= t_max, and with it every v_j target
    t0 = module.min_degree()
    if t_max < t0:
        return PModule(kc.p, kc.drops, {}, {}, t_max)
    table = kc.table((t_max - t0) // min(kc.drops), t0, t_max)
    dims = table.ext()
    return PModule(kc.p, kc.drops, dims, table.v_maps(dims), t_max)


# -- presentations ---------------------------------------------------------------

RelationEntries = tuple[tuple[int, tuple[int, ...], int], ...]


@dataclass(frozen=True, eq=False)
class PolyPresentation:
    """Minimal presentation of a bigraded P-module, exact for t <= t_max.

    A view of two things: the module itself, known for t <= t_max, and
    the first stages of its minimal resolution, which may be known past
    t_max and are read only at t <= t_max.  Generators are stage 0's
    bidegrees; each relation is ((s, t), entries), stage 1's vector read
    over stage 0's columns as (gen index, alpha, coefficient): the element
    sum c * v^alpha * gen vanishes.  Minimality means no entry has
    alpha = 0 (no unit in the relation matrix).
    """

    module: PModule
    stages: list[PStage]

    @property
    def p(self) -> int:
        return self.module.p

    @property
    def var_degrees(self) -> tuple[int, ...]:
        return self.module.var_degrees

    @property
    def t_max(self) -> int:
        return self.module.t_max

    @property
    def generators(self) -> tuple[Bidegree, ...]:
        # stages list generators in ascending (t, s), so the kept ones are a
        # prefix and the relations' generator indices stay valid
        if not self.stages:
            return ()
        return tuple(bd for bd in self.stages[0].gen_bidegrees if bd[1] <= self.t_max)

    @property
    def relations(self) -> tuple[tuple[Bidegree, RelationEntries], ...]:
        if len(self.stages) < 2:
            return ()
        cover, syzygies = self.stages[:2]
        return tuple(
            (bd, tuple(
                (g, alpha, int(vector[pos]))
                for pos, (g, alpha) in enumerate(cover.free.keys(bd))
                if vector[pos]
            ))
            for bd, vector in zip(syzygies.gen_bidegrees, syzygies.gen_vectors)
            if bd[1] <= self.t_max
        )


# -- free covers and kernels -----------------------------------------------------


class FreeColumns:
    """The basis v^alpha g of the free module on some generators, for t <= t_cap.

    Columns are numbered bidegree by bidegree in ascending (t, s), and
    within one bidegree by generator, then alpha lexicographically; column
    c is v^alpha[c] times generator gen[c], and up[c, j] is the column
    v_j times it, or -1 where that lies above t_cap.  bidegrees lists the
    bidegrees with a column, start[i] .. start[i + 1] - 1 are those of
    bidegrees[i], and home[c] is the index of column c's bidegree.  The
    alphas come from one `koszul._v_levels` enumeration up to the largest
    v-degree any generator has room for.
    """

    def __init__(self, gen_bidegrees, var_degrees: tuple[int, ...], t_cap: int):
        nv = len(var_degrees)
        gs, gt = np.array(list(gen_bidegrees), dtype=np.int64).reshape(-1, 2).T
        budget = max(t_cap - int(gt.min(initial=t_cap)), 0)
        levels = _v_levels(tuple(var_degrees), budget // min(var_degrees), budget)
        vdeg, alphas = (np.concatenate(x) for x in zip(*levels))
        order = np.argsort(vdeg, kind="stable")
        vdeg, alphas = vdeg[order], alphas[order]
        count = np.searchsorted(vdeg, t_cap - gt, "right")
        gen, at = np.repeat(np.arange(gt.size), count), ragged(np.zeros_like(count), count)
        alpha, s, t = alphas[at], gs[gen] + alphas[at].sum(axis=1), gt[gen] + vdeg[at]
        # alpha as digits in a base no exponent reaches even after a step,
        # so alpha + e_j adds place[j] with no carry
        base = int(alpha.max(initial=0)) + 2
        place = base ** np.arange(nv - 1, -1, -1, dtype=np.int64)
        code = alpha @ place
        order = np.lexsort((code, gen, s, t))
        self.gen, self.alpha, s, t = gen[order], alpha[order], s[order], t[order]
        key = self.gen * base**nv + code[order]
        self.up = lookup(key, key[:, None] + place, np.argsort(key))
        new = run_starts(s, t)
        self.bidegrees: list[Bidegree] = list(zip(s[new].tolist(), t[new].tolist()))
        self.start = np.append(new, s.size)
        self.index = {bd: i for i, bd in enumerate(self.bidegrees)}
        self.home = np.repeat(np.arange(new.size), np.diff(self.start))

    def span(self, bd: Bidegree) -> tuple[int, int]:
        """The first column of bd and one past its last; (0, 0) where there is none."""
        i = self.index.get(bd)
        return (0, 0) if i is None else (int(self.start[i]), int(self.start[i + 1]))

    def keys(self, bd: Bidegree) -> list[tuple[int, tuple[int, ...]]]:
        """(generator, alpha) of each column of bd, in column order."""
        a, z = self.span(bd)
        return list(zip(self.gen[a:z].tolist(), map(tuple, self.alpha[a:z].tolist())))



def _p_min_generators(m: PModule) -> tuple[list[Bidegree], list[np.ndarray]]:
    """Canonical representatives of M / (sum_j v_j M), ascending (t, s).

    One `fplin.ranks` call ranks every bidegree's span of v-images
    (`PModule.stacked_ranks`), and only a span below its bidegree's
    dimension is cut dense for `coset_representatives`.
    """

    def span(s: int, t: int) -> np.ndarray:
        spans = [
            m.act(j, s - 1, t - dv).T for j, dv in enumerate(m.var_degrees) if m.dim(s - 1, t - dv)
        ]
        return np.concatenate(spans, axis=0) if spans else np.zeros((0, m.dim(s, t)), dtype=np.int64)

    bidegs: list[Bidegree] = []
    reps: list[np.ndarray] = []
    order = m.bidegrees()
    for i in np.flatnonzero(m.stacked_ranks(len(order), into=True) < m.counts):
        s, t = order[i]
        for row in coset_representatives(np.eye(m.dim(s, t), dtype=np.int64), span(s, t), m.p):
            bidegs.append((s, t))
            reps.append(row)
    return bidegs, reps


def _cover_images(target: PModule, gen_bidegrees, reps, free: FreeColumns) -> Entries:
    """The image of every free column in target coordinates, as entries (column, class, value).

    v^alpha g is v_j times v^(alpha - e_j) g, with j the first nonzero
    exponent of alpha, so the images are built level by level in |alpha|
    from the representatives: a column's children are v_j times it for
    j up to its own first nonzero exponent, and one join of a level's
    entries with every v-map's entries, sorted by (source, j), makes the
    next level.
    """
    p, nv = target.p, len(target.var_degrees)
    src, dst, val = joined(target.maps.values())
    tag = np.repeat(np.arange(nv), [e[0].size for e in target.maps.values()])
    order = np.lexsort((tag, src))
    dst, val, tag, key = dst[order], val[order], tag[order], (src * nv + tag)[order]
    nonzero = free.alpha > 0
    root = ~nonzero.any(axis=1)
    last = np.where(root, nv - 1, nonzero.argmax(axis=1))
    # generator g's column has alpha = 0 and its image is reps[g]
    column = np.zeros(len(reps), dtype=np.int64)
    column[free.gen[root]] = np.flatnonzero(root)
    count, _, _, cls, coef = nonzeros(rep[None] % p for rep in reps)
    g = np.repeat(np.arange(len(reps)), count)
    first = np.array([target.first[bd] for bd in gen_bidegrees], dtype=np.int64)
    level = summed(column[g], first[g] + cls, coef, p)
    parts = [level]
    while level[0].size:
        c, a, v = level
        lo = np.searchsorted(key, a * nv)
        count = np.searchsorted(key, a * nv + last[c], "right") - lo
        at = ragged(lo, count)
        kid = free.up[np.repeat(c, count), tag[at]]
        ok = kid >= 0
        level = summed(kid[ok], dst[at][ok], (np.repeat(v, count) * val[at])[ok], p)
        parts.append(level)
    return summed(*joined(parts), p)


def _cover_and_kernels(target: PModule, gen_bidegrees, reps, free: FreeColumns) -> dict[Bidegree, np.ndarray]:
    """The kernel of the free cover at each bidegree where it is not injective.

    Also checks the cover is onto (generators do generate) and that no
    part of the target sits at a bidegree the free module misses.  One
    `fplin.ranks` call ranks every bidegree's cover matrix from the
    images' entries: a rank below the target's dimension misses part of
    it, and only a rank below the number of columns leaves a kernel.  The
    kernels are taken in ascending (t, s), as echelon rows.  Where the
    v-pushes of the kernels below span as much as the kernel's dimension,
    the kernel is their echelon form; only where they fall short (a new
    relation) is a dense cover matrix cut for `kernel_array`.
    """
    col, cls, val = _cover_images(target, gen_bidegrees, reps, free)
    s, t = np.array(free.bidegrees, dtype=np.int64).reshape(-1, 2).T
    found = target.locate(s, t)
    height = np.where(found >= 0, target.counts[found], 0)
    width = np.diff(free.start)
    first = np.cumsum(height) - height
    rows = first[free.home[col]] + cls - target.starts[target.home[cls]]
    rk = ranks(rows, col, val, np.stack([height, width], axis=1), target.p)
    missed = np.flatnonzero(rk < height)
    if missed.size:
        raise AssertionError(f"free cover misses part of the target at {free.bidegrees[missed[0]]}")
    covered = np.zeros(target.counts.size, dtype=bool)
    covered[found[found >= 0]] = True
    if not covered.all():
        missed = target.bidegrees()[np.argmin(covered)]
        raise AssertionError(f"target is nonzero at uncovered bidegree {missed}")
    kernels: dict[Bidegree, np.ndarray] = {}
    for i in np.flatnonzero(rk < width):
        (s, t), c0 = free.bidegrees[i], free.start[i]
        # v_j maps the kernel below into this one, so pushes that span as
        # much as the kernel's dimension are it, and the echelon form is unique
        echelon = np.zeros((0, width[i]), dtype=np.int64)
        for j, dv in enumerate(target.var_degrees):
            below = kernels.get((s - 1, t - dv))
            if below is None or echelon.shape[0] == width[i] - rk[i]:
                continue
            a = free.span((s - 1, t - dv))[0]
            pushed = np.zeros((below.shape[0], width[i]), dtype=np.int64)
            pushed[:, free.up[a : a + below.shape[1], j] - c0] = below
            echelon, pivots = rref_array(np.concatenate([echelon, pushed]), target.p)
            echelon = echelon[: len(pivots)]
        if echelon.shape[0] == width[i] - rk[i]:
            kernels[(s, t)] = echelon
            continue
        lo, hi = np.searchsorted(col, free.start[i : i + 2])
        mat = np.zeros((height[i], width[i]), dtype=np.int64)
        mat[rows[lo:hi] - first[i], col[lo:hi] - c0] = val[lo:hi]
        kernels[(s, t)] = kernel_array(mat, target.p)
    return kernels


def _kernel_module(kernels: dict[Bidegree, np.ndarray], free: FreeColumns, m: PModule) -> PModule:
    """The kernel as a P-module: its echelon rows are its classes, with the v's of the free module.

    v_j moves a row's entries to the columns `FreeColumns.up` names.
    Each row is 1 at its pivot and every row is 0 at the others' pivots,
    so a pushed row's coordinates are its entries at the target's pivots;
    rebuilt from them it must give the pushed row back, or the kernel is
    not closed under the v's.  A submodule of a commuting action inherits
    commutation, so the module is not checked again.
    """
    held = [bd for bd in free.bidegrees if bd in kernels]
    count, _, row, col, val = nonzeros(kernels[bd] for bd in held)
    n = np.array([kernels[bd].shape[0] for bd in held], dtype=np.int64)
    row += np.repeat(np.cumsum(n) - n, count)
    col += np.repeat(np.array([free.span(bd)[0] for bd in held], dtype=np.int64), count)
    # entries run row by row, so each row's first is its pivot
    lead = run_starts(row)
    pivot_of = np.full(free.gen.size, -1, dtype=np.int64)
    pivot_of[col[lead]] = row[lead]
    maps: dict[int, Entries] = {}
    for j in range(len(m.var_degrees)):
        up = free.up[col, j]
        ok = up >= 0
        pushed = (row[ok], up[ok], val[ok])
        k = pivot_of[pushed[1]]
        coords = (pushed[0][k >= 0], k[k >= 0], pushed[2][k >= 0])
        if minus(pushed, compose(coords, (row, col, val), m.p), m.p)[0].size:
            raise AssertionError("kernel is not closed under the v's")
        maps[j] = coords
    dims = {bd: kernels[bd].shape[0] for bd in held}
    return PModule(m.p, m.var_degrees, dims, maps, m.t_max, _skip_check=True)


# -- gr presentations ------------------------------------------------------------
# One memo per block content, so equal weight blocks (C_k depends only on
# floor(k/p)) share one entry: Ext(F_p, module) and its minimal resolution
# through stage 2, at the largest window asked for so far.  gr presentations
# and projective dimension read it as a view; the E_2 comparison resolves a
# source block over all three stages and maps into a target block's Ext.
# All of these at t depend only on Ext in degrees <= t, so a smaller window
# is served by truncation.


_BLOCKS: dict[tuple, tuple[PModule, list[PStage]]] = {}


def resolved_block(module: QModule, t_max: int) -> tuple[PModule, list[PStage]]:
    """(Ext(F_p, module), stages 0..2 of its minimal resolution).

    Both hold through ext.t_max, the largest window asked for so far and at
    least t_max; t_max may not exceed the module's certified degree.
    """
    key = content_key(module)
    got = _BLOCKS.get(key)
    if got is None or got[0].t_max < t_max:
        ext = ext_p_module(module, t_max)
        got = _BLOCKS[key] = (ext, p_resolution(ext, 2))
    return got


def gr_module(module: QModule, t_max: int) -> PolyPresentation:
    """Minimal presentation of Ext(F_p, module) as a module over its v's.

    The relevant Adams filtrations collapse, so the associated graded is
    the Ext itself; generators are a basis of Ext/(v Ext) and relations
    are minimal generators of the free cover's kernel, both exact for
    t <= t_max, which may not exceed the module's certified degree.

    A view of the block memo: the Ext cut to the window and the
    resolution as held.
    """
    ext, stages = resolved_block(module, t_max)
    return PolyPresentation(ext.truncated(t_max), stages)


# -- minimal resolutions and Ext -------------------------------------------------


@dataclass(eq=False)
class PStage:
    """Free stage of a truncated minimal resolution.

    gen_vectors are coordinates in the previous stage's free module, over
    its columns at the generator's bidegree (for the first stage: in the
    resolved module itself); free is this stage's free module.
    """

    gen_bidegrees: tuple[Bidegree, ...]
    gen_vectors: tuple[np.ndarray, ...]
    free: FreeColumns


def _assert_no_units(stage: PStage, cover: PStage) -> None:
    """A syzygy stage's generators may not touch an alpha = 0 column of its cover."""
    for bd, vector in zip(stage.gen_bidegrees, stage.gen_vectors):
        a, z = cover.free.span(bd)
        if vector[~cover.free.alpha[a:z].any(axis=1)].any():
            raise AssertionError("relation matrix contains a unit; the cover was not minimal")


def p_resolution(m: PModule, u_max: int) -> list[PStage]:
    """Stages 0..u_max of the minimal free resolution of m, exact for t <= m.t_max.

    The only place that covers, takes kernels and finds minimal generators
    over P: gr presentations are its first two stages.  Stops after stage
    u_max or when the kernel vanishes inside the window.  Each stage works
    on entries: one `fplin.ranks` call finds the bidegrees that need a
    generator, the cover's images are built level by level, one more call
    ranks every cover matrix, and only a rank that falls short gets a
    dense matrix, for `coset_representatives`, or for a kernel that the
    v-pushes of the kernels below do not span, for `kernel_array`.  Kernels
    are realized with their inherited v-actions, so each stage is the
    honest degreewise syzygy module of the previous one, and no stage
    u >= 1 may touch a unit of stage u - 1 (minimality).
    """
    stages: list[PStage] = []
    target = m
    to_free: dict[Bidegree, np.ndarray] | None = None
    for u in range(u_max + 1):
        gen_bidegrees, reps = _p_min_generators(target)
        if not gen_bidegrees:
            break
        free = FreeColumns(gen_bidegrees, m.var_degrees, m.t_max)
        if to_free is None:
            gen_vectors = [row % m.p for row in reps]
        else:
            gen_vectors = [
                (row @ to_free[bd]) % m.p for row, bd in zip(reps, gen_bidegrees)
            ]
        stages.append(PStage(tuple(gen_bidegrees), tuple(gen_vectors), free))
        if u:
            _assert_no_units(stages[u], stages[u - 1])
        if u == u_max:
            break
        kernels = _cover_and_kernels(target, gen_bidegrees, reps, free)
        target = _kernel_module(kernels, free, m)
        to_free = kernels
    return stages


def _hom_table(stages: list[PStage], b: PModule, t0: int, t1: int) -> tuple[np.ndarray, ...]:
    """Hom(F_u, B)^t, t0 <= t <= t1, for each stage given, as a table for `dims_from_ranks`.

    Block (u, t, g, s) holds the images of generator g of F_u in B^{s, t_g + t};
    one sort of a combined key puts the blocks in (u, t, g, s) order.  A
    relation entry (g, alpha, c) of generator g' of F_u sends each block
    (u - 1, t, g, s) to block (u, t, g', s + |alpha|), found on the key, by
    c times v^alpha on B.  The entries of one relation with one g all have
    the same |alpha| and degree, so they may share positions: `fplin.summed`
    adds those up, reduces mod p and drops zeros.
    """
    nt = t1 - t0 + 1
    bs, bt = b.ss, b.ts
    ng, ns = max(len(st.gen_bidegrees) for st in stages), int(bs.max(initial=0)) + 1

    def key(u: int, t: np.ndarray, g, s: np.ndarray) -> np.ndarray:
        return ((u * nt + t - t0) * ng + g) * ns + s

    # each generator's blocks are one run of B's bidegrees, ascending in t
    runs, keys, ats = [], [], []
    for u, st in enumerate(stages):
        tg = np.array([t for _, t in st.gen_bidegrees], dtype=np.int64)
        lo = np.searchsorted(bt, t0 + tg)
        runs.append((tg, lo, np.searchsorted(bt, t1 + tg, "right") - lo))
        g, at = np.repeat(np.arange(tg.size), runs[-1][2]), ragged(lo, runs[-1][2])
        keys.append(key(u, bt[at] - tg[g], g, bs[at]))
        ats.append(at)
    order = np.argsort(np.concatenate(keys))
    table = np.concatenate(keys)[order]
    width = b.counts[np.concatenate(ats)[order]]
    hom = np.bincount(table // (ng * ns), width, (len(stages) + 1) * nt).astype(np.int64)
    pos, lead = np.cumsum(width) - width, hom[:nt].sum()

    powers: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
    parts = []
    for u in range(1, len(stages)):
        tg, lo, count = runs[u - 1]
        for g_new, (bd, vector) in enumerate(zip(stages[u].gen_bidegrees, stages[u].gen_vectors)):
            columns = stages[u - 1].free.keys(bd)
            for c in np.flatnonzero(vector):
                g, alpha = columns[c]
                if alpha not in powers:
                    # v^alpha's entries, in source order, with each end numbered
                    # within its own B-bidegree; every source block is one run
                    src, dst, val = _power(b, alpha)
                    nz = np.bincount(b.home[src], minlength=b.counts.size)
                    local = (x - b.starts[b.home[x]] for x in (dst, src))
                    powers[alpha] = (nz, np.cumsum(nz) - nz, *local, val)
                nz, start, pr, pc, pv = powers[alpha]
                src = np.arange(lo[g], lo[g] + count[g])
                src = src[nz[src] > 0]
                t, k, at = bt[src] - tg[g], nz[src], ragged(start[src], nz[src])
                col = pos[np.searchsorted(table, key(u - 1, t, g, bs[src]))]
                row = pos[np.searchsorted(table, key(u, t, g_new, bs[src] + sum(alpha)))] - lead
                parts.append((np.repeat(row, k) + pr[at], np.repeat(col, k) + pc[at], vector[c] * pv[at]))
    return (hom.reshape(-1, nt), *summed(*joined(parts), b.p))


def _power(b: PModule, alpha: tuple[int, ...]) -> Entries:
    """v^alpha on B as entries sorted by source: the v-maps composed."""
    n = np.arange(b.home.size)
    out = (n, n, np.ones_like(n))
    for j, a in enumerate(alpha):
        for _ in range(a):
            out = compose(out, b.maps[j], b.p)
    return out


def ext_from_resolution(
    stages: list[PStage],
    a_t_max: int,
    b: PModule,
    u_max: int,
    t_max: int,
    t_min: int | None = None,
) -> BigradedDims:
    """Ext^{u,t} into b from a precomputed truncated resolution.

    A class in degree t sends a generator with internal degree t_g to an
    element of B in internal degree t_g + t.  The certified window is
    [B.t_max - A.t_max, B.t_max - (largest generator degree)]: above it B
    is not stored far enough, below it generators of the resolution
    hiding above A's window could contribute.  The stages through u_max + 1
    make one Hom table, and one `fplin.ranks` call ranks its differentials.
    """
    if not stages:
        return BigradedDims({}, u_max, t_max, t_min or 0, note="source module is zero")
    top = max(t for st in stages for _, t in st.gen_bidegrees)
    t_hi = min(t_max, b.t_max - top)
    floor = (b.min_t() - top) if b.dims else t_hi
    t_lo = max(b.t_max - a_t_max, floor)
    if t_min is not None:
        if t_min < t_lo:
            raise ValueError(f"t_min {t_min} is below the certified floor {t_lo}")
        t_lo = t_min
    note = None if t_hi == t_max else f"t_max shrunk to certified {t_hi}"
    dims = {}
    if t_lo <= t_hi:
        dims = dims_from_ranks(_hom_table(stages[: u_max + 2], b, t_lo, t_hi), b.p, u_max, t_lo)
    return BigradedDims(dims, u_max, t_hi, t_lo, note)


@dataclass
class PdReport:
    """Observed length of the truncated minimal resolution plus depth witness.

    length is the last stage of the presentation's resolution with a
    generator in the window.  gr presentations hold stages 0..2 (as deep
    as the E_2 comparison reads), so their length reads 2 for any
    projective dimension >= 2; the gate below needs only length <= 1.
    passed is the paper's claim for gr C-bar_k: projective dimension at
    most 1 (length <= 1) and depth >= 1 (empty socle).
    """

    length: int
    socle_empty: bool
    socle_bidegrees: tuple[Bidegree, ...]
    t_max: int
    socle_t_max: int

    @property
    def passed(self) -> bool:
        return self.length <= 1 and self.socle_empty


def projective_dimension(pres: PolyPresentation) -> PdReport:
    """Resolution length inside the window and socle emptiness.

    Both are read off the presentation, with nothing resolved again.  The
    resolution is degreewise, so its generators at t <= t_max are those of
    the module cut at t_max.  The socle (elements killed by every v_j) is
    certified only where all the v-targets stay inside the window,
    t <= t_max - max(var degrees); an empty socle witnesses depth >= 1.
    The stacked v-maps of every such bidegree are ranked with one
    `fplin.ranks` call (`PModule.stacked_ranks`).
    """
    m = pres.module
    length = max(
        (u for u, st in enumerate(pres.stages) if any(t <= m.t_max for _, t in st.gen_bidegrees)),
        default=0,
    )
    socle_t_max = m.t_max - max(m.var_degrees)
    checked = int(np.count_nonzero(m.ts <= socle_t_max))
    stacked = m.stacked_ranks(checked, into=False)
    socle = [bd for bd, r, n in zip(m.bidegrees(), stacked, m.counts) if r < n]
    return PdReport(
        length=length,
        socle_empty=not socle,
        socle_bidegrees=tuple(socle),
        t_max=m.t_max,
        socle_t_max=socle_t_max,
    )
