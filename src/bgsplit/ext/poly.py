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
whole window as one table of sparse entries, as `koszul.BlockTable` lays
out chains, and ranks every differential with one `fplin.ranks` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..fplin import coset_representatives, dense_ranks, kernel_array, reduce_mod_rows
from ..monomials import exponent_vectors
from ..qmodules import QModule, content_key
from .koszul import BigradedDims, KoszulComplex, _nonzeros, _ragged, dims_from_ranks

Bidegree = tuple[int, int]


@lru_cache(maxsize=None)
def _alphas_within(var_degrees: tuple[int, ...], budget: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples alpha with sum(alpha * var_degrees) <= budget, lex order."""
    return tuple(exponent_vectors(var_degrees, budget))


def _dot(alpha: tuple[int, ...], var_degrees: tuple[int, ...]) -> int:
    return sum(a * dv for a, dv in zip(alpha, var_degrees))


class PModule:
    """Bigraded P-module known exactly for internal degrees t <= t_max.

    dims[(s, t)] holds the nonzero dimensions; acts[j][(s, t)] is the
    matrix of v_j from (s, t) to (s + 1, t + var_degrees[j]).  An action
    whose target lies above t_max is uncertified and may not be asked for.
    """

    def __init__(
        self,
        p: int,
        var_degrees: tuple[int, ...],
        dims: dict[Bidegree, int],
        acts: dict[int, dict[Bidegree, np.ndarray]],
        t_max: int,
        _skip_check: bool = False,
    ) -> None:
        self.p = p
        self.var_degrees = tuple(var_degrees)
        self.dims = {bd: n for bd, n in dims.items() if n}
        self.acts = {
            j: {bd: np.asarray(m, dtype=np.int64) % p for bd, m in a.items()}
            for j, a in acts.items()
        }
        self.t_max = t_max
        for j in range(len(self.var_degrees)):
            self.acts.setdefault(j, {})
        if not _skip_check:
            self._check()

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)

    def bidegrees(self) -> list[Bidegree]:
        return sorted(self.dims, key=lambda bd: (bd[1], bd[0]))

    def min_t(self) -> int:
        return min((t for _, t in self.dims), default=0)

    def act(self, j: int, s: int, t: int) -> np.ndarray:
        dv = self.var_degrees[j]
        if t + dv > self.t_max:
            raise ValueError(f"v_{j} from t = {t} leaves the certified window")
        mat = self.acts[j].get((s, t))
        if mat is None:
            return np.zeros((self.dim(s + 1, t + dv), self.dim(s, t)), dtype=np.int64)
        return mat

    def truncated(self, t_max: int) -> "PModule":
        """The same module, known only for t <= t_max."""
        if t_max > self.t_max:
            raise ValueError(f"t_max {t_max} exceeds the certified window {self.t_max}")
        dims = {bd: n for bd, n in self.dims.items() if bd[1] <= t_max}
        acts = {
            j: {bd: m for bd, m in a.items() if bd[1] + self.var_degrees[j] <= t_max}
            for j, a in self.acts.items()
        }
        return PModule(self.p, self.var_degrees, dims, acts, t_max, _skip_check=True)

    def _check(self) -> None:
        for j, a in self.acts.items():
            dv = self.var_degrees[j]
            for (s, t), mat in a.items():
                want = (self.dim(s + 1, t + dv), self.dim(s, t))
                if mat.shape != want:
                    raise ValueError(
                        f"v_{j} matrix at {(s, t)} has shape {mat.shape}, expected {want}"
                    )
        nv = len(self.var_degrees)
        for s, t in self.dims:
            for j in range(nv):
                dj = self.var_degrees[j]
                for h in range(j + 1, nv):
                    dh = self.var_degrees[h]
                    if t + dj + dh > self.t_max:
                        continue
                    lhs = (self.act(h, s + 1, t + dj) @ self.act(j, s, t)) % self.p
                    rhs = (self.act(j, s + 1, t + dh) @ self.act(h, s, t)) % self.p
                    if not np.array_equal(lhs, rhs):
                        raise ValueError(f"v_{j} and v_{h} fail to commute at {(s, t)}")


def ext_p_module(module: QModule, t_max: int) -> PModule:
    """Ext(F_p, module) for t <= t_max, as a module over the v's of its pair."""
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
                for pos, (g, alpha) in enumerate(cover.columns[bd])
                if vector[pos]
            ))
            for bd, vector in zip(syzygies.gen_bidegrees, syzygies.gen_vectors)
            if bd[1] <= self.t_max
        )


# -- free covers and kernels -----------------------------------------------------


def _free_columns(
    gen_bidegrees, var_degrees: tuple[int, ...], t_cap: int
) -> dict[Bidegree, list[tuple[int, tuple[int, ...]]]]:
    """Basis (gen, alpha) of the free module on the generators, per bidegree."""
    cols: dict[Bidegree, list[tuple[int, tuple[int, ...]]]] = {}
    for g, (s0, t0) in enumerate(gen_bidegrees):
        for alpha in _alphas_within(var_degrees, t_cap - t0):
            bd = (s0 + sum(alpha), t0 + _dot(alpha, var_degrees))
            cols.setdefault(bd, []).append((g, alpha))
    for bd in cols:
        cols[bd].sort()
    return cols


def _column_index(columns) -> dict[Bidegree, dict[tuple[int, tuple[int, ...]], int]]:
    return {bd: {key: i for i, key in enumerate(keys)} for bd, keys in columns.items()}


def _relabel(rows: np.ndarray, src_cols, dst_index, j: int) -> np.ndarray:
    """Rows in free coordinates pushed along v_j (alpha -> alpha + e_j)."""
    out = np.zeros((rows.shape[0], len(dst_index)), dtype=np.int64)
    for c, (g, alpha) in enumerate(src_cols):
        beta = tuple(a + 1 if h == j else a for h, a in enumerate(alpha))
        out[:, dst_index[(g, beta)]] = rows[:, c]
    return out


def _p_min_generators(m: PModule) -> tuple[list[Bidegree], list[np.ndarray]]:
    """Canonical representatives of M / (sum_j v_j M), ascending (t, s).

    One `dense_ranks` batch ranks every bidegree's span of v-images, and
    only a span below its bidegree's dimension gets `coset_representatives`.
    """

    def span(s: int, t: int) -> np.ndarray:
        spans = [
            m.act(j, s - 1, t - dv).T for j, dv in enumerate(m.var_degrees) if m.dim(s - 1, t - dv)
        ]
        return np.concatenate(spans, axis=0) if spans else np.zeros((0, m.dim(s, t)), dtype=np.int64)

    bidegs: list[Bidegree] = []
    reps: list[np.ndarray] = []
    order = m.bidegrees()
    for (s, t), r in zip(order, dense_ranks((span(*bd) for bd in order), m.p)):
        if r < m.dim(s, t):
            for row in coset_representatives(np.eye(m.dim(s, t), dtype=np.int64), span(s, t), m.p):
                bidegs.append((s, t))
                reps.append(row)
    return bidegs, reps


def _cover_and_kernels(target: PModule, reps, columns):
    """Free cover matrices into target coordinates and their kernels per bidegree.

    Also checks the cover is onto (generators do generate) and that no
    part of the target sits at a bidegree the free module misses.  One
    `dense_ranks` batch ranks every cover matrix first: a rank below the
    target's dimension misses part of it, and only a rank below the number
    of columns leaves a kernel for `kernel_array`.
    """
    p = target.p
    # ascending t, so v^alpha g comes after the v^(alpha - e_j) g it is pushed from
    image: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    for s, t in sorted(columns, key=lambda bd: bd[1]):
        for g, alpha in columns[(s, t)]:
            if not any(alpha):
                image[(g, alpha)] = reps[g] % p
                continue
            j = next(h for h, a in enumerate(alpha) if a)
            prev = tuple(a - 1 if h == j else a for h, a in enumerate(alpha))
            step = target.act(j, s - 1, t - target.var_degrees[j])
            image[(g, alpha)] = (step @ image[(g, prev)]) % p

    def cover(bd: Bidegree) -> np.ndarray:
        mat = np.zeros((target.dim(*bd), len(columns[bd])), dtype=np.int64)
        for c, key in enumerate(columns[bd]):
            mat[:, c] = image[key]
        return mat

    kernels: dict[Bidegree, np.ndarray] = {}
    for bd, r in zip(columns, dense_ranks(map(cover, columns), p)):
        if r < target.dim(*bd):
            raise AssertionError(f"free cover misses part of the target at {bd}")
        if r < len(columns[bd]):
            kernels[bd] = kernel_array(cover(bd), p)
    for bd, n in target.dims.items():
        if n and bd not in columns:
            raise AssertionError(f"target is nonzero at uncovered bidegree {bd}")
    return kernels


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


@dataclass
class PStage:
    """Free stage of a truncated minimal resolution.

    gen_vectors are coordinates in the previous stage's free module (for
    the first stage: in the resolved module itself).
    """

    gen_bidegrees: tuple[Bidegree, ...]
    gen_vectors: tuple[np.ndarray, ...]
    columns: dict[Bidegree, list[tuple[int, tuple[int, ...]]]]


def _assert_no_units(stage: PStage, cover: PStage) -> None:
    """A syzygy stage's generators may not touch an alpha = 0 column of its cover."""
    for bd, vector in zip(stage.gen_bidegrees, stage.gen_vectors):
        for pos, (_, alpha) in enumerate(cover.columns[bd]):
            if not any(alpha) and vector[pos]:
                raise AssertionError("relation matrix contains a unit; the cover was not minimal")


def p_resolution(m: PModule, u_max: int) -> list[PStage]:
    """Stages 0..u_max of the minimal free resolution of m, exact for t <= m.t_max.

    The only place that covers, takes kernels and finds minimal generators
    over P: gr presentations are its first two stages.  Stops after stage
    u_max or when the kernel vanishes inside the window.  Kernels are
    realized with their inherited v-actions, so each stage is the honest
    degreewise syzygy module of the previous one, and no stage u >= 1 may
    touch a unit of stage u - 1 (minimality).
    """
    stages: list[PStage] = []
    target = m
    to_free: dict[Bidegree, np.ndarray] | None = None
    for u in range(u_max + 1):
        gen_bidegrees, reps = _p_min_generators(target)
        if not gen_bidegrees:
            break
        columns = _free_columns(gen_bidegrees, m.var_degrees, m.t_max)
        if to_free is None:
            gen_vectors = [row % m.p for row in reps]
        else:
            gen_vectors = [
                (row @ to_free[bd]) % m.p for row, bd in zip(reps, gen_bidegrees)
            ]
        stages.append(PStage(tuple(gen_bidegrees), tuple(gen_vectors), columns))
        if u:
            _assert_no_units(stages[u], stages[u - 1])
        if u == u_max:
            break
        kernels = _cover_and_kernels(target, reps, columns)
        col_index = _column_index(columns)
        kdims = {bd: rows.shape[0] for bd, rows in kernels.items()}
        kacts: dict[int, dict[Bidegree, np.ndarray]] = {
            j: {} for j in range(len(m.var_degrees))
        }
        piv_of = {
            bd: [int(np.nonzero(r)[0][0]) for r in rows] for bd, rows in kernels.items()
        }
        for bd, rows in kernels.items():
            s, t = bd
            for j, dv in enumerate(m.var_degrees):
                dst = (s + 1, t + dv)
                if dst not in kernels:
                    continue
                pushed = _relabel(rows, columns[bd], col_index[dst], j)
                if reduce_mod_rows(pushed, kernels[dst], piv_of[dst], m.p).any():
                    raise AssertionError("kernel is not closed under the v's")
                mat = pushed[:, piv_of[dst]].T % m.p
                if mat.size:
                    kacts[j][bd] = mat
        # a submodule of a commuting action inherits commutation
        target = PModule(m.p, m.var_degrees, kdims, kacts, m.t_max, _skip_check=True)
        to_free = kernels
    return stages


def _hom_table(stages: list[PStage], b: PModule, t0: int, t1: int) -> tuple[np.ndarray, ...]:
    """Hom(F_u, B)^t, t0 <= t <= t1, for each stage given, as a table for `dims_from_ranks`.

    Block (u, t, g, s) holds the images of generator g of F_u in B^{s, t_g + t};
    one sort of a combined key puts the blocks in (u, t, g, s) order.  A
    relation entry (g, alpha, c) of generator g' of F_u sends each block
    (u - 1, t, g, s) to block (u, t, g', s + |alpha|), found on the key, by
    c times v^alpha on B.  The entries of one relation with one g all have
    the same |alpha| and degree, so they may share positions: those are summed.
    """
    nt = t1 - t0 + 1
    bids = sorted(b.dims, key=lambda bd: (bd[1], bd[0]))
    bs, bt = (np.array([bd[x] for bd in bids], dtype=np.int64) for x in (0, 1))
    ng, ns = max(len(st.gen_bidegrees) for st in stages), int(bs.max(initial=0)) + 1

    def key(u: int, t: np.ndarray, g, s: np.ndarray) -> np.ndarray:
        return ((u * nt + t - t0) * ng + g) * ns + s

    # each generator's blocks are one run of B's bidegrees, ascending in t
    runs, keys, ats = [], [], []
    for u, st in enumerate(stages):
        tg = np.array([t for _, t in st.gen_bidegrees], dtype=np.int64)
        lo = np.searchsorted(bt, t0 + tg)
        runs.append((tg, lo, np.searchsorted(bt, t1 + tg, "right") - lo))
        g, at = np.repeat(np.arange(tg.size), runs[-1][2]), _ragged(lo, runs[-1][2])
        keys.append(key(u, bt[at] - tg[g], g, bs[at]))
        ats.append(at)
    order = np.argsort(np.concatenate(keys))
    table = np.concatenate(keys)[order]
    width = np.array([b.dims[bd] for bd in bids], dtype=np.int64)[np.concatenate(ats)[order]]
    hom = np.bincount(table // (ng * ns), width, (len(stages) + 1) * nt).astype(np.int64)
    pos, lead, n = np.cumsum(width) - width, hom[:nt].sum(), hom.sum()

    powers: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}
    parts = [(np.zeros(0, dtype=np.int64),) * 3]
    for u in range(1, len(stages)):
        tg, lo, count = runs[u - 1]
        for g_new, (bd, vector) in enumerate(zip(stages[u].gen_bidegrees, stages[u].gen_vectors)):
            for c in np.flatnonzero(vector):
                g, alpha = stages[u - 1].columns[bd][c]
                if alpha not in powers:
                    # v^alpha from each B-bidegree whose target B holds; every source block is one
                    cut = np.searchsorted(bt, b.t_max - _dot(alpha, b.var_degrees), "right")
                    powers[alpha] = _nonzeros([_power(b, alpha, *source) for source in bids[:cut]])
                nz, start, pr, pc, pv = powers[alpha]
                src = np.arange(lo[g], lo[g] + count[g])
                src = src[nz[src] > 0]
                t, k, at = bt[src] - tg[g], nz[src], _ragged(start[src], nz[src])
                col = pos[np.searchsorted(table, key(u - 1, t, g, bs[src]))]
                row = pos[np.searchsorted(table, key(u, t, g_new, bs[src] + sum(alpha)))] - lead
                parts.append((np.repeat(row, k) + pr[at], np.repeat(col, k) + pc[at], vector[c] * pv[at]))
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    at, merged = np.unique(rows * n + cols, return_inverse=True)
    summed = np.zeros(at.size, dtype=np.int64)
    np.add.at(summed, merged, vals)
    return hom.reshape(-1, nt), at // n, at % n, summed


def _power(b: PModule, alpha: tuple[int, ...], s: int, t: int) -> np.ndarray:
    """Matrix of v^alpha on B from (s, t)."""
    mat = np.eye(b.dim(s, t), dtype=np.int64)
    for j, a in enumerate(alpha):
        for _ in range(a):
            mat = (b.act(j, s, t) @ mat) % b.p
            s, t = s + 1, t + b.var_degrees[j]
    return mat


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
    The stacked v-maps of every such bidegree are ranked in one
    `dense_ranks` batch.
    """
    m = pres.module
    length = max(
        (u for u, st in enumerate(pres.stages) if any(t <= m.t_max for _, t in st.gen_bidegrees)),
        default=0,
    )
    socle_t_max = m.t_max - max(m.var_degrees)
    checked = [(s, t) for s, t in m.bidegrees() if t <= socle_t_max]
    stacked = (np.concatenate([m.act(j, *bd) for j in range(len(m.var_degrees))], axis=0) for bd in checked)
    socle = [bd for bd, r in zip(checked, dense_ranks(stacked, m.p)) if r < m.dim(*bd)]
    return PdReport(
        length=length,
        socle_empty=not socle,
        socle_bidegrees=tuple(socle),
        t_max=m.t_max,
        socle_t_max=socle_t_max,
    )
