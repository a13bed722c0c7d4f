"""Test-side routes over P(2): hand-written presentations, realization and dense references.

The pipeline never realizes a presentation: gr presentations and their
projective dimension are read off the block memo.  These helpers build a
module from generators and relations instead and resolve it afresh, so the
tests can hold the memo's views against an independent construction and
against closed-form oracles (the residue field, free modules, F_p[v_2]).
`dense_ext_from_resolution` builds each Hom differential as a dense matrix
and ranks it alone, so the Hom table of `ext_from_resolution` is held
against a layout that shares no code with it.  `dense_ext_p_module` and
`dense_p_resolution` keep one dense matrix per bidegree for every v-map,
cover and kernel action, as the library once did, so its entry tables are
held against them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from bgsplit.ext.koszul import BigradedDims, KoszulComplex
from bgsplit.ext.poly import (
    Bidegree,
    PModule,
    PolyPresentation,
    PStage,
    RelationEntries,
    ext_from_resolution,
    p_resolution,
)
from bgsplit.fplin import (
    coset_representatives,
    dense_ranks,
    homology_basis,
    kernel_array,
    quotient_projection,
    rank,
    reduce_mod_rows,
    rref_array,
)
from bgsplit.monomials import exponent_vectors
from bgsplit.qmodules import QModule


@dataclass(frozen=True)
class Spec:
    """Hand-written generators and relations, read as in PolyPresentation."""

    p: int
    var_degrees: tuple[int, ...]
    generators: tuple[Bidegree, ...]
    relations: tuple[tuple[Bidegree, RelationEntries], ...]
    t_max: int


def free_presentation(
    p: int, var_degrees: tuple[int, ...], generators: tuple[Bidegree, ...], t_max: int
) -> Spec:
    return Spec(p, tuple(var_degrees), tuple(generators), (), t_max)


def residue_field_presentation(p: int, var_degrees: tuple[int, ...], t_max: int) -> Spec:
    """One generator at (0, 0) with every v_j acting by zero."""
    nv = len(var_degrees)
    rels = []
    for j, dv in enumerate(var_degrees):
        alpha = tuple(1 if h == j else 0 for h in range(nv))
        rels.append(((1, dv), ((0, alpha, 1),)))
    return Spec(p, tuple(var_degrees), ((0, 0),), tuple(rels), t_max)


def fp_v2_presentation(p: int, var_degrees: tuple[int, ...], t_max: int) -> Spec:
    """F_p[v_2] = P(2)/(v_0, v_1): the last v acts freely, the others by zero."""
    field = residue_field_presentation(p, var_degrees, t_max)
    return replace(field, relations=field.relations[:-1])


def realize(pres) -> PModule:
    """The presented module, built degreewise: free basis modulo relations.

    `pres` is a Spec or a PolyPresentation.  Exact for t <= pres.t_max:
    relations only propagate upward in t, so no relation above the window
    can reach below it.
    """
    p = pres.p
    columns = _free_columns(pres.generators, pres.var_degrees, pres.t_max)
    col_index = _column_index(columns)
    rel_rows: dict[Bidegree, list[np.ndarray]] = {}
    for bd, entries in pres.relations:
        if bd[1] > pres.t_max:
            continue
        row = np.zeros(len(columns[bd]), dtype=np.int64)
        for g, alpha, c in entries:
            row[col_index[bd][(g, alpha)]] = c % p
        rel_rows.setdefault(bd, []).append(row)

    spans: dict[Bidegree, tuple[np.ndarray, tuple[int, ...]]] = {}
    for bd in sorted(columns, key=lambda b: (b[1], b[0])):
        s, t = bd
        rows = list(rel_rows.get(bd, []))
        for j, dv in enumerate(pres.var_degrees):
            src = (s - 1, t - dv)
            if src in spans:
                rows.extend(_relabel(spans[src][0], columns[src], col_index[bd], j))
        if rows:
            red, piv = rref_array(np.stack(rows), p)
            if piv:
                spans[bd] = (red[: len(piv)], tuple(piv))

    dims: dict[Bidegree, int] = {}
    keeps: dict[Bidegree, list[int]] = {}
    projs: dict[Bidegree, np.ndarray] = {}
    for bd, cols in columns.items():
        rows, piv = spans.get(bd, ((), ()))
        keeps[bd], projs[bd] = quotient_projection(rows, piv, len(cols), p)
        dims[bd] = len(keeps[bd])

    acts: dict[int, dict[Bidegree, np.ndarray]] = {j: {} for j in range(len(pres.var_degrees))}
    for bd, cols in columns.items():
        s, t = bd
        for j, dv in enumerate(pres.var_degrees):
            dst = (s + 1, t + dv)
            if dst not in columns or not dims[bd] or not dims.get(dst):
                continue
            mat = np.zeros((dims[dst], dims[bd]), dtype=np.int64)
            for c, pos in enumerate(keeps[bd]):
                g, alpha = cols[pos]
                beta = tuple(a + 1 if h == j else a for h, a in enumerate(alpha))
                mat[:, c] = projs[dst][:, col_index[dst][(g, beta)]]
            if mat.size:
                acts[j][bd] = mat
    return entry_module(DenseModule(p, pres.var_degrees, dims, acts, pres.t_max))


def resolved(pres, u_max: int = 4) -> PolyPresentation:
    """Realize `pres` and resolve it afresh through stage u_max, as a view."""
    module = realize(pres)
    return PolyPresentation(module, p_resolution(module, u_max))


def ext_over_P2(a, b, u_max: int, t_max: int, route=ext_from_resolution) -> BigradedDims:
    """Ext^{u,t} over the polynomial algebra, from a truncated minimal
    resolution of the realization of a, mapped into the realization of b
    by `route` (the Hom table, or `dense_ext_from_resolution`)."""
    if a.p != b.p or a.var_degrees != b.var_degrees:
        raise ValueError("presentations live over different polynomial algebras")
    A = realize(a)
    B = realize(b)
    stages = p_resolution(A, u_max + 1)
    return route(stages, A.t_max, B, u_max, t_max)


# -- the dense Hom reference -------------------------------------------------------


def _hom_blocks(stage: PStage, b: PModule, b_by_t, t: int) -> list[tuple[int, int, int]]:
    """(gen, target s, dim) blocks of Hom(F_u, B) in internal degree t."""
    blocks = []
    for g, (_, tg) in enumerate(stage.gen_bidegrees):
        for sp in b_by_t.get(tg + t, ()):
            blocks.append((g, sp, b.dim(sp, tg + t)))
    return blocks


def _b_power(b: PModule, alpha: tuple[int, ...], s: int, t: int, memo) -> np.ndarray:
    """Matrix of v^alpha on B starting at (s, t)."""
    key = (alpha, s, t)
    got = memo.get(key)
    if got is not None:
        return got
    if not any(alpha):
        out = np.eye(b.dim(s, t), dtype=np.int64)
    else:
        j = next(h for h, a in enumerate(alpha) if a)
        prev = tuple(a - 1 if h == j else a for h, a in enumerate(alpha))
        step = b.act(j, s + sum(prev), t + _dot(prev, b.var_degrees))
        out = (step @ _b_power(b, prev, s, t, memo)) % b.p
    memo[key] = out
    return out


def _hom_differential(upper: PStage, lower: PStage, b: PModule, b_by_t, t: int, memo) -> np.ndarray:
    """Precomposition Hom(F_u, B)^t -> Hom(F_{u+1}, B)^t, dense."""
    src = _hom_blocks(lower, b, b_by_t, t)
    dst = _hom_blocks(upper, b, b_by_t, t)
    src_off = dict(zip([(g, sp) for g, sp, _ in src], np.cumsum([0] + [d for *_, d in src]).tolist()))
    dst_off = dict(zip([(g, sp) for g, sp, _ in dst], np.cumsum([0] + [d for *_, d in dst]).tolist()))
    mat = np.zeros((sum(d for *_, d in dst), sum(d for *_, d in src)), dtype=np.int64)
    for g_new, (bd, vector) in enumerate(zip(upper.gen_bidegrees, upper.gen_vectors)):
        for pos in np.flatnonzero(vector):
            g, alpha = lower.free.keys(bd)[pos]
            tg = lower.gen_bidegrees[g][1]
            for sp in b_by_t.get(tg + t, ()):
                piece = _b_power(b, alpha, sp, tg + t, memo)
                if not piece.size:
                    continue
                r0 = dst_off[(g_new, sp + sum(alpha))]
                c0 = src_off[(g, sp)]
                mat[r0 : r0 + piece.shape[0], c0 : c0 + piece.shape[1]] += int(vector[pos]) * piece
    return mat % b.p


def dense_ext_from_resolution(
    stages: list[PStage],
    a_t_max: int,
    b: PModule,
    u_max: int,
    t_max: int,
    t_min: int | None = None,
) -> BigradedDims:
    """`ext_from_resolution` with each Hom differential built dense and ranked alone."""
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
    b_by_t: dict[int, list[int]] = {}
    for s, t in sorted(b.dims):
        b_by_t.setdefault(t, []).append(s)
    memo: dict = {}
    dims: dict[Bidegree, int] = {}
    for t in range(t_lo, t_hi + 1):
        prev_rank = 0
        for u in range(min(u_max + 1, len(stages))):
            dim_here = sum(dim for *_, dim in _hom_blocks(stages[u], b, b_by_t, t))
            rank_here = 0
            if u + 1 < len(stages):
                rank_here = rank(_hom_differential(stages[u + 1], stages[u], b, b_by_t, t, memo), b.p)
            if dim_here - rank_here - prev_rank:
                dims[(u, t)] = dim_here - rank_here - prev_rank
            prev_rank = rank_here
    return BigradedDims(dims, u_max, t_hi, t_lo, note)


def fields(pres) -> tuple:
    """What a presentation says, for comparing two of them."""
    return (pres.p, pres.var_degrees, pres.t_max, pres.generators, pres.relations)


# -- the dense per-bidegree reference ----------------------------------------------


def _dot(alpha: tuple[int, ...], var_degrees: tuple[int, ...]) -> int:
    return sum(a * dv for a, dv in zip(alpha, var_degrees))


def _free_columns(
    gen_bidegrees, var_degrees: tuple[int, ...], t_cap: int
) -> dict[Bidegree, list[tuple[int, tuple[int, ...]]]]:
    """Basis (gen, alpha) of the free module on the generators, per bidegree."""
    cols: dict[Bidegree, list[tuple[int, tuple[int, ...]]]] = {}
    for g, (s0, t0) in enumerate(gen_bidegrees):
        for alpha in exponent_vectors(var_degrees, t_cap - t0):
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


@dataclass
class DenseModule:
    """A bigraded P-module with one dense matrix per (j, bidegree): acts[j][(s, t)] is v_j from (s, t)."""

    p: int
    var_degrees: tuple[int, ...]
    dims: dict[Bidegree, int]
    acts: dict[int, dict[Bidegree, np.ndarray]]
    t_max: int

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)

    def bidegrees(self) -> list[Bidegree]:
        return sorted((bd for bd, n in self.dims.items() if n), key=lambda bd: (bd[1], bd[0]))

    def act(self, j: int, s: int, t: int) -> np.ndarray:
        dv = self.var_degrees[j]
        if t + dv > self.t_max:
            raise ValueError(f"v_{j} from t = {t} leaves the certified window")
        mat = self.acts.get(j, {}).get((s, t))
        if mat is None:
            return np.zeros((self.dim(s + 1, t + dv), self.dim(s, t)), dtype=np.int64)
        return mat % self.p


def entry_module(dense: DenseModule) -> PModule:
    """The checked `PModule` with the same dims and actions, as entries over its class numbering."""
    numbered = PModule(dense.p, dense.var_degrees, dense.dims, {}, dense.t_max, _skip_check=True)
    maps = {}
    for j, dv in enumerate(dense.var_degrees):
        parts = [(np.zeros(0, dtype=np.int64),) * 3]
        for (s, t), mat in dense.acts.get(j, {}).items():
            if t + dv > dense.t_max:
                continue
            row, col = np.nonzero(mat % dense.p)
            src, dst = numbered.first[(s, t)] + col, numbered.first[(s + 1, t + dv)] + row
            parts.append((src, dst, mat[row, col] % dense.p))
        maps[j] = tuple(np.concatenate(x) for x in zip(*parts))
    return PModule(dense.p, dense.var_degrees, dense.dims, maps, dense.t_max)


def dense_ext_p_module(module: QModule, t_max: int) -> DenseModule:
    """`ext_p_module` with one homology basis and one dense v-map matrix per bidegree read."""
    kc = KoszulComplex(module)
    t0 = module.min_degree()
    table = kc.table((t_max - t0) // min(kc.drops), t0, t_max)
    dims = table.ext()
    p = kc.p
    bases = {}

    def basis(s: int, t: int):
        if (s, t) not in bases:
            bases[(s, t)] = homology_basis(table.d(s, t), table.d(s - 1, t), p)
        return bases[(s, t)]

    acts: dict[int, dict[Bidegree, np.ndarray]] = {j: {} for j in range(len(kc.drops))}
    for s, t in dims:
        for j, drop in enumerate(kc.drops):
            if (s + 1, t + drop) in dims:
                images = table.v_image(basis(s, t)[0], s, t, j)
                treps, trep_piv, borders, border_piv = basis(s + 1, t + drop)
                reduced = reduce_mod_rows(images, borders, border_piv, p)
                coords = reduced[:, list(trep_piv)]
                assert np.array_equal((coords @ treps) % p, reduced), "not a cycle"
                acts[j][(s, t)] = coords.T
    return DenseModule(p, kc.drops, dims, acts, t_max)


@dataclass
class DenseStage:
    """A resolution stage with its free columns as a dict of (gen, alpha) lists per bidegree."""

    gen_bidegrees: tuple[Bidegree, ...]
    gen_vectors: tuple[np.ndarray, ...]
    columns: dict[Bidegree, list[tuple[int, tuple[int, ...]]]]


def _dense_min_generators(m: DenseModule) -> tuple[list[Bidegree], list[np.ndarray]]:
    def span(s: int, t: int) -> np.ndarray:
        spans = [m.act(j, s - 1, t - dv).T for j, dv in enumerate(m.var_degrees) if m.dim(s - 1, t - dv)]
        return np.concatenate(spans, axis=0) if spans else np.zeros((0, m.dim(s, t)), dtype=np.int64)

    bidegs, reps = [], []
    order = m.bidegrees()
    for (s, t), r in zip(order, dense_ranks((span(*bd) for bd in order), m.p)):
        if r < m.dim(s, t):
            for row in coset_representatives(np.eye(m.dim(s, t), dtype=np.int64), span(s, t), m.p):
                bidegs.append((s, t))
                reps.append(row)
    return bidegs, reps


def _dense_cover_and_kernels(target: DenseModule, reps, columns) -> dict[Bidegree, np.ndarray]:
    p = target.p
    image = {}
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

    kernels = {}
    for bd, r in zip(columns, dense_ranks(map(cover, columns), p)):
        assert r == target.dim(*bd), f"free cover misses part of the target at {bd}"
        if r < len(columns[bd]):
            kernels[bd] = kernel_array(cover(bd), p)
    assert all(bd in columns for bd, n in target.dims.items() if n), "uncovered bidegree"
    return kernels


def dense_p_resolution(m: DenseModule, u_max: int) -> list[DenseStage]:
    """`p_resolution` with every cover, kernel and kernel action as one dense matrix per bidegree."""
    stages: list[DenseStage] = []
    target, to_free = m, None
    for u in range(u_max + 1):
        gen_bidegrees, reps = _dense_min_generators(target)
        if not gen_bidegrees:
            break
        columns = _free_columns(gen_bidegrees, m.var_degrees, m.t_max)
        if to_free is None:
            gen_vectors = [row % m.p for row in reps]
        else:
            gen_vectors = [(row @ to_free[bd]) % m.p for row, bd in zip(reps, gen_bidegrees)]
        stages.append(DenseStage(tuple(gen_bidegrees), tuple(gen_vectors), columns))
        if u == u_max:
            break
        kernels = _dense_cover_and_kernels(target, reps, columns)
        col_index = _column_index(columns)
        kacts: dict[int, dict[Bidegree, np.ndarray]] = {j: {} for j in range(len(m.var_degrees))}
        piv_of = {bd: [int(np.nonzero(r)[0][0]) for r in rows] for bd, rows in kernels.items()}
        for (s, t), rows in kernels.items():
            for j, dv in enumerate(m.var_degrees):
                dst = (s + 1, t + dv)
                if dst not in kernels:
                    continue
                pushed = _relabel(rows, columns[(s, t)], col_index[dst], j)
                assert not reduce_mod_rows(pushed, kernels[dst], piv_of[dst], m.p).any(), "not closed"
                kacts[j][(s, t)] = pushed[:, piv_of[dst]].T % m.p
        target = DenseModule(m.p, m.var_degrees, {bd: r.shape[0] for bd, r in kernels.items()}, kacts, m.t_max)
        to_free = kernels
    return stages
