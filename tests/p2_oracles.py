"""Test-side routes over P(2): hand-written presentations, realization and dense Hom.

The pipeline never realizes a presentation: gr presentations and their
projective dimension are read off the block memo.  These helpers build a
module from generators and relations instead and resolve it afresh, so the
tests can hold the memo's views against an independent construction and
against closed-form oracles (the residue field, free modules, F_p[v_2]).
`dense_ext_from_resolution` builds each Hom differential as a dense matrix
and ranks it alone, so the Hom table of `ext_from_resolution` is held
against a layout that shares no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from bgsplit.ext.koszul import BigradedDims
from bgsplit.ext.poly import (
    Bidegree,
    PModule,
    PolyPresentation,
    PStage,
    RelationEntries,
    _column_index,
    _dot,
    _free_columns,
    _relabel,
    ext_from_resolution,
    p_resolution,
)
from bgsplit.fplin import quotient_projection, rank, rref_array


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
    return PModule(p, pres.var_degrees, dims, acts, pres.t_max)


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
            g, alpha = lower.columns[bd][pos]
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
