"""Test-side routes over P(2): hand-written presentations and realization.

The pipeline never realizes a presentation: gr presentations and their
projective dimension are read off the block memo.  These helpers build a
module from generators and relations instead and resolve it afresh, so the
tests can hold the memo's views against an independent construction and
against closed-form oracles (the residue field, free modules, F_p[v_2]).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from bgsplit.ext.koszul import BigradedDims
from bgsplit.ext.poly import (
    Bidegree,
    PModule,
    PolyPresentation,
    RelationEntries,
    _column_index,
    _free_columns,
    _relabel,
    ext_from_resolution,
    p_resolution,
)
from bgsplit.fplin import quotient_projection, rref_array


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


def ext_over_P2(a, b, u_max: int, t_max: int) -> BigradedDims:
    """Ext^{u,t} over the polynomial algebra, from a truncated minimal
    resolution of the realization of a, mapped into the realization of b."""
    if a.p != b.p or a.var_degrees != b.var_degrees:
        raise ValueError("presentations live over different polynomial algebras")
    A = realize(a)
    B = realize(b)
    stages = p_resolution(A, u_max + 1)
    return ext_from_resolution(stages, A.t_max, B, u_max, t_max)


def fields(pres) -> tuple:
    """What a presentation says, for comparing two of them."""
    return (pres.p, pres.var_degrees, pres.t_max, pres.generators, pres.relations)
