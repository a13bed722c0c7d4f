"""The exterior-versus-polynomial Ext comparison and the obstruction report.

The odd-degree part of Ext over the exterior pair, mapping one weight
block of the reduced part into a suspension of another, is matched
column-by-column in the internal degree t against the homological
degree-1 line of Ext over the polynomial algebra between the associated
graded modules.  Every potential obstruction (a class with s >= 2 and
t - s odd) must land in a matched column.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..browngitler import bp_homology, brown_gitler, weight_restricted_C
from ..monomials import PrimeContext, length
from ..qmodules import QModule, tensor
from .koszul import BigradedDims, ext_koszul
from .poly import ext_from_resolution, resolved_block

_PAD = 24


def dual_module(m: QModule) -> QModule:
    """Contragredient module: degrees negate and each Q_i transposes.

    The sign (-1)^(1 + d) on the transpose at dual degree -d makes the
    dual actions square to zero and anticommute with the same exterior
    relations, so the constructor's checks run unchanged.
    """
    if m.truncated_above is not None:
        raise ValueError("only a complete finite module has a well-defined dual")
    p = m.ctx.p
    basis = {-d: tuple(("dual", lab) for lab in labs) for d, labs in m.basis.items()}
    actions: dict[int, dict[int, np.ndarray]] = {i: {} for i in m.qs}
    for i in m.qs:
        di = m.drop(i)
        for d in m.degrees():
            upper = m.act(i, d + di)
            if upper.size:
                sign = -1 if (1 + d) % 2 else 1
                mat = (sign * upper.T) % p
                if mat.size:
                    actions[i][-d] = mat
    return QModule(m.ctx, m.qs, basis, actions)


def ext_via_dual(
    m: QModule, n: QModule, s_max: int, t_max: int, t_min: int | None = None
) -> BigradedDims:
    """Ext(m, n) through the Koszul complex of (dual of m) tensor n.

    Both routes to Ext between modules are kept: this one is exact at
    every t and fast, the resolution route (ext_general) certifies a
    window; tests hold them against each other.
    """
    return ext_koszul(tensor(dual_module(m), n), s_max, t_max, t_min=t_min)


# -- the per-t comparison and its windows --------------------------------------
# A suspension only shifts t, so each pair is computed between C_k and C_m
# and reported shifted by qm.  Both sides read `poly.resolved_block`: the
# source block's stages and the target block's Ext, cut to its window.  Every
# generator of C_k's resolution sits at or below D_k = C_k.max_degree(), so
# classes start at -D_k and the target must reach hi + D_k.  The polynomial
# side certifies from the generator degrees and the target's window, so a
# higher generator or an uncut target makes the check raise, not report.


@dataclass
class PropisoReport:
    """Per-t columns of both sides of the odd-Ext comparison.

    lhs sums Ext^{s,t} over the exterior pair across all s with t - s
    odd; rhs is the homological degree-1 line of Ext over the polynomial
    algebra between the associated graded modules, at the same t.
    """

    k: int
    m: int
    suspension: int
    t_lo: int
    t_hi: int
    lhs_columns: dict[int, int]
    rhs_columns: dict[int, int]
    exterior_dims: BigradedDims

    @property
    def mismatches(self) -> tuple[int, ...]:
        return tuple(
            t
            for t in range(self.t_lo, self.t_hi + 1)
            if self.lhs_columns.get(t, 0) != self.rhs_columns.get(t, 0)
        )

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def column_rows(self) -> list[tuple[int, int, int]]:
        out = []
        for t in range(self.t_lo, self.t_hi + 1):
            lhs = self.lhs_columns.get(t, 0)
            rhs = self.rhs_columns.get(t, 0)
            if lhs or rhs:
                out.append((t, lhs, rhs))
        return out


def propiso_check(ctx: PrimeContext, k: int, m: int, t_hi: int | None = None) -> PropisoReport:
    """Compare odd exterior Ext columns with the degree-1 polynomial line.

    The exterior side maps the weight-pk block into the qm-suspended
    weight-pm block and is exact at every t; the polynomial side resolves
    the source through hi + 2 D_k and maps into the target's Ext through
    hi + D_k (hi = t_hi - qm, D_k the source block's top degree), and
    must certify the whole window.
    """
    ck = weight_restricted_C(ctx, k)
    cm = weight_restricted_C(ctx, m)
    qm = ctx.q * m
    top = ck.max_degree()
    if t_hi is None:
        t_hi = qm + cm.max_degree() + _PAD
    lo, hi = qm - top, t_hi - qm
    if lo > t_hi:
        raise ValueError(f"empty comparison window [{lo}, {t_hi}]")
    ext_k, stages = resolved_block(ck, hi + 2 * top)
    B = resolved_block(cm, hi + top)[0].truncated(hi + top)

    dual = ext_via_dual(ck, cm, hi + top, hi, t_min=-top)
    shifted = {(s, t + qm): d for (s, t), d in dual.dims.items()}
    lhs: dict[int, int] = {}
    for (s, t), dim in shifted.items():
        if (t - s) % 2:
            lhs[t] = lhs.get(t, 0) + dim
    poly = ext_from_resolution(stages, ext_k.t_max, B, 1, hi, t_min=-top)
    if poly.t_max < hi:
        raise ArithmeticError(f"polynomial side certified only to {poly.t_max + qm} < {t_hi}")
    rhs = {t + qm: d for (u, t), d in poly.dims.items() if u == 1}
    exterior = replace(dual, dims=shifted, t_max=t_hi, t_min=lo)
    return PropisoReport(k, m, qm, lo, t_hi, lhs, rhs, exterior)


# -- the obstruction survey ------------------------------------------------------


@dataclass(frozen=True)
class ObstructionClass:
    s: int
    t: int
    block: int
    dim: int
    matched: bool


@dataclass
class ObstructionReport:
    """All odd potential obstructions out of a suspended weight block.

    Classes live in Ext of the qk-suspension of the block against the
    full target homology, found blockwise over the target's weight
    decomposition; the free component is checked to vanish through the
    degrees the window can reach (free_checked_through), so every class
    lives in the block-to-block summand.
    """

    k: int
    suspension: int
    t_hi: int
    blocks: tuple[int, ...]
    classes: tuple[ObstructionClass, ...]
    free_checked_through: int
    source_dim: int
    block_reports: dict[int, PropisoReport]

    @property
    def all_matched(self) -> bool:
        return all(c.matched for c in self.classes)

    @property
    def message(self) -> str:
        if self.all_matched:
            return f"theta_{self.k} survives at E_2-comparison level"
        bad = [(c.s, c.t) for c in self.classes if not c.matched]
        return f"unmatched obstruction classes at {bad}"


def obstruction_report(ctx: PrimeContext, k: int, t_hi: int | None = None) -> ObstructionReport:
    """Enumerate s >= 2 odd classes out of the suspended block and match them.

    The source is the Brown-Gitler comodule for k (checked against the
    weight block it is quotiented to); charts here use the suspended
    internal degree, so t = (unsuspended chart) + qk.
    """
    ck = weight_restricted_C(ctx, k)
    B1 = brown_gitler(ctx, 1, k).module
    if B1.total_dim != ck.total_dim:
        raise ValueError(
            "the Brown-Gitler comodule has a free complement at this weight; "
            "extend the blockwise analysis before trusting the report"
        )
    qk = ctx.q * k
    if t_hi is None:
        t_hi = qk + 2 * ck.max_degree() + _PAD
    hi_unsus = t_hi - qk
    reach = t_hi + ck.max_degree()
    # the free component is generated by the length >= 3 monomials of H
    H = bp_homology(ctx, 2, reach).module
    if any(length(lab) >= 3 for labels in H.basis.values() for lab in labels):
        raise ValueError(
            "the free component enters the requested range; its Ext vanishes "
            "only blockwise, extend the analysis before trusting the report"
        )
    blocks = tuple(range((hi_unsus + ck.max_degree()) // ctx.q + 1))
    classes: list[ObstructionClass] = []
    reports: dict[int, PropisoReport] = {}
    for m in blocks:
        rep = propiso_check(ctx, k, m, t_hi=hi_unsus)
        reports[m] = rep
        for (s, t), dim in sorted(rep.exterior_dims.dims.items(), key=lambda it: (it[0][1], it[0][0])):
            if s >= 2 and (t - s) % 2:
                matched = rep.lhs_columns.get(t, 0) == rep.rhs_columns.get(t, 0)
                classes.append(ObstructionClass(s, t + qk, m, dim, matched))
    return ObstructionReport(
        k=k,
        suspension=qk,
        t_hi=t_hi,
        blocks=blocks,
        classes=tuple(classes),
        free_checked_through=reach,
        source_dim=B1.total_dim,
        block_reports=reports,
    )
