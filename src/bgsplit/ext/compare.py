"""The exterior-versus-polynomial Ext comparison and the obstruction report.

The odd-degree part of Ext over the exterior pair, mapping one weight
block of the reduced part into a suspension of another, is matched
column-by-column in the internal degree t against the homological
degree-1 line of Ext over the polynomial algebra between the associated
graded modules.  Every potential obstruction (a class with s >= 2 and
t - s odd) must land in a matched column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..browngitler import brown_gitler, length_splitting, weight_restricted_C
from ..monomials import PrimeContext
from ..qmodules import QModule, suspend, tensor
from .koszul import BigradedDims, ext_koszul
from .poly import PStage, ext_from_resolution, gr_module, realize, resolved_block

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


# -- comparison windows -----------------------------------------------------------
# Both sides read `poly.resolved_block`, the one content-keyed memo of P(2)
# resolutions: the source block's stages directly, the target through its
# gr presentation.  Windows are quantized so that nearby requests do not
# regrow an entry.


def _quantize(t: int) -> int:
    return ((max(t, 0) + 15) // 16) * 16


def _top(stages: list[PStage]) -> int:
    """Largest internal degree of a generator in the resolution."""
    return max((t for st in stages for _, t in st.gen_bidegrees), default=0)


# -- the per-t comparison --------------------------------------------------------


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
    note: str | None = None

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


def propiso_check(
    ctx: PrimeContext,
    k: int,
    m: int,
    t_hi: int | None = None,
    t_lo: int | None = None,
) -> PropisoReport:
    """Compare odd exterior Ext columns with the degree-1 polynomial line.

    The exterior side maps the weight-pk block into the qm-suspended
    weight-pm block and is exact at every t; the polynomial side runs
    over a window wide enough that its certified range contains the
    requested one, growing the cached resolutions when needed.
    """
    ck = weight_restricted_C(ctx, k)
    cm = weight_restricted_C(ctx, m)
    qm = ctx.q * m
    if t_hi is None:
        t_hi = qm + cm.max_degree() + _PAD
    top = _top(resolved_block(ck, _quantize(2 * ck.max_degree() + 34))[1])
    for _ in range(4):
        # floor of possible classes on either side: the exterior Ext starts
        # at qm - maxdeg, the polynomial side at qm - (top resolution gen)
        lo = (qm - max(top, ck.max_degree())) if t_lo is None else t_lo
        if lo > t_hi:
            raise ValueError(f"empty comparison window [{lo}, {t_hi}]")
        t_b = _quantize(t_hi + top)
        t_a = _quantize(t_b - lo)
        a_t_max, stages = resolved_block(ck, t_a)
        new_top = _top(stages)
        if new_top == top:
            break
        top = new_top
    else:
        raise ArithmeticError("resolution generator degrees failed to stabilize")
    B = realize(gr_module(cm, t_b - qm).shifted(qm), t_b)

    dual = ext_via_dual(ck, suspend(cm, qm), t_hi - (qm - ck.max_degree()), t_hi, t_min=lo)
    lhs: dict[int, int] = {}
    for (s, t), dim in dual.dims.items():
        if (t - s) % 2:
            lhs[t] = lhs.get(t, 0) + dim
    poly = ext_from_resolution(stages, a_t_max, B, 1, t_hi, t_min=lo)
    if poly.t_max < t_hi:
        raise ArithmeticError(f"polynomial side certified only to {poly.t_max} < {t_hi}")
    rhs = {t: d for (u, t), d in poly.dims.items() if u == 1}
    return PropisoReport(k, m, qm, lo, t_hi, lhs, rhs, dual)


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
    degrees the window can reach, so every class lives in the
    block-to-block summand.
    """

    k: int
    suspension: int
    t_hi: int
    blocks: tuple[int, ...]
    classes: tuple[ObstructionClass, ...]
    free_dim: int
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
    split = length_splitting(ctx, reach)
    free_dim = split.free_part.total_dim
    if free_dim:
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
        free_dim=free_dim,
        free_checked_through=reach,
        source_dim=B1.total_dim,
        block_reports=reports,
    )
