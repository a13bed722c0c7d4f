"""Margolis test oracles: the tensor-power model, class representatives and Kunneth.

`margolis.construct_model` builds the class (a, b) over E(Q_j, Q_h) as the
(2|b| + 1)-dimensional zigzag.  Here the same class is built the long way,
as the tensor power I^{(x)b} of the augmentation ideal (J^{(x)|b|} of the
socle quotient for b < 0), which has 3^|b| elements and differs from the
zigzag by a free summand.  It shares no code with the zigzag, so the tests
hold the two against each other.

`margolis.margolis_homology` counts dimensions from ranks alone.  The
tests also read canonical representatives of the classes (`classes`, and
their text form `to_json`) and compare the homology of a tensor product
with the convolution of its factors' (`kunneth_check`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bgsplit.fplin import homology_basis
from bgsplit.margolis import MargolisHomology, margolis_homology
from bgsplit.monomials import Monomial, PrimeContext, format_monomial
from bgsplit.qmodules import (
    QModule,
    _shift_grading,
    free_module,
    quotient,
    submodule_generated,
    tensor,
    trivial_module,
)


def tensor_power_model(ctx: PrimeContext, pair: tuple[int, int], a: int, b: int) -> QModule:
    """The module labeled (a, b) over E(Q_j, Q_h): a suspension of I^{(x)b}.

    I is the augmentation ideal of the free rank-one module.  Negative
    powers use the socle quotient J with a compensating suspension of
    d_j + d_h per factor, so the homologies land at a + |Q_j|b and
    a + |Q_h|b either way.  The shift may be odd; a graded shift of a
    module over the exterior algebra is again a module, and Margolis
    homology only reads degrees.
    """
    j, h = sorted(pair)
    if j == h:
        raise ValueError("the two Q indices must differ")
    qs = (j, h)
    if b == 0:
        return _shift_grading(trivial_module(ctx, qs), a)
    free = free_module(ctx, qs, 0, "g")
    if b > 0:
        factor, _ = submodule_generated(free, [("g", (j,)), ("g", (h,))])
        shift = a
    else:
        factor, _ = quotient(submodule_generated(free, [("g", (j, h))])[1])
        shift = a + (-b) * (ctx.q_degree(j) + ctx.q_degree(h))
    out = factor
    for _ in range(abs(b) - 1):
        out = tensor(out, factor)
    return _shift_grading(out, shift)


def without_lowest_edge(model: QModule, i: int) -> QModule:
    """model with the lowest Q_i matrix zeroed, through the checked constructor.

    On a zigzag that removes one Q_i edge: its source becomes a Q_i-cycle
    and its target stops bounding, so Q_i-homology grows from one
    dimension to three.  A model with no Q_i edge (b = 0) comes back as is.
    """
    actions = {k: dict(acts) for k, acts in model.actions.items()}
    if actions[i]:
        d = min(actions[i])
        actions[i][d] = np.zeros_like(actions[i][d])
    return QModule(model.ctx, model.qs, model.basis, actions)


def classes(h: MargolisHomology) -> dict[int, np.ndarray]:
    """Echelon rows of representatives of H_d, in the module's coordinates, for every d in the support."""
    m, i = h.module, h.q_index
    return {
        d: homology_basis(m.act(i, d), m.act(i, d + m.drop(i)), m.ctx.p)[0]
        for d in h.support()
    }


def _label_text(label) -> str:
    if isinstance(label, Monomial):
        return format_monomial(label)
    return str(label)


def _vector_text(v: np.ndarray, labels) -> str:
    terms = []
    for c, lab in zip(v.tolist(), labels):
        if c == 0:
            continue
        text = _label_text(lab)
        terms.append(text if c == 1 else f"{c}*{text}")
    return " + ".join(terms) if terms else "0"


def to_json(h: MargolisHomology, name: str = "module") -> dict:
    """The representatives of `classes` as text, one entry per class."""
    reps = classes(h)
    return {
        "module": name,
        "Q": h.q_index,
        "classes": [
            {"degree": d, "representative": _vector_text(row, h.module.basis[d])}
            for d in h.support()
            for row in reps[d]
        ],
    }


@dataclass
class KunnethReport:
    q_index: int
    passed: bool
    per_degree: dict[int, tuple[int, int]]
    first_failing_degree: int | None


def kunneth_check(m: QModule, n: QModule, i: int) -> KunnethReport:
    """Compare homology dims of m (x) n with the convolution of factor dims, over the product's support."""
    if m.truncated_above is not None or n.truncated_above is not None:
        raise ValueError("the comparison needs complete finite modules")
    t = tensor(m, n)
    hm = margolis_homology(m, i)
    hn = margolis_homology(n, i)
    ht = margolis_homology(t, i)
    if not t.basis:
        return KunnethReport(i, True, {}, None)
    lo, hi = t.min_degree(), t.max_degree()
    per_degree: dict[int, tuple[int, int]] = {}
    first_failing: int | None = None
    for d in range(lo, hi + 1):
        rhs = sum(hm.dim(a) * hn.dim(d - a) for a in hm.support())
        lhs = ht.dim(d)
        if lhs or rhs:
            per_degree[d] = (lhs, rhs)
        if lhs != rhs and first_failing is None:
            first_failing = d
    return KunnethReport(i, first_failing is None, per_degree, first_failing)
