"""The tensor-power model of a stably invertible module, as a test oracle.

`margolis.construct_model` builds the class (a, b) over E(Q_j, Q_h) as the
(2|b| + 1)-dimensional zigzag.  Here the same class is built the long way,
as the tensor power I^{(x)b} of the augmentation ideal (J^{(x)|b|} of the
socle quotient for b < 0), which has 3^|b| elements and differs from the
zigzag by a free summand.  It shares no code with the zigzag, so the tests
hold the two against each other.
"""

from __future__ import annotations

import numpy as np

from bgsplit.monomials import PrimeContext
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
