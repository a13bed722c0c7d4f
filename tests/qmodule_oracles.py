"""Reference module constructions: the Kronecker tensor product, a dense quotient and identity maps.

`kron_tensor` builds a tensor product block by block with np.kron, with
no code shared with `qmodules.tensor`, and can stop at a total degree,
which the library's tensor never does.  The tests hold the two against
each other and build truncated products from it.  `dense_quotient`
eliminates and projects at every degree, where `qmodules.quotient` keeps
the whole module wherever the submodule is zero.
"""

from __future__ import annotations

import numpy as np

from bgsplit.fplin import quotient_projection, rref_array
from bgsplit.qmodules import QModule, QModuleMap


def kron_tensor(m, n, max_degree=None):
    """Reference tensor product built block by block with np.kron."""
    pairs, offsets = {}, {}
    for dm in m.degrees():
        for dn in n.degrees():
            if max_degree is None or dm + dn <= max_degree:
                pairs.setdefault(dm + dn, []).append((dm, dn))
    basis = {}
    for t, blocks in pairs.items():
        blocks.sort()
        labels = []
        for dm, dn in blocks:
            offsets[(dm, dn)] = len(labels)
            labels.extend((lm, ln) for lm in m.basis[dm] for ln in n.basis[dn])
        basis[t] = tuple(labels)
    actions = {i: {} for i in m.qs}
    for i in m.qs:
        di = m.drop(i)
        for t, blocks in pairs.items():
            mat = np.zeros((len(basis.get(t - di, ())), len(basis[t])), dtype=np.int64)
            if mat.shape[0]:
                for dm, dn in blocks:
                    c0, width = offsets[(dm, dn)], m.dim(dm) * n.dim(dn)
                    if (dm - di, dn) in offsets:
                        block = np.kron(m.act(i, dm), np.eye(n.dim(dn), dtype=np.int64))
                        r0 = offsets[(dm - di, dn)]
                        mat[r0 : r0 + block.shape[0], c0 : c0 + width] = block
                    if (dm, dn - di) in offsets:
                        sign = -1 if dm % 2 else 1
                        block = sign * np.kron(np.eye(m.dim(dm), dtype=np.int64), n.act(i, dn))
                        r0 = offsets[(dm, dn - di)]
                        mat[r0 : r0 + block.shape[0], c0 : c0 + width] += block
            if mat.size:
                actions[i][t] = mat % m.ctx.p
    return basis, actions


def truncated_tensor(m: QModule, n: QModule, max_degree: int) -> QModule:
    """m (x) n through total degree max_degree, marked truncated there."""
    basis, actions = kron_tensor(m, n, max_degree)
    return QModule(m.ctx, m.qs, basis, actions, max_degree)


def identity_map(m: QModule) -> QModuleMap:
    return QModuleMap(m, m, {d: np.eye(m.dim(d), dtype=np.int64) for d in m.degrees()})


def dense_quotient(inc: QModuleMap) -> tuple[QModule, QModuleMap]:
    """Quotient by the image of inc with its projection, eliminated and multiplied out at every degree."""
    m, p = inc.target, inc.target.ctx.p
    basis, proj_mats, keep = {}, {}, {}
    for d in m.degrees():
        rows, pivots = rref_array(inc.mat(d).T, p)
        keep[d], proj_mats[d] = quotient_projection(rows, pivots, m.dim(d), p)
        basis[d] = tuple(m.basis[d][c] for c in keep[d])
    actions = {i: {} for i in m.qs}
    for i in m.qs:
        di = m.drop(i)
        for d in m.degrees():
            if basis[d] and basis.get(d - di):
                actions[i][d] = (proj_mats[d - di] @ m.act(i, d)[:, keep[d]]) % p
    quot = QModule(m.ctx, m.qs, basis, actions, m.truncated_above)
    return quot, QModuleMap(m, quot, proj_mats)
