"""Graded modules over exterior algebras on Milnor primitives.

A QModule is a finitely supported graded F_p vector space with a basis in
each degree and, for each selected index i, the action of the Milnor
primitive Q_i as a matrix dropping degree by 2p^i - 1.  The Q_i satisfy
Q_i^2 = 0 and Q_i Q_j = -Q_j Q_i; every constructor re-verifies both, so a
QModule in hand is always an actual module over the exterior algebra on
its selected primitives.

On monomials of the dual Steenrod algebra the action is the signed
derivation determined by

    Q_i(xi_a) = 0          Q_i(tau_b) = xi_{b-i}^{p^i}  (i <= b, xi_0 = 1)

with Q_i(xy) = Q_i(x) y + (-1)^{deg x} x Q_i(y).

Modules may be exact truncations of infinite objects: `truncated_above`
records the largest degree through which the stored slice agrees with the
intended module (None means the module is finite and stored completely).
Downstream homology routines use it to refuse uncertified ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .fplin import quotient_projection, rref_array
from .monomials import (
    AlgebraSpec,
    Monomial,
    PrimeContext,
    degree as mono_degree,
    format_monomial,
    sort_key,
    weight as mono_weight,
)

__all__ = [
    "QModule",
    "QModuleMap",
    "MapReport",
    "ClosureError",
    "q_action_on_monomial",
    "module_from_monomials",
    "suspend",
    "direct_sum",
    "tensor",
    "restrict_qs",
    "quotient",
    "submodule_generated",
    "verify_map",
    "free_module",
    "trivial_module",
    "identity_map",
    "compose",
]


class ClosureError(ValueError):
    """A generating set fails to be closed under some Q_i."""


def q_action_on_monomial(
    ctx: PrimeContext, spec: AlgebraSpec, i: int, m: Monomial
) -> list[tuple[int, Monomial]]:
    """Q_i of a monomial as a signed combination of monomials.

    Returns (coefficient, monomial) pairs with coefficients in (0, p);
    degree drops by 2p^i - 1, weight is preserved, length drops by one.
    """
    if i < 0:
        raise ValueError("Q index must be nonnegative")
    terms: dict[Monomial, int] = {}
    for pos, b in enumerate(m.tau):
        if b < spec.min_tau:
            raise ValueError(f"tau{b} does not live in this algebra")
        if i > b:
            continue
        xi = dict(m.xi)
        if b - i >= 1:
            xi[b - i] = xi.get(b - i, 0) + ctx.p**i
        rest = Monomial.make(xi, tuple(t for t in m.tau if t != b))
        sign = -1 if pos % 2 else 1
        terms[rest] = (terms.get(rest, 0) + sign) % ctx.p
    return [(c, mono) for mono, c in terms.items() if c]


class QModule:
    """Graded module over an exterior algebra E(Q_i : i in qs)."""

    def __init__(
        self,
        ctx: PrimeContext,
        qs: Sequence[int],
        basis: dict[int, tuple],
        actions: dict[int, dict[int, np.ndarray]],
        truncated_above: int | None = None,
        _skip_check: bool = False,
    ) -> None:
        self.ctx = ctx
        self.qs = tuple(sorted(set(qs)))
        self.basis = {d: tuple(labels) for d, labels in basis.items() if labels}
        self.actions = {
            i: {d: np.asarray(mat, dtype=np.int64) % ctx.p for d, mat in acts.items()}
            for i, acts in actions.items()
        }
        self.truncated_above = truncated_above
        for i in self.qs:
            self.actions.setdefault(i, {})
        if not _skip_check:
            self._check_shapes()
            self._check_relations()

    # -- structure ---------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self.basis)

    def dim(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    @property
    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())

    def min_degree(self) -> int:
        return min(self.basis) if self.basis else 0

    def max_degree(self) -> int:
        return max(self.basis) if self.basis else 0

    def drop(self, i: int) -> int:
        return self.ctx.q_degree(i)

    def act(self, i: int, d: int) -> np.ndarray:
        """Matrix of Q_i from degree d to degree d - (2p^i - 1)."""
        if i not in self.qs:
            raise KeyError(f"Q_{i} is not defined on this module")
        mat = self.actions[i].get(d)
        if mat is None:
            return np.zeros((self.dim(d - self.drop(i)), self.dim(d)), dtype=np.int64)
        return mat

    def label_index(self, label) -> tuple[int, int]:
        if not hasattr(self, "_index"):
            self._index = {
                lab: (d, j) for d, labs in self.basis.items() for j, lab in enumerate(labs)
            }
        return self._index[label]

    def element(self, label) -> tuple[int, np.ndarray]:
        d, j = self.label_index(label)
        v = np.zeros(self.dim(d), dtype=np.int64)
        v[j] = 1
        return d, v

    # -- invariants --------------------------------------------------------

    def _check_shapes(self) -> None:
        for i, acts in self.actions.items():
            if i not in self.qs:
                raise ValueError(f"action given for undefined Q_{i}")
            for d, mat in acts.items():
                want = (self.dim(d - self.drop(i)), self.dim(d))
                if mat.shape != want:
                    raise ValueError(
                        f"Q_{i} matrix at degree {d} has shape {mat.shape}, expected {want}"
                    )

    def _check_relations(self) -> None:
        p = self.ctx.p
        for d in self.degrees():
            for a, i in enumerate(self.qs):
                di = self.drop(i)
                sq = (self.act(i, d - di) @ self.act(i, d)) % p
                if sq.any():
                    raise ValueError(f"Q_{i}^2 is nonzero starting at degree {d}")
                for j in self.qs[a + 1 :]:
                    dj = self.drop(j)
                    anti = (
                        self.act(i, d - dj) @ self.act(j, d)
                        + self.act(j, d - di) @ self.act(i, d)
                    ) % p
                    if anti.any():
                        raise ValueError(
                            f"Q_{i}Q_{j} + Q_{j}Q_{i} is nonzero starting at degree {d}"
                        )


@dataclass
class MapReport:
    passed: bool
    failures: list[tuple[str, int]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed


class QModuleMap:
    """A degree-homogeneous map of QModules raising degree by `shift`."""

    def __init__(
        self,
        source: QModule,
        target: QModule,
        mats: dict[int, np.ndarray],
        shift: int = 0,
    ) -> None:
        if source.ctx.p != target.ctx.p:
            raise ValueError("source and target live over different primes")
        self.source = source
        self.target = target
        self.shift = shift
        self.mats = {}
        for d, mat in mats.items():
            mat = np.asarray(mat, dtype=np.int64) % source.ctx.p
            want = (target.dim(d + shift), source.dim(d))
            if mat.shape != want:
                raise ValueError(f"map matrix at degree {d} has shape {mat.shape}, expected {want}")
            self.mats[d] = mat

    def mat(self, d: int) -> np.ndarray:
        got = self.mats.get(d)
        if got is None:
            return np.zeros((self.target.dim(d + self.shift), self.source.dim(d)), dtype=np.int64)
        return got


def verify_map(f: QModuleMap) -> MapReport:
    """Check Q-equivariance of f in every stored source degree."""
    if f.source.qs != f.target.qs:
        return MapReport(False, [("primitive sets differ", 0)])
    p = f.source.ctx.p
    failures: list[tuple[str, int]] = []
    for d in f.source.degrees():
        for i in f.source.qs:
            di = f.source.drop(i)
            lhs = (f.target.act(i, d + f.shift) @ f.mat(d)) % p
            rhs = (f.mat(d - di) @ f.source.act(i, d)) % p
            if not np.array_equal(lhs, rhs):
                failures.append((f"Q_{i}", d))
    return MapReport(not failures, failures)


def module_from_monomials(
    ctx: PrimeContext,
    spec: AlgebraSpec,
    monomials: Iterable[Monomial],
    qs: Sequence[int],
    truncated_above: int | None = None,
) -> QModule:
    """Span of a monomial set, checked to be closed under the chosen Q_i.

    Basis order inside each degree follows the canonical monomial order, so
    identical inputs index identically.  A monomial whose Q_i leaves the
    span raises ClosureError naming both offenders.
    """
    monos = sorted(set(monomials), key=lambda m: sort_key(ctx, m))
    by_degree: dict[int, list[Monomial]] = {}
    for m in monos:
        by_degree.setdefault(mono_degree(ctx, m), []).append(m)
    index = {m: j for d, ms in by_degree.items() for j, m in enumerate(ms)}
    basis = {d: tuple(ms) for d, ms in by_degree.items()}
    actions: dict[int, dict[int, np.ndarray]] = {i: {} for i in qs}
    for i in qs:
        di = ctx.q_degree(i)
        for d, ms in by_degree.items():
            lower = by_degree.get(d - di, [])
            mat = np.zeros((len(lower), len(ms)), dtype=np.int64)
            for col, m in enumerate(ms):
                for coeff, term in q_action_on_monomial(ctx, spec, i, m):
                    if term not in index:
                        raise ClosureError(
                            f"Q_{i}({format_monomial(m)}) has term "
                            f"{format_monomial(term)} outside the span"
                        )
                    mat[index[term], col] = coeff
            if mat.size:
                actions[i][d] = mat
    return QModule(ctx, qs, basis, actions, truncated_above)


def _shift_grading(m: QModule, n: int) -> QModule:
    """Regrade by n (any integer); labels and matrices are untouched."""
    basis = {d + n: labs for d, labs in m.basis.items()}
    actions = {i: {d + n: mat for d, mat in acts.items()} for i, acts in m.actions.items()}
    ta = None if m.truncated_above is None else m.truncated_above + n
    return QModule(m.ctx, m.qs, basis, actions, ta, _skip_check=True)


def suspend(m: QModule, n: int) -> QModule:
    """Even suspension; odd shifts are rejected to keep sign rules trivial."""
    if n % 2:
        raise ValueError("suspension must be by an even degree")
    return _shift_grading(m, n)


def direct_sum(modules: Sequence[QModule]) -> QModule:
    """Direct sum; labels become (block index, original label)."""
    if not modules:
        raise ValueError("empty direct sum has no ambient context")
    ctx = modules[0].ctx
    qs = modules[0].qs
    for m in modules:
        if m.ctx.p != ctx.p or m.qs != qs:
            raise ValueError("summands must share prime and primitive set")
    degrees = sorted({d for m in modules for d in m.degrees()})
    basis = {
        d: tuple((k, lab) for k, m in enumerate(modules) for lab in m.basis.get(d, ()))
        for d in degrees
    }
    actions: dict[int, dict[int, np.ndarray]] = {i: {} for i in qs}
    for i in qs:
        di = ctx.q_degree(i)
        for d in degrees:
            blocks = [m.act(i, d) for m in modules]
            rows = sum(b.shape[0] for b in blocks)
            cols = sum(b.shape[1] for b in blocks)
            mat = np.zeros((rows, cols), dtype=np.int64)
            r = c = 0
            for b in blocks:
                mat[r : r + b.shape[0], c : c + b.shape[1]] = b
                r += b.shape[0]
                c += b.shape[1]
            if mat.size:
                actions[i][d] = mat
    tas = [m.truncated_above for m in modules]
    ta = None if all(t is None for t in tas) else min(t for t in tas if t is not None)
    return QModule(ctx, qs, basis, actions, ta, _skip_check=True)


def tensor(m: QModule, n: QModule, max_degree: int | None = None) -> QModule:
    """Tensor product with the signed Leibniz action.

    Q_i(x (x) y) = Q_i(x) (x) y + (-1)^{deg x} x (x) Q_i(y).  When
    max_degree is given, only total degrees up to it are built; the result
    is then marked truncated there.
    """
    if m.ctx.p != n.ctx.p:
        raise ValueError("tensor factors live over different primes")
    if m.qs != n.qs:
        raise ValueError("tensor factors must share their primitive set")
    ctx = m.ctx
    pairs: dict[int, list[tuple[int, int]]] = {}
    offsets: dict[tuple[int, int], int] = {}
    for dm in m.degrees():
        for dn in n.degrees():
            t = dm + dn
            if max_degree is not None and t > max_degree:
                continue
            pairs.setdefault(t, []).append((dm, dn))
    basis: dict[int, tuple] = {}
    for t, blocks in pairs.items():
        blocks.sort()
        labels = []
        for dm, dn in blocks:
            offsets[(dm, dn)] = len(labels)
            labels.extend((lm, ln) for lm in m.basis[dm] for ln in n.basis[dn])
        basis[t] = tuple(labels)
    dims = {t: len(labs) for t, labs in basis.items()}

    actions: dict[int, dict[int, np.ndarray]] = {i: {} for i in m.qs}
    for i in m.qs:
        di = ctx.q_degree(i)
        for t, blocks in pairs.items():
            rows = dims.get(t - di, 0)
            mat = np.zeros((rows, dims[t]), dtype=np.int64)
            if rows:
                for dm, dn in blocks:
                    col0 = offsets[(dm, dn)]
                    wm, wn = m.dim(dm), n.dim(dn)
                    left = (dm - di, dn)
                    if left in offsets:
                        block = np.kron(m.act(i, dm), np.eye(wn, dtype=np.int64))
                        r0 = offsets[left]
                        mat[r0 : r0 + block.shape[0], col0 : col0 + wm * wn] = block
                    right = (dm, dn - di)
                    if right in offsets:
                        sign = -1 if dm % 2 else 1
                        block = sign * np.kron(np.eye(wm, dtype=np.int64), n.act(i, dn))
                        r0 = offsets[right]
                        prev = mat[r0 : r0 + block.shape[0], col0 : col0 + wm * wn]
                        mat[r0 : r0 + block.shape[0], col0 : col0 + wm * wn] = prev + block
            if mat.size:
                actions[i][t] = mat % ctx.p

    bounds = []
    if m.truncated_above is not None:
        bounds.append(m.truncated_above + (n.min_degree() if n.basis else 0))
    if n.truncated_above is not None:
        bounds.append(n.truncated_above + (m.min_degree() if m.basis else 0))
    if max_degree is not None:
        bounds.append(max_degree)
    ta = min(bounds) if bounds else None
    return QModule(ctx, m.qs, basis, actions, ta)


def restrict_qs(m: QModule, qs: Sequence[int]) -> QModule:
    """Forget the action of the primitives outside `qs`."""
    keep = tuple(sorted(set(qs)))
    if not set(keep) <= set(m.qs):
        raise ValueError("cannot restrict to undefined primitives")
    actions = {i: dict(m.actions[i]) for i in keep}
    return QModule(m.ctx, keep, m.basis, actions, m.truncated_above, _skip_check=True)


def content_key(module: QModule) -> tuple:
    """Everything Ext depends on, compared exactly: no digest, so equal keys mean equal modules."""
    return (
        module.ctx.p,
        module.qs,
        module.truncated_above,
        tuple((d, module.dim(d)) for d in module.degrees()),
        tuple(
            (i, d, mat.shape, mat.tobytes())
            for i in sorted(module.actions)
            for d, mat in sorted(module.actions[i].items())
        ),
    )


def _resolve_elements(m: QModule, elements: Iterable) -> dict[int, list[np.ndarray]]:
    """Normalize labels / (degree, vector) pairs to per-degree vectors."""
    out: dict[int, list[np.ndarray]] = {}
    for el in elements:
        if isinstance(el, tuple) and len(el) == 2 and isinstance(el[0], int):
            d, v = el
            v = np.asarray(v, dtype=np.int64) % m.ctx.p
            if v.shape != (m.dim(d),):
                raise ValueError(f"vector at degree {d} has wrong length")
        else:
            d, v = m.element(el)
        out.setdefault(d, []).append(v)
    return out


def submodule_generated(m: QModule, elements: Iterable) -> tuple[QModule, QModuleMap]:
    """Smallest Q-closed graded subspace containing the elements.

    Returns the submodule (with synthetic labels) and its inclusion.  A
    single descending sweep suffices because every Q_i strictly lowers
    degree.
    """
    p = m.ctx.p
    spans: dict[int, np.ndarray] = {}

    def add_rows(d: int, rows: np.ndarray) -> None:
        if not rows.size:
            return
        current = spans.get(d)
        stacked = rows if current is None else np.concatenate([current, rows], axis=0)
        red, pivots = rref_array(stacked, p)
        spans[d] = red[: len(pivots)]

    for d, vecs in _resolve_elements(m, elements).items():
        add_rows(d, np.stack(vecs))
    # Q-images only flow to lower degrees, so popping the largest pending
    # degree stabilizes each degree before it is processed.
    pending = set(spans)
    while pending:
        d = max(pending)
        pending.discard(d)
        rows = spans.get(d)
        if rows is None or not rows.size:
            continue
        for i in m.qs:
            img = (m.act(i, d) @ rows.T).T % p
            if img.size and img.any():
                lower = d - m.drop(i)
                before = spans[lower].shape[0] if lower in spans else 0
                add_rows(lower, img)
                if spans[lower].shape[0] != before:
                    pending.add(lower)

    spans = {d: rows for d, rows in spans.items() if rows.shape[0]}
    basis = {
        d: tuple(("sub", d, j) for j in range(rows.shape[0])) for d, rows in spans.items()
    }
    actions: dict[int, dict[int, np.ndarray]] = {i: {} for i in m.qs}
    pivots_of = {d: [int(np.nonzero(r)[0][0]) for r in rows] for d, rows in spans.items()}
    for i in m.qs:
        di = m.drop(i)
        for d, rows in spans.items():
            lower = spans.get(d - di)
            img = (m.act(i, d) @ rows.T).T % p
            mat = np.zeros((0 if lower is None else lower.shape[0], rows.shape[0]), dtype=np.int64)
            for col in range(rows.shape[0]):
                v = img[col]
                if not v.any():
                    continue
                if lower is None:
                    raise ValueError("closure sweep missed a Q-image")
                coords = v[pivots_of[d - di]]
                residue = (v - coords @ lower) % p
                if residue.any():
                    raise ValueError("closure sweep missed a Q-image")
                mat[:, col] = coords
            if mat.size:
                actions[i][d] = mat
    sub = QModule(m.ctx, m.qs, basis, actions, m.truncated_above)
    inc = QModuleMap(sub, m, {d: rows.T for d, rows in spans.items()})
    return sub, inc


def quotient(m: QModule, generators: Iterable) -> tuple[QModule, QModuleMap]:
    """Quotient by the submodule the generators span, with the projection.

    Coset representatives are the basis elements at the non-pivot columns
    of the submodule's echelon basis, so quotient labels are a subset of
    the original labels and the construction is deterministic.
    """
    p = m.ctx.p
    sub, inc = submodule_generated(m, generators)
    spans: dict[int, tuple[np.ndarray, list[int]]] = {}
    for d in sub.degrees():
        red, pivots = rref_array(inc.mat(d).T, p)
        spans[d] = (red[: len(pivots)], pivots)

    basis: dict[int, tuple] = {}
    proj_mats: dict[int, np.ndarray] = {}
    keep: dict[int, list[int]] = {}
    for d in m.degrees():
        rows, pivots = spans.get(d, ((), ()))
        keep[d], proj_mats[d] = quotient_projection(rows, pivots, m.dim(d), p)
        basis[d] = tuple(m.basis[d][c] for c in keep[d])

    actions: dict[int, dict[int, np.ndarray]] = {i: {} for i in m.qs}
    for i in m.qs:
        di = m.drop(i)
        for d in m.degrees():
            if not basis.get(d) or not basis.get(d - di):
                continue
            src = np.zeros((m.dim(d), len(keep[d])), dtype=np.int64)
            for col, c in enumerate(keep[d]):
                src[c, col] = 1
            mat = (proj_mats[d - di] @ m.act(i, d) @ src) % p
            if mat.size:
                actions[i][d] = mat
    quot = QModule(m.ctx, m.qs, basis, actions, m.truncated_above)
    proj = QModuleMap(m, quot, {d: proj_mats[d] for d in m.degrees() if quot.dim(d) or m.dim(d)})
    return quot, proj


def free_module(ctx: PrimeContext, qs: Sequence[int], gen_degree: int = 0, gen_label="g") -> QModule:
    """Free rank-one module over E(Q_i : i in qs).

    Basis elements are (label, S) for subsets S of qs, in degree
    gen_degree - sum of the drops over S; Q_i inserts i into S with the
    sign of moving past the smaller indices already there.
    """
    qs = tuple(sorted(set(qs)))
    subsets: list[tuple[int, ...]] = [()]
    for i in qs:
        subsets = subsets + [s + (i,) for s in subsets]
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for s in subsets:
        d = gen_degree - sum(ctx.q_degree(i) for i in s)
        by_degree.setdefault(d, []).append(tuple(sorted(s)))
    for d in by_degree:
        by_degree[d].sort()
    index = {(d, s): j for d, ss in by_degree.items() for j, s in enumerate(ss)}
    basis = {d: tuple((gen_label, s) for s in ss) for d, ss in by_degree.items()}
    actions: dict[int, dict[int, np.ndarray]] = {i: {} for i in qs}
    for i in qs:
        di = ctx.q_degree(i)
        for d, ss in by_degree.items():
            lower = by_degree.get(d - di, [])
            mat = np.zeros((len(lower), len(ss)), dtype=np.int64)
            for col, s in enumerate(ss):
                if i in s:
                    continue
                new = tuple(sorted(s + (i,)))
                sign = -1 if sum(1 for x in s if x < i) % 2 else 1
                mat[index[(d - di, new)], col] = sign % ctx.p
            if mat.size:
                actions[i][d] = mat
    return QModule(ctx, qs, basis, actions)


def trivial_module(ctx: PrimeContext, qs: Sequence[int], degree: int = 0, label="e") -> QModule:
    """One-dimensional module with every Q_i acting by zero."""
    return QModule(ctx, tuple(sorted(set(qs))), {degree: (label,)}, {})


def identity_map(m: QModule) -> QModuleMap:
    return QModuleMap(m, m, {d: np.eye(m.dim(d), dtype=np.int64) for d in m.degrees()})


def compose(g: QModuleMap, f: QModuleMap) -> QModuleMap:
    if g.source is not f.target:
        raise ValueError("maps do not compose")
    p = f.source.ctx.p
    mats = {}
    for d in f.source.degrees():
        mats[d] = (g.mat(d + f.shift) @ f.mat(d)) % p
    return QModuleMap(f.source, g.target, mats, f.shift + g.shift)

