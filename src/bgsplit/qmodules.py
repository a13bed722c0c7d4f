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
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .fplin import coset_representatives, quotient_projection, reduce_mod_rows, rref_array
from .monomials import (
    AlgebraSpec,
    Monomial,
    PrimeContext,
    format_monomial,
    sort_key,
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
    "q_word",
    "minimal_generators",
    "free_module",
    "trivial_module",
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
    Removing different tau factors leaves different tau sets, so the terms
    are distinct and each coefficient is the sign of its factor's position.
    """
    if i < 0:
        raise ValueError("Q index must be nonnegative")
    terms = []
    for pos, b in enumerate(m.tau):
        if b < spec.min_tau:
            raise ValueError(f"tau{b} does not live in this algebra")
        if i > b:
            continue
        xi = m.xi if b == i else _raise_xi(m.xi, b - i, ctx.p**i)
        terms.append((ctx.p - 1 if pos % 2 else 1, Monomial(xi, m.tau[:pos] + m.tau[pos + 1 :])))
    return terms


def _raise_xi(xi: tuple[tuple[int, int], ...], a: int, e: int) -> tuple[tuple[int, int], ...]:
    """The sorted (index, exponent) pairs of xi times xi_a^e."""
    for j, (c, f) in enumerate(xi):
        if c == a:
            return xi[:j] + ((a, f + e),) + xi[j + 1 :]
        if c > a:
            return xi[:j] + ((a, e),) + xi[j:]
    return xi + ((a, e),)


def _frozen(mat: np.ndarray) -> np.ndarray:
    """mat, made read-only in place: for a matrix its builder hands over."""
    mat.flags.writeable = False
    return mat


def _held(mat, p: int) -> np.ndarray:
    """mat itself if it is a read-only reduced int64 array, else a frozen reduced copy.

    A read-only view of a writeable array is copied, since its owner could still change it.
    """
    owner = getattr(mat, "base", None)
    if isinstance(mat, np.ndarray) and mat.dtype == np.int64 and not mat.flags.writeable:
        if owner is None or isinstance(owner, np.ndarray) and not owner.flags.writeable:
            if not mat.size or (mat.min() >= 0 and mat.max() < p):
                return mat
    return _frozen(np.asarray(mat, dtype=np.int64) % p)


class QModule:
    """Graded module over an exterior algebra E(Q_i : i in qs).

    Every action matrix it holds is a read-only reduced int64 array, so
    no caller can change a module through arrays it handed over or read.
    """

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
        # the caller of a skipped check vouches for reduced int64 matrices: frozen in place, held as given
        hold = _frozen if _skip_check else (lambda mat: _held(mat, ctx.p))
        self.actions = {i: {d: hold(mat) for d, mat in acts.items()} for i, acts in actions.items()}
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
        """Q_i^2 = 0 and Q_iQ_j + Q_jQ_i = 0 from every basis degree.

        An absent action matrix is zero, so a product with an absent factor
        is skipped rather than multiplied out; an anticommutator with one
        product left is still reduced and checked on its own.
        """
        p = self.ctx.p
        acts = self.actions
        for d in self.degrees():
            for a, i in enumerate(self.qs):
                di = self.drop(i)
                top_i = acts[i].get(d)
                if top_i is not None:
                    below = acts[i].get(d - di)
                    if below is not None and ((below @ top_i) % p).any():
                        raise ValueError(f"Q_{i}^2 is nonzero starting at degree {d}")
                for j in self.qs[a + 1 :]:
                    dj = self.drop(j)
                    pairs = ((acts[i].get(d - dj), acts[j].get(d)), (acts[j].get(d - di), top_i))
                    terms = [lo @ hi for lo, hi in pairs if lo is not None and hi is not None]
                    if terms and (sum(terms) % p).any():
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
            mat = _held(mat, source.ctx.p)
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
    """Check Q-equivariance of f in every stored source degree.

    Q_i f = f Q_i is read off the stored matrices: a product with an
    absent factor is zero and is skipped, and when only one side is left
    that side must vanish on its own.
    """
    if f.source.qs != f.target.qs:
        return MapReport(False, [("primitive sets differ", 0)])
    p = f.source.ctx.p
    failures: list[tuple[str, int]] = []
    for d in f.source.degrees():
        for i in f.source.qs:
            di = f.source.drop(i)
            pairs = (
                (f.target.actions[i].get(d + f.shift), f.mats.get(d), 1),
                (f.mats.get(d - di), f.source.actions[i].get(d), -1),
            )
            terms = [sign * (lo @ hi) for lo, hi, sign in pairs if lo is not None and hi is not None]
            if terms and (sum(terms) % p).any():
                failures.append((f"Q_{i}", d))
    return MapReport(not failures, failures)


def q_word(module: QModule, word: Iterable[int], d: int, cols: np.ndarray) -> np.ndarray:
    """Q_{i_1}...Q_{i_m} (i_1 < ... < i_m) applied to the columns cols at degree d.

    The last index acts first, so the image sits at d minus the word's drops.
    """
    p = module.ctx.p
    for i in sorted(word, reverse=True):
        cols = module.act(i, d) @ cols % p
        d -= module.drop(i)
    return cols


def minimal_generators(module: QModule) -> dict[int, np.ndarray]:
    """Rows spanning M / (sum_i Q_i M) per degree, canonical representatives."""
    p = module.ctx.p
    gens: dict[int, np.ndarray] = {}
    for d in module.degrees():
        above = [module.act(i, d + module.drop(i)) for i in module.qs]
        span = np.concatenate([a.T for a in above], axis=0) if above else np.zeros((0, module.dim(d)), dtype=np.int64)
        reps = coset_representatives(np.eye(module.dim(d), dtype=np.int64), span, p)
        if reps.shape[0]:
            gens[d] = reps
    return gens


def module_from_monomials(
    ctx: PrimeContext,
    spec: AlgebraSpec,
    monomials: Iterable[Monomial],
    qs: Sequence[int],
    truncated_above: int | None = None,
    held: QModule | None = None,
) -> QModule:
    """Span of a monomial set, checked to be closed under the chosen Q_i.

    Basis order inside each degree follows the canonical monomial order, so
    identical inputs index identically.  A monomial whose Q_i leaves the
    span raises ClosureError naming both offenders.

    Given `held`, a module spanned by monomials over the same qs, the new
    monomials are appended after held's basis in each degree.  No Q_i may
    take a held monomial to a new one, as when the new monomials have
    larger weight or degree; so held's matrices are kept, padded below with
    zero rows, and only the new columns are computed.  Their images, which
    may reach held rows, are checked against the whole span.  A held
    matrix whose degree and target degree gained no monomial is kept as is.
    """
    new = monomials_by_degree(ctx, monomials)
    base = {} if held is None else held.basis
    basis = {d: base.get(d, ()) + tuple(new.get(d, ())) for d in sorted(base.keys() | new.keys())}
    index = {m: j for labels in basis.values() for j, m in enumerate(labels)}
    actions: dict[int, dict[int, np.ndarray]] = {i: {} for i in qs}
    for i in qs:
        di = ctx.q_degree(i)
        for d, labels in basis.items():
            rows = len(basis.get(d - di, ()))
            past = None if held is None else held.actions[i].get(d)
            if past is not None and past.shape == (rows, len(labels)):
                actions[i][d] = past
                continue
            mat = np.zeros((rows, len(labels)), dtype=np.int64)
            if past is not None:
                mat[: past.shape[0], : past.shape[1]] = past
            if d in new:
                mat[:, len(base.get(d, ())) :] = action_columns(ctx, spec, i, new[d], index, rows)
            if mat.size:
                actions[i][d] = _frozen(mat)
    return QModule(ctx, qs, basis, actions, truncated_above)


def monomials_by_degree(ctx: PrimeContext, monomials: Iterable[Monomial]) -> dict[int, list[Monomial]]:
    """Distinct monomials grouped by degree, ascending, each group in canonical order."""
    by_degree: dict[int, list[Monomial]] = {}
    for key, m in sorted((sort_key(ctx, m), m) for m in set(monomials)):
        by_degree.setdefault(key[0], []).append(m)
    return by_degree


def action_columns(
    ctx: PrimeContext,
    spec: AlgebraSpec,
    i: int,
    monomials: Sequence[Monomial],
    index: dict[Monomial, int],
    rows: int,
) -> np.ndarray:
    """Q_i of each monomial as one column over `rows` rows of the degree below.

    `index` gives the row of every monomial of the span; a term missing
    from it raises ClosureError naming the monomial and the term.
    """
    mat = np.zeros((rows, len(monomials)), dtype=np.int64)
    for col, m in enumerate(monomials):
        for coeff, term in q_action_on_monomial(ctx, spec, i, m):
            row = index.get(term)
            if row is None:
                raise ClosureError(
                    f"Q_{i}({format_monomial(m)}) has term "
                    f"{format_monomial(term)} outside the span"
                )
            mat[row, col] = coeff
    return mat


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
    """Direct sum; labels become (block index, original label).

    Each action matrix is block diagonal, and only the blocks the summands
    hold are placed: an absent block is zero, and a degree where no summand
    holds one has no matrix.
    """
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
    # starts[d][k]: the row of summand k's first basis element of degree d
    starts = {d: list(accumulate((m.dim(d) for m in modules), initial=0)) for d in degrees}
    actions: dict[int, dict[int, np.ndarray]] = {i: {} for i in qs}
    for i in qs:
        di = ctx.q_degree(i)
        for k, m in enumerate(modules):
            for d, block in m.actions[i].items():
                if not block.size:
                    continue
                rows, cols = starts[d - di], starts[d]
                mat = actions[i].get(d)
                if mat is None:
                    mat = actions[i][d] = np.zeros((rows[-1], cols[-1]), dtype=np.int64)
                mat[rows[k] : rows[k + 1], cols[k] : cols[k + 1]] = block
    tas = [m.truncated_above for m in modules]
    ta = None if all(t is None for t in tas) else min(t for t in tas if t is not None)
    return QModule(ctx, qs, basis, actions, ta, _skip_check=True)


def _block_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product a (x) b as one broadcast product.

    Rows and columns are indexed (index in a, index in b), a's index
    major, which is the basis order `tensor` lays out in each degree.
    """
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def tensor(m: QModule, n: QModule) -> QModule:
    """Tensor product with the signed Leibniz action.

    Q_i(x (x) y) = Q_i(x) (x) y + (-1)^{deg x} x (x) Q_i(y).
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
            pairs.setdefault(dm + dn, []).append((dm, dn))
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
        m_acts, n_acts = m.actions[i], n.actions[i]
        for t, blocks in pairs.items():
            rows = dims.get(t - di, 0)
            mat = np.zeros((rows, dims[t]), dtype=np.int64)
            if rows:
                for dm, dn in blocks:
                    col0 = offsets[(dm, dn)]
                    wm, wn = m.dim(dm), n.dim(dn)
                    a = m_acts.get(dm)
                    r0 = offsets.get((dm - di, dn))
                    if a is not None and r0 is not None:
                        block = _block_product(a, np.eye(wn, dtype=np.int64))
                        mat[r0 : r0 + block.shape[0], col0 : col0 + wm * wn] += block
                    b = n_acts.get(dn)
                    r0 = offsets.get((dm, dn - di))
                    if b is not None and r0 is not None:
                        sign = -1 if dm % 2 else 1
                        block = _block_product(np.eye(wm, dtype=np.int64), sign * b)
                        mat[r0 : r0 + block.shape[0], col0 : col0 + wm * wn] += block
            if mat.size:
                actions[i][t] = mat % ctx.p

    bounds = []
    if m.truncated_above is not None:
        bounds.append(m.truncated_above + (n.min_degree() if n.basis else 0))
    if n.truncated_above is not None:
        bounds.append(n.truncated_above + (m.min_degree() if m.basis else 0))
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
    """Everything Ext depends on, compared exactly: no digest, so equal keys mean equal modules.

    Each action matrix enters as its shape and its nonzero entries, each
    packed as flat index * p + value (0 < value < p), not as dense bytes; a
    matrix with no nonzero entry is left out, so storing a zero block or
    none gives one key.
    """
    p, entries = module.ctx.p, []
    for i in sorted(module.actions):
        for d, mat in sorted(module.actions[i].items()):
            flat = np.flatnonzero(mat)
            if flat.size:
                entries.append((i, d, mat.shape, (flat * p + mat.flat[flat]).tobytes()))
    dims = tuple((d, module.dim(d)) for d in module.degrees())
    return (p, module.qs, module.truncated_above, dims, tuple(entries))


def submodule_generated(m: QModule, labels: Iterable) -> tuple[QModule, QModuleMap]:
    """Smallest Q-closed graded subspace containing the basis elements with the given labels.

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

    generators: dict[int, list[np.ndarray]] = {}
    for label in labels:
        d, v = m.element(label)
        generators.setdefault(d, []).append(v)
    for d, vecs in generators.items():
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
            if lower is not None:
                actions[i][d] = img[:, pivots_of[d - di]].T
                img = reduce_mod_rows(img, lower, pivots_of[d - di], p)
            if img.any():
                raise ValueError("closure sweep missed a Q-image")
    sub = QModule(m.ctx, m.qs, basis, actions, m.truncated_above)
    inc = QModuleMap(sub, m, {d: rows.T for d, rows in spans.items()})
    return sub, inc


def quotient(inc: QModuleMap) -> tuple[QModule, QModuleMap]:
    """Quotient of inc's target by the submodule inc includes, with the projection.

    inc is what `submodule_generated` returns, so a caller that keeps the
    submodule closes it once.  Coset representatives are the basis elements
    at the non-pivot columns of its echelon basis, so quotient labels are a
    subset of the original labels and the construction is deterministic.
    At a degree the submodule misses, the quotient is the whole module:
    its basis is kept, the projection is a read-only identity, and an
    action between two such degrees is the whole module's own matrix.
    """
    m, p = inc.target, inc.target.ctx.p
    basis: dict[int, tuple] = {}
    proj_mats: dict[int, np.ndarray] = {}
    keep: dict[int, list[int]] = {}
    for d in m.degrees():
        if not inc.source.dim(d):
            basis[d], proj_mats[d] = m.basis[d], _frozen(np.eye(m.dim(d), dtype=np.int64))
            continue
        # inc is injective, so every row of the echelon form holds a pivot
        rows, pivots = rref_array(inc.mat(d).T, p)
        keep[d], proj_mats[d] = quotient_projection(rows, pivots, m.dim(d), p)
        basis[d] = tuple(m.basis[d][c] for c in keep[d])

    actions: dict[int, dict[int, np.ndarray]] = {i: {} for i in m.qs}
    for i in m.qs:
        di = m.drop(i)
        for d in m.degrees():
            if not basis.get(d) or not basis.get(d - di):
                continue
            mat = m.act(i, d)
            if d in keep:
                mat = mat[:, keep[d]]
            if d - di in keep:
                mat = (proj_mats[d - di] @ mat) % p
            actions[i][d] = _frozen(mat)
    quot = QModule(m.ctx, m.qs, basis, actions, m.truncated_above)
    return quot, QModuleMap(m, quot, proj_mats)


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


def compose(g: QModuleMap, f: QModuleMap) -> QModuleMap:
    if g.source is not f.target:
        raise ValueError("maps do not compose")
    p = f.source.ctx.p
    mats = {}
    for d in f.source.degrees():
        mats[d] = (g.mat(d + f.shift) @ f.mat(d)) % p
    return QModuleMap(f.source, g.target, mats, f.shift + g.shift)

