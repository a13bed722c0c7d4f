"""Brown-Gitler comodules, weight blocks, and the splitting assembly.

The homology of the n-truncated Brown-Peterson spectrum is the quotient
algebra F_p[xi_1, ...] (x) E(tau_{n+1}, ...).  Its weight filtration has
two distinguished families of subquotients:

  * B_i(k), the span of monomials of weight at most k inside the
    (i)-truncated algebra, closed under Q_0, ..., Q_{i+1};
  * M_i(j), the span of monomials of weight exactly j, closed under
    Q_0, ..., Q_i.

Within a degree the canonical monomial order sorts by weight, and no Q_j
raises weight, so B_i(k) is the degreewise prefix of B_i(K) for every
K >= k, with the top-left blocks of its action matrices.  `brown_gitler`
therefore holds a single module per (prime, i), the largest asked for,
and serves every B_i(k) from it.

theta(i, k) raises weight: it sends a monomial x of B_i(k) to the index
shift of x (xi_a -> xi_{a+1}, tau_b -> tau_{b+1}) padded by
xi_1^(k - weight(x)), landing in M_{i+1}(pk) with degree raised by
2(p-1)k.  Assembling all blocks exhibits the homology of BP<n> as the sum
over k of even suspensions of B_{n-1}(k).  The assembly checks that
statement as written, through its degree window only: the direct sum of
the blocks, cut to the window, goes to H_* BP<n> by one map.  Whole
blocks are built and checked by `theta` and `theta_report`.

The remaining constructions split that homology further: by tau-length
(the length >= 3 part is free over E(Q_0,Q_1,Q_2), the quotient is the
reduced part C), by pairs of primitives (S_i / R_i), and into the W
families whose tensor complements are Q-trivial truncated polynomial
algebras.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, count

import numpy as np

from .fplin import rref_array
from .monomials import (
    AlgebraSpec,
    Monomial,
    PrimeContext,
    degree as mono_degree,
    enumerate_by_degree,
    enumerate_by_weight,
    format_monomial,
    length as mono_length,
    products,
    weight as mono_weight,
)
from .qmodules import (
    QModule,
    QModuleMap,
    compose,
    direct_sum,
    minimal_generators,
    module_from_monomials,
    q_word,
    quotient,
    restrict_qs,
    submodule_generated,
    suspend,
    verify_map,
)

__all__ = [
    "BPHomology",
    "BrownGitlerComodule",
    "WeightBlock",
    "SplitPair",
    "ThetaReport",
    "AssemblyReport",
    "bp_homology",
    "brown_gitler",
    "weight_block",
    "theta",
    "theta_report",
    "assemble_bp_splitting",
    "length_splitting",
    "weight_restricted_C",
    "si_ri_splitting",
    "w_family",
]

FULL_QS = (0, 1, 2)


@dataclass(frozen=True)
class BPHomology:
    ctx: PrimeContext
    n: int
    max_degree: int
    module: QModule


@dataclass(frozen=True)
class BrownGitlerComodule:
    ctx: PrimeContext
    i: int
    k: int
    module: QModule


@dataclass(frozen=True)
class WeightBlock:
    ctx: PrimeContext
    i: int
    j: int
    module: QModule


@dataclass
class SplitPair:
    """A module split as free_part (+) reduced_part.

    inclusion embeds the free part, projection maps onto the reduced part,
    and retraction is an equivariant left inverse of the inclusion; the
    constructor verifies retraction o inclusion = identity.
    """

    whole: QModule
    free_part: QModule
    reduced_part: QModule
    inclusion: QModuleMap
    projection: QModuleMap
    retraction: QModuleMap

    def __post_init__(self) -> None:
        comp = compose(self.retraction, self.inclusion)
        for d in self.free_part.degrees():
            if not np.array_equal(comp.mat(d), np.eye(self.free_part.dim(d), dtype=np.int64)):
                raise ValueError(f"retraction fails to invert the inclusion at degree {d}")


# (ctx, n) -> H_*BP<n> through the largest degree built so far
_BP: dict[tuple[PrimeContext, int], BPHomology] = {}


def bp_homology(ctx: PrimeContext, n: int, max_degree: int) -> BPHomology:
    """Homology of BP<n> through max_degree, with its full Q_0,Q_1,Q_2 action.

    The degree enumeration is a prefix of the one at any larger bound and
    every Q_i lowers degree, so H through D is the degree <= D part of H
    through any D' >= D, with the same matrices.  So one module per
    (prime, n) is held, the largest asked for, the way `brown_gitler` holds
    one per weight: a smaller degree is cut from it by `_prefix`, and a
    larger one grows it by the new degrees only, through the checked
    QModule constructor.
    """
    if n < 0:
        raise ValueError("truncation index must be nonnegative")
    held = _BP.get((ctx, n))
    if held is None or held.max_degree < max_degree:
        spec = AlgebraSpec(n)
        top, old = (-1, None) if held is None else (held.max_degree, held.module)
        new = (m for m in enumerate_by_degree(ctx, spec, max_degree) if mono_degree(ctx, m) > top)
        module = module_from_monomials(ctx, spec, new, FULL_QS, max_degree, held=old)
        held = _BP[(ctx, n)] = BPHomology(ctx, n, max_degree, module)
    if max_degree == held.max_degree:
        return held
    cut = {d: len(labels) for d, labels in held.module.basis.items() if d <= max_degree}
    return BPHomology(ctx, n, max_degree, _prefix(held.module, cut, max_degree))


def _qs_through(top: int) -> tuple[int, ...]:
    return tuple(range(0, min(top, 2) + 1))


# (ctx, i) -> (K, B_i(K)): the largest Brown-Gitler comodule built so far
_HELD: dict[tuple[PrimeContext, int], tuple[int, QModule]] = {}


def _held_brown_gitler(ctx: PrimeContext, i: int, k: int) -> tuple[int, QModule]:
    """The held (K, B_i(K)) for (ctx, i), first grown to K >= k by the new weights only."""
    held = _HELD.get((ctx, i))
    if held is None or held[0] < k:
        start, old = (-1, None) if held is None else held
        spec = AlgebraSpec(i)
        new = (m for w in range(start + 1, k + 1) for m in enumerate_by_weight(ctx, spec, w))
        held = _HELD[(ctx, i)] = (k, module_from_monomials(ctx, spec, new, _qs_through(i + 1), held=old))
    return held


def brown_gitler(ctx: PrimeContext, i: int, k: int) -> BrownGitlerComodule:
    """B_i(k): monomials of weight <= k, closed under Q_0..Q_{i+1}.

    Within a degree the canonical order sorts by weight, and no Q_j raises
    weight, so B_i(k) is the degreewise prefix of B_i(K) for any K >= k and
    its action matrices are the top-left blocks of B_i(K)'s.  One module
    per (ctx, i) is held: a smaller k is sliced from it, a larger one grows
    it by the new weights only, through the checked QModule constructor.
    Either way the result equals the build from scratch over all weights
    <= k.
    """
    if i not in (-1, 0, 1, 2):
        raise ValueError("truncation index out of range")
    if k < 0:
        raise ValueError("weight bound must be nonnegative")
    top, module = _held_brown_gitler(ctx, i, k)
    if k < top:
        cut = {d: bisect_right(b, k, key=lambda m: mono_weight(ctx, m)) for d, b in module.basis.items()}
        module = _prefix(module, cut)
    return BrownGitlerComodule(ctx, i, k, module)


def _prefix(module: QModule, cut: dict[int, int], truncated_above: int | None = None) -> QModule:
    """The first cut[d] basis elements of each degree d of a held module, with top-left action blocks.

    The kept elements must span a submodule: no Q_j may take one to a
    dropped element, as when the cut is by degree (every Q_j lowers it) or
    by weight (no Q_j raises it, and each degree lists weights in order).
    That is checked: every action block below the kept rows must be zero
    on the kept columns.  The held module passed the Q relations, and the
    cut of a submodule keeps them, so they are not checked again.
    """
    basis = {d: module.basis[d][:n] for d, n in cut.items() if n}
    actions: dict[int, dict[int, np.ndarray]] = {j: {} for j in module.qs}
    for j in module.qs:
        dj, acts = module.drop(j), module.actions[j]
        for d, n in cut.items():
            mat = acts.get(d)
            if mat is None or not n:
                continue
            rows, cols = cut.get(d - dj, 0), mat[:, :n]
            if cols[rows:].any():
                raise ValueError(f"the cut is no submodule: Q_{j} takes a kept element of degree {d} out")
            if rows:
                actions[j][d] = cols[:rows]
    return QModule(module.ctx, module.qs, basis, actions, truncated_above, _skip_check=True)


def weight_block(ctx: PrimeContext, i: int, j: int) -> WeightBlock:
    """M_i(j): monomials of weight exactly j, closed under Q_0..Q_i."""
    if j < 0:
        raise ValueError("weight must be nonnegative")
    spec = AlgebraSpec(i)
    monos = enumerate_by_weight(ctx, spec, j)
    module = module_from_monomials(ctx, spec, monos, _qs_through(i))
    return WeightBlock(ctx, i, j, module)


def theta(ctx: PrimeContext, i: int, k: int) -> QModuleMap:
    """The weight-raising map Sigma^{qk} B_i(k) -> M_{i+1}(pk), on the whole block.

    An image outside the target raises KeyError.
    """
    bg = brown_gitler(ctx, i, k)
    target = weight_block(ctx, i + 1, ctx.p * k).module
    source = suspend(bg.module, ctx.q * k)
    return _theta_map(ctx, source, target, lambda m: target.label_index(m)[1], lambda x: (k, x))


def _theta_map(
    ctx: PrimeContext,
    source: QModule,
    target: QModule,
    row: Callable[[Monomial], int | None],
    block: Callable[[object], tuple[int, Monomial]],
) -> QModuleMap:
    """theta from the suspended source to the target, row(image) placing each image.

    The source is Sigma^{qk} B_i(k), or a `direct_sum` of such blocks, and
    block(label) is (k, x) for the basis monomial x of block k that the
    label names.  Every such x goes to shift(x) * xi_1^(k - weight(x)),
    built from x's exponent tuples: the shift moves every xi index to 2 or
    more, so the pad stays a separate leading factor.  The pad exponent
    makes both gradings work out, and the map checks itself: a negative
    pad, or a violation of degree(image) = degree(x) + qk or
    weight(image) = pk, aborts immediately.  An image that row places
    nowhere (None) leaves its column zero, for the bijection gate to
    reject.
    """
    mats: dict[int, np.ndarray] = {}
    for d in source.degrees():
        # 0/1 entries, built in int8 so that only QModuleMap's int64 copy is full size
        mat = np.zeros((target.dim(d), source.dim(d)), dtype=np.int8)
        for col, label in enumerate(source.basis[d]):
            k, x = block(label)
            pad = k - mono_weight(ctx, x)
            if pad < 0:
                raise ArithmeticError(
                    f"theta pad on {format_monomial(x)} is negative: weight "
                    f"{mono_weight(ctx, x)} exceeds {k}"
                )
            shifted = tuple((a + 1, e) for a, e in x.xi)
            image = Monomial(((1, pad),) + shifted if pad else shifted, tuple(b + 1 for b in x.tau))
            if mono_degree(ctx, image) != mono_degree(ctx, x) + ctx.q * k:
                raise ArithmeticError(
                    f"theta image degree mismatch on {format_monomial(x)}: "
                    f"got {mono_degree(ctx, image)}, "
                    f"expected {mono_degree(ctx, x) + ctx.q * k}"
                )
            if mono_weight(ctx, image) != ctx.p * k:
                raise ArithmeticError(
                    f"theta image weight mismatch on {format_monomial(x)}: "
                    f"got {mono_weight(ctx, image)}, expected {ctx.p * k}"
                )
            r = row(image)
            if r is not None:
                mat[r, col] = 1
        mats[d] = mat
    return QModuleMap(source, target, mats)


@dataclass
class ThetaReport:
    i: int
    k: int
    bijective: bool
    equivariant: bool
    degrees_match: bool
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.bijective and self.equivariant and self.degrees_match


def theta_report(ctx: PrimeContext, i: int, k: int) -> tuple[QModuleMap, ThetaReport]:
    """theta plus its verification: blockwise bijectivity and Q-commutation."""
    f = theta(ctx, i, k)
    return f, _theta_gate(f, i, k)


def _theta_gate(f: QModuleMap, i: int, k: int) -> ThetaReport:
    """The checks of theta on every degree f holds: bijective on basis monomials, and equivariant.

    A bijection of a square block has n nonzero entries, one in each row
    and each column.
    """
    failures: list[str] = []
    degrees_match = sorted(f.source.degrees()) == sorted(f.target.degrees())
    if not degrees_match:
        failures.append("source and target are supported in different degrees")
    bijective = degrees_match
    for d in f.source.degrees():
        mat = f.mat(d)
        rows, cols = np.nonzero(mat)
        if mat.shape[0] != mat.shape[1]:
            bijective = False
            failures.append(f"non-square block at degree {d}")
        elif not len(rows) == mat.shape[0] == len(set(rows.tolist())) == len(set(cols.tolist())):
            bijective = False
            failures.append(f"block at degree {d} is not a bijection on basis monomials")
    eq = verify_map(f)
    if not eq.passed:
        failures.extend(f"Q-commutation fails: {q} at degree {d}" for q, d in eq.failures[:5])
    return ThetaReport(i, k, bijective, eq.passed, degrees_match, failures)


@dataclass
class AssemblyReport:
    """(+)_k Sigma^{qk} B_{n-1}(k) against H_* BP<n> through max_degree.

    per_degree[d] is (dimension of the sum, dimension of H) at degree d,
    and gate the theta checks of the sum as one map; its k is the top block.
    """

    n: int
    max_degree: int
    block_count: int
    per_degree: dict[int, tuple[int, int]]
    gate: ThetaReport
    first_failing_degree: int | None

    @property
    def passed(self) -> bool:
        return self.first_failing_degree is None and self.gate.passed


def assemble_bp_splitting(ctx: PrimeContext, n: int, max_degree: int) -> AssemblyReport:
    """Match (+)_k Sigma^{qk} B_{n-1}(k) against the homology of BP<n> through max_degree.

    Blocks k = 0 .. max_degree/q suffice: a monomial of weight w has
    degree at least qw/p (xi_1 powers realize the minimum), so everything
    of degree <= max_degree has weight <= p*max_degree/q and lands in one
    of these blocks.  Each block is one `_prefix` of the held
    B_{n-1}(k_max), by weight <= k and degree <= the window, with each held
    monomial's weight computed once, so theta_k is built through the window
    only: blocks above it are `theta_report`'s, on the whole block.  The
    direct sum of the blocks goes to H by one map, block k's columns
    holding theta_k's images at H's rows (an image H does not hold leaves
    its column zero), and that map goes through `theta_report`'s gate
    once.  The comparison is exact: a bijection on basis monomials in
    every degree hits each basis monomial of H exactly once, and a map out
    of a direct sum is equivariant exactly when each block is.
    """
    if n not in (1, 2):
        raise ValueError("assembly is defined for BP<1> and BP<2>")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    q, k_max = ctx.q, max_degree // ctx.q
    H = restrict_qs(bp_homology(ctx, n, max_degree).module, _qs_through(n))
    _, held = _held_brown_gitler(ctx, n - 1, k_max)
    weights = {d: [mono_weight(ctx, m) for m in labels] for d, labels in held.basis.items()}

    def block(k: int) -> QModule:
        top = max_degree - q * k
        cut = {d: bisect_right(w, k) for d, w in weights.items() if d <= top}
        return suspend(_prefix(held, cut, top), q * k)

    source = direct_sum([block(k) for k in range(k_max + 1)])
    index = {m: r for labels in H.basis.values() for r, m in enumerate(labels)}
    f = _theta_map(ctx, source, H, index.get, lambda label: label)
    per_degree = {d: (f.source.dim(d), H.dim(d)) for d in range(max_degree + 1)}
    first_fail = next((d for d, (got, want) in per_degree.items() if got != want), None)
    return AssemblyReport(n, max_degree, k_max + 1, per_degree, _theta_gate(f, n - 1, k_max), first_fail)


def _retraction(whole: QModule, part: QModule, inclusion: QModuleMap) -> QModuleMap:
    """Equivariant left inverse of the inclusion of a free summand, by Frobenius averaging.

    E = E(Q_i : i in qs) is a Frobenius algebra, so free E-modules are
    injective (Margolis, Spectra and the Steenrod Algebra).  Q_I is the
    ascending word on I, last index acting first, I^c is the complement
    of I, and Q_{I^c} Q_I = c_I Q_qs with c_I = (-1)^#{(a, b) : a in I^c,
    b in I, a > b}.  With V the summand's minimal generators and phi any
    linear map from whole to V that reads the Q_qs v coefficient on the
    summand and kills its other basis vectors Q_I v,

        r(x) = sum_I c_I Q_I phi(Q_{I^c} x).

    On a generator v, phi kills Q_{I^c} v unless I = {}, so r(v) = v.  In
    r(Q_k x) the terms with k in I^c vanish, in Q_k r(x) those with k in
    I; the rest pair off as I = J + {k}, and Q_{I^c} Q_k = e Q_{J^c} with
    Q_k Q_J = e' Q_I gives c_J = e e' c_I, so paired terms agree.  So r
    is E-linear and r o inclusion = id.

    phi_e, at each socle degree e, is the top-word rows of a left inverse
    of B, the columns Q_I v for every word I and generator v at
    e + drop(I), from one elimination of [B | 1]; B is injective when the
    summand is free.  Words act on the generators and, from the right, on
    phi's rows, never on an identity of whole.
    """
    p, qs = whole.ctx.p, whole.qs
    words = [w for n in range(len(qs) + 1) for w in combinations(qs, n)]
    drops = {w: sum(whole.drop(i) for i in w) for w in words}
    gens = {g: rows.T for g, rows in minimal_generators(part).items()}
    phi: dict[int, np.ndarray] = {}
    for g in gens:
        e = g - drops[qs]
        tops = {w: e + drops[w] for w in words if e + drops[w] in gens}
        b = inclusion.mat(e) @ np.concatenate([q_word(part, w, t, gens[t]) for w, t in tops.items()], axis=1) % p
        m, n = b.shape[1], whole.dim(e)
        red, pivots = rref_array(np.concatenate([b, np.eye(n, dtype=np.int64)], axis=1), p)
        if pivots[:m] != list(range(m)):
            raise ValueError(f"the summand is not free in range: its socle at degree {e} is degenerate")
        phi[g] = red[m - gens[g].shape[1] : m, m:]
    mats = {}
    for d in part.degrees():
        r = np.zeros((part.dim(d), whole.dim(d)), dtype=np.int64)
        for w in words:
            g = d + drops[w]
            if g not in phi:
                continue
            rest = tuple(i for i in qs if i not in w)
            rows, e = phi[g], g - drops[qs]
            for i in rest:
                e += whole.drop(i)
                rows = rows @ whole.act(i, e) % p
            r += (-1) ** sum(a > b for a in rest for b in w) * (q_word(part, w, g, gens[g]) @ rows)
        mats[d] = r % p
    return QModuleMap(whole, part, mats)


@lru_cache(maxsize=None)
def length_splitting(ctx: PrimeContext, max_degree: int) -> SplitPair:
    """Split the homology of BP<2> by tau-length at 3.

    The submodule generated by monomials with three or more tau factors is
    free over E(Q_0,Q_1,Q_2) (each generator's orbit sits in lower
    degrees, so truncation never cuts an orbit); the quotient C carries
    the reduced structure.  At p = 3 the first length-3 monomial
    tau3 tau4 tau5 sits in degree 699, so below that the free part is 0.
    Memoised per (prime, degree), so every caller shares one split.
    """
    H = bp_homology(ctx, 2, max_degree).module
    gens = [lab for d in H.degrees() for lab in H.basis[d] if mono_length(lab) >= 3]
    free_part, inc = submodule_generated(H, gens)
    reduced, proj = quotient(inc)
    retr = _retraction(H, free_part, inc)
    return SplitPair(H, free_part, reduced, inc, proj, retr)


@lru_cache(maxsize=None)
def weight_restricted_C(ctx: PrimeContext, k: int) -> QModule:
    """The weight-pk block of the reduced part, pulled back through theta_k.

    Equivariance of theta_k identifies the block with B_1(k) modulo its
    own length >= 3 monomials, so the computation happens inside the
    finite comodule B_1(k); no truncation is needed.  Degrees here are
    unsuspended: the block sits inside the reduced part as Sigma^{qk} of
    this module.  Memoised per (prime, k), so every caller shares one block.
    """
    B = brown_gitler(ctx, 1, k).module
    gens = [lab for d in B.degrees() for lab in B.basis[d] if mono_length(lab) >= 3]
    return quotient(submodule_generated(B, gens)[1])[0]


def si_ri_splitting(
    ctx: PrimeContext, perm: tuple[int, int, int], max_degree: int
) -> SplitPair:
    """Split the reduced part over the pair algebra omitting Q_i.

    perm = (i, j, h) names the omitted index first.  S_i is generated by
    the length-2 classes over E(Q_j,Q_h) and is free; on the quotient R_i
    the composite Q_jQ_h acts by zero (verified here, not assumed).
    """
    i, j, h = perm
    if sorted(perm) != [0, 1, 2]:
        raise ValueError("perm must order the indices 0,1,2")
    C = length_splitting(ctx, max_degree).reduced_part
    pair = tuple(sorted((j, h)))
    Cpair = restrict_qs(C, pair)
    gens = [lab for d in Cpair.degrees() for lab in Cpair.basis[d] if mono_length(lab) == 2]
    S, inc = submodule_generated(Cpair, gens)
    R, proj = quotient(inc)
    retr = _retraction(Cpair, S, inc)
    p = ctx.p
    lo, hi = pair
    for d in R.degrees():
        comp = (R.act(lo, d - R.drop(hi)) @ R.act(hi, d)) % p
        if comp.any():
            raise ArithmeticError(f"Q_{lo}Q_{hi} acts nontrivially on R at degree {d}")
    return SplitPair(Cpair, S, R, inc, proj, retr)


# -- W families ---------------------------------------------------------------


def _family_runs(ctx: PrimeContext, which: str):
    """The pair of primitives of a family and its factors as runs of (factor, cap).

    Each family has one bottom polynomial generator raised to the p^2 and
    then an arithmetic progression of xi indices together with the
    matching taus.
    """
    p = ctx.p
    if which == "W1":
        qs, bottom = (1, 2), 1
        xi_indices, xi_step = count(2), p
        taus = count(3)
    elif which == "Wo":
        qs, bottom = (0, 2), 1
        xi_indices, xi_step = count(3, 2), 1
        taus = count(3, 2)
    elif which == "We":
        qs, bottom = (0, 2), 2
        xi_indices, xi_step = count(4, 2), 1
        taus = count(4, 2)
    else:
        raise ValueError("family must be one of W1, We, Wo")
    runs = [
        [(Monomial(((bottom, p * p),), ()), None)],
        ((Monomial(((a, xi_step),), ()), None) for a in xi_indices),
        ((Monomial((), (b,)), 1) for b in taus),
    ]
    return qs, runs


def w_family(ctx: PrimeContext, which: str, n: int) -> QModule:
    """The weight-indexed component of a W family (finite in each weight).

    W1(n) and Wo(n) collect weight p^3 * n, We(n) weight p^4 * n.
    """
    if n < 0:
        raise ValueError("weight index must be nonnegative")
    exponent = 4 if which == "We" else 3
    qs, runs = _family_runs(ctx, which)
    monos = products(ctx, runs, mono_weight, n * ctx.p**exponent, exact=True)
    return module_from_monomials(ctx, AlgebraSpec(2), monos, qs)
