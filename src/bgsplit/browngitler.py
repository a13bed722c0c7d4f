"""Brown-Gitler comodules, weight blocks, and the splitting assembly.

The homology of the n-truncated Brown-Peterson spectrum is the quotient
algebra F_p[xi_1, ...] (x) E(tau_{n+1}, ...).  Its weight filtration has
two distinguished families of subquotients:

  * B_i(k), the span of monomials of weight at most k inside the
    (i)-truncated algebra, closed under Q_0, ..., Q_{i+1};
  * M_i(j), the span of monomials of weight exactly j, closed under
    Q_0, ..., Q_i.

theta(i, k) raises weight: it sends a monomial x of B_i(k) to the index
shift of x (xi_a -> xi_{a+1}, tau_b -> tau_{b+1}) padded by
xi_1^(k - weight(x)), landing in M_{i+1}(pk) with degree raised by
2(p-1)k.  Assembling all blocks exhibits the homology of BP<n> as the sum
over k of even suspensions of B_{n-1}(k).

The remaining constructions split that homology further: by tau-length
(the length >= 3 part is free over E(Q_0,Q_1,Q_2), the quotient is the
reduced part C), by pairs of primitives (S_i / R_i), and into the W
families whose tensor complements are Q-trivial truncated polynomial
algebras.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fplin import solve_columns
from .monomials import (
    AlgebraSpec,
    Monomial,
    PrimeContext,
    degree as mono_degree,
    enumerate_by_degree,
    enumerate_by_weight,
    format_monomial,
    length as mono_length,
    sort_key,
    weight as mono_weight,
)
from .qmodules import (
    QModule,
    QModuleMap,
    compose,
    module_from_monomials,
    quotient,
    restrict_qs,
    submodule_generated,
    suspend,
    tensor,
    verify_map,
)

__all__ = [
    "BPHomology",
    "BrownGitlerComodule",
    "WeightBlock",
    "SplitPair",
    "ThetaReport",
    "AssemblyReport",
    "FactorizationReport",
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
    "w_family_truncated",
    "verify_tensor_factorization",
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


def bp_homology(ctx: PrimeContext, n: int, max_degree: int) -> BPHomology:
    """Homology of BP<n> through max_degree, with its full Q_0,Q_1,Q_2 action."""
    if n < 0:
        raise ValueError("truncation index must be nonnegative")
    monos = enumerate_by_degree(ctx, AlgebraSpec(n), max_degree)
    module = module_from_monomials(ctx, AlgebraSpec(n), monos, FULL_QS, truncated_above=max_degree)
    return BPHomology(ctx, n, max_degree, module)


def _qs_through(top: int) -> tuple[int, ...]:
    return tuple(range(0, min(top, 2) + 1))


def brown_gitler(ctx: PrimeContext, i: int, k: int) -> BrownGitlerComodule:
    """B_i(k): monomials of weight <= k, closed under Q_0..Q_{i+1}."""
    if i not in (-1, 0, 1, 2):
        raise ValueError("truncation index out of range")
    if k < 0:
        raise ValueError("weight bound must be nonnegative")
    spec = AlgebraSpec(i)
    monos = [m for w in range(k + 1) for m in enumerate_by_weight(ctx, spec, w)]
    module = module_from_monomials(ctx, spec, monos, _qs_through(i + 1))
    return BrownGitlerComodule(ctx, i, k, module)


def weight_block(ctx: PrimeContext, i: int, j: int) -> WeightBlock:
    """M_i(j): monomials of weight exactly j, closed under Q_0..Q_i."""
    if j < 0:
        raise ValueError("weight must be nonnegative")
    spec = AlgebraSpec(i)
    monos = enumerate_by_weight(ctx, spec, j)
    module = module_from_monomials(ctx, spec, monos, _qs_through(i))
    return WeightBlock(ctx, i, j, module)


def _shift_indices(m: Monomial) -> Monomial:
    return Monomial.make({a + 1: e for a, e in m.xi}, tuple(b + 1 for b in m.tau))


def theta(ctx: PrimeContext, i: int, k: int) -> QModuleMap:
    """The weight-raising map Sigma^{qk} B_i(k) -> M_{i+1}(pk).

    Every basis monomial x goes to shift(x) * xi_1^(k - weight(x)).  The
    pad exponent makes both gradings work out, and the map checks itself:
    a violation of degree(image) = degree(x) + qk or weight(image) = pk
    aborts immediately.
    """
    bg = brown_gitler(ctx, i, k)
    target = weight_block(ctx, i + 1, ctx.p * k)
    source = suspend(bg.module, ctx.q * k)
    mats: dict[int, np.ndarray] = {}
    for d in source.degrees():
        mat = np.zeros((target.module.dim(d), source.dim(d)), dtype=np.int64)
        for col, x in enumerate(source.basis[d]):
            pad = k - mono_weight(ctx, x)
            image = _shift_indices(x).times(Monomial.make({1: pad} if pad else {}))
            assert image is not None
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
            row = target.module.basis[d].index(image)
            mat[row, col] = 1
        mats[d] = mat
    return QModuleMap(source, target.module, mats)


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
    failures: list[str] = []
    degrees_match = sorted(f.source.degrees()) == sorted(f.target.degrees())
    if not degrees_match:
        failures.append("source and target are supported in different degrees")
    bijective = degrees_match
    for d in f.source.degrees():
        mat = f.mat(d)
        if mat.shape[0] != mat.shape[1]:
            bijective = False
            failures.append(f"non-square block at degree {d}")
        else:
            # columns have a single unit entry by construction, so the
            # block is a bijection exactly when the hit rows are distinct
            hit_rows = sorted(int(np.nonzero(mat[:, c])[0][0]) for c in range(mat.shape[1]))
            if hit_rows != list(range(mat.shape[0])):
                bijective = False
                failures.append(f"block at degree {d} is not a bijection on basis monomials")
    eq = verify_map(f)
    if not eq.passed:
        failures.extend(f"Q-commutation fails: {q} at degree {d}" for q, d in eq.failures[:5])
    return f, ThetaReport(i, k, bijective, eq.passed, degrees_match, failures)


@dataclass
class AssemblyReport:
    n: int
    max_degree: int
    block_count: int
    per_degree: dict[int, tuple[int, int]]
    theta_reports: list[ThetaReport]
    coverage_exact: bool
    first_failing_degree: int | None

    @property
    def passed(self) -> bool:
        return (
            self.first_failing_degree is None
            and self.coverage_exact
            and all(r.passed for r in self.theta_reports)
        )


def assemble_bp_splitting(ctx: PrimeContext, n: int, max_degree: int) -> AssemblyReport:
    """Match (+)_k Sigma^{qk} B_{n-1}(k) against the homology of BP<n>.

    Blocks k = 0 .. max_degree/q suffice: a monomial of weight w has
    degree at least qw/p (xi_1 powers realize the minimum), so everything
    of degree <= max_degree has weight <= p*max_degree/q and lands in one
    of these blocks.  The comparison is exact: each basis monomial of the
    target must be hit by exactly one theta image.
    """
    if n not in (1, 2):
        raise ValueError("assembly is defined for BP<1> and BP<2>")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    H = bp_homology(ctx, n, max_degree)
    target_counts = {d: H.module.dim(d) for d in range(max_degree + 1)}
    block_counts = {d: 0 for d in range(max_degree + 1)}
    reports = []
    seen: set[Monomial] = set()
    coverage_exact = True
    k_max = max_degree // ctx.q
    for k in range(k_max + 1):
        f, rep = theta_report(ctx, n - 1, k)
        reports.append(rep)
        for d in f.source.degrees():
            if d > max_degree:
                continue
            block_counts[d] += f.source.dim(d)
            for col in range(f.source.dim(d)):
                rows = np.nonzero(f.mat(d)[:, col])[0]
                image = f.target.basis[d][int(rows[0])]
                if image in seen:
                    coverage_exact = False
                seen.add(image)
    expected = {
        m for d in range(max_degree + 1) for m in H.module.basis.get(d, ())
    }
    if seen != expected:
        coverage_exact = False
    first_fail = None
    per_degree = {}
    for d in range(max_degree + 1):
        per_degree[d] = (block_counts[d], target_counts[d])
        if block_counts[d] != target_counts[d] and first_fail is None:
            first_fail = d
    return AssemblyReport(n, max_degree, k_max + 1, per_degree, reports, coverage_exact, first_fail)


def _solve_retraction(whole: QModule, part: QModule, inclusion: QModuleMap) -> QModuleMap:
    """Equivariant left inverse of an inclusion of a free summand.

    The blocks r_d can be nonzero only in degrees where the summand is,
    so all of them are solved as one linear system: r o inc = id plus
    r(Q_i x) = Q_i r(x) for every basis element x one Q-drop above such a
    degree.  Equivariance elsewhere is automatic because both sides
    vanish.  Degreewise greedy solving would not work here: a choice high
    up can strand the socle degrees, while the joint system is solvable
    whenever the summand really is free.  Free variables are zeroed, so
    the result is deterministic.
    """
    p = whole.ctx.p
    ds = [d for d in whole.degrees() if part.dim(d) > 0]
    offsets: dict[int, int] = {}
    total = 0
    for d in ds:
        offsets[d] = total
        total += part.dim(d) * whole.dim(d)

    def block(d: int, s: int) -> slice:
        start = offsets[d] + s * whole.dim(d)
        return slice(start, start + whole.dim(d))

    rows: list[np.ndarray] = []
    rhs: list[int] = []
    for d in ds:
        inc = inclusion.mat(d)
        for s in range(part.dim(d)):
            for t in range(part.dim(d)):
                row = np.zeros(total, dtype=np.int64)
                row[block(d, s)] = inc[:, t]
                rows.append(row)
                rhs.append(1 if s == t else 0)
        for i in whole.qs:
            e = d + whole.drop(i)
            qm = whole.act(i, e)
            qs_mat = part.act(i, e)
            for s in range(part.dim(d)):
                for x in range(whole.dim(e)):
                    row = np.zeros(total, dtype=np.int64)
                    row[block(d, s)] = qm[:, x]
                    if part.dim(e):
                        for u in range(part.dim(e)):
                            row[block(e, u)][x] -= qs_mat[s, u]
                    if row.any():
                        rows.append(row % p)
                        rhs.append(0)
    if total == 0:
        mats = {d: np.zeros((0, whole.dim(d)), dtype=np.int64) for d in whole.degrees()}
        return QModuleMap(whole, part, mats)
    system = np.stack(rows) if rows else np.zeros((0, total), dtype=np.int64)
    sol = solve_columns(system, np.array(rhs, dtype=np.int64), p)
    if sol is None:
        raise ValueError("retraction system unsolvable; the summand is not split in range")
    mats = {}
    for d in whole.degrees():
        if d in offsets:
            mats[d] = sol[offsets[d] : offsets[d] + part.dim(d) * whole.dim(d)].reshape(
                (part.dim(d), whole.dim(d))
            )
        else:
            mats[d] = np.zeros((0, whole.dim(d)), dtype=np.int64)
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
    reduced, proj = quotient(H, gens)
    retr = _solve_retraction(H, free_part, inc)
    return SplitPair(H, free_part, reduced, inc, proj, retr)


def weight_restricted_C(ctx: PrimeContext, k: int, max_degree: int | None = None) -> QModule:
    """The weight-pk block of the reduced part, pulled back through theta_k.

    Equivariance of theta_k identifies the block with B_1(k) modulo its
    own length >= 3 monomials, so the computation happens inside the
    finite comodule B_1(k); no truncation is needed.  Degrees here are
    unsuspended: the block sits inside the reduced part as Sigma^{qk} of
    this module.
    """
    B = brown_gitler(ctx, 1, k).module
    if max_degree is not None and ctx.q * k > max_degree:
        raise ValueError("block suspension exceeds the requested range")
    gens = [lab for d in B.degrees() for lab in B.basis[d] if mono_length(lab) >= 3]
    reduced, _ = quotient(B, gens)
    return reduced


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
    R, proj = quotient(Cpair, gens)
    retr = _solve_retraction(Cpair, S, inc)
    p = ctx.p
    lo, hi = pair
    for d in R.degrees():
        comp = (R.act(lo, d - R.drop(hi)) @ R.act(hi, d)) % p
        if comp.any():
            raise ArithmeticError(f"Q_{lo}Q_{hi} acts nontrivially on R at degree {d}")
    return SplitPair(Cpair, S, R, inc, proj, retr)


# -- W families ---------------------------------------------------------------


def _family_menu(ctx: PrimeContext, which: str, weight_cap: int | None, degree_cap: int | None):
    """Generator menu (factor monomial, weight, degree, repeatable).

    Each family has one bottom polynomial generator raised to the p^2 and
    then an arithmetic progression of xi indices together with the
    matching taus.  The menu stops as soon as a generator exceeds every
    requested cap, which keeps it finite without arbitrary index bounds.
    """
    p = ctx.p
    if which == "W1":
        qs = (1, 2)
        bottom = (1, p * p)
        xi_indices, xi_step = range(2, 10**6), p
        taus = range(3, 10**6)
    elif which == "Wo":
        qs = (0, 2)
        bottom = (1, p * p)
        xi_indices, xi_step = range(3, 10**6, 2), 1
        taus = range(3, 10**6, 2)
    elif which == "We":
        qs = (0, 2)
        bottom = (2, p * p)
        xi_indices, xi_step = range(4, 10**6, 2), 1
        taus = range(4, 10**6, 2)
    else:
        raise ValueError("family must be one of W1, We, Wo")
    if weight_cap is None and degree_cap is None:
        raise ValueError("a weight or degree cap is required")

    def admissible(w: int, d: int) -> bool:
        if weight_cap is not None and w > weight_cap:
            return False
        if degree_cap is not None and d > degree_cap:
            return False
        return True

    items = []
    f = Monomial.make({bottom[0]: bottom[1]})
    if admissible(mono_weight(ctx, f), mono_degree(ctx, f)):
        items.append((f, mono_weight(ctx, f), mono_degree(ctx, f), True))
    for a in xi_indices:
        f = Monomial.make({a: xi_step})
        if not admissible(mono_weight(ctx, f), mono_degree(ctx, f)):
            break
        items.append((f, mono_weight(ctx, f), mono_degree(ctx, f), True))
    for b in taus:
        f = Monomial.make({}, (b,))
        if not admissible(mono_weight(ctx, f), mono_degree(ctx, f)):
            break
        items.append((f, mono_weight(ctx, f), mono_degree(ctx, f), False))
    return qs, items


def _enumerate_family(ctx: PrimeContext, which: str, *, exact_weight: int | None = None,
                      max_degree: int | None = None) -> tuple[tuple[int, ...], list[Monomial]]:
    qs, items = _family_menu(ctx, which, exact_weight, max_degree)

    def fits(w: int, d: int) -> bool:
        if exact_weight is not None and w > exact_weight:
            return False
        if max_degree is not None and d > max_degree:
            return False
        return True

    found: list[Monomial] = []

    def rec(idx: int, current: Monomial, w: int, d: int) -> None:
        if idx == len(items):
            if (exact_weight is None or w == exact_weight) and (
                max_degree is None or d <= max_degree
            ):
                found.append(current)
            return
        factor, fw, fd, repeatable = items[idx]
        rec(idx + 1, current, w, d)
        mult = 1
        m = current
        while True:
            nxt = m.times(factor)
            if nxt is None or not fits(w + mult * fw, d + mult * fd):
                break
            rec(idx + 1, nxt, w + mult * fw, d + mult * fd)
            if not repeatable:
                break
            m = nxt
            mult += 1

    rec(0, Monomial.make(), 0, 0)
    found.sort(key=lambda m: sort_key(ctx, m))
    return qs, found


def w_family(ctx: PrimeContext, which: str, n: int, max_degree: int | None = None) -> QModule:
    """The weight-indexed component of a W family (finite in each weight).

    W1(n) and Wo(n) collect weight p^3 * n, We(n) weight p^4 * n.  The
    component is finite, so max_degree is only an optional guard.
    """
    if n < 0:
        raise ValueError("weight index must be nonnegative")
    exponent = 4 if which == "We" else 3
    target = n * ctx.p**exponent
    qs, monos = _enumerate_family(ctx, which, exact_weight=target)
    module = module_from_monomials(ctx, AlgebraSpec(2), monos, qs)
    if max_degree is not None and module.basis and module.max_degree() > max_degree:
        raise ValueError("family component extends beyond the requested degree bound")
    return module


def w_family_truncated(ctx: PrimeContext, which: str, max_degree: int) -> QModule:
    """Degreewise truncation of the whole family (all weights at once)."""
    qs, monos = _enumerate_family(ctx, which, max_degree=max_degree)
    return module_from_monomials(ctx, AlgebraSpec(2), monos, qs, truncated_above=max_degree)


@dataclass
class FactorizationReport:
    which: str
    max_degree: int
    per_degree: dict[int, tuple[int, int]]
    bijective: bool
    equivariant: bool
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.bijective and self.equivariant


def _truncated_polynomial_complement(ctx: PrimeContext, which: str, max_degree: int) -> list[Monomial]:
    """Monomial basis of the Q-trivial tensor complement of a W family."""
    p = ctx.p
    out: list[Monomial] = []
    if which == "E12":
        # xi_1 below p^2, higher xi below p
        bounds = [(1, p * p)] + [(r, p) for r in range(2, 12)]
    else:
        # xi_1 and xi_2 below p^2
        bounds = [(1, p * p), (2, p * p)]

    def rec(idx: int, current: dict[int, int], d: int) -> None:
        if idx == len(bounds):
            out.append(Monomial.make(dict(current)))
            return
        a, bound = bounds[idx]
        step = ctx.xi_degree(a)
        for e in range(bound):
            nd = d + e * step
            if nd > max_degree:
                break
            if e:
                current[a] = e
            rec(idx + 1, current, nd)
            current.pop(a, None)

    rec(0, {}, 0)
    out.sort(key=lambda m: sort_key(ctx, m))
    return out


def verify_tensor_factorization(ctx: PrimeContext, which: str, max_degree: int) -> FactorizationReport:
    """Check H_*BP<2> = (W part) (x) (Q-trivial truncated polynomial part).

    E12 factors over E(Q_1,Q_2) as W1 (x) T_2(xi_1) (x) T_1(xi_2, ...);
    E02 factors over E(Q_0,Q_2) as We (x) Wo (x) T_2(xi_1, xi_2).  The
    multiplication map from the truncated tensor product is matched
    monomial by monomial (with Koszul signs from tau reordering) and must
    be a degreewise bijection commuting with the pair of primitives.
    """
    if which not in ("E12", "E02"):
        raise ValueError("factorization selector must be E12 or E02")
    pair = (1, 2) if which == "E12" else (0, 2)
    H = restrict_qs(bp_homology(ctx, 2, max_degree).module, pair)
    spec = AlgebraSpec(2)
    t_monos = _truncated_polynomial_complement(ctx, which, max_degree)
    t_mod = module_from_monomials(ctx, spec, t_monos, pair)
    if which == "E12":
        w = w_family_truncated(ctx, "W1", max_degree)
        big = tensor(w, t_mod, max_degree=max_degree)

        def product(label) -> tuple[int, Monomial] | None:
            return label[0].times_signed(label[1])
    else:
        we = w_family_truncated(ctx, "We", max_degree)
        wo = w_family_truncated(ctx, "Wo", max_degree)
        big = tensor(tensor(we, wo, max_degree=max_degree), t_mod, max_degree=max_degree)

        def product(label) -> tuple[int, Monomial] | None:
            inner = label[0][0].times_signed(label[0][1])
            if inner is None:
                return None
            sign, m = inner
            outer = m.times_signed(label[1])
            if outer is None:
                return None
            return sign * outer[0], outer[1]

    failures: list[str] = []
    per_degree: dict[int, tuple[int, int]] = {}
    bijective = True
    mats: dict[int, np.ndarray] = {}
    for d in range(max_degree + 1):
        rows, cols = H.dim(d), big.dim(d)
        per_degree[d] = (cols, rows)
        if rows != cols:
            bijective = False
            if len(failures) < 5:
                failures.append(f"dimension mismatch at degree {d}: {cols} vs {rows}")
    for d in big.degrees():
        mat = np.zeros((H.dim(d), big.dim(d)), dtype=np.int64)
        hit: set[int] = set()
        for col, label in enumerate(big.basis[d]):
            res = product(label)
            if res is None:
                bijective = False
                failures.append(f"zero product at degree {d}")
                continue
            sign, mono = res
            try:
                row = H.basis[d].index(mono)
            except ValueError:
                bijective = False
                failures.append(f"product {format_monomial(mono)} missing from target")
                continue
            if row in hit:
                bijective = False
                failures.append(f"monomial {format_monomial(mono)} hit twice")
            hit.add(row)
            mat[row, col] = sign % ctx.p
        mats[d] = mat
    phi = QModuleMap(big, H, mats)
    eq = verify_map(phi)
    if not eq.passed:
        failures.extend(f"Q-commutation fails: {q} at degree {d}" for q, d in eq.failures[:5])
    return FactorizationReport(which, max_degree, per_degree, bijective, eq.passed, failures)
