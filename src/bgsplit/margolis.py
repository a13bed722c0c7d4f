"""Margolis homology and the classification of stably invertible modules.

For each operator Q_i acting on a graded module the homology
ker Q_i / im Q_i is counted degreewise from ranks of the Q_i matrices.
Over a rank-two exterior algebra a module whose two homologies are both
one-dimensional is pinned down by the pair of homology degrees; those
solve for a suspension a and a power b of the augmentation ideal, and
construct_model realizes the parameters as an explicit minimal module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from .browngitler import bp_homology
from .fplin import dense_ranks
from .monomials import Monomial, PrimeContext, degree, format_monomial, products
from .qmodules import QModule


@dataclass
class MargolisHomology:
    """Degreewise ker/im of one Q operator on a module.

    dimensions maps degree to dim H_d; degrees with zero homology are
    omitted.
    """

    module: QModule
    q_index: int
    degrees: tuple[int, int]
    dimensions: dict[int, int]

    def dim(self, d: int) -> int:
        return self.dimensions.get(d, 0)

    @property
    def total_dim(self) -> int:
        return sum(self.dimensions.values())

    def support(self) -> list[int]:
        return sorted(self.dimensions)

    def dims(self) -> dict[int, int]:
        return dict(sorted(self.dimensions.items()))


def _action_ranks(module: QModule, i: int, lo: int, hi: int) -> dict[int, int]:
    """rank Q_i|_d for every source degree lo <= d <= hi with a matrix, from one `dense_ranks` call.

    dim H_d needs the ranks at d and d + drop(i), so across a range of
    degrees every Q_i matrix serves twice; an absent matrix has rank 0.
    """
    acts = module.actions[i]
    degrees = [d for d in sorted(acts) if lo <= d <= hi]
    return dict(zip(degrees, dense_ranks((acts[d] for d in degrees), module.ctx.p).tolist()))


def _certified_top(module: QModule, i: int) -> int | None:
    """Largest degree where im Q_i is fully visible, None when complete."""
    if module.truncated_above is None:
        return None
    return module.truncated_above - module.drop(i)


def margolis_homology(
    module: QModule, i: int, degrees: tuple[int, int] | None = None
) -> MargolisHomology:
    """Homology of Q_i on the module over an inclusive degree range.

    The default range is the module's full support, which is only valid
    for complete modules.  A truncated module certifies homology at d
    only when d + drop(i) is still inside the truncation, since boundary
    classes can arrive from above.  Each dimension is a count of ranks:
    dim H_d = dim M_d - rank Q_i|_d - rank Q_i|_{d+drop}.
    """
    if i not in module.qs:
        raise KeyError(f"Q_{i} is not defined on this module")
    if degrees is None:
        if not module.basis:
            return MargolisHomology(module, i, (0, -1), {})
        lo, hi = module.min_degree(), module.max_degree()
    else:
        lo, hi = degrees
    top = _certified_top(module, i)
    if top is not None and hi > top:
        raise ValueError(
            f"homology above degree {top} is not certified: the module is "
            f"truncated above {module.truncated_above} and Q_{i} drops degree "
            f"by {module.drop(i)}"
        )
    di = module.drop(i)
    rank_at = _action_ranks(module, i, lo, hi + di)
    dims = {}
    for d in module.degrees():
        if lo <= d <= hi:
            got = module.dim(d) - rank_at.get(d, 0) - rank_at.get(d + di, 0)
            if got:
                dims[d] = got
    return MargolisHomology(module, i, (lo, hi), dims)


# -- closed forms for H_*BP<2> ----------------------------------------------


def _closed_form(ctx: PrimeContext, i: int, max_degree: int) -> dict[int, list[Monomial]]:
    """The closed-form basis of H(H_*BP<2>; Q_i) through max_degree, by degree.

    The basis is the xi monomials under a per-index exponent cap (None
    for unbounded), enumerated in one pass and bucketed by degree.
    """
    p = ctx.p
    caps = {
        0: lambda a: None if a <= 2 else 0,
        1: lambda a: None if a == 1 else p - 1,
        2: lambda a: p * p - 1,
    }
    if i not in caps:
        raise ValueError("closed forms are available for Q_0, Q_1, Q_2 only")
    xis = ((Monomial(((a, 1),), ()), caps[i](a)) for a in count(1))
    forms: dict[int, list[Monomial]] = {}
    for m in products(ctx, [xis], degree, max_degree):
        forms.setdefault(degree(ctx, m), []).append(m)
    return forms


@dataclass
class MargolisBP2Report:
    prime: int
    q_index: int
    max_degree: int
    passed: bool
    per_degree: dict[int, tuple[int, int]]
    first_failing_degree: int | None
    failures: list[str]


def margolis_bp2(ctx: PrimeContext, i: int, max_degree: int) -> MargolisBP2Report:
    """Margolis homology of H_*BP<2> against its closed-form monomial basis.

    Q_0 leaves the polynomial algebra on the first two xi's, Q_1 keeps
    xi_1 polynomial and truncates the rest at height p, and Q_2 truncates
    everything at height p^2.  The ambient module is built through
    max_degree + |Q_2|, the largest drop, so the image at max_degree is
    fully visible for every i and the three i share one build; then
    the computed homology is compared degreewise with the closed form:
    equal dimensions, every closed-form monomial a cycle, and the set
    independent modulo boundaries.  Both counts are ranks, so no class
    representatives are built: dim H_d = dim M_d - rank Q_i|_d -
    rank Q_i|_{d+drop}, and the set is independent modulo boundaries
    exactly when adjoining it to the boundaries raises their rank by its
    size.  Every degree's stack of [closed-form rows; boundaries] is
    ranked in one `dense_ranks` call, and the failures are then listed by
    degree.
    """
    forms = _closed_form(ctx, i, max_degree)
    module = bp_homology(ctx, 2, max_degree + ctx.q_degree(2)).module
    p = ctx.p
    di = module.drop(i)
    rank_at = _action_ranks(module, i, 0, max_degree + di)
    per_degree: dict[int, tuple[int, int]] = {}
    failures: list[str] = []
    first_failing: int | None = None

    def fail(d: int, message: str) -> None:
        nonlocal first_failing
        failures.append(message)
        if first_failing is None:
            first_failing = d

    vectors: dict[int, np.ndarray] = {}
    for d in range(max_degree + 1):
        expected = forms.get(d, [])
        got = module.dim(d) - rank_at.get(d, 0) - rank_at.get(d + di, 0)
        per_degree[d] = (got, len(expected))
        if expected and got == len(expected):
            vectors[d] = np.stack([module.element(mono)[1] for mono in expected])
    stacked = (np.concatenate([v, module.act(i, d + di).T]) for d, v in vectors.items())
    joint_rank = dict(zip(vectors, dense_ranks(stacked, p).tolist()))
    for d, (got, want) in per_degree.items():
        if got != want:
            fail(d, f"degree {d}: homology dimension {got}, closed form {want}")
            continue
        if d not in vectors:
            continue
        cycles = (module.act(i, d) @ vectors[d].T) % p
        for mono, image in zip(forms[d], cycles.T):
            if image.any():
                fail(d, f"degree {d}: {format_monomial(mono)} is not a cycle")
        if joint_rank[d] - rank_at.get(d + di, 0) != want:
            fail(d, f"degree {d}: closed-form classes are dependent modulo boundaries")
    return MargolisBP2Report(
        prime=p,
        q_index=i,
        max_degree=max_degree,
        passed=not failures,
        per_degree=per_degree,
        first_failing_degree=first_failing,
        failures=failures,
    )


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class InvertibleClass:
    """Parameters of a stably invertible module: suspension a, ideal power b."""

    a: int
    b: int
    margolis_degrees: tuple[int, int]
    pair: tuple[int, int]


@dataclass(frozen=True)
class NotInvertible:
    reason: str


def solve_degree_equations(
    x_degree: int, y_degree: int, d_j: int, d_h: int
) -> tuple[int, int] | None:
    """Solve b(|Q_h| - |Q_j|) = y - x and a = x - b|Q_j|, with |Q_i| = -d_i.

    x is the Q_j-homology degree and y the Q_h-homology degree, j < h.
    Returns None when b is not integral.
    """
    den = d_j - d_h
    num = y_degree - x_degree
    if num % den:
        return None
    b = num // den
    return x_degree + b * d_j, b


def classify_invertible(module: QModule) -> InvertibleClass | NotInvertible:
    """Read off (a, b) from one-dimensional Margolis homologies.

    The module must be over exactly two Q operators and complete, so
    both homologies are computed over full support.
    """
    if len(module.qs) != 2:
        raise ValueError("classification needs a module over exactly two Q operators")
    if module.truncated_above is not None:
        raise ValueError("classification needs the complete finite module")
    j, h = module.qs
    hj = margolis_homology(module, j)
    hh = margolis_homology(module, h)
    if hj.total_dim != 1 or hh.total_dim != 1:
        return NotInvertible(
            f"Q_{j}-homology has total dimension {hj.total_dim} and "
            f"Q_{h}-homology {hh.total_dim}; both must be 1"
        )
    x_degree = hj.support()[0]
    y_degree = hh.support()[0]
    solved = solve_degree_equations(x_degree, y_degree, module.drop(j), module.drop(h))
    if solved is None:
        return NotInvertible(
            f"homology degree difference {y_degree - x_degree} is not a "
            f"multiple of {module.drop(j) - module.drop(h)}; b is not integral"
        )
    a, b = solved
    return InvertibleClass(a, b, (x_degree, y_degree), (j, h))


def construct_model(ctx: PrimeContext, pair: tuple[int, int], a: int, b: int) -> QModule:
    """The minimal module labeled (a, b) over E(Q_j, Q_h): the zigzag Omega^b, suspended by a.

    The class (a, b) is Sigma^a I^{(x)b}, with I the augmentation ideal of
    the free rank-one module (and, for b < 0, the socle quotient J in its
    place).  Stably I^{(x)b} = Omega^b(F_p) + free: the tensor power has
    3^|b| elements and the zigzag 2|b| + 1, and the rest is free.  Q_i
    acts on a free module over E(Q_j, Q_h) with kernel equal to image,
    so free summands add no Margolis homology and the zigzag answers for
    the tensor power.  Write d_j, d_h for the drops of Q_j, Q_h and
    n = |b|.

    For b >= 0 the generators x_0..x_n sit in degrees
    a - i d_j - (n - i) d_h and the socle s_1..s_n in
    a - i d_j - (n + 1 - i) d_h, with Q_j x_{i-1} = s_i = Q_h x_i.  For
    b < 0 the socle t_0..t_n sits in degrees a + i d_j + (n - i) d_h and
    the generators y_0..y_{n-1} in deg t_i + d_j, with Q_j y_i = t_i and
    Q_h y_i = t_{i+1}.  Either way the chain's two ends carry the
    homology: Q_j at a - b d_j and Q_h at a - b d_h.  Every product of
    two Q's is zero, so the relations hold with all coefficients 1.

    Node k of the chain (x_0, s_1, x_1, .. or t_0, y_0, t_1, ..) is
    labelled ("z", k); the edge from node k to k + 1 is Q_j for even k
    and Q_h for odd k, and acts from whichever end is a generator.  The
    shift a may be odd; Margolis homology only reads degrees.
    """
    j, h = sorted(pair)
    if j == h:
        raise ValueError("the two Q indices must differ")
    dj, dh = ctx.q_degree(j), ctx.q_degree(h)
    step = 1 if b >= 0 else -1
    degrees = [a - b * dh]
    for k in range(2 * abs(b)):
        degrees.append(degrees[-1] + step * (dh if k % 2 else -dj))
    basis: dict[int, list] = {}
    for k, d in enumerate(degrees):
        basis.setdefault(d, []).append(("z", k))
    generator_parity = 0 if b >= 0 else 1
    actions: dict[int, dict[int, np.ndarray]] = {j: {}, h: {}}
    for k in range(2 * abs(b)):
        i = h if k % 2 else j
        src, dst = (k, k + 1) if k % 2 == generator_parity else (k + 1, k)
        d, e = degrees[src], degrees[dst]
        mat = actions[i].setdefault(d, np.zeros((len(basis[e]), len(basis[d])), dtype=np.int64))
        mat[basis[e].index(("z", dst)), basis[d].index(("z", src))] = 1
    return QModule(ctx, (j, h), basis, actions)


def freeness_check(module: QModule, degrees: tuple[int, int]) -> bool:
    """True when every defined Q has vanishing homology over the inclusive degree range."""
    lo, hi = degrees
    if module.total_dim == 0 or lo > hi:
        return True
    return not any(margolis_homology(module, i, degrees).total_dim for i in module.qs)
