"""Ext over exterior algebras via the complex M (x) F_p[v_i].

The minimal free resolution of F_p over E(Q_i : i in qs) dualizes to the
complex with cochains M tensor the v-monomials and differential
d = sum_i Q_i (x) v_i, so its cohomology is Ext_E(F_p, M) and the
v_i-multiplications are visible at chain level.  Chart coordinates put a
cochain m (x) v^alpha at s = |alpha| and t = deg(m) + sum alpha_i d_i
with d_i = 2p^i - 1, so v_i sits at (1, d_i) and d preserves t.

Dimensions come from ranks, dim Ext^{s,t} = dim C^{s,t} - rank d^{s,t} -
rank d^{s-1,t}, with each rank eliminated once per complex.  Class
representatives are built only by `KoszulComplex.homology`, for the
callers that need them (`project` and `v_mult`).

Charts are memoised by module content: `ext_koszul` computes each
(module, window) once per process, so two equal modules built apart, such
as the same `restrict_qs` pair asked for by two checks, share one chart.
The complex itself is dropped after each computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..fplin import kernel_array, reduce_mod_rows, rref_array
from ..qmodules import QModule, restrict_qs


@lru_cache(maxsize=None)
def v_monomials(qs: tuple[int, ...], s: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples over qs with |alpha| = s, in lexicographic order."""
    if s < 0:
        return ()
    if not qs:
        return ((),) if s == 0 else ()

    def rec(k: int, remaining: int):
        if k == len(qs) - 1:
            yield (remaining,)
            return
        for e in range(remaining + 1):
            for rest in rec(k + 1, remaining - e):
                yield (e,) + rest

    return tuple(rec(0, s))


@lru_cache(maxsize=None)
def v_monomials_by_degree(
    qs: tuple[int, ...], drops: tuple[int, ...], s: int
) -> dict[int, tuple[tuple[int, ...], ...]]:
    """v_monomials(qs, s) bucketed by v-degree sum alpha_i d_i, lex order kept."""
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for alpha in v_monomials(qs, s):
        vdeg = sum(a * d for a, d in zip(alpha, drops))
        buckets.setdefault(vdeg, []).append(alpha)
    return {vdeg: tuple(alphas) for vdeg, alphas in buckets.items()}


@dataclass
class BigradedDims:
    """Ext dimensions per (s, t) with the certified window they live in."""

    dims: dict[tuple[int, int], int]
    s_max: int
    t_max: int
    t_min: int
    note: str | None = None

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)

    @property
    def total(self) -> int:
        return sum(self.dims.values())

    def chart_rows(self) -> list[tuple[int, int, int]]:
        return [(s, t, d) for (s, t), d in sorted(self.dims.items())]

    def to_json(self) -> dict:
        return {
            "s_max": self.s_max,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "classes": [{"s": s, "t": t, "dim": d} for s, t, d in self.chart_rows()],
            "note": self.note,
        }


class KoszulComplex:
    """Cochain complex computing Ext_E(F_p, M) with chain-level v-action."""

    def __init__(self, module: QModule):
        self.module = module
        self.qs = module.qs
        self.p = module.ctx.p
        self.drops = tuple(module.ctx.q_degree(i) for i in self.qs)
        self._chains: dict[tuple[int, int], tuple[tuple, int]] = {}
        self._diffs: dict[tuple[int, int], np.ndarray] = {}
        self._ranks: dict[tuple[int, int], int] = {}
        self._homology: dict[tuple[int, int], tuple] = {}

    # -- chain level ---------------------------------------------------------

    def chain_blocks(self, s: int, t: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
        """(alpha, module degree, block dim) per nonempty block of C^{s,t}, in lex order.

        Blocks v^alpha (x) M_d with M_d = 0 add no columns, so they are left
        out: the walk visits the module's degrees, not every v-monomial.
        """
        return self._chain(s, t)[0]

    def chain_dim(self, s: int, t: int) -> int:
        return self._chain(s, t)[1]

    def _chain(self, s: int, t: int) -> tuple[tuple, int]:
        """The blocks of C^{s,t} and their total dimension, memoised per (s, t)."""
        key = (s, t)
        cached = self._chains.get(key)
        if cached is not None:
            return cached
        buckets = v_monomials_by_degree(self.qs, self.drops, s)
        blocks = tuple(
            sorted(
                (alpha, d, len(labels))
                for d, labels in self.module.basis.items()
                for alpha in buckets.get(t - d, ())
            )
        )
        cached = self._chains[key] = (blocks, sum(dim for _, _, dim in blocks))
        return cached

    def differential(self, s: int, t: int) -> np.ndarray:
        """Matrix of d = sum Q_i (x) v_i from C^{s,t} to C^{s+1,t}.

        The v's commute and the Q's square to zero and anticommute, so no
        extra signs are needed for d^2 = 0.
        """
        key = (s, t)
        cached = self._diffs.get(key)
        if cached is not None:
            return cached
        src = self.chain_blocks(s, t)
        dst = self.chain_blocks(s + 1, t)
        offsets = {}
        total = 0
        for alpha, _, dim in dst:
            offsets[alpha] = total
            total += dim
        mat = np.zeros((total, self.chain_dim(s, t)), dtype=np.int64)
        col = 0
        for alpha, d, dim in src:
            for ix, i in enumerate(self.qs):
                beta = alpha[:ix] + (alpha[ix] + 1,) + alpha[ix + 1 :]
                row = offsets.get(beta)
                if row is not None:
                    action = self.module.act(i, d)
                    mat[row : row + action.shape[0], col : col + dim] += action
            col += dim
        mat %= self.p
        self._diffs[key] = mat
        return mat

    def v_mult_chain(self, s: int, t: int, i: int) -> np.ndarray:
        """Chain-level multiplication by v_i: C^{s,t} -> C^{s+1,t+d_i}."""
        ix = self.qs.index(i)
        src = self.chain_blocks(s, t)
        dst = self.chain_blocks(s + 1, t + self.drops[ix])
        offsets = {}
        total = 0
        for alpha, _, dim in dst:
            offsets[alpha] = total
            total += dim
        mat = np.zeros((total, self.chain_dim(s, t)), dtype=np.int64)
        col = 0
        for alpha, _, dim in src:
            beta = alpha[:ix] + (alpha[ix] + 1,) + alpha[ix + 1 :]
            row = offsets[beta]
            mat[row : row + dim, col : col + dim] = np.eye(dim, dtype=np.int64)
            col += dim
        return mat

    # -- cohomology ----------------------------------------------------------

    def homology(self, s: int, t: int) -> tuple[np.ndarray, tuple, np.ndarray, tuple]:
        """(representative rows, their pivots, border rows, border pivots)."""
        key = (s, t)
        cached = self._homology.get(key)
        if cached is not None:
            return cached
        n = self.chain_dim(s, t)
        cycles = kernel_array(self.differential(s, t), self.p)
        if s == 0:
            borders = np.zeros((0, n), dtype=np.int64)
            border_piv: tuple[int, ...] = ()
        else:
            prev = self.differential(s - 1, t)
            rows, piv = rref_array(prev.T, self.p)
            borders, border_piv = rows[: len(piv)], tuple(piv)
        if cycles.shape[0] == 0:
            reps = np.zeros((0, n), dtype=np.int64)
            rep_piv: tuple[int, ...] = ()
        else:
            reduced = np.array(
                [reduce_mod_rows(row, borders, border_piv, self.p) for row in cycles]
            )
            rows, piv = rref_array(reduced, self.p)
            reps, rep_piv = rows[: len(piv)], tuple(piv)
        result = (reps, rep_piv, borders, border_piv)
        self._homology[key] = result
        return result

    def _rank(self, s: int, t: int) -> int:
        """Rank of d: C^{s,t} -> C^{s+1,t}, eliminated once per (s, t)."""
        key = (s, t)
        cached = self._ranks.get(key)
        if cached is not None:
            return cached
        if self.chain_dim(s, t) == 0 or self.chain_dim(s + 1, t) == 0:
            rank = 0
        else:
            rank = len(rref_array(self.differential(s, t), self.p)[1])
        self._ranks[key] = rank
        return rank

    def dim(self, s: int, t: int) -> int:
        """dim Ext^{s,t} = dim C^{s,t} - rank d^{s,t} - rank d^{s-1,t}.

        The count equals the size of the homology basis because d^2 = 0;
        it builds no representatives, which only `homology` does.
        """
        n = self.chain_dim(s, t)
        if n == 0:
            return 0
        return n - self._rank(s, t) - self._rank(s - 1, t)

    def project(self, s: int, t: int, vec: np.ndarray) -> np.ndarray:
        """Class coordinates of a cycle in the homology basis at (s, t)."""
        reps, rep_piv, borders, border_piv = self.homology(s, t)
        reduced = reduce_mod_rows(vec % self.p, borders, border_piv, self.p)
        coords = reduced[list(rep_piv)] if rep_piv else np.zeros(0, dtype=np.int64)
        if not np.array_equal((coords @ reps) % self.p, reduced):
            raise ValueError("vector is not a cycle at this bidegree")
        return coords

    def v_mult(self, s: int, t: int, i: int) -> np.ndarray:
        """Induced map on classes (s,t) -> (s+1, t+d_i), columns = sources."""
        reps = self.homology(s, t)[0]
        target = (s + 1, t + self.module.ctx.q_degree(i))
        out = np.zeros((self.dim(*target), reps.shape[0]), dtype=np.int64)
        if reps.shape[0] == 0 or out.shape[0] == 0:
            return out
        chain = self.v_mult_chain(s, t, i)
        for col, rep in enumerate(reps):
            out[:, col] = self.project(*target, (chain @ rep) % self.p)
        return out


def _content_key(module: QModule) -> tuple:
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


_CHARTS: dict[tuple, dict[tuple[int, int], int]] = {}


def ext_koszul(
    module: QModule, s_max: int, t_max: int, t_min: int | None = None
) -> BigradedDims:
    """Ext_E(F_p, M) dimensions for s <= s_max, t in [t_min, t_max].

    Truncated modules certify only t_max <= truncation, since the s = 0
    and s = 1 columns read the module at degree t itself.  Charts are
    memoised by module content and window; each call gets its own copy.
    """
    top = module.truncated_above
    if top is not None and t_max > top:
        raise ValueError(
            f"t_max {t_max} exceeds the certified degree {top} of the truncated module"
        )
    lo = (module.min_degree() if module.basis else 0) if t_min is None else t_min
    key = (_content_key(module), s_max, t_max, lo)
    dims = _CHARTS.get(key)
    if dims is None:
        complex_ = KoszulComplex(module)
        dims = {}
        for t in range(lo, t_max + 1):
            for s in range(s_max + 1):
                d = complex_.dim(s, t)
                if d:
                    dims[(s, t)] = d
        _CHARTS[key] = dims
    return BigradedDims(dict(dims), s_max, t_max, lo)


# -- concentration, Bockstein, injectivity ------------------------------------


@dataclass
class EvenConcentrationReport:
    s_min: int
    passed: bool
    violations: list[tuple[int, int, int]]
    window: tuple[int, int, int]


def even_concentration_check(
    module: QModule, s_min: int, s_max: int, t_max: int
) -> EvenConcentrationReport:
    """Assert all classes with s >= s_min sit in even t - s."""
    ext = ext_koszul(module, s_max, t_max)
    violations = [
        (s, t, d)
        for (s, t), d in sorted(ext.dims.items())
        if s >= s_min and (t - s) % 2
    ]
    return EvenConcentrationReport(
        s_min=s_min,
        passed=not violations,
        violations=violations,
        window=(s_max, ext.t_min, t_max),
    )


@dataclass
class BocksteinE1:
    """E_1 page of the v_i-Bockstein spectral sequence.

    dims[(s, t, r)] is the dimension of Ext^{s,t} over the remaining
    operators tensor v_i^r.  When that Ext is concentrated in even t - s
    no differential can be nonzero, since each page's differential flips
    the parity of the total t - s; collapse records that.
    """

    i: int
    pair: tuple[int, ...]
    dims: dict[tuple[int, int, int], int]
    collapse: bool

    def dim(self, s: int, t: int, r: int) -> int:
        return self.dims.get((s, t, r), 0)


def bockstein_e1(
    module: QModule, i: int, s_max: int, t_max: int, r_max: int = 2
) -> BocksteinE1:
    if i not in module.qs:
        raise KeyError(f"Q_{i} is not defined on this module")
    pair = tuple(x for x in module.qs if x != i)
    if not pair:
        raise ValueError("the Bockstein direction must leave at least one operator")
    rest = restrict_qs(module, pair)
    ext = ext_koszul(rest, s_max, t_max)
    collapse = all((t - s) % 2 == 0 for (s, t) in ext.dims)
    dims = {
        (s, t, r): d
        for (s, t), d in ext.dims.items()
        for r in range(r_max + 1)
    }
    return BocksteinE1(i, pair, dims, collapse)


@dataclass
class VInjectivityReport:
    i: int
    passed: bool
    checked_classes: int
    kernel_at: list[tuple[int, int]]
    window: tuple[int, int, int]


def v_injectivity(module: QModule, i: int, s_max: int, t_max: int) -> VInjectivityReport:
    """Check v_i-multiplication has zero kernel on classes in the window.

    Sources run over s <= s_max and t <= t_max; targets live one v_i
    bidegree higher, so a truncated module must certify t_max + d_i.
    """
    drop = module.ctx.q_degree(i)
    top = module.truncated_above
    if top is not None and t_max + drop > top:
        raise ValueError(
            f"targets reach t = {t_max + drop}, beyond the certified degree {top}; "
            f"lower t_max to {top - drop}"
        )
    complex_ = KoszulComplex(module)
    lo = module.min_degree() if module.basis else 0
    checked = 0
    kernel_at = []
    for t in range(lo, t_max + 1):
        for s in range(s_max + 1):
            n = complex_.dim(s, t)
            if n == 0:
                continue
            checked += n
            mult = complex_.v_mult(s, t, i)
            _, piv = rref_array(mult, module.ctx.p)
            if len(piv) < n:
                kernel_at.append((s, t))
    return VInjectivityReport(
        i=i,
        passed=not kernel_at,
        checked_classes=checked,
        kernel_at=kernel_at,
        window=(s_max, lo, t_max),
    )
