"""Truncated bigraded modules over F_p[v_0, v_1, ...] and their Ext.

The polynomial side of Koszul duality: Ext over an exterior algebra,
carried with its chain-level v-multiplications, is a bigraded module over
P = F_p[v_j : j in qs] with v_j in bidegree (1, 2p^j - 1).  Since every
v_j strictly raises the internal degree t, all computations can run
degreewise below a ceiling t_max, and every derived object records the
window it is exact on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..fplin import coset_representatives, kernel_array, quotient_projection, rank, rref_array
from ..qmodules import QModule, content_key
from .koszul import BigradedDims, KoszulComplex

Bidegree = tuple[int, int]


@lru_cache(maxsize=None)
def _alphas_within(var_degrees: tuple[int, ...], budget: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples alpha with sum(alpha * var_degrees) <= budget, lex order."""
    if budget < 0:
        return ()
    if not var_degrees:
        return ((),)
    head = var_degrees[0]
    out = []
    for a in range(budget // head + 1):
        out.extend((a, *rest) for rest in _alphas_within(var_degrees[1:], budget - a * head))
    return tuple(sorted(out))


def _dot(alpha: tuple[int, ...], var_degrees: tuple[int, ...]) -> int:
    return sum(a * dv for a, dv in zip(alpha, var_degrees))


class PModule:
    """Bigraded P-module known exactly for internal degrees t <= t_max.

    dims[(s, t)] holds the nonzero dimensions; acts[j][(s, t)] is the
    matrix of v_j from (s, t) to (s + 1, t + var_degrees[j]).  An action
    whose target lies above t_max is uncertified and may not be asked for.
    """

    def __init__(
        self,
        p: int,
        var_degrees: tuple[int, ...],
        dims: dict[Bidegree, int],
        acts: dict[int, dict[Bidegree, np.ndarray]],
        t_max: int,
        _skip_check: bool = False,
    ) -> None:
        self.p = p
        self.var_degrees = tuple(var_degrees)
        self.dims = {bd: n for bd, n in dims.items() if n}
        self.acts = {
            j: {bd: np.asarray(m, dtype=np.int64) % p for bd, m in a.items()}
            for j, a in acts.items()
        }
        self.t_max = t_max
        for j in range(len(self.var_degrees)):
            self.acts.setdefault(j, {})
        if not _skip_check:
            self._check()

    def dim(self, s: int, t: int) -> int:
        return self.dims.get((s, t), 0)

    def bidegrees(self) -> list[Bidegree]:
        return sorted(self.dims, key=lambda bd: (bd[1], bd[0]))

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def min_t(self) -> int:
        return min((t for _, t in self.dims), default=0)

    def act(self, j: int, s: int, t: int) -> np.ndarray:
        dv = self.var_degrees[j]
        if t + dv > self.t_max:
            raise ValueError(f"v_{j} from t = {t} leaves the certified window")
        mat = self.acts[j].get((s, t))
        if mat is None:
            return np.zeros((self.dim(s + 1, t + dv), self.dim(s, t)), dtype=np.int64)
        return mat

    def _check(self) -> None:
        for j, a in self.acts.items():
            dv = self.var_degrees[j]
            for (s, t), mat in a.items():
                want = (self.dim(s + 1, t + dv), self.dim(s, t))
                if mat.shape != want:
                    raise ValueError(
                        f"v_{j} matrix at {(s, t)} has shape {mat.shape}, expected {want}"
                    )
        nv = len(self.var_degrees)
        for s, t in self.dims:
            for j in range(nv):
                dj = self.var_degrees[j]
                for h in range(j + 1, nv):
                    dh = self.var_degrees[h]
                    if t + dj + dh > self.t_max:
                        continue
                    lhs = (self.act(h, s + 1, t + dj) @ self.act(j, s, t)) % self.p
                    rhs = (self.act(j, s + 1, t + dh) @ self.act(h, s, t)) % self.p
                    if not np.array_equal(lhs, rhs):
                        raise ValueError(f"v_{j} and v_{h} fail to commute at {(s, t)}")


def ext_p_module(module: QModule, t_max: int) -> PModule:
    """Ext(F_p, module) for t <= t_max, as a module over the v's of its pair."""
    cap = module.truncated_above
    if cap is not None and t_max > cap:
        raise ValueError(f"t_max {t_max} exceeds the certified degree {cap}")
    kc = KoszulComplex(module)
    if not kc.drops:
        raise ValueError("the module must carry at least one operator")
    min_drop = min(kc.drops)
    t0 = module.min_degree()
    dims: dict[Bidegree, int] = {}
    for t in range(t0, t_max + 1):
        for s in range((t - t0) // min_drop + 1):
            n = kc.dim(s, t)
            if n:
                dims[(s, t)] = n
    acts: dict[int, dict[Bidegree, np.ndarray]] = {j: {} for j in range(len(kc.qs))}
    for s, t in dims:
        for j, i in enumerate(kc.qs):
            if t + kc.drops[j] <= t_max:
                mat = kc.v_mult(s, t, i)
                if mat.size:
                    acts[j][(s, t)] = mat
    return PModule(kc.p, kc.drops, dims, acts, t_max)


# -- presentations ---------------------------------------------------------------

RelationEntries = tuple[tuple[int, tuple[int, ...], int], ...]


@dataclass(frozen=True)
class PolyPresentation:
    """Generators and relations of a bigraded P-module, exact for t <= t_max.

    Each relation is ((s, t), entries) with entries (gen index, alpha,
    coefficient): the element sum c * v^alpha * gen vanishes.  Minimality
    means no entry has alpha = 0 (no unit in the relation matrix).
    """

    p: int
    var_degrees: tuple[int, ...]
    generators: tuple[Bidegree, ...]
    relations: tuple[tuple[Bidegree, RelationEntries], ...]
    t_max: int
    note: str | None = None

    def shifted(self, dt: int) -> "PolyPresentation":
        gens = tuple((s, t + dt) for s, t in self.generators)
        rels = tuple(((s, t + dt), entries) for (s, t), entries in self.relations)
        return PolyPresentation(self.p, self.var_degrees, gens, rels, self.t_max + dt, self.note)

    def relation_strings(self) -> list[str]:
        out = []
        for _, entries in self.relations:
            terms = []
            for g, alpha, c in entries:
                mono = "*".join(
                    f"v{j}" if a == 1 else f"v{j}^{a}" for j, a in enumerate(alpha) if a
                )
                coeff = "" if c == 1 else f"{c}*"
                terms.append(f"{coeff}{mono}*g{g}")
            out.append(" + ".join(terms))
        return out


def free_presentation(
    p: int, var_degrees: tuple[int, ...], generators: tuple[Bidegree, ...], t_max: int
) -> PolyPresentation:
    return PolyPresentation(p, tuple(var_degrees), tuple(generators), (), t_max)


def residue_field_presentation(p: int, var_degrees: tuple[int, ...], t_max: int) -> PolyPresentation:
    """One generator at (0, 0) with every v_j acting by zero."""
    nv = len(var_degrees)
    rels = []
    for j, dv in enumerate(var_degrees):
        alpha = tuple(1 if h == j else 0 for h in range(nv))
        rels.append(((1, dv), ((0, alpha, 1),)))
    return PolyPresentation(p, tuple(var_degrees), ((0, 0),), tuple(rels), t_max)


# -- free covers and kernels -----------------------------------------------------


def _free_columns(
    gen_bidegrees, var_degrees: tuple[int, ...], t_cap: int
) -> dict[Bidegree, list[tuple[int, tuple[int, ...]]]]:
    """Basis (gen, alpha) of the free module on the generators, per bidegree."""
    cols: dict[Bidegree, list[tuple[int, tuple[int, ...]]]] = {}
    for g, (s0, t0) in enumerate(gen_bidegrees):
        for alpha in _alphas_within(var_degrees, t_cap - t0):
            bd = (s0 + sum(alpha), t0 + _dot(alpha, var_degrees))
            cols.setdefault(bd, []).append((g, alpha))
    for bd in cols:
        cols[bd].sort()
    return cols


def _column_index(columns) -> dict[Bidegree, dict[tuple[int, tuple[int, ...]], int]]:
    return {bd: {key: i for i, key in enumerate(keys)} for bd, keys in columns.items()}


def _relabel(rows: np.ndarray, src_cols, dst_index, j: int) -> np.ndarray:
    """Rows in free coordinates pushed along v_j (alpha -> alpha + e_j)."""
    out = np.zeros((rows.shape[0], len(dst_index)), dtype=np.int64)
    for c, (g, alpha) in enumerate(src_cols):
        beta = tuple(a + 1 if h == j else a for h, a in enumerate(alpha))
        out[:, dst_index[(g, beta)]] = rows[:, c]
    return out


def _p_min_generators(m: PModule) -> tuple[list[Bidegree], list[np.ndarray]]:
    """Canonical representatives of M / (sum_j v_j M), ascending (t, s)."""
    bidegs: list[Bidegree] = []
    reps: list[np.ndarray] = []
    for s, t in m.bidegrees():
        spans = []
        for j, dv in enumerate(m.var_degrees):
            if m.dim(s - 1, t - dv):
                spans.append(m.act(j, s - 1, t - dv).T)
        span = (
            np.concatenate(spans, axis=0)
            if spans
            else np.zeros((0, m.dim(s, t)), dtype=np.int64)
        )
        found = coset_representatives(np.eye(m.dim(s, t), dtype=np.int64), span, m.p)
        for row in found:
            bidegs.append((s, t))
            reps.append(row)
    return bidegs, reps


def _cover_and_kernels(target: PModule, reps, columns):
    """Free cover matrices into target coordinates and their kernels per bidegree.

    Also checks the cover is onto (generators do generate) and that no
    part of the target sits at a bidegree the free module misses.
    """
    p = target.p
    # ascending t, so v^alpha g comes after the v^(alpha - e_j) g it is pushed from
    image: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    for s, t in sorted(columns, key=lambda bd: bd[1]):
        for g, alpha in columns[(s, t)]:
            if not any(alpha):
                image[(g, alpha)] = reps[g] % p
                continue
            j = next(h for h, a in enumerate(alpha) if a)
            prev = tuple(a - 1 if h == j else a for h, a in enumerate(alpha))
            step = target.act(j, s - 1, t - target.var_degrees[j])
            image[(g, alpha)] = (step @ image[(g, prev)]) % p

    kernels: dict[Bidegree, np.ndarray] = {}
    for bd, cols in columns.items():
        mat = np.zeros((target.dim(*bd), len(cols)), dtype=np.int64)
        for c, (g, alpha) in enumerate(cols):
            mat[:, c] = image[(g, alpha)]
        k = kernel_array(mat, p)
        if len(cols) - k.shape[0] != target.dim(*bd):
            raise AssertionError(f"free cover misses part of the target at {bd}")
        if k.shape[0]:
            kernels[bd] = k
    for bd, n in target.dims.items():
        if n and bd not in columns:
            raise AssertionError(f"target is nonzero at uncovered bidegree {bd}")
    return kernels


# -- gr and realization ----------------------------------------------------------
# One memo per block content, so equal weight blocks (C_k depends only on
# floor(k/p)) share one entry.  An entry holds the minimal resolution of
# Ext(F_p, module) through stage 2 at the largest window asked for so far:
# gr presentations read its first two stages, and the E_2 comparison
# resolves over all three.  Stages at t depend only on Ext in degrees <= t,
# so a smaller window is served by truncation.


_BLOCKS: dict[tuple, tuple[int, list[PStage]]] = {}


def resolved_block(module: QModule, t_max: int) -> tuple[int, list[PStage]]:
    """(window, stages 0..2) of the minimal resolution of Ext(F_p, module).

    The window is the largest one asked for so far, at least t_max;
    t_max may not exceed the module's certified degree.
    """
    key = content_key(module)
    got = _BLOCKS.get(key)
    if got is None or got[0] < t_max:
        got = _BLOCKS[key] = (t_max, p_resolution(ext_p_module(module, t_max), 2))
    return got


def gr_module(module: QModule, t_max: int) -> PolyPresentation:
    """Minimal presentation of Ext(F_p, module) as a module over its v's.

    The relevant Adams filtrations collapse, so the associated graded is
    the Ext itself; generators are a basis of Ext/(v Ext) and relations
    are minimal generators of the free cover's kernel, both exact for
    t <= t_max (capped at the module's own certification, with a note).

    Generators are stage 0 of the block's memoised resolution; relations
    are stage 1's generator vectors read over stage 0's columns as
    (gen, alpha, coefficient) entries.
    """
    cap = module.truncated_above
    note = None
    tm = t_max
    if cap is not None and t_max > cap:
        tm = cap
        note = f"t_max shrunk to certified {cap}"
    _, stages = resolved_block(module, tm)
    # generators and relations are listed in ascending (t, s), so the kept
    # generators are a prefix and the relations' generator indices stay valid
    generators = tuple(bd for bd in stages[0].gen_bidegrees if bd[1] <= tm) if stages else ()
    relations = []
    if len(stages) > 1:
        cover, syzygies = stages[:2]
        for bd, vector in zip(syzygies.gen_bidegrees, syzygies.gen_vectors):
            if bd[1] > tm:
                continue
            entries = tuple(
                (g, alpha, int(vector[pos]))
                for pos, (g, alpha) in enumerate(cover.columns[bd])
                if vector[pos]
            )
            relations.append((bd, entries))
    var_degrees = tuple(module.ctx.q_degree(i) for i in module.qs)
    return PolyPresentation(module.ctx.p, var_degrees, generators, tuple(relations), tm, note)


def realize(pres: PolyPresentation, t_max: int | None = None) -> PModule:
    """The presented module, built degreewise: free basis modulo relations.

    Exact for t <= min(t_max, pres.t_max): relations only propagate
    upward in t, so no relation above the window can reach below it.
    """
    p = pres.p
    tm = pres.t_max if t_max is None else min(t_max, pres.t_max)
    columns = _free_columns(pres.generators, pres.var_degrees, tm)
    col_index = _column_index(columns)
    rel_rows: dict[Bidegree, list[np.ndarray]] = {}
    for bd, entries in pres.relations:
        if bd[1] > tm:
            continue
        row = np.zeros(len(columns[bd]), dtype=np.int64)
        for g, alpha, c in entries:
            row[col_index[bd][(g, alpha)]] = c % p
        rel_rows.setdefault(bd, []).append(row)

    spans: dict[Bidegree, tuple[np.ndarray, tuple[int, ...]]] = {}
    for bd in sorted(columns, key=lambda b: (b[1], b[0])):
        s, t = bd
        rows = list(rel_rows.get(bd, []))
        for j, dv in enumerate(pres.var_degrees):
            src = (s - 1, t - dv)
            if src in spans:
                rows.extend(_relabel(spans[src][0], columns[src], col_index[bd], j))
        if rows:
            red, piv = rref_array(np.stack(rows), p)
            if piv:
                spans[bd] = (red[: len(piv)], tuple(piv))

    dims: dict[Bidegree, int] = {}
    keeps: dict[Bidegree, list[int]] = {}
    projs: dict[Bidegree, np.ndarray] = {}
    for bd, cols in columns.items():
        rows, piv = spans.get(bd, ((), ()))
        keeps[bd], projs[bd] = quotient_projection(rows, piv, len(cols), p)
        dims[bd] = len(keeps[bd])

    acts: dict[int, dict[Bidegree, np.ndarray]] = {j: {} for j in range(len(pres.var_degrees))}
    for bd, cols in columns.items():
        s, t = bd
        for j, dv in enumerate(pres.var_degrees):
            dst = (s + 1, t + dv)
            if dst not in columns or not dims[bd] or not dims.get(dst):
                continue
            mat = np.zeros((dims[dst], dims[bd]), dtype=np.int64)
            for c, pos in enumerate(keeps[bd]):
                g, alpha = cols[pos]
                beta = tuple(a + 1 if h == j else a for h, a in enumerate(alpha))
                mat[:, c] = projs[dst][:, col_index[dst][(g, beta)]]
            if mat.size:
                acts[j][bd] = mat
    return PModule(p, pres.var_degrees, dims, acts, tm)


# -- minimal resolutions and Ext -------------------------------------------------


@dataclass
class PStage:
    """Free stage of a truncated minimal resolution.

    gen_vectors are coordinates in the previous stage's free module (for
    the first stage: in the resolved module itself).
    """

    gen_bidegrees: tuple[Bidegree, ...]
    gen_vectors: tuple[np.ndarray, ...]
    columns: dict[Bidegree, list[tuple[int, tuple[int, ...]]]]


def _assert_no_units(stage: PStage, cover: PStage) -> None:
    """A syzygy stage's generators may not touch an alpha = 0 column of its cover."""
    for bd, vector in zip(stage.gen_bidegrees, stage.gen_vectors):
        for pos, (_, alpha) in enumerate(cover.columns[bd]):
            if not any(alpha) and vector[pos]:
                raise AssertionError("relation matrix contains a unit; the cover was not minimal")


def p_resolution(m: PModule, u_max: int) -> list[PStage]:
    """Stages 0..u_max of the minimal free resolution of m, exact for t <= m.t_max.

    The only place that covers, takes kernels and finds minimal generators
    over P: gr presentations are its first two stages.  Stops after stage
    u_max or when the kernel vanishes inside the window.  Kernels are
    realized with their inherited v-actions, so each stage is the honest
    degreewise syzygy module of the previous one, and no stage u >= 1 may
    touch a unit of stage u - 1 (minimality).
    """
    stages: list[PStage] = []
    target = m
    to_free: dict[Bidegree, np.ndarray] | None = None
    for u in range(u_max + 1):
        gen_bidegrees, reps = _p_min_generators(target)
        if not gen_bidegrees:
            break
        columns = _free_columns(gen_bidegrees, m.var_degrees, m.t_max)
        if to_free is None:
            gen_vectors = [row % m.p for row in reps]
        else:
            gen_vectors = [
                (row @ to_free[bd]) % m.p for row, bd in zip(reps, gen_bidegrees)
            ]
        stages.append(PStage(tuple(gen_bidegrees), tuple(gen_vectors), columns))
        if u:
            _assert_no_units(stages[u], stages[u - 1])
        if u == u_max:
            break
        kernels = _cover_and_kernels(target, reps, columns)
        col_index = _column_index(columns)
        kdims = {bd: rows.shape[0] for bd, rows in kernels.items()}
        kacts: dict[int, dict[Bidegree, np.ndarray]] = {
            j: {} for j in range(len(m.var_degrees))
        }
        piv_of = {
            bd: [int(np.nonzero(r)[0][0]) for r in rows] for bd, rows in kernels.items()
        }
        for bd, rows in kernels.items():
            s, t = bd
            for j, dv in enumerate(m.var_degrees):
                dst = (s + 1, t + dv)
                if dst not in kernels:
                    continue
                pushed = _relabel(rows, columns[bd], col_index[dst], j)
                coords = pushed[:, piv_of[dst]]
                if ((coords @ kernels[dst] - pushed) % m.p).any():
                    raise AssertionError("kernel is not closed under the v's")
                mat = coords.T % m.p
                if mat.size:
                    kacts[j][bd] = mat
        # a submodule of a commuting action inherits commutation
        target = PModule(m.p, m.var_degrees, kdims, kacts, m.t_max, _skip_check=True)
        to_free = kernels
    return stages


def _hom_blocks(stage: PStage, b: PModule, b_by_t, t: int):
    """(gen, target s, dim) blocks of Hom(F_u, B) in internal degree t."""
    blocks = []
    for g, (_, tg) in enumerate(stage.gen_bidegrees):
        for sp in b_by_t.get(tg + t, ()):
            blocks.append((g, sp, b.dim(sp, tg + t)))
    return blocks


def _b_power(b: PModule, alpha: tuple[int, ...], s: int, t: int, memo) -> np.ndarray:
    """Matrix of v^alpha on B starting at (s, t)."""
    key = (alpha, s, t)
    got = memo.get(key)
    if got is not None:
        return got
    if not any(alpha):
        out = np.eye(b.dim(s, t), dtype=np.int64)
    else:
        j = next(h for h, a in enumerate(alpha) if a)
        prev = tuple(a - 1 if h == j else a for h, a in enumerate(alpha))
        step = b.act(j, s + sum(prev), t + _dot(prev, b.var_degrees))
        out = (step @ _b_power(b, prev, s, t, memo)) % b.p
    memo[key] = out
    return out


def _p_hom_differential(upper: PStage, lower: PStage, b: PModule, b_by_t, t: int, memo) -> np.ndarray:
    """Precomposition Hom(F_u, B)^t -> Hom(F_{u+1}, B)^t."""
    src = _hom_blocks(lower, b, b_by_t, t)
    dst = _hom_blocks(upper, b, b_by_t, t)
    src_off = {}
    total = 0
    for g, sp, dim in src:
        src_off[(g, sp)] = total
        total += dim
    dst_off = {}
    dtotal = 0
    for g, sp, dim in dst:
        dst_off[(g, sp)] = dtotal
        dtotal += dim
    mat = np.zeros((dtotal, total), dtype=np.int64)
    for g_new, ((s_new, t_new), vector) in enumerate(
        zip(upper.gen_bidegrees, upper.gen_vectors)
    ):
        bd = (s_new, t_new)
        for pos, coeff in enumerate(vector):
            if not coeff:
                continue
            g, alpha = lower.columns[bd][pos]
            tg = lower.gen_bidegrees[g][1]
            for sp in b_by_t.get(tg + t, ()):
                piece = _b_power(b, alpha, sp, tg + t, memo)
                if not piece.size:
                    continue
                r0 = dst_off[(g_new, sp + sum(alpha))]
                c0 = src_off[(g, sp)]
                mat[r0 : r0 + piece.shape[0], c0 : c0 + piece.shape[1]] += int(coeff) * piece
    return mat % b.p


def ext_from_resolution(
    stages: list[PStage],
    a_t_max: int,
    b: PModule,
    u_max: int,
    t_max: int,
    t_min: int | None = None,
) -> BigradedDims:
    """Ext^{u,t} into b from a precomputed truncated resolution.

    A class in degree t sends a generator with internal degree t_g to an
    element of B in internal degree t_g + t.  The certified window is
    [B.t_max - A.t_max, B.t_max - (largest generator degree)]: above it B
    is not stored far enough, below it generators of the resolution
    hiding above A's window could contribute.
    """
    B = b
    if not stages:
        return BigradedDims({}, u_max, t_max, t_min or 0, note="source module is zero")
    top = max(t for st in stages for _, t in st.gen_bidegrees)
    t_hi = min(t_max, B.t_max - top)
    floor = (B.min_t() - top) if B.dims else t_hi
    t_lo = max(B.t_max - a_t_max, floor)
    if t_min is not None:
        if t_min < t_lo:
            raise ValueError(f"t_min {t_min} is below the certified floor {t_lo}")
        t_lo = t_min
    note = None if t_hi == t_max else f"t_max shrunk to certified {t_hi}"
    b_by_t: dict[int, list[int]] = {}
    for s, t in sorted(B.dims):
        b_by_t.setdefault(t, []).append(s)
    memo: dict = {}
    dims: dict[Bidegree, int] = {}
    for t in range(t_lo, t_hi + 1):
        prev_rank = 0
        for u in range(u_max + 1):
            if u >= len(stages):
                break
            dim_here = sum(dim for _, _, dim in _hom_blocks(stages[u], B, b_by_t, t))
            if u + 1 < len(stages):
                delta = _p_hom_differential(stages[u + 1], stages[u], B, b_by_t, t, memo)
                rank_here = rank(delta, B.p)
            else:
                rank_here = 0
            d = dim_here - rank_here - prev_rank
            if d:
                dims[(u, t)] = d
            prev_rank = rank_here
    return BigradedDims(dims, u_max, t_hi, t_lo, note)


def ext_over_P2(
    a: PolyPresentation, b: PolyPresentation, u_max: int, t_max: int
) -> BigradedDims:
    """Ext^{u,t} over the polynomial algebra, from a truncated minimal
    resolution of the realization of a, mapped into the realization of b."""
    if a.p != b.p or a.var_degrees != b.var_degrees:
        raise ValueError("presentations live over different polynomial algebras")
    A = realize(a)
    B = realize(b)
    stages = p_resolution(A, u_max + 1)
    return ext_from_resolution(stages, A.t_max, B, u_max, t_max)


@dataclass
class PdReport:
    """Observed length of the truncated minimal resolution plus depth witness.

    passed is the paper's claim for gr C-bar_k: projective dimension at
    most 1 (length <= 1) and depth >= 1 (empty socle).
    """

    length: int
    socle_empty: bool
    socle_bidegrees: tuple[Bidegree, ...]
    t_max: int
    socle_t_max: int

    @property
    def passed(self) -> bool:
        return self.length <= 1 and self.socle_empty


_PD: dict[PolyPresentation, PdReport] = {}


def projective_dimension(a: PolyPresentation) -> PdReport:
    """Resolution length inside the window, up to 4, and socle emptiness.

    The socle (elements killed by every v_j) is certified only where all
    the v-targets stay inside the window, t <= t_max - max(var degrees);
    an empty socle witnesses depth >= 1.  Reports are memoised per
    presentation; each call gets its own copy.
    """
    report = _PD.get(a)
    if report is None:
        A = realize(a)
        stages = p_resolution(A, 4)
        socle_t_max = A.t_max - max(a.var_degrees)
        socle: list[Bidegree] = []
        for s, t in A.bidegrees():
            if t > socle_t_max or not A.dim(s, t):
                continue
            stacked = np.concatenate(
                [A.act(j, s, t) for j in range(len(a.var_degrees))], axis=0
            )
            if rank(stacked, A.p) < stacked.shape[1]:
                socle.append((s, t))
        report = _PD[a] = PdReport(
            length=max(len(stages) - 1, 0),
            socle_empty=not socle,
            socle_bidegrees=tuple(socle),
            t_max=A.t_max,
            socle_t_max=socle_t_max,
        )
    return replace(report)
