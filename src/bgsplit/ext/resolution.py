"""Minimal free resolutions over exterior algebras and Ext(M, N).

A stage holds a free module on the minimal generators of the previous
kernel.  Since Q lowers degree, generators sit at the top of their
orbits and each stage's top generator degree drops by at least one, so a
degree floor bounds the number of stages that can touch a fixed internal
degree window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fplin import coset_representatives, kernel_array, rank
from ..qmodules import QModule, QModuleMap, direct_sum, free_module, minimal_generators, q_word
from .koszul import BigradedDims


@dataclass
class ResolutionStage:
    """Free module F_s with its generator data and the map to the target below."""

    free: QModule
    gen_degrees: list[int]
    gen_vectors: list[tuple[int, np.ndarray]]
    map_down: QModuleMap


def _build_stage(
    target: QModule, gens: dict[int, np.ndarray], label: tuple
) -> ResolutionStage:
    """Free module on the given generators with its equivariant cover of target."""
    ctx, qs = target.ctx, target.qs
    degrees: list[int] = []
    vectors: list[tuple[int, np.ndarray]] = []
    for d in sorted(gens, reverse=True):
        for row in gens[d]:
            degrees.append(d)
            vectors.append((d, row))
    blocks = [
        free_module(ctx, qs, d, (*label, j)) for j, d in enumerate(degrees)
    ]
    free = direct_sum(blocks) if blocks else QModule(ctx, qs, {}, {})
    mats: dict[int, np.ndarray] = {}
    for d in free.degrees():
        cols = [q_word(target, subset, *vectors[block]) for block, (_, subset) in free.basis[d]]
        mats[d] = np.stack(cols, axis=1) if cols else np.zeros((target.dim(d), 0), dtype=np.int64)
    return ResolutionStage(free, degrees, vectors, QModuleMap(free, target, mats))


def _kernel_generators(stage: ResolutionStage) -> dict[int, np.ndarray]:
    """Minimal generators of ker(map_down), canonical representatives.

    The kernel is closed under every Q_i, so at each degree the part
    generated from above is exactly the one-step span sum_i Q_i K_{d+d_i};
    minimal generators are coset representatives of the kernel modulo it,
    taken in descending degree order.
    """
    free = stage.free
    p = free.ctx.p
    kernels = {
        d: kernel_array(stage.map_down.mat(d), p) for d in free.degrees()
    }
    gens: dict[int, np.ndarray] = {}
    for d in sorted(kernels, reverse=True):
        k = kernels[d]
        if k.shape[0] == 0:
            continue
        spans = []
        for i in free.qs:
            upper = kernels.get(d + free.drop(i))
            if upper is not None and upper.shape[0]:
                spans.append((free.act(i, d + free.drop(i)) @ upper.T).T % p)
        span = np.concatenate(spans, axis=0) if spans else np.zeros((0, free.dim(d)), dtype=np.int64)
        reps = coset_representatives(k, span, p)
        if reps.shape[0]:
            gens[d] = reps
    return gens


def _assert_radical(stage: ResolutionStage, gens: dict[int, np.ndarray]) -> None:
    """Generators of the kernel may not touch a (gen, empty-set) coordinate."""
    free = stage.free
    for d, rows in gens.items():
        for col, (_, (_, subset)) in enumerate(free.basis[d]):
            if not subset and rows[:, col].any():
                raise AssertionError("kernel escapes the radical; the cover was not minimal")


def minimal_resolution(module: QModule, s_max: int) -> list[ResolutionStage]:
    """Stages F_0, ..., F_{s_max} of the minimal free resolution of module.

    Stops early when the kernel vanishes; the module must be complete.
    """
    if module.truncated_above is not None:
        raise ValueError("resolutions need the complete finite module")
    stages: list[ResolutionStage] = []
    target = module
    gens = minimal_generators(module)
    for s in range(s_max + 1):
        if not gens:
            break
        stage = _build_stage(target, gens, ("g", s))
        stages.append(stage)
        gens = _kernel_generators(stage)
        _assert_radical(stage, gens)
        target = stage.free
    return stages


# -- Ext(M, N) -----------------------------------------------------------------


def _hom_blocks(stage: ResolutionStage, n: QModule, t: int) -> list[tuple[int, int]]:
    """(gen index, N-dimension at t + gen degree) per generator."""
    return [(j, n.dim(t + d)) for j, d in enumerate(stage.gen_degrees)]


def _hom_differential(
    upper: ResolutionStage, lower: ResolutionStage, n: QModule, t: int
) -> np.ndarray:
    """Matrix of precomposition Hom(F_s, N)^t -> Hom(F_{s+1}, N)^t.

    upper is the stage for F_{s+1} (whose generator vectors live in F_s),
    lower the stage for F_s.
    """
    p = n.ctx.p
    src = _hom_blocks(lower, n, t)
    dst = _hom_blocks(upper, n, t)
    src_off = np.cumsum([0] + [dim for _, dim in src])
    dst_off = np.cumsum([0] + [dim for _, dim in dst])
    mat = np.zeros((int(dst_off[-1]), int(src_off[-1])), dtype=np.int64)
    free = lower.free
    for g_new, (gen_degree, vec) in enumerate(upper.gen_vectors):
        if dst[g_new][1] == 0:
            continue
        for col, coeff in enumerate(vec):
            if coeff == 0:
                continue
            block, (_, subset) = free.basis[gen_degree][col]
            if src[block][1] == 0:
                continue
            source_degree = t + lower.gen_degrees[block]
            piece = q_word(n, subset, source_degree, np.eye(n.dim(source_degree), dtype=np.int64))
            r0, c0 = int(dst_off[g_new]), int(src_off[block])
            mat[r0 : r0 + piece.shape[0], c0 : c0 + piece.shape[1]] += int(coeff) * piece
    return mat % p


def ext_general(
    m: QModule,
    n: QModule,
    s_max: int,
    t_max: int,
    t_min: int | None = None,
) -> BigradedDims:
    """Ext^{s,t}(M, N) over the common exterior algebra, t = deg n - deg g.

    M must be complete; if N is truncated the certified window shrinks to
    t <= truncation - (largest generator degree), recorded in the note.
    """
    if m.qs != n.qs:
        raise ValueError("both modules must be over the same operators")
    stages = minimal_resolution(m, s_max=s_max + 1)
    p = m.ctx.p
    note = None
    if not stages:
        lo = 0 if t_min is None else t_min
        return BigradedDims({}, s_max, t_max, lo, note="source module is zero")
    all_gen_degrees = [d for st in stages for d in st.gen_degrees]
    top_gen = max(all_gen_degrees)
    low_gen = min(all_gen_degrees)
    if n.truncated_above is not None:
        certified = n.truncated_above - top_gen
        if t_max > certified:
            note = f"t_max shrunk to certified {certified}"
            t_max = certified
    lo = (n.min_degree() - top_gen) if t_min is None else t_min
    hi_needed = n.max_degree() - low_gen if n.basis else lo - 1
    dims: dict[tuple[int, int], int] = {}
    for t in range(lo, min(t_max, hi_needed) + 1):
        prev_rank = 0
        for s in range(s_max + 1):
            if s >= len(stages):
                break
            dim_here = sum(dim for _, dim in _hom_blocks(stages[s], n, t))
            if s + 1 < len(stages):
                delta = _hom_differential(stages[s + 1], stages[s], n, t)
                rank_here = rank(delta, p)
            else:
                rank_here = 0
            d = dim_here - rank_here - prev_rank
            if d:
                dims[(s, t)] = d
            prev_rank = rank_here
    return BigradedDims(dims, s_max, t_max, lo, note=note)
