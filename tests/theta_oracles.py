"""The whole-block theta assembly, as a test oracle.

`browngitler.assemble_bp_splitting` checks the sum of the theta_k only
through its degree window, as one map into H_* BP<n>.  Here the same
statement is checked the long way: every theta_k is built and checked on
its whole block by `theta_report`, with its target M_n(pk) enumerated
afresh by `weight_block`, and the blocks are then read through the window
against H, one basis monomial at a time.  Inside the window the two must
agree on everything the assembly reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bgsplit.browngitler import bp_homology, theta_report
from bgsplit.monomials import Monomial, PrimeContext


@dataclass
class WholeBlockAssembly:
    block_count: int
    per_degree: dict[int, tuple[int, int]]
    blocks_pass: bool
    coverage_exact: bool
    first_failing_degree: int | None

    @property
    def passed(self) -> bool:
        return self.first_failing_degree is None and self.coverage_exact and self.blocks_pass


def _basis_images(mat: np.ndarray) -> list[int] | None:
    """The row each column hits, if the block is a bijection on basis monomials, else None."""
    rows, cols = np.nonzero(mat)
    n = mat.shape[0]
    if not (mat.shape[1] == n == len(rows) == len(set(rows.tolist())) == len(set(cols.tolist()))):
        return None
    return rows[np.argsort(cols)].tolist()


def whole_block_assembly(ctx: PrimeContext, n: int, max_degree: int) -> WholeBlockAssembly:
    """(+)_k Sigma^{qk} B_{n-1}(k) -> H_* BP<n> through max_degree, from whole theta blocks."""
    H = bp_homology(ctx, n, max_degree).module
    block_counts = {d: 0 for d in range(max_degree + 1)}
    blocks_pass = coverage_exact = True
    seen: set[Monomial] = set()
    k_max = max_degree // ctx.q
    for k in range(k_max + 1):
        f, rep = theta_report(ctx, n - 1, k)
        blocks_pass &= rep.passed
        for d in f.source.degrees():
            if d > max_degree:
                continue
            block_counts[d] += f.source.dim(d)
            images = _basis_images(f.mat(d))
            if images is None:
                coverage_exact = False
                continue
            for row in images:
                image = f.target.basis[d][row]
                coverage_exact &= image not in seen
                seen.add(image)
    coverage_exact &= seen == {m for d in range(max_degree + 1) for m in H.basis.get(d, ())}
    per_degree = {d: (block_counts[d], H.dim(d)) for d in range(max_degree + 1)}
    first_fail = next((d for d, (got, want) in per_degree.items() if got != want), None)
    return WholeBlockAssembly(k_max + 1, per_degree, blocks_pass, coverage_exact, first_fail)
