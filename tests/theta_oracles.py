"""The whole-block theta assembly, as a test oracle.

`browngitler.assemble_bp_splitting` checks each theta_k only through its
degree window, against weight slices of H_* BP<n>.  Here the same report
is built the long way: every theta_k is built and checked on its whole
block by `theta_report`, with its target M_n(pk) enumerated afresh by
`weight_block`, and the blocks are then read through the window.  Inside
the window the two must agree on everything the report holds.
"""

from __future__ import annotations

from bgsplit.browngitler import AssemblyReport, _basis_images, bp_homology, theta_report
from bgsplit.monomials import Monomial, PrimeContext


def whole_block_assembly(ctx: PrimeContext, n: int, max_degree: int) -> AssemblyReport:
    """The assembly report of (+)_k Sigma^{qk} B_{n-1}(k) -> H_* BP<n>, from whole theta blocks."""
    H = bp_homology(ctx, n, max_degree).module
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
            images = _basis_images(f.mat(d))
            if images is None:
                coverage_exact = False
                continue
            for row in images.tolist():
                image = f.target.basis[d][row]
                coverage_exact &= image not in seen
                seen.add(image)
    coverage_exact &= seen == {m for d in range(max_degree + 1) for m in H.basis.get(d, ())}
    per_degree = {d: (block_counts[d], H.dim(d)) for d in range(max_degree + 1)}
    first_fail = next((d for d, (got, want) in per_degree.items() if got != want), None)
    return AssemblyReport(n, max_degree, k_max + 1, per_degree, reports, coverage_exact, first_fail)
