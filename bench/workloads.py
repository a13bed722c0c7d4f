"""The benchmark's workloads: fixed windows and the seeded spot-check samples.

Inputs are fixed windows of the mathematics; nothing in a timed run is
random.  The seed only chooses which blocks the untimed spot checks
sample, so every seed times the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    kind: str  # "cli" runs the command line; "charts" and "structure" run child.py
    window: dict
    smoke: dict

    def win(self, smoke: bool) -> dict:
        return {**self.window, **self.smoke} if smoke else dict(self.window)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-p3-k0",
            "cli",
            {"p": 3, "max_degree": 60, "k_max": 0, "s_max": 6},
            {"max_degree": 12, "k_max": 0, "s_max": 2},
        ),
        Workload(
            "charts-p3-k9",
            "charts",
            {"p": 3, "k_max": 9, "s_max": 6, "t_max": 60},
            {"k_max": 1, "s_max": 3, "t_max": 12},
        ),
        Workload(
            "structure-p3-t220",
            "structure",
            {"p": 3, "max_degree": 220, "s_max": 6, "theta_k_max": 27, "w_n_max": 5},
            {"max_degree": 40, "s_max": 3, "theta_k_max": 3, "w_n_max": 1},
        ),
    )
}

# one weight block of the k = 9 row: the only p = 3 row whose comparison
# columns are nonzero, so its Euler characteristic has odd classes to check
EULER_K = 9
ROUTE_WINDOW = (3, 30)  # (s_max, t_max) of the resolution-versus-Koszul check


def euler_pair(seed: int) -> tuple[int, int]:
    return EULER_K, random.Random(seed).choice((0, 1, 2))


def sampled_blocks(seed: int, p: int, k_max: int, count: int = 2) -> list[int]:
    """Weight blocks from `count` distinct classes floor(k / p), chosen by seed."""
    rng = random.Random(seed)
    classes = sorted({k // p for k in range(k_max + 1)})
    chosen = rng.sample(classes, min(count, len(classes)))
    return sorted(rng.choice([k for k in range(k_max + 1) if k // p == c]) for c in chosen)


def verify_argv(win: dict) -> list[str]:
    return [
        "verify-splitting",
        "--p", str(win["p"]),
        "--max-degree", str(win["max_degree"]),
        "--k-max", str(win["k_max"]),
        "--s-max", str(win["s_max"]),
        "--format", "json",
    ]
