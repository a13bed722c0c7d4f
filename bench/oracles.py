"""Oracles computed apart from the program, and the checks built on them.

Nothing here imports bgsplit.  Every expected value comes from a closed
form or from a count made in this file, so a fault in the library cannot
hide by also appearing in its own oracle.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re

CHECK_NAMES = (
    "q-structure",
    "theta-assembly",
    "theta-blocks",
    "length-splitting",
    "si-ri-splittings",
    "w-margolis",
    "even-concentration",
    "bockstein-collapse",
    "v-injectivity",
    "pd-bound",
    "e2-comparison",
    "obstruction-survival",
)

# the paper's bound on gr C_k; the program's own gate accepts length 2
PD_CLAIM = 1


def q_drop(p: int, i: int) -> int:
    """Degree of the Milnor primitive Q_i, which is also the degree of v_i."""
    return 2 * p**i - 1


def bp2_dims(p: int, max_degree: int) -> list[int]:
    """dim H_d BP<2> for d <= max_degree, from the Poincare series

    prod_{a >= 1} 1 / (1 - x^{2(p^a - 1)}) * prod_{b >= 3} (1 + x^{2p^b - 1}).
    """
    coeffs = [1] + [0] * max_degree
    a = 1
    while 2 * (p**a - 1) <= max_degree:
        step = 2 * (p**a - 1)
        for d in range(step, max_degree + 1):
            coeffs[d] += coeffs[d - step]
        a += 1
    b = 3
    while 2 * p**b - 1 <= max_degree:
        step = 2 * p**b - 1
        for d in range(max_degree, step - 1, -1):
            coeffs[d] += coeffs[d - step]
        b += 1
    return coeffs


def length3_threshold(p: int) -> int:
    """Lowest degree of a monomial with three tau factors: tau3 tau4 tau5."""
    return sum(2 * p**b - 1 for b in (3, 4, 5))


def _exponents(degrees: tuple[int, ...], budget: int):
    """Every exponent tuple alpha with sum(alpha_j * degrees_j) <= budget."""
    if not degrees:
        yield ()
        return
    for a in range(budget // degrees[0] + 1):
        for rest in _exponents(degrees[1:], budget - a * degrees[0]):
            yield (a, *rest)


def unit_ext_dims(p: int, s_max: int, t_max: int) -> dict[tuple[int, int], int]:
    """Ext(F_p, F_p) over E(Q_0, Q_1, Q_2): the polynomial ring on v_0, v_1, v_2
    with v_i in bidegree (1, 2p^i - 1), counted monomial by monomial."""
    drops = tuple(q_drop(p, i) for i in (0, 1, 2))
    dims: dict[tuple[int, int], int] = {}
    for alpha in _exponents(drops, t_max):
        s = sum(alpha)
        if s <= s_max:
            t = sum(a * d for a, d in zip(alpha, drops))
            dims[(s, t)] = dims.get((s, t), 0) + 1
    return dims


def tensor_dims(left: dict[int, int], right: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for u, a in left.items():
        for v, b in right.items():
            out[u + v] = out.get(u + v, 0) + a * b
    return out


def koszul_euler(module_dims: dict[int, int], drops: tuple[int, ...], t: int) -> int:
    """sum_s (-1)^s dim C^{s,t} of the Koszul complex M (x) F_p[v].

    C^{s,t} is the sum over v-monomials alpha with |alpha| = s of
    M_{t - alpha.d}; the sum is finite because every d_i is positive.
    """
    if not module_dims:
        return 0
    lo = min(module_dims)
    total = 0
    for alpha in _exponents(drops, t - lo):
        n = module_dims.get(t - sum(a * d for a, d in zip(alpha, drops)), 0)
        total += -n if sum(alpha) % 2 else n
    return total


def free_dims(
    bidegrees, var_degrees: tuple[int, ...], t_max: int
) -> dict[tuple[int, int], int]:
    """Dimensions of the free P-module on generators at the given (s, t)."""
    dims: dict[tuple[int, int], int] = {}
    for s0, t0 in bidegrees:
        for alpha in _exponents(var_degrees, t_max - t0):
            bd = (s0 + sum(alpha), t0 + sum(a * d for a, d in zip(alpha, var_degrees)))
            dims[bd] = dims.get(bd, 0) + 1
    return dims


def presented_dims(gr: dict) -> dict[tuple[int, int], int]:
    """free(generators) - free(relations): the presented module's dimensions
    when the relations are themselves free, that is when pd <= 1."""
    var_degrees = tuple(gr["var_degrees"])
    gens = free_dims(gr["generators"], var_degrees, gr["t_max"])
    rels = free_dims(gr["relations"], var_degrees, gr["t_max"])
    out = {bd: n - rels.get(bd, 0) for bd, n in gens.items()}
    for bd, n in rels.items():
        if bd not in gens:
            out[bd] = -n
    return {bd: n for bd, n in out.items() if n}


def _dims_of(rows) -> dict[tuple[int, int], int]:
    return {(s, t): n for s, t, n in rows if n}


# -- verify-splitting report ------------------------------------------------------


def _detail_int(detail: str, pattern: str) -> int | None:
    got = re.search(pattern, detail)
    return int(got.group(1)) if got else None


def check_verify_report(text: str, exit_code: int, win: dict) -> list[str]:
    """The JSON report of one verify-splitting run, against its window."""
    if exit_code != 0:
        return [f"verify-splitting exited with {exit_code}"]
    try:
        rep = json.loads(text)
    except ValueError:
        return ["the report is not JSON"]
    problems = []
    p, depth = win["p"], win["max_degree"]
    q = 2 * (p - 1)
    kt = min(win["k_max"], depth // q)
    cfg = rep.get("config", {})
    for key in ("p", "max_degree", "k_max", "s_max"):
        if cfg.get(key) != win[key]:
            problems.append(f"config {key} is {cfg.get(key)}, ran with {win[key]}")
    certified = rep.get("certified", {})
    want = {"degree_window": depth, "theta_blocks": kt, "comparison_blocks": min(kt, 9)}
    if certified != want:
        problems.append(f"certified window {certified}, expected {want}")
    checks = rep.get("checks", [])
    names = tuple(c.get("name") for c in checks)
    if names != CHECK_NAMES:
        return problems + [f"checks {names} differ from the twelve named checks"]
    by_name = {c["name"]: c for c in checks}
    failed = [c["name"] for c in checks if c.get("passed") is not True]
    if failed or rep.get("passed") is not True:
        problems.append(f"checks failed: {failed}")

    blocks = _detail_int(by_name["theta-assembly"]["detail"], r"^(\d+) suspended blocks")
    if blocks != depth // q + 1:
        problems.append(f"theta-assembly used {blocks} blocks, expected {depth // q + 1}")
    detail = by_name["length-splitting"]["detail"]
    free = _detail_int(detail, r"free dim (\d+)")
    reduced = _detail_int(detail, r"reduced dim (\d+)")
    total = sum(bp2_dims(p, depth))
    want_free = 0 if depth < length3_threshold(p) else None
    if want_free is not None and free != want_free:
        problems.append(f"free part has dim {free} below the length-3 threshold")
    if free is None or reduced is None or free + reduced != total:
        problems.append(f"free {free} + reduced {reduced} != dim H_*BP<2> = {total} through {depth}")
    for dim in re.findall(r"free dim (\d+)", by_name["si-ri-splittings"]["detail"]):
        if int(dim) % 4:
            problems.append(f"S_i of dim {dim} cannot be free over a rank-two exterior algebra")
    classes = _detail_int(by_name["v-injectivity"]["detail"], r"injective on (\d+) classes")
    if not classes:
        problems.append("v-injectivity checked no classes")
    longest = _detail_int(by_name["pd-bound"]["detail"], r"length <= (\d+)")
    if longest is None or longest > PD_CLAIM:
        problems.append(f"resolution length {longest} exceeds the claimed pd <= {PD_CLAIM}")
    columns = _detail_int(by_name["e2-comparison"]["detail"], r"on (\d+) nonzero columns")
    if columns is None or (min(kt, 9) >= 9 and columns == 0):
        problems.append(f"e2-comparison compared {columns} columns")
    if not by_name["obstruction-survival"]["detail"].startswith(f"theta_{min(kt, 9)} survives"):
        problems.append("the obstruction report does not clear theta")
    return problems


# -- chart sweep ------------------------------------------------------------------


def check_charts(out: dict, win: dict) -> list[str]:
    problems = []
    blocks = out.get("blocks", [])
    if [b.get("k") for b in blocks] != list(range(win["k_max"] + 1)):
        return [f"blocks {[b.get('k') for b in blocks]} do not cover k <= {win['k_max']}"]
    for b in blocks:
        k = b["k"]
        if b.get("error"):
            continue
        for rep in b["v_injectivity"]:
            if not rep["passed"]:
                problems.append(f"v_{rep['i']} has kernel on C_{k} at {rep['kernel_at'][:3]}")
            if rep["classes"] <= 0:
                problems.append(f"v_{rep['i']} on C_{k} checked no classes")
        pd = b["pd"]
        if pd["length"] > PD_CLAIM:
            problems.append(f"gr C_{k} resolves in {pd['length']} stages, claim is <= {PD_CLAIM}")
        if not pd["socle_empty"]:
            problems.append(f"gr C_{k} has socle")
        if (pd["length"] == 0) != (not b["gr"]["relations"]):
            problems.append(f"gr C_{k}: length {pd['length']} with {len(b['gr']['relations'])} relations")
        if not b["gr"]["generators"]:
            problems.append(f"gr C_{k} has no generators")
    return problems


# -- structure checks -------------------------------------------------------------


def check_structure(out: dict, win: dict) -> list[str]:
    problems = []
    p, depth = win["p"], win["max_degree"]
    want = bp2_dims(p, depth)
    checks = out.get("checks", {})
    for name, rep in checks.items():
        if not rep.get("error") and rep.get("passed") is not True:
            problems.append(f"{name} failed")
    qs = checks.get("q-structure", {})
    if not qs.get("error") and qs.get("h_dims") != want:
        problems.append("dim H_d differs from the Poincare series")
    asm = checks.get("theta-assembly", {})
    if not asm.get("error"):
        if asm.get("block_count") != depth // (2 * (p - 1)) + 1:
            problems.append(f"theta-assembly used {asm.get('block_count')} blocks")
        if asm.get("target_counts") != want or asm.get("block_counts") != want:
            problems.append("assembly degree counts differ from the Poincare series")
    ls = checks.get("length-splitting", {})
    if not ls.get("error"):
        if depth < length3_threshold(p) and ls.get("free_dim") != 0:
            problems.append(f"free part of dim {ls.get('free_dim')} below degree {length3_threshold(p)}")
        if ls.get("free_dim", 0) + ls.get("reduced_dim", 0) != sum(want):
            problems.append("free + reduced differs from dim H_*BP<2>")
    for split in checks.get("si-ri-splittings", {}).get("splits", []):
        if split["free_dim"] % 4:
            problems.append(f"S_{split['omit']} of dim {split['free_dim']} is not free over a pair")
    for rep in out.get("margolis_bp2", []):
        if not rep.get("error") and rep.get("passed") is not True:
            problems.append(f"Q_{rep['i']} homology of H deviates from the closed form")
    return problems


# -- spot checks from the probe ---------------------------------------------------


def check_euler(probe: dict, p: int) -> list[str]:
    """Koszul Euler characteristic of the comparison pair, column by column,
    and the pair's odd part, which makes its comparison non-vacuous."""
    e = probe["euler"]
    drops = tuple(q_drop(p, i) for i in (0, 1, 2))
    dual_k = {-int(d): n for d, n in e["dims_k"].items()}
    shifted_m = {int(d) + e["qm"]: n for d, n in e["dims_m"].items()}
    module = tensor_dims(dual_k, shifted_m)
    ext = _dims_of(e["ext"])
    problems = []
    for t in range(e["t_lo"], e["t_hi"] + 1):
        lhs = sum((-1) ** s * n for (s, tt), n in ext.items() if tt == t)
        rhs = koszul_euler(module, drops, t)
        if lhs != rhs:
            problems.append(f"Euler characteristic of ({e['k']}, {e['m']}) at t = {t}: Ext {lhs}, chains {rhs}")
    if not any((t - s) % 2 for s, t in ext):
        problems.append(f"pair ({e['k']}, {e['m']}) has no odd column to compare")
    return problems


def check_unit_ext(probe: dict, p: int) -> list[str]:
    u = probe["unit_ext"]
    if _dims_of(u["ext"]) != unit_ext_dims(p, u["s_max"], u["t_max"]):
        return ["Ext(F_p, F_p) differs from the closed-form count"]
    return []


def check_presented(probe: dict, charts_out: dict) -> list[str]:
    """For each sampled block with pd <= 1: Koszul Ext = free(gens) - free(rels)."""
    problems = []
    blocks = {b["k"]: b for b in charts_out["blocks"]}
    for spot in probe["presented"]:
        b = blocks[spot["k"]]
        if b["pd"]["length"] > 1:
            continue
        if _dims_of(spot["ext"]) != presented_dims(b["gr"]):
            problems.append(f"gr C_{spot['k']} presents other dimensions than its Koszul Ext")
    return problems


def check_routes(probe: dict) -> list[str]:
    problems = []
    for spot in probe["routes"]:
        koszul = {bd: n for bd, n in _dims_of(spot["koszul"]).items() if bd[0] <= spot["s_max"]}
        if _dims_of(spot["resolution"]) != koszul:
            problems.append(f"resolution and Koszul Ext of C_{spot['k']} differ")
    return problems
