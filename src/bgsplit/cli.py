"""Command-line front end: configuration, orchestration, report emission."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .browngitler import (
    assemble_bp_splitting,
    bp_homology,
    length_splitting,
    si_ri_splitting,
    theta_report,
    w_family,
    weight_restricted_C,
)
from .ext.compare import dual_module, obstruction_report, propiso_check
from .ext.koszul import bockstein_e1, even_concentration_check, v_injectivity
from .ext.poly import gr_module, projective_dimension
from .fplin import MAX_PRIME, is_prime
from .margolis import (
    InvertibleClass,
    classify_invertible,
    construct_model,
    freeness_check,
    margolis_homology,
)
from .monomials import (
    AlgebraSpec,
    PrimeContext,
    degree,
    enumerate_by_degree,
    format_monomial,
    length,
    weight,
)
from .qmodules import QModule, restrict_qs, suspend, tensor, verify_map

SCHEMA = "bgsplit-report/1"
OUTPUT_DIR_VAR = "BGSPLIT_OUTPUT_DIR"
HYPOTHESIS_NOTE = (
    "the splitting hypothesis needs p >= 5; smaller primes exercise "
    "the same algebra at denser degrees"
)


class ConfigError(ValueError):
    """A flag combination outside the contract; exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    p: int = 3
    max_degree: int = 60
    k_max: int = 9
    s_max: int = 6
    t_max: int | None = None
    fmt: str = "text"
    output: str | None = None

    def validate(self) -> None:
        if self.p >= MAX_PRIME:
            raise ConfigError(f"p must be below {MAX_PRIME}")
        if not (self.p >= 3 and is_prime(self.p)):
            raise ConfigError("p must be an odd prime")
        if self.max_degree < 0:
            raise ConfigError("max_degree must be nonnegative")
        if self.k_max < 0:
            raise ConfigError("k_max must be nonnegative")
        if self.s_max < 0:
            raise ConfigError("s_max must be nonnegative")
        if self.t_max is not None and self.t_max < 0:
            raise ConfigError("t_max must be nonnegative")
        if self.t_max is not None and self.t_max > self.max_degree:
            raise ConfigError("t_max cannot exceed max_degree")
        if self.fmt not in ("json", "tsv", "text"):
            raise ConfigError("format must be one of json, tsv, text")

    @property
    def t_window(self) -> int:
        return self.max_degree if self.t_max is None else self.t_max


def _write_report(text: str, output: str | None) -> None:
    print(text, end="")
    if output is None:
        return
    base = os.environ.get(OUTPUT_DIR_VAR)
    path = output
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(cfg: RunConfig, payload: dict, tsv_lines: list[str], text_lines: list[str]) -> None:
    if cfg.fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(tsv_lines if cfg.fmt == "tsv" else text_lines) + "\n"
    _write_report(text, cfg.output)


# -- basis -------------------------------------------------------------------


def cmd_basis(cfg: RunConfig, i: int) -> int:
    cfg.validate()
    if i < -1:
        raise ConfigError("algebra index must be at least -1")
    ctx = PrimeContext(cfg.p)
    monos = enumerate_by_degree(ctx, AlgebraSpec(i), cfg.max_degree)
    rows = [
        {
            "monomial": format_monomial(m),
            "degree": degree(ctx, m),
            "weight": weight(ctx, m),
            "length": length(m),
        }
        for m in monos
    ]
    payload = {
        "schema": SCHEMA,
        "version": __version__,
        "command": "basis",
        "config": {"p": cfg.p, "algebra_index": i, "max_degree": cfg.max_degree},
        "rows": rows,
        "row_count": len(rows),
    }
    tsv = ["monomial\tdegree\tweight\tlength"]
    tsv += [f"{r['monomial']}\t{r['degree']}\t{r['weight']}\t{r['length']}" for r in rows]
    text = [f"basis of A//E({i}) at p = {cfg.p} through degree {cfg.max_degree}: {len(rows)} monomials"]
    text += [
        f"  {r['monomial']:<24} degree {r['degree']:>4}  weight {r['weight']:>4}  length {r['length']}"
        for r in rows
    ]
    _emit(cfg, payload, tsv, text)
    return 0


# -- theta -------------------------------------------------------------------


def _assembled_matrix(theta_map) -> tuple[list[list[int]], list[str], list[str]]:
    src, dst = theta_map.source, theta_map.target
    shift = theta_map.shift
    src_order = [(d, j) for d in src.degrees() for j in range(src.dim(d))]
    dst_order = [(d, j) for d in dst.degrees() for j in range(dst.dim(d))]
    dst_index = {pos: r for r, pos in enumerate(dst_order)}
    mat = np.zeros((len(dst_order), len(src_order)), dtype=np.int64)
    for c, (d, j) in enumerate(src_order):
        block = theta_map.mat(d)
        for r in range(block.shape[0]):
            if block[r, j]:
                mat[dst_index[(d + shift, r)], c] = int(block[r, j])
    src_labels = [format_monomial(src.basis[d][j]) for d, j in src_order]
    dst_labels = [format_monomial(dst.basis[d][j]) for d, j in dst_order]
    return mat.tolist(), src_labels, dst_labels


def _image_strings(theta_map) -> list[dict]:
    src, dst = theta_map.source, theta_map.target
    shift = theta_map.shift
    out = []
    for d in src.degrees():
        block = theta_map.mat(d)
        for j in range(src.dim(d)):
            terms = []
            for r in np.flatnonzero(block[:, j]):
                coeff = int(block[r, j])
                label = format_monomial(dst.basis[d + shift][int(r)])
                terms.append(label if coeff == 1 else f"{coeff}*{label}")
            out.append(
                {
                    "source": format_monomial(src.basis[d][j]),
                    "degree": d,
                    "image": " + ".join(terms) if terms else "0",
                    "image_degree": d + shift,
                }
            )
    return out


def cmd_theta(cfg: RunConfig, i: int, k: int) -> int:
    cfg.validate()
    if not 0 <= i <= 2:
        raise ConfigError("theta needs an algebra index in 0..2")
    if k < 0:
        raise ConfigError("k must be nonnegative")
    ctx = PrimeContext(cfg.p)
    theta_map, report = theta_report(ctx, i, k)
    matrix, src_labels, dst_labels = _assembled_matrix(theta_map)
    images = _image_strings(theta_map)
    payload = {
        "schema": SCHEMA,
        "version": __version__,
        "command": "theta",
        "config": {"p": cfg.p, "i": i, "k": k},
        "suspension": ctx.q * k,
        "target_weight": ctx.p * k,
        "source_dim": theta_map.source.total_dim,
        "matrix": matrix,
        "source_basis": src_labels,
        "target_basis": dst_labels,
        "images": images,
        "checks": {
            "bijective": report.bijective,
            "equivariant": report.equivariant,
            "degrees_match": report.degrees_match,
        },
        "failures": list(report.failures),
        "passed": report.passed,
    }
    tsv = ["source\tdegree\timage\timage_degree"]
    tsv += [f"{r['source']}\t{r['degree']}\t{r['image']}\t{r['image_degree']}" for r in images]
    text = [
        f"theta_{k} at p = {cfg.p}: Sigma^{ctx.q * k} B_{i}({k}) -> weight-{ctx.p * k} block, "
        f"{theta_map.source.total_dim} basis elements"
    ]
    text += [f"  {r['source']:<20} |deg {r['degree']:>4}| -> {r['image']}" for r in images]
    text += [f"  [{'PASS' if ok else 'FAIL'}] {name}" for name, ok in payload["checks"].items()]
    text.append("all checks pass" if report.passed else "THETA CHECKS FAILED")
    _emit(cfg, payload, tsv, text)
    return 0 if report.passed else 1


# -- verify-splitting --------------------------------------------------------


def _entry(name: str, passed: bool, certified: str, detail: str) -> dict:
    return {"name": name, "passed": passed, "certified": certified, "detail": detail}


def _check_q_structure(ctx: PrimeContext, cfg: RunConfig) -> dict:
    depth = cfg.max_degree
    h = bp_homology(ctx, 2, depth).module
    # every module in the pipeline window has degree support in two residues
    # mod q, so no single wrong entry there can reach a Q square; the
    # dual-tensor witness mixes parities, so one flipped entry breaks a relation
    ck = weight_restricted_C(ctx, ctx.p * ctx.p)
    witness = tensor(dual_module(ck), suspend(ck, ctx.q * ctx.p * ctx.p))
    certified = f"t <= {depth}"
    try:
        QModule(ctx, h.qs, h.basis, h.actions, truncated_above=h.truncated_above)
        QModule(ctx, witness.qs, witness.basis, witness.actions, truncated_above=None)
    except ValueError as err:
        return _entry("q-structure", False, certified, str(err))
    return _entry(
        "q-structure",
        True,
        certified,
        f"Q squares and anticommutators revalidated on H through degree {depth} "
        f"and on a {witness.total_dim}-dimensional dual-tensor witness",
    )


def _check_theta_assembly(ctx: PrimeContext, cfg: RunConfig) -> dict:
    rep = assemble_bp_splitting(ctx, 2, cfg.max_degree)
    if rep.passed:
        detail = f"{rep.block_count} suspended blocks cover H exactly"
    elif rep.first_failing_degree is not None:
        detail = f"coverage first fails at degree {rep.first_failing_degree}"
    else:
        detail = "a block-level theta check failed"
    return _entry("theta-assembly", rep.passed, f"t <= {cfg.max_degree}", detail)


def _check_theta_blocks(ctx: PrimeContext, cfg: RunConfig, kt: int) -> dict:
    reports = [theta_report(ctx, 1, k)[1] for k in range(kt + 1)]
    bad = [r.k for r in reports if not r.passed]
    detail = (
        f"theta_k bijective, weight-exact and Q-equivariant for k <= {kt}"
        if not bad
        else f"theta fails for k in {bad}"
    )
    return _entry("theta-blocks", not bad, f"k <= {kt}", detail)


def _split_pair_entry(name: str, pair, depth: int, p: int) -> dict:
    maps = (pair.inclusion, pair.projection, pair.retraction)
    hi = max(0, depth - (2 * p * p - 1))
    free_ok = freeness_check(pair.free_part, degrees=(0, hi))
    passed = all(verify_map(f).passed for f in maps) and free_ok
    detail = (
        f"free dim {pair.free_part.total_dim}, reduced dim "
        f"{pair.reduced_part.total_dim}, retraction solved and equivariant"
    )
    if not passed:
        detail = "inclusion/projection/retraction equivariance or freeness failed"
    return _entry(name, passed, f"t <= {depth}", detail)


def _check_length_splitting(ctx: PrimeContext, cfg: RunConfig) -> dict:
    pair = length_splitting(ctx, cfg.max_degree)
    return _split_pair_entry("length-splitting", pair, cfg.max_degree, ctx.p)


def _check_si_ri(ctx: PrimeContext, cfg: RunConfig) -> dict:
    perms = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    splits = {f"s{perm[0]}": si_ri_splitting(ctx, perm, cfg.max_degree) for perm in perms}
    bad = [n for n, pair in splits.items() if not _split_pair_entry(n, pair, cfg.max_degree, ctx.p)["passed"]]
    dims = ", ".join(f"free dim {pair.free_part.total_dim}" for pair in splits.values())
    detail = f"S_i free and split off for each omitted Q ({dims})" if not bad else f"failed for {bad}"
    return _entry("si-ri-splittings", not bad, f"t <= {cfg.max_degree}", detail)


def _w_block_entry(ctx: PrimeContext, fam: str, n: int) -> tuple[bool, str]:
    module = w_family(ctx, fam, n)
    cls = classify_invertible(module)
    if not isinstance(cls, InvertibleClass):
        return False, f"{fam}({n}) not invertible: {cls.reason}"
    # invertible classes satisfy a = b mod 2 with the lower Margolis
    # degree even; W1(1) -> (31, -1) shows a alone may be odd
    low = min(cls.margolis_degrees)
    if (cls.a - cls.b) % 2 or low % 2 or (n >= 1 and cls.b >= 0):
        return False, f"{fam}({n}) classified ({cls.a}, {cls.b}) outside the expected cone"
    model = construct_model(ctx, cls.pair, cls.a, cls.b)
    for j, want in zip(cls.pair, cls.margolis_degrees):
        hom = margolis_homology(model, j)
        if hom.dims() != {want: 1}:
            return False, f"{fam}({n}) model misses the Q_{j} homology degree {want}"
    return True, f"{fam}({n}) -> ({cls.a}, {cls.b})"


def _check_w_margolis(ctx: PrimeContext, cfg: RunConfig) -> dict:
    items = [(fam, n) for fam in ("W1", "We", "Wo") for n in range(6)]
    results = [_w_block_entry(ctx, *it) for it in items]
    bad = [msg for ok, msg in results if not ok]
    spot = next(msg for (fam, n), (ok, msg) in zip(items, results) if (fam, n) == ("W1", 1))
    detail = (
        f"one-dimensional Margolis homologies classified and reproduced on "
        f"models for n <= 5; {spot}"
        if not bad
        else "; ".join(bad)
    )
    return _entry("w-margolis", not bad, "n <= 5", detail)


def _check_even_concentration(ctx: PrimeContext, cfg: RunConfig, cbar) -> dict:
    t_hi = cfg.t_window
    reports = [
        even_concentration_check(restrict_qs(cbar, pair), 0, cfg.s_max, t_hi)
        for pair in ((0, 1), (0, 2), (1, 2))
    ]
    bad = [v for r in reports if not r.passed for v in r.violations]
    detail = (
        f"no odd t - s classes over any pair, s <= {cfg.s_max}"
        if not bad
        else f"odd classes at {sorted(bad)[:4]}"
    )
    return _entry("even-concentration", not bad, f"s <= {cfg.s_max}, t <= {t_hi}", detail)


def _check_bockstein(ctx: PrimeContext, cfg: RunConfig, cbar) -> dict:
    t_hi = cfg.t_window
    reports = [bockstein_e1(cbar, i, cfg.s_max, t_hi) for i in (0, 1, 2)]
    bad = [r.i for r in reports if not r.collapse]
    detail = (
        "dim Ext equals the E_1 count at every (s, t) for each i, so every page repeats E_1"
        if not bad
        else f"Ext differs from the E_1 count for i in {bad}"
    )
    return _entry("bockstein-collapse", not bad, f"s <= {cfg.s_max}, t <= {t_hi}", detail)


def _check_v_injectivity(ctx: PrimeContext, cfg: RunConfig, kt: int) -> dict:
    t_hi = cfg.t_window
    reports = [
        v_injectivity(weight_restricted_C(ctx, k), i, cfg.s_max, t_hi)
        for k in range(kt + 1)
        for i in (0, 1, 2)
    ]
    bad = [(r.i, r.kernel_at) for r in reports if not r.passed]
    checked = sum(r.checked_classes for r in reports)
    detail = (
        f"v_0, v_1, v_2 injective on {checked} classes across k <= {kt}"
        if not bad
        else f"kernel found: {bad[:3]}"
    )
    return _entry("v-injectivity", not bad, f"k <= {kt}, s <= {cfg.s_max}, t <= {t_hi}", detail)


def _check_pd_bound(ctx: PrimeContext, cfg: RunConfig, kt: int) -> dict:
    results = []
    for k in range(kt + 1):
        ck = weight_restricted_C(ctx, k)
        results.append((k, projective_dimension(gr_module(ck, ck.max_degree() + 8 * ctx.p))))
    bad = [k for k, rep in results if not rep.passed]
    longest = max((rep.length for _, rep in results), default=0)
    detail = (
        f"resolution length <= {longest} with empty socle for every block"
        if not bad
        else f"length or socle bound fails for k in {bad}"
    )
    return _entry("pd-bound", not bad, f"k <= {kt}", detail)


def _check_e2_comparison(ctx: PrimeContext, cfg: RunConfig, kp: int) -> dict:
    mismatched = []
    columns = 0
    # widest pair first, so later pairs find their blocks in the memo
    for k in range(kp, -1, -1):
        for m in range(kp, -1, -1):
            rep = propiso_check(ctx, k, m)
            columns += len(rep.column_rows())
            if not rep.passed:
                mismatched.append((k, m, rep.mismatches[:3]))
    mismatched.sort()
    detail = (
        f"odd exterior columns equal the u = 1 polynomial line on "
        f"{columns} nonzero columns"
        if not mismatched
        else f"mismatched pairs: {mismatched[:3]}"
    )
    return _entry("e2-comparison", not mismatched, f"k, m <= {kp}", detail)


def _check_obstruction(ctx: PrimeContext, cfg: RunConfig, kp: int) -> dict:
    rep = obstruction_report(ctx, kp)
    detail = (
        f"{rep.message}; {len(rep.blocks)} blocks, free part checked "
        f"through t = {rep.free_checked_through}"
    )
    return _entry("obstruction-survival", rep.all_matched, f"t <= {rep.t_hi}", detail)


def cmd_verify_splitting(cfg: RunConfig) -> int:
    cfg.validate()
    ctx = PrimeContext(cfg.p)
    depth = cfg.max_degree
    kt = min(cfg.k_max, depth // ctx.q)
    kp = min(kt, 9)

    cbar = length_splitting(ctx, depth).reduced_part
    checks = [
        _check_q_structure(ctx, cfg),
        _check_theta_assembly(ctx, cfg),
        _check_theta_blocks(ctx, cfg, kt),
        _check_length_splitting(ctx, cfg),
        _check_si_ri(ctx, cfg),
        _check_w_margolis(ctx, cfg),
        _check_even_concentration(ctx, cfg, cbar),
        _check_bockstein(ctx, cfg, cbar),
        _check_v_injectivity(ctx, cfg, kt),
    ]
    # the P(2) checks share poly's block memo, which rebuilds a block when a
    # wider window is asked for, so they run widest windows first: the
    # default run builds 8 blocks for 7 contents, against 28 in report order
    obstruction = _check_obstruction(ctx, cfg, kp)
    e2 = _check_e2_comparison(ctx, cfg, kp)
    checks += [_check_pd_bound(ctx, cfg, kt), e2, obstruction]
    passed = all(c["passed"] for c in checks)
    failed = sum(not c["passed"] for c in checks)
    conclusion = (
        "verified at the E_2 page: BP<2> smash BP<2> splits as the wedge of "
        "Sigma^(qk) BP<2> smash l_k summands in the certified range"
        if passed
        else f"{failed} of {len(checks)} checks failed; the splitting is not certified by this run"
    )
    payload = {
        "schema": SCHEMA,
        "version": __version__,
        "command": "verify-splitting",
        "config": {
            "p": cfg.p,
            "max_degree": depth,
            "k_max": cfg.k_max,
            "s_max": cfg.s_max,
            "t_max": cfg.t_window,
        },
        "certified": {
            "degree_window": depth,
            "theta_blocks": kt,
            "comparison_blocks": kp,
        },
        "checks": checks,
        "passed": passed,
        "conclusion": conclusion,
    }
    if cfg.p < 5:
        payload["note"] = HYPOTHESIS_NOTE
    tsv = ["check\tpassed\tcertified\tdetail"]
    tsv += [
        f"{c['name']}\t{str(c['passed']).lower()}\t{c['certified']}\t{c['detail']}"
        for c in checks
    ]
    tsv.append(f"conclusion\t{str(passed).lower()}\t\t{conclusion}")
    text = [
        f"splitting verification at p = {cfg.p}, degree window {depth}, "
        f"k <= {cfg.k_max} (version {__version__})"
    ]
    if cfg.p < 5:
        text.append(f"note: {HYPOTHESIS_NOTE}")
    text += [
        f"  [{'PASS' if c['passed'] else 'FAIL'}] {c['name']:<20} {c['certified']:<26} {c['detail']}"
        for c in checks
    ]
    text.append(conclusion)
    _emit(cfg, payload, tsv, text)
    return 0 if passed else 1


# -- entry point ---------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--p",
        type=int,
        default=3,
        help="odd prime; defaults to 3 for dense desk checks, while the "
        "splitting hypothesis itself needs p >= 5",
    )
    sub.add_argument("--format", choices=("json", "tsv", "text"), default="text")
    sub.add_argument("--output", default=None, help=f"report file; relative paths land under ${OUTPUT_DIR_VAR} when set")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgsplit",
        description="machine verification of the BP<2> smash-square splitting at the E_2 page",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    basis = subs.add_parser("basis", help="list a quotient-algebra monomial basis")
    _add_common(basis)
    basis.add_argument("--i", type=int, default=2, help="algebra index of A//E(i)")
    basis.add_argument("--max-degree", type=int, default=60)

    theta = subs.add_parser("theta", help="print one theta block and its checks")
    _add_common(theta)
    theta.add_argument("--i", type=int, default=1, help="source algebra index")
    theta.add_argument("--k", type=int, required=True, help="weight of the block")

    verify = subs.add_parser("verify-splitting", help="run the full verification pipeline")
    _add_common(verify)
    verify.add_argument("--max-degree", type=int, default=60)
    verify.add_argument("--k-max", type=int, default=9)
    verify.add_argument("--s-max", type=int, default=6)
    verify.add_argument("--t-max", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "basis":
            cfg = RunConfig(p=args.p, max_degree=args.max_degree, fmt=args.format, output=args.output)
            return cmd_basis(cfg, args.i)
        if args.command == "theta":
            cfg = RunConfig(p=args.p, fmt=args.format, output=args.output)
            return cmd_theta(cfg, args.i, args.k)
        cfg = RunConfig(
            p=args.p,
            max_degree=args.max_degree,
            k_max=args.k_max,
            s_max=args.s_max,
            t_max=args.t_max,
            fmt=args.format,
            output=args.output,
        )
        return cmd_verify_splitting(cfg)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
