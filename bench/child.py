"""One fresh-interpreter run of a workload, or of the untimed spot-check probe.

    python bench/child.py run WORKLOAD [--smoke] [--trace]
    python bench/child.py probe WORKLOAD --seed N [--smoke] [--spots K:T,...]

`run` prints the workload's outputs as one JSON line (for the CLI
workload, the CLI's exit code and report).  With --trace the library calls are
wrapped and a final line `BENCH-TRACE {...}` carries the span totals.
`probe` prints the program outputs that the oracles in oracles.py are
compared against.  The package must be importable (PYTHONPATH=src).
Only the CLI and public library functions are called on the timed path.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json

import numpy as np

import workloads
from bgsplit.browngitler import (
    assemble_bp_splitting,
    bp_homology,
    length_splitting,
    si_ri_splitting,
    theta_report,
    w_family,
    weight_restricted_C,
)
from bgsplit.ext.compare import dual_module
from bgsplit.ext.koszul import bockstein_e1, even_concentration_check, ext_koszul, v_injectivity
from bgsplit.ext.poly import gr_module, projective_dimension
from bgsplit.ext.resolution import ext_general
from bgsplit.margolis import (
    InvertibleClass,
    classify_invertible,
    construct_model,
    margolis_bp2,
    margolis_homology,
)
from bgsplit.monomials import PrimeContext
from bgsplit.qmodules import QModule, restrict_qs, suspend, tensor, trivial_module
from oracles import CHECK_NAMES


def _op(record: dict, fn) -> None:
    """Run one operation, recording an exception as its failure."""
    try:
        record.update(fn())
    except Exception as err:  # a failed operation is counted, not fatal
        record["error"] = f"{type(err).__name__}: {err}"


# -- charts ----------------------------------------------------------------------


def run_charts(win: dict) -> dict:
    ctx = PrimeContext(win["p"])
    blocks = []
    for k in range(win["k_max"] + 1):
        block: dict = {"k": k}
        try:
            ck = weight_restricted_C(ctx, k)
            block["ops"] = 1
            block["v_injectivity"] = [
                {
                    "i": rep.i,
                    "passed": rep.passed,
                    "classes": rep.checked_classes,
                    "kernel_at": rep.kernel_at,
                }
                for rep in (v_injectivity(ck, i, win["s_max"], win["t_max"]) for i in (0, 1, 2))
            ]
            block["ops"] = 2
            pres = gr_module(ck, ck.max_degree() + 8 * ctx.p)
            block["gr"] = {
                "var_degrees": list(pres.var_degrees),
                "t_max": pres.t_max,
                "generators": [list(g) for g in pres.generators],
                "relations": [list(bd) for bd, _ in pres.relations],
            }
            block["ops"] = 3
            pd = projective_dimension(pres)
            block["pd"] = {"length": pd.length, "socle_empty": pd.socle_empty}
            block["ops"] = 4
        except Exception as err:  # the rest of this block's operations fail
            block["error"] = f"{type(err).__name__}: {err}"
        blocks.append(block)
    return {"blocks": blocks}


# -- structure -------------------------------------------------------------------


def _equivariant(f) -> bool:
    p = f.source.ctx.p
    for d in f.source.degrees():
        for i in f.source.qs:
            lhs = (f.target.act(i, d + f.shift) @ f.mat(d)) % p
            rhs = (f.mat(d - f.source.drop(i)) @ f.source.act(i, d)) % p
            if not np.array_equal(lhs, rhs):
                return False
    return True


def _free(module, hi: int) -> bool:
    if not module.total_dim:
        return True
    return all(not margolis_homology(module, i, (0, hi)).total_dim for i in module.qs)


def _split_ok(pair, depth: int, p: int) -> bool:
    hi = max(0, depth - (2 * p * p - 1))
    return _equivariant(pair.inclusion) and _equivariant(pair.projection) and _free(pair.free_part, hi)


def run_structure(win: dict) -> dict:
    ctx = PrimeContext(win["p"])
    depth, s_max = win["max_degree"], win["s_max"]
    checks: dict[str, dict] = {name: {} for name in CHECK_NAMES[:8]}

    def q_structure():
        h = bp_homology(ctx, 2, depth).module
        QModule(ctx, h.qs, h.basis, h.actions, truncated_above=h.truncated_above)
        ck = weight_restricted_C(ctx, ctx.p * ctx.p)
        w = tensor(dual_module(ck), suspend(ck, ctx.q * ctx.p * ctx.p))
        QModule(ctx, w.qs, w.basis, w.actions, truncated_above=None)
        return {"passed": True, "h_dims": [h.dim(d) for d in range(depth + 1)]}

    def theta_assembly():
        rep = assemble_bp_splitting(ctx, 2, depth)
        return {
            "passed": rep.passed,
            "block_count": rep.block_count,
            "block_counts": [rep.per_degree[d][0] for d in range(depth + 1)],
            "target_counts": [rep.per_degree[d][1] for d in range(depth + 1)],
        }

    def theta_blocks():
        bad = [k for k in range(win["theta_k_max"] + 1) if not theta_report(ctx, 1, k)[1].passed]
        return {"passed": not bad, "failing": bad}

    cbar = []

    def length_split():
        pair = length_splitting(ctx, depth)
        cbar.append(pair.reduced_part)
        return {
            "passed": _split_ok(pair, depth, ctx.p),
            "free_dim": pair.free_part.total_dim,
            "reduced_dim": pair.reduced_part.total_dim,
        }

    def si_ri():
        splits = []
        for perm in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            pair = si_ri_splitting(ctx, perm, depth)
            splits.append(
                {"omit": perm[0], "passed": _split_ok(pair, depth, ctx.p), "free_dim": pair.free_part.total_dim}
            )
        return {"passed": all(s["passed"] for s in splits), "splits": splits}

    def w_margolis():
        bad = []
        for fam in ("W1", "We", "Wo"):
            for n in range(win["w_n_max"] + 1):
                cls = classify_invertible(w_family(ctx, fam, n))
                if not isinstance(cls, InvertibleClass):
                    bad.append(f"{fam}({n})")
                    continue
                model = construct_model(ctx, cls.pair, cls.a, cls.b)
                for j, want in zip(cls.pair, cls.margolis_degrees):
                    if margolis_homology(model, j).dims() != {want: 1}:
                        bad.append(f"{fam}({n})")
        return {"passed": not bad, "failing": bad}

    def even_concentration():
        reps = [
            even_concentration_check(restrict_qs(cbar[0], pair), 0, s_max, depth)
            for pair in ((0, 1), (0, 2), (1, 2))
        ]
        return {"passed": all(r.passed for r in reps)}

    def bockstein():
        return {"passed": all(bockstein_e1(cbar[0], i, s_max, depth).collapse for i in (0, 1, 2))}

    steps = (q_structure, theta_assembly, theta_blocks, length_split, si_ri, w_margolis,
             even_concentration, bockstein)
    for name, step in zip(checks, steps):
        _op(checks[name], step)
    margolis = []
    for i in (0, 1, 2):
        record = {"i": i}
        _op(record, lambda: {"passed": margolis_bp2(ctx, i, depth).passed})
        margolis.append(record)
    return {"checks": checks, "margolis_bp2": margolis}


def run_cli(win: dict) -> dict:
    """The CLI in this interpreter, so a tracer can see inside it."""
    from bgsplit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(workloads.verify_argv(win))
    return {"exit_code": code, "report": buf.getvalue()}


# -- probe -----------------------------------------------------------------------


def _rows(dims) -> list[list[int]]:
    return [[s, t, n] for (s, t), n in sorted(dims.items())]


def probe_verify(win: dict, seed: int) -> dict:
    ctx = PrimeContext(win["p"])
    k, m = workloads.euler_pair(seed)
    ck, cm = weight_restricted_C(ctx, k), weight_restricted_C(ctx, m)
    qm = ctx.q * m
    t_hi = qm + cm.max_degree() + 24
    t_lo = qm - ck.max_degree()
    module = tensor(dual_module(ck), suspend(cm, qm))
    # every v_i has positive degree, so s beyond t_hi - min degree is empty
    ext = ext_koszul(module, t_hi - module.min_degree(), t_hi, t_min=t_lo)
    unit = ext_koszul(trivial_module(ctx, (0, 1, 2)), 6, 120)
    return {
        "euler": {
            "k": k,
            "m": m,
            "qm": qm,
            "t_lo": t_lo,
            "t_hi": t_hi,
            "dims_k": {d: ck.dim(d) for d in ck.degrees()},
            "dims_m": {d: cm.dim(d) for d in cm.degrees()},
            "ext": _rows(ext.dims),
        },
        "unit_ext": {"s_max": 6, "t_max": 120, "ext": _rows(unit.dims)},
    }


def probe_charts(win: dict, spots: list[tuple[int, int]]) -> dict:
    ctx = PrimeContext(win["p"])
    unit = trivial_module(ctx, (0, 1, 2))
    s_r, t_r = workloads.ROUTE_WINDOW
    presented, routes = [], []
    for k, t_max in spots:
        ck = weight_restricted_C(ctx, k)
        # s <= t_max - min degree exhausts every nonzero chain group
        ext = ext_koszul(ck, t_max - ck.min_degree(), t_max)
        presented.append({"k": k, "ext": _rows(ext.dims)})
        routes.append(
            {
                "k": k,
                "s_max": s_r,
                "resolution": _rows(ext_general(unit, ck, s_r, t_r).dims),
                "koszul": _rows(ext_koszul(ck, s_r, t_r).dims),
            }
        )
    return {"presented": presented, "routes": routes}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("run", "probe"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spots", default="")
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    win = wl.win(args.smoke)
    if args.mode == "probe":
        if wl.kind == "cli":
            out = probe_verify(win, args.seed)
        else:
            spots = [tuple(int(x) for x in s.split(":")) for s in args.spots.split(",") if s]
            out = probe_charts(win, spots)
        print(json.dumps(out))
        return 0
    fn = {"cli": run_cli, "charts": run_charts, "structure": run_structure}[wl.kind]
    if not args.trace:
        print(json.dumps(fn(win), sort_keys=True))
        return 0
    import tracer

    spans = tracer.Tracer()
    spans.install()
    try:
        with spans.root():
            out = fn(win)
        print(json.dumps(out, sort_keys=True))
    finally:
        # a crashed run still reports where its time went
        print("BENCH-TRACE " + json.dumps(spans.summary()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
