"""Spans and counters around the public functions of each bgsplit layer.

The tracer lives in the benchmark, not in the program: it replaces each
traced function by a wrapper in the module that defines it and in every
bgsplit module that imported it by name, and replaces traced methods on
their class.  Spans are aggregated in memory by (layer, function,
parent) and handed out once by summary().  A name that no longer exists
is recorded as absent rather than failing the run.

QModule.dim and v_monomials are not wrapped: they are called millions of
times, and their time stays with the span that called them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import sys
import time

# report name of each verify-splitting check, by the function that runs it
CLI_CHECKS = {
    "_check_q_structure": "q-structure",
    "_check_theta_assembly": "theta-assembly",
    "_check_theta_blocks": "theta-blocks",
    "_check_length_splitting": "length-splitting",
    "_check_si_ri": "si-ri-splittings",
    "_check_w_margolis": "w-margolis",
    "_check_even_concentration": "even-concentration",
    "_check_bockstein": "bockstein-collapse",
    "_check_v_injectivity": "v-injectivity",
    "_check_pd_bound": "pd-bound",
    "_check_e2_comparison": "e2-comparison",
    "_check_obstruction": "obstruction-survival",
}

# layer -> (module, names); "Class.method" names a method
TARGETS = {
    "cli": ("bgsplit.cli", ("main", *CLI_CHECKS)),
    "compare": ("bgsplit.ext.compare", ("propiso_check", "obstruction_report", "dual_module", "ext_via_dual")),
    "koszul": (
        "bgsplit.ext.koszul",
        (
            "ext_koszul",
            "even_concentration_check",
            "bockstein_e1",
            "v_injectivity",
            "KoszulComplex.chain_blocks",
            "KoszulComplex.differential",
            "KoszulComplex.v_mult_chain",
            "KoszulComplex.homology",
            "KoszulComplex.dim",
            "KoszulComplex.project",
            "KoszulComplex.v_mult",
        ),
    ),
    "poly": (
        "bgsplit.ext.poly",
        ("ext_p_module", "gr_module", "realize", "p_resolution", "ext_from_resolution",
         "ext_over_P2", "projective_dimension"),
    ),
    "fplin": (
        "bgsplit.fplin",
        ("rref_array", "reduce_mod_rows", "kernel_array", "solve_columns", "coset_representatives"),
    ),
    "browngitler": (
        "bgsplit.browngitler",
        ("bp_homology", "brown_gitler", "weight_block", "theta", "theta_report",
         "assemble_bp_splitting", "length_splitting", "weight_restricted_C", "si_ri_splitting",
         "w_family", "w_family_truncated", "verify_tensor_factorization"),
    ),
    "qmodules": (
        "bgsplit.qmodules",
        ("QModule.__init__", "module_from_monomials", "submodule_generated", "quotient", "tensor",
         "suspend", "direct_sum", "restrict_qs", "verify_map", "free_module", "trivial_module",
         "compose"),
    ),
    "monomials": ("bgsplit.monomials", ("enumerate_by_degree", "enumerate_by_weight", "Monomial.make")),
    "margolis": (
        "bgsplit.margolis",
        ("margolis_homology", "margolis_bp2", "classify_invertible", "construct_model",
         "kunneth_check", "freeness_check"),
    ),
}


def module_key(m) -> str:
    """Content of a QModule up to basis labels: degrees, dims and Q matrices."""
    h = hashlib.sha1(repr((m.qs, [(d, m.dim(d)) for d in m.degrees()])).encode())
    for i in sorted(m.actions):
        for d in sorted(m.actions[i]):
            mat = m.actions[i][d]
            h.update(repr((i, d, mat.shape)).encode())
            h.update(mat.tobytes())
    return h.hexdigest()


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.spans: dict[tuple[str, str, str, str], list] = {}
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.distinct: dict[str, set] = {"C": set(), "gr": set()}
        self.absent: list[str] = []

    # -- spans -------------------------------------------------------------------

    def _close(self, frame: list, parent, dur: float) -> None:
        key = (frame[0], frame[1], *(parent[:2] if parent else ("", "")))
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[2]
        if parent is not None:
            parent[2] += dur

    def _wrap(self, layer: str, name: str, fn, hook):
        stack, clock, close = self.stack, time.perf_counter, self._close

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                close(frame, parent, dur)
            if hook is not None:
                # counting is charged to its own span, not to the layer it counts
                h0 = clock()
                hook(args, kwargs, result)
                close(["trace", "counters", 0.0], parent, clock() - h0)
            return result

        return functools.update_wrapper(wrapper, fn)

    @contextlib.contextmanager
    def root(self):
        frame = ["bench", "workload", 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            self.stack.pop()
            self._close(frame, None, dur)

    # -- counters ------------------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _max(self, key: str, n: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), n)

    def _hooks(self) -> dict:
        def calls(key):
            return lambda a, k, r: self._count(key)

        def rref(a, k, r):
            cells = int(a[0].shape[0]) * int(a[0].shape[1]) if a[0].ndim == 2 else int(a[0].size)
            self._count("fplin.rref_calls")
            self._count("fplin.rref_cells", cells)
            self._max("fplin.rref_max_cells", cells)

        def chain_blocks(a, k, r):
            self._count("koszul.chain_blocks_calls")
            self._count("koszul.blocks_enumerated", len(r))
            self._count("koszul.blocks_nonempty", sum(1 for b in r if b[2]))

        def gr(a, k, r):
            self._count("poly.gr_module_calls")
            self.distinct["gr"].add(module_key(a[0]))

        def weight_c(a, k, r):
            self._count("browngitler.weight_restricted_C_calls")
            self.distinct["C"].add(module_key(r))

        def module_init(a, k, r):
            if not k.get("_skip_check", a[6] if len(a) > 6 else False):
                self._count("qmodules.module_inits")

        enumerate_calls = calls("monomials.enumerate_calls")
        return {
            "fplin.rref_array": rref,
            "fplin.solve_columns": lambda a, k, r: self._max("fplin.solve_max_cells", int(a[0].size)),
            "koszul.KoszulComplex.chain_blocks": chain_blocks,
            "koszul.KoszulComplex.homology": calls("koszul.homology_calls"),
            "poly.ext_p_module": calls("poly.ext_p_module_calls"),
            "poly.gr_module": gr,
            "poly.realize": calls("poly.realize_calls"),
            "poly.p_resolution": calls("poly.p_resolution_calls"),
            "compare.propiso_check": calls("compare.propiso_calls"),
            "browngitler.weight_restricted_C": weight_c,
            "browngitler.length_splitting": calls("browngitler.length_splitting_calls"),
            "qmodules.QModule.__init__": module_init,
            "monomials.enumerate_by_degree": enumerate_calls,
            "monomials.enumerate_by_weight": enumerate_calls,
            "monomials.Monomial.make": calls("monomials.make_calls"),
            "margolis.margolis_homology": calls("margolis.homology_calls"),
        }

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("bgsplit.cli")
        importlib.import_module("bgsplit.ext")
        # the benchmark's own child program imports by name too
        loaded = [
            m
            for n, m in list(sys.modules.items())
            if n in ("bgsplit", "__main__") or n.startswith("bgsplit.")
        ]
        hooks = self._hooks()
        for layer, (modname, names) in TARGETS.items():
            module = sys.modules.get(modname)
            for name in names:
                if module is None:
                    self.absent.append(f"{modname}.{name}")
                    continue
                hook = hooks.get(f"{layer}.{name}")
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name, None)
                    raw = None if cls is None else cls.__dict__.get(meth)
                    if raw is None:
                        self.absent.append(f"{modname}.{name}")
                        continue
                    if isinstance(raw, staticmethod):
                        setattr(cls, meth, staticmethod(self._wrap(layer, name, raw.__func__, hook)))
                    else:
                        setattr(cls, meth, self._wrap(layer, name, raw, hook))
                    continue
                fn = getattr(module, name, None)
                if fn is None:
                    self.absent.append(f"{modname}.{name}")
                    continue
                wrapped = self._wrap(layer, name, fn, hook)
                # callers import by name, so every binding of fn is replaced
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapped)

    def summary(self) -> dict:
        return {
            "spans": [[*key, *rec] for key, rec in sorted(self.spans.items())],
            "counts": {**self.counts, **self.maxima},
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "absent": self.absent,
        }


# -- per-layer metrics from a summary ------------------------------------------------

LAYERS = ("cli", "compare", "koszul", "poly", "fplin", "browngitler", "qmodules", "monomials",
          "margolis", "bench")

COUNTS = (
    "compare.propiso_calls",
    "koszul.chain_blocks_calls",
    "koszul.blocks_enumerated",
    "koszul.blocks_nonempty",
    "koszul.homology_calls",
    "poly.ext_p_module_calls",
    "poly.gr_module_calls",
    "poly.realize_calls",
    "poly.p_resolution_calls",
    "fplin.rref_calls",
    "fplin.rref_cells",
    "fplin.rref_max_cells",
    "fplin.solve_max_cells",
    "browngitler.weight_restricted_C_calls",
    "browngitler.length_splitting_calls",
    "qmodules.module_inits",
    "monomials.enumerate_calls",
    "monomials.make_calls",
    "margolis.homology_calls",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {f"cli.{name}_s": "s" for name in CLI_CHECKS.values()}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"compare.propiso_s": "s", "compare.obstruction_s": "s"})
    units.update({name: "count" for name in COUNTS})
    units.update(
        {
            "koszul.block_yield": "ratio",
            "poly.gr_per_distinct_block": "ratio",
            "browngitler.distinct_C": "count",
            "trace.counters_s": "s",
            "trace.accounted_share": "ratio",
            "proc.cpu_s": "s",
            "proc.traced_wall_s": "s",
        }
    )
    return units


def layer_metrics(summary: dict, traced_wall_s: float, cpu_s: float) -> dict[str, float]:
    values = {name: 0.0 for name in metric_units()}
    total_self = 0.0
    for layer, name, _, _, count, total, self_s in summary["spans"]:
        total_self += self_s
        if f"{layer}.self_s" in values:
            values[f"{layer}.self_s"] += self_s
        if layer == "cli" and name in CLI_CHECKS:
            values[f"cli.{CLI_CHECKS[name]}_s"] += total
        if (layer, name) == ("compare", "propiso_check"):
            values["compare.propiso_s"] += total
        if (layer, name) == ("compare", "obstruction_report"):
            values["compare.obstruction_s"] += total
        if layer == "trace":
            values["trace.counters_s"] += self_s
    for name in COUNTS:
        values[name] = summary["counts"].get(name, 0)
    enumerated = values["koszul.blocks_enumerated"]
    values["koszul.block_yield"] = values["koszul.blocks_nonempty"] / enumerated if enumerated else 0.0
    distinct_gr = summary["distinct"]["gr"]
    values["poly.gr_per_distinct_block"] = values["poly.gr_module_calls"] / distinct_gr if distinct_gr else 0.0
    values["browngitler.distinct_C"] = summary["distinct"]["C"]
    # the root span covers the workload; the rest of the process is start-up
    values["trace.accounted_share"] = total_self / traced_wall_s if traced_wall_s else 0.0
    values["proc.cpu_s"] = cpu_s
    values["proc.traced_wall_s"] = traced_wall_s
    return values
