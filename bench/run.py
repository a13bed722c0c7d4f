"""Benchmark of the bgsplit verifier: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
src/.  Every repetition runs in a fresh interpreter, because the program
keeps process-wide caches that a user's single invocation never finds
warm.  With --trace 0 the run times repetitions for about S seconds and
reports the medians of the end-to-end metrics; with --trace 1 it runs
one repetition under the tracer and reports the per-layer metrics.
Either way every output is checked against oracles.py, and the last
line of stdout is the JSON result.  The seed only picks the blocks the
untimed spot checks sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import oracles
import tracer
from workloads import WORKLOADS, Workload, sampled_blocks, verify_argv

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SETUP_REPS = 2  # bare imports timed before each repetition and after the last
MIN_REPS = 3
RUN_LIMIT_S = 170  # the whole invocation must end well within 180 s
SETUP_CODE = "import bgsplit.cli, bgsplit.ext"
# the warm-up also refuses a bgsplit imported from anywhere but this checkout
WARM_CODE = SETUP_CODE + "; import os; raise SystemExit(not bgsplit.__file__.startswith(os.path.abspath('src')))"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ChildResult(NamedTuple):
    code: int
    out: str
    err: str
    wall: float
    rss_mb: float
    cpu: float


def spawn(argv: list[str], env: dict, limit: float) -> ChildResult:
    """Run one child to its exit; wall time is spawn to exit, RSS is its own peak."""
    with tempfile.TemporaryFile(dir=ROOT) as out, tempfile.TemporaryFile(dir=ROOT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(limit, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            # marks the child reaped, so a late timer cannot signal its pid
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
        out.seek(0)
        err.seek(0)
        return ChildResult(
            proc.returncode,
            out.read().decode(),
            err.read().decode(),
            wall,
            usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime,
        )


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def source_rev() -> str:
    """The git revision when the checkout is a repository, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if got.returncode == 0:
                return got.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return "src-sha1:" + h.hexdigest()


def cpu_jiffies() -> tuple[int, int] | None:
    """(busy, stolen) CPU jiffies of the whole machine so far, from /proc/stat.

    Stolen time is when the hypervisor ran another guest on our CPUs; it
    slows every repetition without showing as load inside this machine.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            user, nice, system, _, _, irq, softirq, steal = (int(x) for x in fh.readline().split()[1:9])
    except (OSError, ValueError):
        return None
    return user + nice + system + irq + softirq, steal


def environment() -> dict:
    import numpy

    return {
        "rev": source_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


# -- one repetition ------------------------------------------------------------------


def rep_argv(wl: Workload, smoke: bool, trace: bool) -> list[str]:
    if wl.kind == "cli" and not trace:
        return [sys.executable, "-m", "bgsplit.cli", *verify_argv(wl.win(smoke))]
    argv = [sys.executable, str(BENCH / "child.py"), "run", wl.name]
    return argv + (["--smoke"] if smoke else []) + (["--trace"] if trace else [])


def split_trace(out: str) -> tuple[str, dict | None]:
    head, sep, tail = out.rpartition("BENCH-TRACE ")
    if not sep:
        return out, None
    return head, json.loads(tail)


def judge_rep(wl: Workload, win: dict, res: ChildResult, traced: bool):
    """(attempted, failed, problems, parsed output, errors) of one repetition.

    A crash fails the repetition's operations and is reported as an error;
    problems are wrong outputs of the operations that did not fail.
    """
    body = res.out
    if traced:
        body, _ = split_trace(body)
    if wl.kind == "cli":
        attempted = len(oracles.CHECK_NAMES)
        code, report = res.code, body
        if traced:
            # the traced child exits 0 and carries the CLI's own exit code
            wrapped = json.loads(body) if res.code == 0 else {"exit_code": None, "report": ""}
            code, report = wrapped["exit_code"], wrapped["report"]
        # exit 1 is a failing verdict only when a report was printed; a traceback also exits 1
        if code not in (0, 1) or not report.lstrip().startswith("{"):
            return attempted, attempted, [], None, [f"verify-splitting crashed: {res.err[-400:]}"]
        return attempted, 0, oracles.check_verify_report(report, code, win), report, []
    attempted = 4 * (win["k_max"] + 1) if wl.kind == "charts" else 11
    if res.code != 0:
        return attempted, attempted, [], None, [f"child exited with {res.code}: {res.err[-400:]}"]
    out = json.loads(body)
    if wl.kind == "charts":
        errors = [f"C_{b['k']}: {b['error']}" for b in out["blocks"] if b.get("error")]
        failed = sum(4 - b.get("ops", 0) for b in out["blocks"])
        return attempted, failed, oracles.check_charts(out, win), out, errors
    records = {**out["checks"], **{f"margolis_bp2 Q_{r['i']}": r for r in out["margolis_bp2"]}}
    errors = [f"{name}: {r['error']}" for name, r in records.items() if r.get("error")]
    return attempted, len(errors), oracles.check_structure(out, win), out, errors


def run_probe(wl: Workload, win: dict, seed: int, smoke: bool, output, env: dict, limit: float):
    """The untimed spot checks: (attempted, failed, problems, errors)."""
    argv = [sys.executable, str(BENCH / "child.py"), "probe", wl.name, "--seed", str(seed)]
    argv += ["--smoke"] if smoke else []
    if wl.kind == "cli":
        checks = (lambda out: oracles.check_euler(out, win["p"]), lambda out: oracles.check_unit_ext(out, win["p"]))
    elif wl.kind == "charts":
        if output is None:
            return 0, 0, [], []
        blocks = {b["k"]: b for b in output["blocks"] if "gr" in b}
        spots = [k for k in sampled_blocks(seed, win["p"], win["k_max"]) if k in blocks]
        argv += ["--spots", ",".join(f"{k}:{blocks[k]['gr']['t_max']}" for k in spots)]
        checks = (lambda out: oracles.check_presented(out, output), oracles.check_routes)
    else:
        return 0, 0, [], []
    res = spawn(argv, env, limit)
    if res.code != 0:
        return len(checks), len(checks), [], [f"probe exited with {res.code}: {res.err[-400:]}"]
    probe = json.loads(res.out)
    return len(checks), 0, [msg for check in checks for msg in check(probe)], []


# -- the run ---------------------------------------------------------------------------


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def time_setup(env: dict, left) -> list[float]:
    """Wall times of SETUP_REPS fresh interpreters importing the package."""
    walls = []
    for _ in range(SETUP_REPS):
        res = spawn([sys.executable, "-c", SETUP_CODE], env, left())
        if res.code != 0:
            raise RuntimeError(f"import failed:\n{res.err[-800:]}")
        walls.append(res.wall)
    return walls


def timed_reps(wl: Workload, win: dict, args, env: dict, left) -> dict:
    """Fresh-process repetitions for about args.seconds, at least MIN_REPS.

    Set-up is sampled between repetitions, so its median sees the same
    stretch of machine time as the repetitions do.
    """
    tally = {"attempted": 0, "failed": 0, "problems": [], "errors": [], "output": None}
    walls, rss, outputs, setups = [], [], [], []
    t_reps = time.perf_counter()
    while True:
        setups += time_setup(env, left)
        res = spawn(rep_argv(wl, args.smoke, False), env, left())
        a, f, probs, output, errs = judge_rep(wl, win, res, False)
        tally["attempted"] += a
        tally["failed"] += f
        tally["problems"] += probs
        tally["errors"] += errs
        walls.append(res.wall)
        rss.append(res.rss_mb)
        outputs.append(res.out)
        tally["output"] = output if output is not None else tally["output"]
        spent = time.perf_counter() - t_reps
        # start another repetition only when it should end inside the window
        if len(walls) >= MIN_REPS and spent + spent / len(walls) > args.seconds:
            break
        if left() < 2 * max(walls) + 20:
            break
    setups += time_setup(env, left)
    if len(set(outputs)) > 1:
        tally["problems"].append("outputs differ between repetitions of one invocation")
    tally["walls"], tally["rss"], tally["setups"] = walls, rss, setups
    return tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny windows that run in seconds")
    args = parser.parse_args(argv)
    t_start = time.perf_counter()
    wl = WORKLOADS[args.workload]
    win = wl.win(args.smoke)
    env = child_env()

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - t_start)

    # the first import compiles bytecode; without the sources it fails here
    warm = spawn([sys.executable, "-c", WARM_CODE], env, left())
    if warm.code != 0:
        print(f"cannot import bgsplit from {ROOT / 'src'}:\n{warm.err[-800:]}", file=sys.stderr)
        return 2
    env_info = environment()
    jiffies0, cpu0, t0 = cpu_jiffies(), cpu_seconds(), time.perf_counter()

    if args.trace:
        res = spawn(rep_argv(wl, args.smoke, True), env, left())
        _, summary = split_trace(res.out)
        if summary is None:
            print(f"the traced run left no trace:\n{res.err[-800:]}", file=sys.stderr)
            return 3
        attempted, failed, problems, output, errors = judge_rep(wl, win, res, True)
        units = tracer.metric_units()
        metrics = tracer.layer_metrics(summary, res.wall, res.cpu)
        env_info["absent"] = summary["absent"]
    else:
        try:
            tally = timed_reps(wl, win, args, env, left)
        except RuntimeError as err:
            print(err, file=sys.stderr)
            return 2
        attempted, failed = tally["attempted"], tally["failed"]
        problems, output, errors = tally["problems"], tally["output"], tally["errors"]
        units = E2E_UNITS
        metrics = {
            "wall_s": statistics.median(tally["walls"]),
            "setup_s": statistics.median(tally["setups"]),
            "peak_rss_mb": statistics.median(tally["rss"]),
        }
        env_info["walls_s"] = tally["walls"]
        env_info["setups_s"] = tally["setups"]
    a, f, probs, errs = run_probe(wl, win, args.seed, args.smoke, output, env, left())
    attempted, failed = attempted + a, failed + f
    problems, errors = problems + probs, errors + errs

    jiffies1, span = cpu_jiffies(), time.perf_counter() - t0
    if jiffies0 is not None and jiffies1 is not None and span > 0:
        tick = os.sysconf("SC_CLK_TCK")
        machine = (jiffies1[0] - jiffies0[0]) / tick
        others = max(machine - (cpu_seconds() - cpu0), 0.0) / span
        env_info["other_cpu_cores"] = round(others, 3)
        env_info["other_core_busy"] = others > 0.5
        env_info["stolen_cpu_cores"] = round((jiffies1[1] - jiffies0[1]) / tick / span, 3)
    env_info["problems"] = problems[:20]
    env_info["errors"] = errors[:20]
    print(json.dumps({"workload": wl.name, "seed": args.seed, "env": env_info}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
