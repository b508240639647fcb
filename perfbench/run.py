"""Cold-process benchmark of the `qh` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {table,verify,dynamics} --seed N \
        --seconds S --trace {0,1}

Every `qh` operation ("op") runs as its own cold process,
`python -m qhandle.cli ARG...` with `src` on PYTHONPATH, one at a time,
because each `qh` call is a fresh process and users pay the cold start every
time.  A pass runs the workload's ops once; passes repeat until the next one
would end after S seconds (at least two passes).  Every op's exit code,
stderr and stdout are checked against `expected.json`.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 untraced and traced passes alternate, each traced op runs under
`trace_child.py`, and the last line holds the per-layer metrics.  See
README.md in this directory for the metrics and the workloads.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

from trace_child import TARGETS

perf = time.perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = BENCH / "expected.json"
TRACER = BENCH / "trace_child.py"

HELD_OUT_SEED = 104729  # never used while tuning; confirm claims on it
MIN_PASSES = 2
SETUP_PER_PASS = 4  # cold imports before each pass of an untraced run
OP_TIMEOUT = 120.0  # seconds for one op
RUN_LIMIT = 165.0  # no op runs past this many seconds into the run
APPROX_TOL = 1e-9  # fields of "exact": false reports, absolute and relative
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# dynamics pools; every entry has a record in expected.json.  The gr:3,8
# states all leave a 561-state orbit of about 2.39 MB of JSON, so the draw
# moves the cost of a pass little; the gr:2,8 pairs are never reached, so
# each search walks its full step budget.
GR38_STATES = ["unit", "point", "s[1,1,1]", "s[3,1]", "s[5]", "s[4,2]"]
GR28_PAIRS = [("unit", "point"), ("unit", "s[1]"), ("s[1]", "point"),
              ("s[2]", "s[1,1]")]
EPS_POOL = ["0.01", "0.001"]
QUADRIC_POOL = [3, 4, 5, 6]
PN_POOL = [3, 4, 5, 6]


def workload_ops(workload, seed):
    """The argv of each op of one pass; only dynamics depends on the seed."""
    if workload == "table":
        return [["estimate", "--table"]]
    if workload == "verify":
        return [["verify"]]
    rng = random.Random(seed)
    state = rng.choice(GR38_STATES)
    src, dst = rng.choice(GR28_PAIRS)
    src2, dst2 = rng.choice(GR28_PAIRS)
    return [
        ["sinfty", "gr:3,8", "--from", state],
        ["orbit", "gr:3,8", "--from", state],
        ["complexity", "gr:2,8", "--from", src, "--to", dst],
        ["complexity", "gr:2,8", "--from", src2, "--to", dst2,
         "--eps", rng.choice(EPS_POOL)],
        ["sinfty", f"quadric:{rng.choice(QUADRIC_POOL)}", "--from", "unit"],
        ["sinfty", "gr:3,6", "--from", "unit"],
        ["sinfty", f"pn:{rng.choice(PN_POOL)}", "--from", "unit"],
        ["sinfty", "fci:5;r=4", "--from", "unit"],
    ]


def all_ops():
    """Every op any seed can draw, for recording expected.json."""
    ops = [["estimate", "--table"], ["verify"]]
    for state in GR38_STATES:
        ops.append(["sinfty", "gr:3,8", "--from", state])
        ops.append(["orbit", "gr:3,8", "--from", state])
    for src, dst in GR28_PAIRS:
        ops.append(["complexity", "gr:2,8", "--from", src, "--to", dst])
        for eps in EPS_POOL:
            ops.append(["complexity", "gr:2,8", "--from", src, "--to", dst,
                        "--eps", eps])
    ops += [["sinfty", f"quadric:{r}", "--from", "unit"] for r in QUADRIC_POOL]
    ops += [["sinfty", f"pn:{n}", "--from", "unit"] for n in PN_POOL]
    ops += [["sinfty", "gr:3,6", "--from", "unit"],
            ["sinfty", "fci:5;r=4", "--from", "unit"]]
    return ops


# -- one cold process ---------------------------------------------------------


def child_env(home):
    """A fixed environment: fresh HOME, one BLAS/OpenMP thread, bytecode
    cached under the work directory as an installed package would have it."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "HOME": home,
           "TMPDIR": home, "LANG": "C.UTF-8", "PYTHONPATH": str(SRC),
           "PYTHONPYCACHEPREFIX": str(WORK / "pycache")}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


class Proc:
    """Outcome of one child process."""

    def __init__(self, code, wall, cpu, rss_mb, out, err, timed_out, files):
        self.code, self.wall, self.cpu, self.rss_mb = code, wall, cpu, rss_mb
        self.out, self.err, self.timed_out = out, err, timed_out
        self.files = files


class Runner:
    """Starts child processes one at a time, each with a timeout that ends
    no later than RUN_LIMIT seconds after the runner was made."""

    def __init__(self):
        self.start = perf()

    def budget(self):
        return min(OP_TIMEOUT, RUN_LIMIT - (perf() - self.start))

    def spawn(self, argv, keep=()):
        """Run argv in a fresh temporary cwd and HOME.  CPU and peak RSS come
        from the wait4 rusage of the child; keep names files the child writes
        in its cwd, returned as {name: bytes or None}."""
        home = tempfile.mkdtemp(dir=WORK, prefix="op-")
        try:
            with open(os.path.join(home, ".stdout"), "w+b") as out, \
                    open(os.path.join(home, ".stderr"), "w+b") as err:
                start = perf()
                child = subprocess.Popen(argv, cwd=home, env=child_env(home),
                                         stdin=subprocess.DEVNULL, stdout=out,
                                         stderr=err, close_fds=True)
                try:
                    killed = _wait_exit(child.pid, self.budget())
                    wall = perf() - start
                finally:
                    # reap even when interrupted, so no child outlives the run
                    if child.returncode is None:
                        _, status, usage = os.wait4(child.pid, 0)
                        child.returncode = os.waitstatus_to_exitcode(status)
                out.seek(0)
                err.seek(0)
                stdout, stderr = out.read(), err.read()
            files = {}
            for name in keep:
                path = Path(home, name)
                files[name] = path.read_bytes() if path.exists() else None
        finally:
            shutil.rmtree(home, ignore_errors=True)
        return Proc(child.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, stdout, stderr, killed, files)


def _wait_exit(pid, timeout):
    """Wait until pid exits, killing it after timeout seconds; leave it
    unreaped, so its pid cannot be reused before the timer is disarmed.
    Returns whether it was killed."""
    lock, state = threading.Lock(), {"done": False, "killed": False}

    def kill():
        with lock:
            if not state["done"]:
                os.kill(pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    except BaseException:
        kill()
        raise
    finally:
        with lock:
            state["done"] = True
        timer.cancel()
        timer.join()
    return state["killed"]


def qh_argv(args, spans=None):
    if spans is None:
        return [sys.executable, "-m", "qhandle.cli", *args]
    return [sys.executable, str(TRACER), spans, *args]


# -- output checks ------------------------------------------------------------


def close(got, want):
    """Equal structure; floats within APPROX_TOL, everything else equal."""
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and math.isclose(got, want, rel_tol=APPROX_TOL,
                                 abs_tol=APPROX_TOL))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(close(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def expected_record(stdout):
    """What expected.json keeps of one op's stdout."""
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if isinstance(report, dict) and report.get("exact") is False:
        return {"approx": report}
    return {"sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)}


def verify_semantics(stdout):
    """qh verify passes with exactly one known discrepancy, the gr:3,9 row."""
    report = json.loads(stdout)
    known = [m for rec in report["criteria"] for m in rec["known_failures"]]
    return (report["ok"] is True and report["known_failure_count"] == 1
            and len(known) == 1 and "gr:3,9" in known[0])


def check(args, proc, expected):
    """None when the op passed, else the reason it failed."""
    if proc.timed_out:
        return "timed out"
    if proc.code != 0:
        return f"exit code {proc.code}"
    if proc.err:
        return "stderr not empty: " + proc.err.decode(errors="replace")[-200:]
    want = expected.get(" ".join(args))
    if want is None:
        return "no expected output recorded"
    if "approx" in want:
        try:
            ok = close(json.loads(proc.out), want["approx"])
        except ValueError:
            ok = False
        if not ok:
            return "approximate report differs beyond tolerance"
    elif hashlib.sha256(proc.out).hexdigest() != want["sha256"]:
        return "stdout differs from the recorded output"
    if args == ["verify"] and not verify_semantics(proc.out):
        return "verify is not ok with exactly the gr:3,9 discrepancy"
    return None


# -- passes -------------------------------------------------------------------


class Pass:
    def __init__(self, traced):
        self.traced = traced
        self.wall = self.cpu = self.rss_mb = 0.0
        self.attempted = self.failed = 0
        self.failures = []
        self.setup = []  # wall seconds of the cold imports before the pass
        self.spans = []  # one decoded spans file per traced op


def run_pass(runner, ops, traced, expected, setup_samples):
    result = Pass(traced)
    for _ in range(setup_samples):
        proc = runner.spawn([sys.executable, "-c", "import qhandle.cli"])
        if proc.code != 0 or proc.err:
            raise RuntimeError("importing qhandle.cli failed: "
                               + proc.err.decode(errors="replace")[-500:])
        result.setup.append(proc.wall)
    for args in ops:
        result.attempted += 1
        if runner.budget() <= 0:
            result.failed += 1
            result.failures.append((args, "run time limit reached"))
            continue
        spans = ".spans.json" if traced else None
        proc = runner.spawn(qh_argv(args, spans), keep=[spans] if traced else ())
        result.wall += proc.wall
        result.cpu += proc.cpu
        result.rss_mb = max(result.rss_mb, proc.rss_mb)
        reason = check(args, proc, expected)
        if traced and reason is None:
            if proc.files[spans] is None:
                reason = "tracer wrote no spans"
            else:
                result.spans.append(json.loads(proc.files[spans]))
        if reason is not None:
            result.failed += 1
            result.failures.append((args, reason))
    return result


def run_passes(runner, ops, modes, seconds, expected):
    """Cycle through modes (False untraced, True traced) until the next cycle
    would end after `seconds`; at least MIN_PASSES untraced passes, or one
    cycle when tracing.  Untraced runs time SETUP_PER_PASS cold imports
    before each pass, so set-up samples spread over the run."""
    passes = []
    start = perf()
    tracing = len(modes) > 1
    minimum = 1 if tracing else MIN_PASSES
    setup_samples = 0 if tracing else SETUP_PER_PASS
    while True:
        cycle = [run_pass(runner, ops, traced, expected, setup_samples)
                 for traced in modes]
        passes += cycle
        cycles = len(passes) // len(modes)
        took = perf() - start
        if any(p.failed for p in cycle) or runner.budget() <= 0:
            break
        if cycles >= minimum and took + took / cycles > seconds:
            break
    return passes


# -- metrics ------------------------------------------------------------------

# self time of every traced span; cli.build_ring is reported inclusive
SELF_TIMED = ["cli.import"] + [name for _, _, name, _ in TARGETS
                               if name != "cli.build_ring"]
CALL_COUNTED = [
    "partitions.lr_expand", "rings.reduce_sigma_hat", "frobenius.handle_element",
    "frobenius.mult_matrix", "frobenius.product", "linalg.solve_linear",
    "linalg.mat_rank", "linalg.nullspace", "linalg.mat_vec", "linalg.mat_mul",
    "complexity.s_infinity",
]

# name -> (unit, better); the per_layer list of BENCHMARK.json
PER_LAYER = {f"{n}.s": ("s", "lower") for n in SELF_TIMED}
PER_LAYER.update({f"{n}.calls": ("count", "lower") for n in CALL_COUNTED})
PER_LAYER.update({
    "partitions.lr_expand.terms": ("count", "lower"),
    "rings.reduce_sigma_hat.zero_ratio": ("ratio", "lower"),
    "rings.grassmannian.builds": ("count", "lower"),
    "rings.grassmannian.hits": ("count", "higher"),
    "complexity.trajectory.states": ("count", "lower"),
    "complexity.s_infinity.exact_ratio": ("ratio", "higher"),
    "cli.build_ring.s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
})


def layer_metrics(spans_files):
    """Per-layer metrics of one traced pass, summed over its ops."""
    self_s, incl_s, calls, counters = {}, {}, {}, {}
    for spans in spans_files:
        for edge in spans["edges"]:
            name = edge["name"]
            self_s[name] = self_s.get(name, 0.0) + edge["self_s"]
            incl_s[name] = incl_s.get(name, 0.0) + edge["incl_s"]
            calls[name] = calls.get(name, 0) + edge["calls"]
        for name, value in spans["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{n}.s": self_s.get(n, 0.0) for n in SELF_TIMED}
    out.update({f"{n}.calls": calls.get(n, 0) for n in CALL_COUNTED})
    out.update({
        "partitions.lr_expand.terms": counters.get("partitions.lr_expand.terms", 0),
        "rings.reduce_sigma_hat.zero_ratio": ratio(
            counters.get("rings.reduce_sigma_hat.zero", 0),
            calls.get("rings.reduce_sigma_hat", 0)),
        "rings.grassmannian.builds": counters.get("rings.grassmannian.builds", 0),
        "rings.grassmannian.hits": counters.get("rings.grassmannian.hits", 0),
        "complexity.trajectory.states": counters.get("complexity.trajectory.states", 0),
        "complexity.s_infinity.exact_ratio": ratio(
            counters.get("complexity.s_infinity.exact", 0),
            calls.get("complexity.s_infinity", 0)),
        "cli.build_ring.s": incl_s.get("cli.build_ring", 0.0),
    })
    return out


def median(values):
    return statistics.median(values) if values else 0.0


# -- run record ---------------------------------------------------------------


CALIBRATION_RESULT = 341386


def calibrate():
    """Seconds for a fixed pure-Python Fraction loop: machine-speed context."""
    start = perf()
    acc = 0
    for i in range(1, 40001):
        x = Fraction(i, i + 7) * Fraction(i + 3, 2 * i + 1) + Fraction(1, i)
        acc = (acc + x.numerator) % 1000003
    took = perf() - start
    if acc != CALIBRATION_RESULT:
        raise RuntimeError(f"calibration loop gave {acc}")
    return took


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_record(args):
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"workload": args.workload, "seed": args.seed,
            "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "git_sha": git_sha()}


# -- main ---------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["table", "verify", "dynamics"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    # on SIGTERM, unwind so the running op is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "qhandle" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no qhandle package under {SRC}; "
                         "run from the root of a qhandle checkout\n")
        return 2
    if not EXPECTED.is_file():
        sys.stderr.write(f"perfbench: {EXPECTED} is missing\n")
        return 2
    expected = json.loads(EXPECTED.read_text())
    WORK.mkdir(exist_ok=True)
    runner = Runner()
    record = run_record(args)
    record["calibration_s"] = calibrate()
    ops = workload_ops(args.workload, args.seed)
    record["ops_per_pass"] = [" ".join(op) for op in ops]

    # the first import compiles bytecode into the cache; it is not a sample
    warm = runner.spawn(qh_argv(["--help"]))
    if warm.code != 0:
        sys.stderr.write("perfbench: qh --help failed:\n"
                         + warm.err.decode(errors="replace"))
        return 1

    modes = [False, True] if args.trace else [False]
    passes = run_passes(runner, ops, modes, args.seconds, expected)

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    setup = [t for p in plain for t in p.setup]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record["passes"] = len(plain)
    record["traced_passes"] = len(traced)
    record["pass_wall_s"] = [round(p.wall, 4) for p in plain]
    record["failures"] = [f"{' '.join(a)}: {why}"
                          for p in passes for a, why in p.failures]
    for line in record["failures"]:
        sys.stderr.write(f"perfbench: op failed: {line}\n")

    if args.trace:
        per_pass = [layer_metrics(p.spans) for p in traced if not p.failed]
        metrics = {name: {"value": median([m[name] for m in per_pass]),
                          "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()
                   if name != "trace.overhead"}
        untraced_wall = median([p.wall for p in plain])
        overhead = (median([p.wall for p in traced]) / untraced_wall - 1
                    if untraced_wall else 0.0)
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        missing = sorted({n for p in traced for s in p.spans for n in s["missing"]})
        record["missing_spans"] = missing
    else:
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "wall_s": {"value": median([p.wall for p in plain]), "unit": "s"},
            "cpu_s": {"value": median([p.cpu for p in plain]), "unit": "s"},
            "peak_rss_mb": {"value": median([p.rss_mb for p in plain]),
                            "unit": "MB"},
        }
        record["setup_samples"] = len(setup)

    print("run " + json.dumps(record, sort_keys=True))
    width = max(len(n) for n in metrics)
    for name, metric in metrics.items():
        print(f"{name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    print(f"{'ops':<{width}}  {attempted} count")
    print(f"{'ops_failed':<{width}}  {failed} count")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
