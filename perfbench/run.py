"""qtop benchmark: time to a checked answer per CLI run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1|both]

Run from the repository root; qtop is imported from ``src/``.  With no
arguments every workload runs untraced and traced, seed 0.

Each qtop invocation is its own subprocess (``python3 -m qtop.cli``), so
interpreter start, imports and the once-per-process orientation
calibration are counted.  The load is a closed loop with one client:
invocations run back to back.  Children get the environment without
QTOP_THREADS, OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS,
i.e. the thread defaults a user gets.  The seed generates every symbol
file (``inputs.py``); qtop only reads them.

``--trace 0`` (end to end) repeats whole passes over the workload's
invocations while another pass still fits in ``--seconds`` (at least one)
and reports, per pass:

  wall_s       median wall seconds of one pass
  cpu_s        median user+sys CPU seconds of the pass's children
  peak_rss_mb  largest max-RSS of any child (os.wait4, per child)
  setup_s      median wall seconds of ``qtop --version`` (interpreter
               start plus the import of qtop.cli): after one warm-up run,
               3 runs before the passes and 3 after

Every answer is checked against its reference (``WORKLOADS``); a wrong
exit code or answer, or a W3 residual above 1e-3, fails the invocation,
is named on stderr and counts in ``failed`` of the result line.

``--trace 1`` (per layer) runs one pass with the layer spans of
``spans.py`` installed in each child (``child.py``), one untraced
in-process pass for the tracing overhead, and one traced pass with
OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1 and ``--threads 1`` whose busy
times carry a ``.1thr`` suffix.  Layer metrics are sums (or maxima) over
the pass; the report line also breaks them down per invocation.

The last line of stdout is the result object: ``correct``, ``attempted``,
``failed`` and ``metrics`` ({name: {value, unit}}).  The line before it,
``report ...``, holds the environment record, sample counts, quartiles,
per-invocation detail and any missing trace target.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from inputs import write_inputs  # noqa: E402
from spans import LAYER_METRICS, layer_metrics  # noqa: E402

SOURCE = "src"
WORK = ".perfbench_work"
THREAD_VARS = ("QTOP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
W3_RESIDUAL_MAX = 1e-3
SETUP_REPEATS = 3  # before and again after the passes
CHILD_TIMEOUT_S = 150.0
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


# ------------------------------------------------------------ answer checks


def _index(expected):
    def check(code, body):
        if code != 0:
            return f"exit code {code}, expected 0"
        w3, trunc = body["w3"], body["truncation"]
        if w3["rounded"] != expected or trunc["index"] != expected:
            return f"W3 {w3['rounded']} / truncation {trunc['index']}, expected {expected}"
        if w3["residual"] > W3_RESIDUAL_MAX:
            return f"W3 residual {w3['residual']:.3e} above {W3_RESIDUAL_MAX}"
        if body["agreement"] is not True:
            return "agreement is not true"
        return None

    return check


def _obstruction(code, body):
    if code != 2:
        return f"exit code {code}, expected 2"
    if body["error"] != "NotFredholm" or body["indices"] != [1, -1]:
        return f"{body['error']} with indices {body.get('indices')}, expected [1, -1]"
    return None


def _corner(code, body):
    if code != 0:
        return f"exit code {code}, expected 0"
    count = body["spectrum"]["signed_count"]
    w3 = body["w3_of_h"]
    if count != 1 or w3["rounded"] != 1 or body["agreement"] is not True:
        return f"signed_count {count}, W3 of h {w3['rounded']}, expected 1 and agreement"
    if w3["residual"] > W3_RESIDUAL_MAX:
        return f"W3 residual {w3['residual']:.3e} above {W3_RESIDUAL_MAX}"
    return None


def _flow(code, body):
    if code != 0:
        return f"exit code {code}, expected 0"
    result = body["result"]
    signs = sorted(c["sign"] for c in result["crossings"])
    if result["flow"] != 0 or signs != [-1, 1]:
        return f"flow {result['flow']} with crossing signs {signs}, expected 0 and [-1, 1]"
    return None


# name -> why, [(invocation label, qtop arguments with {stem} file slots, check)]
WORKLOADS = {
    "index_corpus": (
        "W3 against truncation on golden, golden+golden (band 4), a seeded "
        "canonical product and a non-Fredholm diagonal symbol",
        [
            ("golden", ["index", "{golden}", "--mode", "both"], _index(1)),
            ("golden2", ["index", "{golden2}", "--mode", "both"], _index(2)),
            ("product", ["index", "{product}", "--mode", "both"], _index(0)),
            ("obstruction", ["index", "{obstruction}", "--mode", "both"], _obstruction),
        ],
    ),
    "corner_chiral": (
        "dense eigh of the chiral corner truncation at sides 20 and 24, with "
        "the W3-of-h cross-check",
        [
            ("side20", ["corner", "{H}", "--class", "AIII", "--size", "20"], _corner),
            ("side24", ["corner", "{H}", "--class", "AIII", "--size", "24"], _corner),
        ],
    ),
    "flow_family": (
        "spectral flow of the sin-mass family: 256 kernel-count certificates, "
        "32 small eigh calls, startup a large share",
        [
            ("sinmass", ["flow", "{sinmass}", "--tsamples", "32", "--size", "10"], _flow),
        ],
    ),
}


def check_answer(check, code, stdout):
    """None when the report is right, else why it is not."""
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("# qtop"):
        return f"no report (exit code {code})"
    try:
        return check(code, json.loads("\n".join(lines[1:])))
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {type(exc).__name__} {exc}"


# ---------------------------------------------------------------- children


def child_env(single_thread=False):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    path = os.path.abspath(SOURCE)
    env["PYTHONPATH"] = path + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if single_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(cmd, env, tag):
    """Run to completion; returns (exit code, wall s, cpu s, max RSS MB, stdout)."""
    out_path = os.path.join(WORK, f"{tag}.out")
    err_path = os.path.join(WORK, f"{tag}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stdout


def qtop_cmd(argv):
    return [sys.executable, "-m", "qtop.cli", *argv]


def child_cmd(argv, record, trace):
    return [sys.executable, os.path.join(HERE, "child.py"), "--record", record,
            *(["--trace"] if trace else []), "--", *argv]


def invocations(workload, files, single_thread=False):
    for label, template, check in WORKLOADS[workload][1]:
        argv = [a.format(**files) for a in template]
        if single_thread:
            argv += ["--threads", "1"]
        yield label, argv, check


class Tally:
    """Invocations attempted and failed, with the failing ones named."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, problem):
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
            print(f"FAILED {label}: {problem}", file=sys.stderr)


# ------------------------------------------------------------- end to end


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def time_version(env, repeats):
    times = []
    for _ in range(repeats):
        code, wall, _, _, stdout = run_child(qtop_cmd(["--version"]), env, "setup")
        if code != 0 or not stdout.startswith("qtop "):
            raise SystemExit(f"qtop --version failed (exit code {code})")
        times.append(wall)
    return times


def run_end_to_end(workload, files, seconds, tally):
    env = child_env()
    run_child(qtop_cmd(["--version"]), env, "setup")  # warm-up: byte-compiles src/
    setup = time_version(env, SETUP_REPEATS)
    passes, walls = [], {}
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        cpu = rss = 0.0
        for label, argv, check in invocations(workload, files):
            code, wall, child_cpu, child_rss, stdout = run_child(qtop_cmd(argv), env, label)
            tally.record(f"{workload}/{label}/pass{len(passes)}", check_answer(check, code, stdout))
            walls.setdefault(label, []).append(wall)
            cpu += child_cpu
            rss = max(rss, child_rss)
        passes.append({"wall_s": time.perf_counter() - pass_start, "cpu_s": cpu,
                       "peak_rss_mb": rss})
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
            break
    setup += time_version(env, SETUP_REPEATS)
    series = {key: [p[key] for p in passes] for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    series["setup_s"] = setup
    table = {}
    for name, values in series.items():
        lo, hi = quartiles(values)
        value = max(values) if name == "peak_rss_mb" else statistics.median(values)
        table[name] = {"value": value, "unit": END_TO_END_UNITS[name], "samples": len(values),
                       "p25": lo, "p75": hi}
    return table, {"passes": passes, "invocation_wall_s": walls, "setup_runs": setup}


# ---------------------------------------------------------------- traced


def run_pass_in_process(workload, files, tally, trace, single_thread, suffix):
    """One pass through child.py; returns the child records tagged by invocation."""
    env = child_env(single_thread)
    records = []
    for label, argv, check in invocations(workload, files, single_thread):
        tag = f"{label}{suffix}"
        record_path = os.path.join(WORK, f"{tag}.json")
        code, _, _, _, stdout = run_child(child_cmd(argv, record_path, trace), env, tag)
        tally.record(f"{workload}/{tag}", check_answer(check, code, stdout))
        try:
            with open(record_path) as fh:
                record = json.load(fh)
        except FileNotFoundError:
            continue  # the child died before writing it; already counted as failed
        for span in record["spans"]:
            span["invocation"] = label
        record["label"] = label
        records.append(record)
    return records


def per_layer_units():
    """Every per-layer metric with its unit, in report order."""
    units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    units.update({"cli.import_s": "s", "trace.overhead_frac": "ratio", "trace.main_s": "s"})
    for name, spec in LAYER_METRICS.items():
        if spec[0] == "s":
            units[f"{name}.1thr"] = "s"
    units["trace.main_s.1thr"] = "s"
    return units


def run_traced(workload, files, tally):
    traced = run_pass_in_process(workload, files, tally, True, False, ".trace")
    plain = run_pass_in_process(workload, files, tally, False, False, ".plain")
    single = run_pass_in_process(workload, files, tally, True, True, ".1thr")
    missing = sorted({m for r in traced + single for m in r["missing"]})

    def spans_of(records):
        return [s for r in records for s in r["spans"]]

    values = layer_metrics(spans_of(traced), missing)
    traced_main = sum(r["main_s"] for r in traced)
    plain_main = sum(r["main_s"] for r in plain)
    values["cli.import_s"] = statistics.median(r["import_s"] for r in plain)
    values["trace.overhead_frac"] = traced_main / plain_main - 1.0
    values["trace.main_s"] = traced_main
    for name, value in layer_metrics(spans_of(single), missing).items():
        values[f"{name}.1thr"] = value
    values["trace.main_s.1thr"] = sum(r["main_s"] for r in single)
    table = {name: {"value": values[name], "unit": unit, "samples": len(traced)}
             for name, unit in per_layer_units().items()}
    table["cli.import_s"]["samples"] = len(plain)
    per_invocation = {
        r["label"]: {**layer_metrics(r["spans"], missing), "main_s": r["main_s"],
                     "import_s": r["import_s"]}
        for r in traced
    }
    return table, {"missing": missing, "per_invocation": per_invocation,
                   "main_s_untraced": plain_main}


# ----------------------------------------------------------------- report


def git_commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment():
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "removed_thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": git_commit(),
    }


def print_table(workload, kind, table):
    print(f"== {workload} ({kind})")
    for name, m in table.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        extra = f"  p25 {m['p25']:.6g}  p75 {m['p75']:.6g}" if "p25" in m else ""
        print(f"{name:48s} {value:>14s} {m['unit']:6s} n={m['samples']}{extra}")


def run_one(workload, seed, seconds, trace):
    files = write_inputs(seed, os.path.join(WORK, f"inputs-{seed}"))
    tally = Tally()
    if trace:
        table, detail = run_traced(workload, files, tally)
    else:
        table, detail = run_end_to_end(workload, files, seconds, tally)
    print_table(workload, "per layer" if trace else "end to end", table)
    # Always 0 on a correct program, so it is reported here and through the
    # result's "failed" count rather than as a gated metric.
    detail["failed_frac"] = len(tally.failures) / tally.attempted
    print(f"{'failed_frac':48s} {detail['failed_frac']:>14.6g} {'ratio':6s} n={tally.attempted}")
    for name in detail.get("missing", ()):
        print(f"missing trace target: {name}")
    return table, detail, tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", default="both", choices=["0", "1", "both"])
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "qtop", "cli.py")):
        print(f"qtop source not found under {os.path.abspath(SOURCE)}; "
              "run from the repository root", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace == "both" else [args.trace == "1"]
    metrics, report = {}, {"seed": args.seed, "environment": environment(), "runs": {}}
    attempted, failures = 0, []
    single = len(workloads) == 1 and len(modes) == 1
    for workload in workloads:
        for trace in modes:
            table, detail, tally = run_one(workload, args.seed, args.seconds, trace)
            attempted += tally.attempted
            failures += tally.failures
            key = f"{workload}/{'trace' if trace else 'e2e'}"
            report["runs"][key] = {"why": WORKLOADS[workload][0], "metrics": table, **detail}
            for name, m in table.items():
                metrics[name if single else f"{key}/{name}"] = {"value": m["value"],
                                                                "unit": m["unit"]}
    report["failures"] = failures
    print("report " + json.dumps(report))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
