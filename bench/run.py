#!/usr/bin/env python3
"""Layered benchmark of the ``positroids`` package.

    python3 bench/run.py --workload {enumerate,sample,cli,all} --seed N \\
        --seconds S --trace {0,1} [--out RESULTS.jsonl]

Every round of a workload runs in a fresh interpreter, one process at a
time, because a command-line user pays the cold caches on every call:

* ``enumerate``: the family requests of ``experiment counts`` (n <= 12)
  and one plane-partition box, one public call per op, seed-shuffled.
* ``sample``: seeded ``experiments`` calls (disjointness, sweeps, m3).
* ``cli``: a closed loop with one client; each request is a fresh
  ``python -m positroids.cli`` with JSON on stdin and stdout.

Rounds repeat while another one still fits in ``--seconds`` (at least
``MIN_ROUNDS``).  Every time is calibrated against a fixed kernel probed
before and after each op (``calibrate``), because the host's speed drifts.
Every op is checked against an independent oracle (``workloads``); every
round's outputs are hashed and must agree across rounds.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` plain and traced rounds alternate and it carries the
per-layer metrics of the traced rounds (see ``tracer``) and the tracing
overhead.  The line before it records the environment, the output digest
and the tail percentile.  ``--workload all`` runs every workload in turn
and prints a table.  ``bench/compare.py`` compares two result files.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("enumerate", "sample", "cli")
# setup_s is the median of probes spread over the run: this many before
# each round, and at least MIN_SETUP_PROBES in all.
SETUP_PROBES_PER_ROUND = 4
MIN_SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150.0

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of traced functions: metric prefix -> (traced name, fields).
FUNCTION_METRICS = {
    "plabic.canonical_form": ("plabic.PlabicGraph.canonical_form", ("calls", "self_s")),
    "plabic.blow_up": ("plabic.blow_up", ("calls", "self_s")),
    "plabic.split": ("plabic.split", ("calls",)),
    "plabic.trip_permutation": ("plabic.trip_permutation", ("calls", "self_s")),
    "plabic.build_network": ("plabic.build_network", ("calls", "self_s")),
    "plabic.Network.matrix": ("plabic.Network.matrix", ("self_s",)),
    "catalan.enumerate_path_tuples": ("catalan.enumerate_path_tuples", ("self_s",)),
    "catalan.enumerate_trees": ("catalan.enumerate_trees", ("self_s",)),
    "catalan.enumerate_dyck_paths": ("catalan.enumerate_dyck_paths", ("self_s",)),
    "catalan.enumerate_path_pairs": ("catalan.enumerate_path_pairs", ("self_s",)),
    "catalan.omega_TL": ("catalan.omega_TL", ("self_s",)),
    "catalan.omega_PL": ("catalan.omega_PL", ("self_s",)),
    "catalan.tree_to_graph": ("catalan.tree_to_graph", ("self_s",)),
    "linalg.plucker": ("linalg.plucker", ("calls", "self_s")),
    "linalg.z_map": ("linalg.z_map", ("calls", "self_s")),
    "linalg.rref": ("linalg.rref", ("calls", "self_s")),
    "linalg.kernel_basis": ("linalg.kernel_basis", ("self_s",)),
    "linalg.find_kernel_vector_with_signs": ("linalg.find_kernel_vector_with_signs",
                                             ("self_s",)),
    "linalg.positroid_membership": ("linalg.positroid_membership", ("self_s",)),
    "linalg.make_tp_matrix": ("linalg.make_tp_matrix", ("self_s",)),
    "linalg.sample_cell": ("linalg.sample_cell", ("calls", "self_s")),
    "signs.standard_basis_k2": ("signs.standard_basis_k2", ("self_s",)),
    "signs.m2_standard_basis": ("signs.m2_standard_basis", ("self_s",)),
    "signs.p_domino_basis": ("signs.p_domino_basis", ("self_s",)),
    "diagrams.enumerate_diagrams": ("diagrams.enumerate_diagrams", ("self_s",)),
    "diagrams.le_normalize": ("diagrams.le_normalize", ("self_s",)),
    "diagrams.omega_LD": ("diagrams.omega_LD", ("self_s",)),
    "diagrams.pipe_dream_permutation": ("diagrams.pipe_dream_permutation", ("self_s",)),
    "experiments.count_report": ("experiments.count_report", ("self_s",)),
    "experiments.disjointness_experiment": ("experiments.disjointness_experiment",
                                            ("self_s",)),
    "experiments.conjecture_sweeps": ("experiments.conjecture_sweeps", ("self_s",)),
    "experiments.m3_counterexample": ("experiments.m3_counterexample", ("self_s",)),
    "cli.run": ("cli.run", ("self_s",)),
}
LAYER_SELF = ("plabic", "catalan", "linalg", "signs", "diagrams", "permutations")
CACHE_NAMES = ("_unit_support", "_tp_cached", "_tree_shapes", "_dyck_words",
               "_tree_by_graph")
# How each counter is obtained, recorded with traced results.  "computed":
# derived by the wrapper from call arguments; "observed": counted by the
# wrappers; "read": read from the package's own state after the round.
COUNTER_SOURCES = {
    "linalg.plucker.minors": "computed: sum of C(n, k) over plucker calls",
    "catalan.enumerate_path_tuples.objects": "observed: items the generator yielded",
    "plabic.dedupe_ratio": "observed: distinct members kept / blow_up and split calls "
                           "made by the family recursion",
    "plabic.family_cache.size": "read: graphs held in plabic._FAMILY_CACHE",
    "cache.*": "read: cache_info() of each lru_cache",
}


def layer_metric_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for prefix, (_, fields) in FUNCTION_METRICS.items():
        for field in fields:
            units[f"{prefix}.{field}"] = "count" if field == "calls" else "s"
    units.update({f"{layer}.self_s": "s" for layer in LAYER_SELF})
    units.update({"linalg.plucker.minors": "count",
                  "catalan.enumerate_path_tuples.objects": "count",
                  "plabic.dedupe_ratio": "ratio",
                  "plabic.family_cache.size": "count"})
    for cache in CACHE_NAMES:
        units[f"cache.{cache}.hits"] = "count"
        units[f"cache.{cache}.misses"] = "count"
    units["cli.spawn_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


# ----------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


CHILD_ENV = child_env()


class Spawned:
    __slots__ = ("rc", "stdout", "stderr", "wall", "cpu", "rss_mb", "started")


def spawn(argv: list, stdin: str = "") -> Spawned:
    """Run one child to completion; wall, CPU and peak RSS from wait4."""
    io_dir = OUT / "io"
    paths = [io_dir / name for name in ("stdin", "stdout", "stderr")]
    paths[0].write_text(stdin)
    with open(paths[0], "rb") as fin, open(paths[1], "wb") as fout, \
            open(paths[2], "wb") as ferr:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr,
                                cwd=ROOT, env=CHILD_ENV)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    out = Spawned()
    out.rc = proc.returncode
    out.stdout = paths[1].read_text()
    out.stderr = paths[2].read_text()
    out.wall = ended - started
    out.cpu = usage.ru_utime + usage.ru_stime
    out.rss_mb = usage.ru_maxrss / 1024.0
    out.started = started
    return out


def setup_probe() -> float:
    """Calibrated seconds from spawning an interpreter to ``import
    positroids.cli`` done; perf_counter is CLOCK_MONOTONIC, shared by parent
    and child."""
    code = "import time, positroids.cli; print(repr(time.perf_counter()))"
    before = calibrate.probe()
    res = spawn([sys.executable, "-c", code])
    after = calibrate.probe()
    if res.rc != 0:
        raise RuntimeError(f"import failed: {res.stderr.strip()[-300:]}")
    return calibrate.calibrated(float(res.stdout) - res.started, before, after)


# ----------------------------------------------------------------------
# rounds


class Round:
    def __init__(self):
        self.run_s = 0.0  # calibrated (see calibrate.py)
        self.raw_run_s = 0.0
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self.items = 0
        self.latencies: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.digest = ""
        self.layers: dict = {}
        self.skipped: list = []  # traced names the package no longer has

    def fail(self, index: int, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"op {index}: {reason}")


def worker_round(workload: str, ops: list, traced: bool, digest: bool) -> Round:
    rnd = Round()
    rnd.attempted = len(ops)
    job_path = OUT / "io" / "job.json"
    job = {"ops": ops, "trace": traced, "digest": digest,
           "spans": str(OUT / f"spans-{workload}.bin") if traced else None}
    job_path.write_text(json.dumps(job))
    res = spawn([sys.executable, str(BENCH / "worker.py"), "round", str(job_path)])
    rnd.rss_mb = res.rss_mb
    try:
        report = json.loads(res.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        rnd.failed = rnd.attempted
        rnd.failures.append(f"worker exited {res.rc}: {res.stderr.strip()[-300:]}")
        return rnd
    hashed = hashlib.sha256()
    for i, (op, got) in enumerate(zip(ops, report["ops"])):
        rnd.latencies.append(got["s"])
        rnd.run_s += got["s"]
        rnd.raw_run_s += got["raw_s"]
        rnd.cpu_s += got["cpu"]
        rnd.items += op["items"]
        hashed.update(got.get("sha", "").encode())
        if "expect" in op and got.get("count") != op["expect"]:
            rnd.fail(i, f"{op['call']}{tuple(op['args'])} gave {got.get('count')} "
                        f"objects, oracle says {op['expect']}")
        if "verdict" in op:
            if got.get("verdict") != op["verdict"]:
                rnd.fail(i, f"{op['call']} verdict {got.get('verdict')!r}")
            elif op["verdict"] == "pass" and got.get("witnesses"):
                rnd.fail(i, f"{op['call']} passed with witnesses")
    if digest:
        rnd.digest = hashed.hexdigest()
    if traced:
        rnd.layers = layer_values(report["trace"])
        rnd.skipped = report["trace"]["skipped"]
    return rnd


def cli_round(requests: list, traced: bool) -> Round:
    """One pass over the requests; every round is hashed (stdout is small)."""
    rnd = Round()
    rnd.attempted = len(requests)
    outputs: list = []
    hashed = hashlib.sha256()
    stats_path = OUT / "io" / "cli-stats.json"
    summaries = []
    spawn_s = []
    before = calibrate.probe()
    for i, req in enumerate(requests):
        stdin = req.get("stdin", "")
        if "after" in req:
            stdin = outputs[req["after"]]
            if "feed" in req:
                try:
                    stdin = workloads.feed(req["feed"], stdin)
                except (ValueError, KeyError, IndexError, TypeError):
                    stdin = ""
        if traced:
            stats_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "worker.py"), "cli", str(stats_path)]
        else:
            argv = [sys.executable, "-m", "positroids.cli"]
        res = spawn(argv + req["argv"], stdin)
        bracket = (before, calibrate.probe())
        before = bracket[1]
        wall = calibrate.calibrated(res.wall, *bracket)
        outputs.append(res.stdout)
        rnd.latencies.append(wall)
        rnd.run_s += wall
        rnd.raw_run_s += res.wall
        rnd.cpu_s += calibrate.calibrated(res.cpu, *bracket)
        rnd.rss_mb = max(rnd.rss_mb, res.rss_mb)
        rnd.items += 1
        hashed.update(f"{res.rc}\0{res.stdout}\0".encode())
        expected = req["rc"]
        if expected is None:
            try:
                expected = workloads.expected_rc(req["oracle"], stdin)
            except (ValueError, KeyError, TypeError):
                expected = -1
        if res.rc != expected:
            rnd.fail(i, f"{' '.join(req['argv'])}: exit {res.rc}, expected {expected}: "
                        f"{res.stderr.strip()[-200:]}")
        else:
            reason = workloads.check_cli(req["check"], res.rc, res.stdout, res.stderr,
                                         outputs)
            if reason:
                rnd.fail(i, f"{' '.join(req['argv'])}: {reason}")
        if traced:
            try:
                summary = json.loads(stats_path.read_text())
            except (OSError, ValueError):
                rnd.fail(i, "traced request wrote no span summary")
                continue
            rnd.skipped = summary["skipped"]
            summaries.append(summary)
            run_span = summary["functions"].get("cli.run", {}).get("total_s", 0.0)
            spawn_s.append(calibrate.calibrated(res.wall - run_span - summary["tracer_s"],
                                                *bracket))
    rnd.digest = hashed.hexdigest()
    if traced and summaries:
        rnd.layers = layer_values(merge_summaries(summaries))
        rnd.layers["cli.spawn_s"] = statistics.median(spawn_s)
    return rnd


def merge_summaries(summaries: list) -> dict:
    """Sum the span summaries of the requests of one round."""
    merged = {"functions": {}, "counters": {}, "read": {},
              "family_children": 0, "family_distinct": 0}
    for summary in summaries:
        for name, entry in summary["functions"].items():
            into = merged["functions"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += entry[key]
        for group in ("counters", "read"):
            for key, value in summary[group].items():
                merged[group][key] = merged[group].get(key, 0) + value
        merged["family_children"] += summary["family_children"]
        merged["family_distinct"] += summary["family_distinct"]
    return merged


def layer_values(summary: dict) -> dict:
    """Flatten one round's span summary into per-layer metric values.

    A metric whose function, counter or cache the package no longer has is
    left out."""
    functions = summary["functions"]
    values = {}
    for prefix, (traced, fields) in FUNCTION_METRICS.items():
        if traced in functions:
            for field in fields:
                values[f"{prefix}.{field}"] = functions[traced][field]
    for layer in LAYER_SELF:
        values[f"{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in functions.items()
            if name.split(".", 1)[0] == layer)
    counters = summary["counters"]
    if "linalg.plucker" in functions:
        values["linalg.plucker.minors"] = counters.get("linalg.plucker.minors", 0)
    if "catalan.enumerate_path_tuples" in functions:
        values["catalan.enumerate_path_tuples.objects"] = counters.get(
            "catalan.enumerate_path_tuples.objects", 0)
    if "plabic._family" in functions:
        built = summary["family_children"]
        values["plabic.dedupe_ratio"] = summary["family_distinct"] / built if built else 0.0
    values.update(summary["read"])
    values.setdefault("cli.spawn_s", 0.0)
    return values


# ----------------------------------------------------------------------
# a run


def environment() -> dict:
    try:
        # the ceiling keeps git from searching above the checkout
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    source = hashlib.sha256()
    for path in sorted((SRC / "positroids").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_sha256": source.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    if name == "cli":
        ops = workloads.cli_requests(seed)
        one_round = lambda traced, digest: cli_round(ops, traced)  # noqa: E731
    else:
        ops = workloads.enumerate_ops(seed) if name == "enumerate" else workloads.sample_ops(seed)
        one_round = lambda traced, digest: worker_round(name, ops, traced, digest)  # noqa: E731

    setups: list = []
    plain, traced = [], []
    start = time.perf_counter()
    if not trace:
        setup_probe()  # warm-up, dropped: it may compile bytecode
    min_rounds = 1 if trace else workloads.MIN_ROUNDS[name]
    last = 0.0  # wall time of the previous round (pair, when tracing)
    while len(plain) < min_rounds or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        if not trace:
            setups += [setup_probe() for _ in range(SETUP_PROBES_PER_ROUND)]
        # outputs are hashed in the first round of each kind; they must agree
        plain.append(one_round(False, not plain))
        if trace:
            traced.append(one_round(True, not traced))
        last = time.perf_counter() - began
    while not trace and len(setups) < MIN_SETUP_PROBES:
        setups.append(setup_probe())
    rounds = plain + traced
    env["loadavg_end"] = list(os.getloadavg())

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    digests = sorted({r.digest for r in rounds if r.digest and not r.failed})
    correct = failed == 0 and len(digests) == 1
    q = workloads.tail_percentile(len(ops), name)
    latencies = [s for r in plain for s in r.latencies] or [0.0]
    if trace:
        metrics = layer_metrics(plain, traced)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r.run_s for r in plain),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "items_per_s": statistics.median(r.items / r.run_s if r.run_s else 0.0
                                             for r in plain),
            "op_ms_p50": 1e3 * statistics.median(latencies),
            "op_ms_tail": 1e3 * percentile(latencies, q),
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    context = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": len(plain), "traced_rounds": len(traced), "ops_per_round": len(ops),
        "op_samples": len(latencies), "tail_percentile": q,
        "round_run_s": [r.run_s for r in plain],
        "raw_run_s": statistics.median(r.raw_run_s for r in plain),
        "raw_round_run_s": [r.raw_run_s for r in plain],
        "error_rate": failed / attempted if attempted else 1.0,
        "digest": digests[0] if len(digests) == 1 else digests,
        "failures": [f for r in rounds for f in r.failures][:10],
        "environment": env,
    }
    if trace:
        context["counter_sources"] = COUNTER_SOURCES
        context["not_traced"] = sorted({name for r in traced for name in r.skipped})
    return {"context": context,
            "result": {"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics}}


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(plain: list, traced: list) -> dict:
    units = layer_metric_units()
    per_round = [r.layers for r in traced if r.layers]
    out = {}
    for metric, unit in units.items():
        values = [layers[metric] for layers in per_round if metric in layers]
        if values:
            out[metric] = {"value": statistics.median(values), "unit": unit}
    base = statistics.median(r.run_s for r in plain)
    with_trace = statistics.median(r.run_s for r in traced)
    out["trace_overhead"] = {"value": with_trace / base - 1.0, "unit": "ratio"}
    return out


# ----------------------------------------------------------------------


def print_table(name: str, run: dict, stream) -> None:
    ctx, res = run["context"], run["result"]
    print(f"\n== {name}  seed {ctx['seed']}  rounds {ctx['rounds']}"
          f"  ops {ctx['op_samples']}  error_rate {ctx['error_rate']:.4f}"
          f"  correct {res['correct']}", file=stream)
    for metric, entry in res["metrics"].items():
        label = metric
        if metric == "op_ms_tail":
            label += f" (p{ctx['tail_percentile']:g} of {ctx['op_samples']})"
        print(f"  {label:<48} {entry['value']:>14.6g} {entry['unit']}", file=stream)
    for failure in ctx["failures"]:
        print(f"  FAILED {failure}", file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's result as one JSON line")
    args = parser.parse_args(argv)
    if not (SRC / "positroids" / "cli.py").is_file():
        print(f"run.py: no package source under {SRC}", file=sys.stderr)
        return 2
    (OUT / "io").mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        runs[name] = run
        print_table(name, run, sys.stderr)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({**run["context"], **run["result"]}) + "\n")
    if args.workload == "all":
        for name, run in runs.items():
            print_table(name, run, sys.stdout)
        summary = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {f"{n}.{m}": e for n, r in runs.items()
                        for m, e in r["result"]["metrics"].items()},
        }
        print(json.dumps(summary))
    else:
        run = runs[args.workload]
        print(json.dumps(run["context"]))
        print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
