"""One fresh interpreter of the benchmark: a round of ops, or one traced CLI call.

    python3 bench/worker.py round JOB.json
        Import ``positroids.cli`` and run the ops of JOB.json once, timing
        each call (wall and CPU, raw and calibrated).  With ``"digest":
        true`` every output is then serialized and hashed, untimed.  With
        ``"trace": true`` the package is wrapped by ``tracer`` first and
        the span summary is included.  Prints one JSON object.

    python3 bench/worker.py cli STATS.json ARG...
        Run ``positroids.cli.run(ARG...)`` on the real stdin and stdout under
        the tracer, as ``python -m positroids.cli ARG...`` would, and write
        the span summary to STATS.json.  Exits with the CLI's exit code.

The package path comes from PYTHONPATH; ``run.py`` sets it.
"""

import hashlib
import importlib
import json
import sys
import time

import positroids.cli  # noqa: F401  (the import a CLI user pays)

import calibrate


def _resolve(call: str):
    module, attr = call.split(".")
    return getattr(importlib.import_module(f"positroids.{module}"), attr)


def _digest(result) -> str:
    """sha256 of the output's JSON, one object at a time to keep memory flat."""
    digest = hashlib.sha256()
    objects = [result] if hasattr(result, "to_json") else result
    for obj in objects:
        digest.update(json.dumps(obj.to_json(), sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def run_round(job: dict) -> dict:
    tracer = None
    if job.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    calls = [(_resolve(op["call"]), op.get("args", []), op.get("kwargs", {}))
             for op in job["ops"]]
    clock, cpu_clock = time.perf_counter, time.process_time
    ops = []
    before = calibrate.probe()
    for fn, args, kwargs in calls:
        c0 = cpu_clock()
        t0 = clock()
        result = fn(*args, **kwargs)
        if not isinstance(result, (list, tuple)) and hasattr(result, "__next__"):
            result = list(result)
        t1 = clock()
        c1 = cpu_clock()
        after = calibrate.probe()
        op = {"raw_s": t1 - t0, "s": calibrate.calibrated(t1 - t0, before, after),
              "cpu": calibrate.calibrated(c1 - c0, before, after)}
        before = after
        if hasattr(result, "verdict"):
            op["verdict"] = result.verdict
            op["witnesses"] = len(result.witnesses)
        else:
            op["count"] = len(result)
        if job.get("digest"):
            op["sha"] = _digest(result)
        ops.append(op)
        del result
    out = {"ops": ops}
    if tracer is not None:
        out["trace"] = _trace_summary(tracer, job.get("spans"))
    return out


def _trace_summary(tracer, spans_path) -> dict:
    import tracer as tracing
    summary = tracer.summary()
    summary["read"] = tracing.read_caches()
    size = tracing.family_cache_size()
    if size is not None:
        summary["read"]["plabic.family_cache.size"] = size
    if spans_path:
        tracer.dump(spans_path)
    return summary


def run_cli(stats_path: str, argv: list) -> int:
    started = time.perf_counter()
    import tracer as tracing
    tracer = tracing.Tracer()
    tracer.install()
    install_s = time.perf_counter() - started
    cli = sys.modules["positroids.cli"]
    try:
        code = cli.run(argv)
        sys.stdout.flush()
    finally:
        ended = time.perf_counter()
        summary = _trace_summary(tracer, stats_path + ".spans")
        # the tracer's own start-up and write-out, not part of the request
        summary["tracer_s"] = install_s + time.perf_counter() - ended
        with open(stats_path, "w") as fh:
            json.dump(summary, fh)
    return code


def main() -> int:
    mode = sys.argv[1]
    if mode == "round":
        with open(sys.argv[2]) as fh:
            job = json.load(fh)
        print(json.dumps(run_round(job)))
        return 0
    if mode == "cli":
        return run_cli(sys.argv[2], sys.argv[3:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
