"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Inputs are generated from ``--seed``; the program is started from ``src/``
exactly as a user runs it (``repro-pll serve ... --async``).  Every answer
the program returns is checked against the benchmark's own BFS.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``).  Lines before it
name each metric with its unit and give the environment fingerprint; the
same, with every detail, goes to ``.perfbench/results/``.

Exit status: 0 on a valid run with every answer right, 1 when any answer was
wrong (the JSON line still printed, with ``"correct": false``), 2 when the
program or the benchmark could not run, 3 when the run was invalid (for
example the load generator fell behind its own schedule) and so reports
nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
STATE = ROOT / ".perfbench"


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def source_digest() -> str:
    """Short SHA-256 over the program's Python sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def fingerprint(args, kernel: str) -> dict:
    """What a result depends on besides the code: compare results only when these match."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel": kernel,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(name: str, args, config: dict) -> tuple:
    """Run workload ``name``; return ``(result_json, exit_code)``."""
    from workloads import WORKLOADS, Context

    trace = bool(args.trace)
    tag = f"{name}-s{args.seed}-t{int(trace)}"
    work = STATE / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans_dir = STATE / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    ctx = Context(workload=name, seed=args.seed, seconds=float(args.seconds), trace=trace,
                  work=work, spans_dir=spans_dir, log=log)
    started = time.perf_counter()
    outcome = WORKLOADS[name](ctx)
    specs = config["per_layer"] if trace else config["end_to_end"]
    values = dict(outcome.per_layer if trace else outcome.end_to_end)
    if trace:
        values["failed_frac"] = outcome.failed / outcome.attempted
        # A layer the workload never exercises did no work: its numbers are 0.
        for spec in specs:
            values.setdefault(spec["name"], 0.0)
    metrics = {}
    for spec in specs:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
        print(f"{name:>10}  {spec['name']:<30} {value:>16.6g} {spec['unit']}")
    reads = outcome.details.get("reads")
    if reads:
        print(f"# reads n={reads['n']} p50={reads['p50']:.6g} ms p99={reads['p99']:.6g} ms "
              f"({reads['p99_beyond']} beyond); highest percentile with >=10 beyond: "
              f"p{reads['tail_q']:g}={reads['tail']:.6g} ms")
    setups = outcome.details.get("setups")
    if setups:
        from percentiles import median

        print(f"# setup: {len(setups)} samples, median {median([v for v, _ in setups]):.6g} s "
              f"as timed, reference start-up median {median([r for _, r in setups]):.6g} s")
    if "build_s" in outcome.details:
        print(f"# build_s={outcome.details['build_s']:.6g} s")
    writes = outcome.details.get("write_p50_ms")
    if writes and any(writes.values()):
        print("# writes " + " ".join(f"{op}_p50={ms:.6g} ms" for op, ms in writes.items()))
    print(f"# failed_frac={outcome.failed / outcome.attempted:.6g} "
          f"({outcome.failed} of {outcome.attempted})")
    env = fingerprint(args, str(outcome.details.get("kernel", "unknown")))
    print("# env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": outcome.wrong == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, env=env, details=outcome.details,
                  wall_s=time.perf_counter() - started)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if "spans_file" in outcome.details:
        print(f"# spans {os.path.relpath(outcome.details['spans_file'], ROOT)}")
    shutil.rmtree(work, ignore_errors=True)
    return result, (0 if outcome.wrong == 0 else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run a perfbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so running servers and helpers are
    # stopped by the code that started them.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log("no program sources at ./src/repro; run from the root of a checkout")
        return 2
    try:
        config = load_config()
    except (OSError, ValueError) as exc:
        log(f"cannot read BENCHMARK.json: {exc}")
        return 2
    if args.seconds is None:
        args.seconds = config["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, InvalidRun

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        log(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
        return 2
    results, code = [], 0
    for name in names:
        try:
            result, status = run_one(name, args, config)
        except InvalidRun as exc:
            log(f"{name}: invalid run, not reported: {exc}")
            return 3
        except Exception:  # the program or the benchmark broke: report, no result line
            log(f"{name}: run failed:\n{traceback.format_exc()}")
            return 2
        results.append((name, result))
        code = max(code, status)
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{key}": value for name, r in results
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
