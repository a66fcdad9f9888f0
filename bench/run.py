"""Benchmark of the tddn package on generated C-MAPSS-shaped data.

Run one workload:

    python3 bench/run.py --workload train-fd001 --seed 1 --seconds 20 --trace 0

or every workload, each in its own fresh process, one after another:

    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured
with no wrappers installed; ``--trace 1`` installs span wrappers around
calls into the package and reports the per-layer metrics instead. The
report lines name each metric with its unit and better direction; the
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every output check passed.

End-to-end metrics are shared by all workloads; their meaning per workload:

    metric         train-*                              evaluate-fd004
    setup_s        import, parse, scaler, window banks, import, parse, scaler, model,
                   model and optimizer                  checkpoint save
    op_ms_p50      one training step                    predict_engine, one engine
    windows_per_s  training windows per second          full-curve inference windows/s
    eval_s         predict_windows over validation      one in-process `tddn evaluate`
    rmse           validation RMSE after the budget     RMSE in evaluate's metrics.csv
    peak_rss_mb    peak resident memory of the workload's process

Timings in these metrics are at the reference speed of calibrate.py's probe,
which removes the host's slow spells; the report also prints the raw
wall-clock figures, including each step's tail percentile.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
WORKLOAD_NAMES = ("train-fd001", "train-fd001-w16", "evaluate-fd004")
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 900
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_blas_threads() -> int:
    """Cap BLAS threads before NumPy loads; returns the cap.

    One thread: with two, the many small matmuls of a step wait on each
    other's wake-up, and that wait varies most between runs on a shared host.
    """
    cores = len(os.sched_getaffinity(0))
    cap = min(BLAS_THREADS, cores)
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cap:
            os.environ[var] = str(cap)
    return cap


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(blas_cap: int) -> dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_cap": blas_cap,
        "blas_threads_reported": _openblas_threads(),
        "git_commit": _git_commit(),
    }


def _describe(spec: dict) -> dict[str, dict]:
    return {m["name"]: m for m in spec}


def _print_metric(name: str, value: float, unit: str, better: str, note: str = "") -> None:
    suffix = f"  [{note}]" if note else ""
    print(f"  {name:<40} {value:>16.6g} {unit:<6} ({better} is better){suffix}")


def run_one(args: argparse.Namespace, bench: dict) -> int:
    blas_cap = _limit_blas_threads()
    if not (SRC / "tddn" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    found = importlib.util.find_spec("tddn")
    if found is None or Path(found.origin).resolve().parent != (SRC / "tddn").resolve():
        print(f"error: tddn does not resolve to {SRC / 'tddn'}", file=sys.stderr)
        return 2

    import workloads
    from spans import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(args.seed, args.seconds, work, tracer, args.tiny)
    try:
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result.e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    spec = _describe(bench["per_layer"] if args.trace else bench["end_to_end"])
    values = result.layer if args.trace else result.e2e
    if values.keys() != spec.keys():
        missing = sorted(spec.keys() - values.keys())
        extra = sorted(values.keys() - spec.keys())
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", file=sys.stderr)
        return 2
    checks = result.checks

    env = environment(blas_cap)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("metrics (timings at the probe's reference speed):" if not args.trace else "metrics:")
    for name, meta in spec.items():
        _print_metric(name, values[name], meta["unit"], meta["better"])
    if not args.trace:
        print("raw wall-clock figures, as named in the workload description:")
        for name, (value, unit, better, note) in result.named.items():
            _print_metric(name, value, unit, better, note)
    ratio = checks.failed / checks.attempted
    _print_metric("failed_ops_ratio", ratio, "ratio", "lower", f"{checks.failed} of {checks.attempted} checks")
    for key, value in result.info.items():
        print(f"  info {key} = {value}")
    for message in checks.failures[:20]:
        print(f"  FAILED {message}")

    if args.trace:
        # one file per workload, so repeated runs do not pile up spans
        trace_path = WORK / f"trace-{args.workload}.json"
        tracer.dump(trace_path)
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": values,
        "named": {k: v[0] for k, v in result.named.items()},
        "info": result.info,
        "failures": checks.failures,
    }
    report_path = WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    summary = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": values[n], "unit": spec[n]["unit"]} for n in spec},
    }
    print(json.dumps(summary))
    return 0 if checks.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, one after another."""
    worst = 0
    combined: dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        started = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        print(f"  (process exited {proc.returncode} after {time.perf_counter() - started:.1f} s)")
        if proc.returncode:
            worst = 1
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            correct = False
            continue
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small data, for self-tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec_path = ROOT / "BENCHMARK.json"
    try:
        bench = json.loads(spec_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {spec_path}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
