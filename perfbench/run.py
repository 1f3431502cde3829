"""Run one sbaformer benchmark workload, or all of them with a summary.

One workload, in this process (the form listed in BENCHMARK.json):

    python3 perfbench/run.py --workload train_grid64 --seed 0 --seconds 20 --trace 0

Every workload, each untraced and then traced, each in a fresh process,
with the tracing overhead and an optional results file:

    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --out results.json

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics named in BENCHMARK.json when ``--trace 0``, its per-layer metrics
when ``--trace 1``. The line before it, ``record: {...}``, holds every
metric the run measured plus the machine and environment. ``--smoke`` runs
tiny sizes of the same workloads.

The library is imported from ``src/`` beside this directory and nowhere
else; without it the harness exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_grid64", "forecast_grid576", "setup_sensors256")
# BLAS is pinned to one thread (never above nproc): the matrices here are
# small, and one thread keeps run-to-run spread low on a shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 900


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the harness tests")
    ap.add_argument("--out", help="with --workload all: write the records to this JSON file")
    return ap.parse_args(argv)


def _contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np
    import sbaformer
    from sbaformer import autodiff as ad

    debug = ad.set_debug_checks(True)  # read the default back, then restore it
    ad.set_debug_checks(debug)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
        "sbaformer": sbaformer.__version__,
        "library_defaults": {"debug_checks": debug, "flop_counting": ad.flops.enabled},
    }


def _import_library() -> bool:
    src = ROOT / "src"
    if not (src / "sbaformer" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import sbaformer

    return Path(sbaformer.__file__).resolve().is_relative_to(src)


def run_one(args) -> int:
    contract = _contract()
    if not _import_library():
        print(f"error: sbaformer sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    fn, op_metric = workloads.WORKLOADS[args.workload]
    cfg = workloads.SIZES["smoke" if args.smoke else "full"][args.workload]
    run = workloads.Run(trace=bool(args.trace))
    tic = time.perf_counter()
    fn(run, cfg, args.seed, args.seconds)
    run.finish()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "op_metric": op_metric,
        "inputs_sha256": run.inputs.hexdigest(),
        "wall_s": time.perf_counter() - tic,
        "environment": environment(),
        "config": cfg,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "metrics": run.metrics,
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={run.attempted} failed={run.failed}")
    for name, m in sorted(run.metrics.items()):
        print(f"  {name:<36} {m['value']!r:>24} {m['unit']}")
    for err in run.errors:
        print(f"  ERROR {err}")
    print("record: " + json.dumps(record, sort_keys=True))

    # A workload BENCHMARK.json lists must report every listed metric; one
    # it does not list reports those of them it has.
    listed = args.workload in {w["name"] for w in contract["workloads"]}
    metrics = {}
    for entry in contract["per_layer" if args.trace else "end_to_end"]:
        key = f"{op_metric}.p50" if entry["name"] == "op_ms.p50" else entry["name"]
        if listed or key in run.metrics:
            metrics[entry["name"]] = run.metrics[key]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _child(args, workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    for line in proc.stdout.splitlines():
        if line.startswith("record: "):
            return json.loads(line[len("record: "):])
    raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")


def run_all(args) -> int:
    """Each workload untraced then traced, in fresh processes; report overhead."""
    records, summary = [], {}
    ok = True
    for workload in WORKLOAD_NAMES:
        plain, traced = _child(args, workload, 0), _child(args, workload, 1)
        records += [plain, traced]
        op = plain["op_metric"]
        base = plain["metrics"][f"{op}.p50"]["value"]
        with_trace = traced["metrics"][f"{op}.p50"]["value"]
        cover = traced["metrics"]["trace.span_cover"]["value"]
        summary[workload] = {
            "op_metric": op,
            "untraced_p50_ms": base,
            "traced_p50_ms": with_trace,
            "tracing_overhead": with_trace / base - 1.0,
            "span_cover": cover,
            "spans_vs_untraced": cover * with_trace / base,
            "failed": plain["failed"] + traced["failed"],
        }
        ok = ok and plain["failed"] == 0 and traced["failed"] == 0
        s = summary[workload]
        print(f"{workload:<18} {op}.p50 untraced {base:.2f} ms, traced {with_trace:.2f} ms "
              f"(overhead {100 * s['tracing_overhead']:+.1f}%), spans cover {100 * cover:.1f}% "
              f"of the traced op = {100 * s['spans_vs_untraced']:.1f}% of the untraced op, "
              f"failed {s['failed']}")
        for rec in (plain, traced):
            for name, m in sorted(rec["metrics"].items()):
                print(f"    trace={rec['trace']} {name:<36} {m['value']!r:>24} {m['unit']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"summary": summary, "records": records}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": ok, "summary": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_ENV:  # before numpy is first imported, here or in a child
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
