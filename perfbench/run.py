"""brauerkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {table,census,kernels} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  Every
measurement happens in a fresh worker interpreter (perfbench/worker.py),
one at a time, so construct's lru_cache and the closure cache start cold
as they do for the CLI.  Workers get one BLAS/OpenMP thread, no
BRAUERKIT_CACHE_DIR, and a HOME, TMPDIR and bytecode cache under
./.bench_build, so nothing outside the checkout is read or written by
the workload.

--trace 0 repeats the workload in fresh workers until S seconds have
passed (at least once) and reports the end-to-end metrics as medians.
Set-up time is the median over those workers and SETUP_SAMPLES workers
that only set up.  --trace 1 runs the workload once untraced and once
traced, and reports the per-layer metrics.  The metric names and units
come from BENCHMARK.json.  The last line of standard output is the JSON
result; the lines before it are the same figures for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
BUILD = ROOT / ".bench_build"
WORKLOADS = ("table", "census", "kernels")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # a run must exit within 180 s


class RunFailed(Exception):
    pass


def worker_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BRAUERKIT_")
           and k not in ("PYTHONPATH", "PYTHONOPTIMIZE", "PYTHONSTARTUP",
                         "PYTHONINSPECT", "PYTHONDONTWRITEBYTECODE")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
        PYTHONHASHSEED="0",
        PYTHONNOUSERSITE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        HOME=str(BUILD / "home"),
        TMPDIR=str(BUILD / "tmp"),
    )
    return env


def spawn(workload, seed, mode, deadline):
    """Run one worker to completion and return its result.

    setup_s gains the time from before the process started to its first
    line of Python, which the worker cannot see.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} worker did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] += result["start_mono"] - started
    return result


def machine_info(versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
            **versions}


def measure(workload, seed, seconds, deadline):
    setups = [spawn(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    runs = []
    start = time.monotonic()
    while True:
        runs.append(spawn(workload, seed, "run", deadline))
        elapsed = time.monotonic() - start
        per_run = elapsed / len(runs)
        if elapsed >= seconds or time.monotonic() + per_run > deadline:
            break
    setups += [r["setup_s"] for r in runs]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "replay_s": statistics.median(r["replay_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    detail = {"runs": len(runs), "setup samples": len(setups),
              "wall_s per run": [round(r["wall_s"], 4) for r in runs],
              "uncorrected wall_s per run": [round(r["raw_wall_s"], 4) for r in runs],
              "replay_s per run": [round(r["replay_s"], 4) for r in runs],
              "uncorrected replay_s per run": [round(r["raw_replay_s"], 4) for r in runs],
              "host-speed probe ms (min, p10, median, p90) per run":
                  [r["probe_ms"] for r in runs]}
    return values, runs, detail


def trace(workload, seed, deadline):
    base = spawn(workload, seed, "run", deadline)
    traced = spawn(workload, seed, "trace", deadline)
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = (traced["wall_s"] - base["wall_s"]) / base["wall_s"]
    for key in ("wall_s", "replay_s", "raw_wall_s", "raw_replay_s"):
        print(f"{key}: untraced {base[key]:.3f} s, traced {traced[key]:.3f} s")
    for phase, selfs in traced["phases"].items():
        total = sum(selfs.values())
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:8]
        print(f"phase {phase}: self times sum to {total:.3f} s over "
              f"{traced['phase_products'].get(phase, 0)} products; largest: "
              + ", ".join(f"{name} {s:.3f}" for name, s in top))
    if traced["kernel_calls"]:
        print("kernel calls (semigroup size, inclusive s): "
              + ", ".join(f"{n}:{s:.3f}" for n, s in traced["kernel_calls"]))
    print(f"spans written to {traced['spans_file']}")
    return values, [base, traced], {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if sys.flags.optimize:
        sys.exit("run.py: refusing to run under python -O")
    if not (ROOT / "src" / "brauerkit" / "__init__.py").is_file():
        sys.exit(f"run.py: no brauerkit source under {ROOT / 'src'}; "
                 "run from the repository root")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for sub in ("home", "tmp", "pycache"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            values, runs, detail = trace(args.workload, args.seed, deadline)
        else:
            values, runs, detail = measure(args.workload, args.seed, args.seconds, deadline)
    except RunFailed as exc:
        sys.exit(f"run.py: {exc}")

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        sys.exit(f"run.py: workload produced no value for {missing}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if attempted == 0:
        sys.exit("run.py: the workload attempted no operation")
    for r in runs:
        for err in r["errors"]:
            print(f"FAILED: {err}", file=sys.stderr)
    info = machine_info(runs[-1]["versions"])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    for key, val in detail.items():
        print(f"  {key}: {val}")
    metrics = {}
    for m in declared:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:14.6g} {m['unit']}")
    print(f"  {'fail_frac':<40} {failed / attempted:14.6g} "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
