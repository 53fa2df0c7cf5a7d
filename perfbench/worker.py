"""One workload in one fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --root ROOT --workload NAME --seed N --mode MODE

MODE is ``setup`` (import and build the inputs, then stop), ``run`` (the
untraced workload) or ``trace`` (the workload with every layer wrapped in
spans, then the product microbench).  The last line of standard output is
one JSON object.  ``start_mono`` is CLOCK_MONOTONIC, which is shared by all
processes, so the parent can add the interpreter's start-up, measured from
before it started us, to the set-up time.  Every time reported, spans
included, is read from hostspeed's corrected clock; the ``raw_`` section
times are as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from hostspeed import HostSpeed

PRODUCT_PAIRS = 1000  # element pairs per family in the product microbench
PRODUCT_REPEATS = 30


def product_microbench(seed):
    """Timed passes of the unwrapped `multiply` over seed-sampled pairs.

    Returns {suffix: [(start, end) of each pass]}.  The families take turns,
    so each one's passes spread over the whole microbench and meet many
    host-speed probes.
    """
    from brauerkit import construct, diagrams, encode
    from layers import PRODUCT_SAMPLES

    multiply = diagrams.multiply
    rng = random.Random(seed)
    pairs = {}
    for suffix, code, n in PRODUCT_SAMPLES:
        elems = sorted(construct(code, n).elements, key=encode)
        pairs[suffix] = [(rng.choice(elems), rng.choice(elems))
                         for _ in range(PRODUCT_PAIRS)]
    passes = {suffix: [] for suffix in pairs}
    for _ in range(PRODUCT_REPEATS):
        for suffix, sample in pairs.items():
            start = time.perf_counter()
            for a, b in sample:
                multiply(a, b)
            passes[suffix].append((start, time.perf_counter()))
    return passes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()
    if sys.flags.optimize:
        sys.exit("worker: refusing to run under python -O; the kernel fixpoint "
                 "and aperiodicity cross-checks are asserts")
    root = Path(args.root).resolve()
    out = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
           "start_mono": time.monotonic()}
    t_start = time.perf_counter()
    speed = HostSpeed()
    speed.start()

    import brauerkit

    if not Path(brauerkit.__file__).resolve().is_relative_to(root / "src"):
        sys.exit(f"worker: imported brauerkit from {brauerkit.__file__}, "
                 f"not from {root / 'src'}")
    from workloads import WORKLOADS, Ops

    workdir = root / ".bench_build" / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    phase = lambda name: nullcontext()  # noqa: E731
    if args.mode == "trace":
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
        phase = tracer.phase
    workload = WORKLOADS[args.workload](args.seed, workdir, span=phase)
    ops = Ops()
    product_passes = {}
    try:
        with phase("setup"):
            workload.setup()
        marks = [t_start, time.perf_counter()]
        if args.mode != "setup":
            with phase("run"):
                workload.run(ops)
            marks.append(time.perf_counter())
            with phase("replay"):
                workload.replay(ops)
            marks.append(time.perf_counter())
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.unpatch()
            tracer.counts.update(workload.counts())
            product_passes = product_microbench(args.seed)
    finally:
        speed.stop()
        workload.close()
    clock = speed.clock()
    for name, t0, t1 in zip(("setup_s", "wall_s", "replay_s"), marks, marks[1:]):
        out[name] = clock(t1) - clock(t0)
        out["raw_" + name] = t1 - t0
    durations = sorted(d for _, d in speed.samples)
    out["probe_ms"] = [round(1e3 * durations[int(q * (len(durations) - 1))], 3)
                       for q in (0, 0.1, 0.5, 0.9)] if durations else []
    out.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors[:20])
    if tracer is not None:
        tracer.retime(clock)
        out["layers"] = layers.metrics(tracer)
        for suffix, passes in product_passes.items():
            per_pass = statistics.median(clock(t1) - clock(t0) for t0, t1 in passes)
            out["layers"][f"diagrams.product_us.{suffix}"] = per_pass / PRODUCT_PAIRS * 1e6
        phases, products = tracer.by_phase()
        out["phases"] = {p: dict(v) for p, v in phases.items()}
        out["phase_products"] = dict(products)
        out["kernel_calls"] = [[sp.info, sp.duration] for sp in tracer.spans
                               if sp.name == "kernel.kernel"]
        spans_path = workdir.parent / f"spans-{args.workload}-{args.seed}.json"
        tracer.dump(spans_path)
        out["spans_file"] = os.path.relpath(spans_path, root)
    import numpy
    import scipy

    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "scipy": scipy.__version__}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
