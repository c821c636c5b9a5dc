"""One benchmark iteration in a fresh interpreter, so the package's memo
caches start cold as they do for every CLI invocation.

    python3 perfbench/worker.py --config full --workload census-e6 --seed 0 \
        --mode run|setup|trace

setup_s runs from just before `import levispherical` to the end of input
generation.  Mode `setup` stops there; `run` also times the workload and
checks its outputs; `trace` does the same with the tracer installed around
set-up and the timed phase, and writes the spans to .perfbench-out/.
Prints one JSON object on stdout.

In modes `setup` and `run` a calibrate.Sampler runs from the start to the
end of the timed phase, and the times reported (setup_s, wall_s, latencies)
are in reference seconds; the raw ones are reported too.  Mode `trace` runs
without it, so the spans hold no ticks, and its times are raw.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".perfbench-out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default="full")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under -O: the package's asserts must stay live",
              file=sys.stderr)
        return 2

    sampler = None if args.mode == "trace" else calibrate.Sampler()
    clock = perf_counter if sampler is None else sampler.clock
    if sampler is not None:
        sampler.start()
    start = clock()
    sys.path.insert(0, str(ROOT / "src"))
    import levispherical

    if Path(levispherical.__file__).resolve().parent != ROOT / "src" / "levispherical":
        print(f"imported {levispherical.__file__}, not this checkout's src/",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    workloads.clock = clock
    workload = workloads.CONFIGS[args.config][args.workload]
    tracer = tracing.Tracer() if args.mode == "trace" else None
    if tracer is not None:
        tracer.install()
    inputs = workload.setup(args.seed)
    raw_setup_s = clock() - start
    speed = 1.0 if sampler is None else sampler.speed()
    result = {"setup_s": raw_setup_s * speed, "raw_setup_s": raw_setup_s}
    if args.mode == "setup":
        sampler.stop()
        print(json.dumps(result))
        return 0

    first = 0 if sampler is None else len(sampler.chunks)
    try:
        outcome = workload.run(inputs)
    finally:
        if tracer is not None:
            tracer.remove()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed = 1.0
    latencies = outcome.latencies
    if sampler is not None:
        sampler.stop()
        speed = sampler.speed(first)
        if outcome.starts:
            latencies = [x * sampler.local_speed(t, speed)
                         for t, x in zip(outcome.starts, latencies)]
        else:
            latencies = [x * speed for x in latencies]
    verdict = workload.check(args.seed, inputs, outcome)
    result.update(
        wall_s=outcome.wall_s * speed,
        raw_wall_s=outcome.wall_s,
        speed=speed,
        ops=outcome.ops,
        latencies=latencies,
        attempted=verdict.attempted,
        failed=verdict.failed,
        digest=verdict.digest,
        problems=verdict.problems,
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write(SPAN_DIR / f"spans-{args.config}-{args.workload}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
