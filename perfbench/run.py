"""End-to-end benchmark of levispherical; see perfbench/README.md.

    python3 perfbench/run.py --workload census-e6 --seed 0 --seconds 30 --trace 0

Every timed iteration runs in a fresh single-threaded interpreter
(worker.py), one after another: the load is one closed-loop caller.  A run
first starts SETUP_PROBES interpreters that only set up, then runs
iterations while the next one is expected to end within --seconds (at least
one).  With --trace 1 each step is a pair: an untraced iteration and a
traced one.

End-to-end times are in reference seconds (see calibrate.py): each worker
scales its times by the machine's speed measured while they ran, so that a
shared host's drift does not swamp the program's own changes.

The last stdout line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
The line before it holds the details: seed, commit, interpreter, core count,
per-iteration values and any failed checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "levispherical"
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, config: str, workload: str, seed: int) -> None:
        self.args = ["--config", config, "--workload", workload, "--seed", str(seed)]
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
        self.started = perf_counter()

    def worker(self, mode: str) -> dict:
        """One fresh interpreter; a crash or timeout is a failed iteration."""
        budget = min(120.0, RUN_LIMIT_S - (perf_counter() - self.started))
        cmd = [sys.executable, str(HERE / "worker.py"), *self.args, "--mode", mode]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(budget, 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"attempted": 1, "failed": 1,
                    "problems": [f"{mode} iteration timed out after {budget:.0f} s"]}
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"attempted": 1, "failed": 1,
                    "problems": [f"{mode} worker exited {proc.returncode}: {tail[0]}"]}
        return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--config", choices=("full", "smoke"), default="full",
        help="'smoke' runs the same paths on small types, for the tests",
    )
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no package source at {PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.CONFIGS[args.config]:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    runner = Runner(args.config, args.workload, args.seed)
    probes = [runner.worker("setup") for _ in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        t0 = perf_counter()
        plain.append(runner.worker("run"))
        if args.trace:
            traced.append(runner.worker("trace"))
        step = perf_counter() - t0
        if perf_counter() - runner.started + step > args.seconds:
            break

    iterations = plain + traced + [p for p in probes if "setup_s" not in p]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    problems = [p for it in iterations for p in it.get("problems", [])]
    digests = {it.get("digest") for it in iterations}
    if len(digests) != 1:
        problems.append(f"outputs differ between iterations: {sorted(map(str, digests))}")
        failed = attempted
    ok = [it for it in plain if "wall_s" in it]
    ok_traced = [it for it in traced if "layers" in it]
    setups = [it["setup_s"] for it in probes + iterations if "setup_s" in it]

    metrics: dict[str, float] = {}
    if ok and (ok_traced or not args.trace):
        if args.trace:
            for name in ok_traced[0]["layers"]:
                metrics[name] = statistics.median(it["layers"][name] for it in ok_traced)
            metrics["trace.overhead_s"] = (
                statistics.median(it["wall_s"] for it in ok_traced)
                - statistics.median(it["raw_wall_s"] for it in ok)
            )
        else:
            p50s = [statistics.median(it["latencies"]) for it in ok]
            p99s = [nearest_rank(it["latencies"], 0.99) for it in ok]
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(it["wall_s"] for it in ok),
                "ops_per_s": statistics.median(it["ops"] / it["wall_s"] for it in ok),
                "op_p50_ms": statistics.median(p50s) * 1e3,
                "op_p99_ms": statistics.median(p99s) * 1e3,
                "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in ok),
            }
    else:
        problems.append("no iteration completed")
        failed = attempted = max(attempted, 1)

    details = {
        "workload": args.workload,
        "config": args.config,
        "seed": args.seed,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "iterations": len(ok),
        "wall_s_each": [it["wall_s"] for it in ok],
        "raw_wall_s_each": [it["raw_wall_s"] for it in ok],
        "speed_each": [it["speed"] for it in ok],
        "traced_wall_s_each": [it["wall_s"] for it in ok_traced],
        "setup_s_each": setups,
        "raw_setup_s_each": [it["raw_setup_s"] for it in probes + iterations
                             if "raw_setup_s" in it],
        "op_samples": sum(len(it["latencies"]) for it in ok),
        "op_p99_ms_each": [nearest_rank(it["latencies"], 0.99) * 1e3 for it in ok],
        "failed_ratio": failed / attempted,
        "digest": sorted(map(str, digests)),
        "problems": problems[:20],
    }
    print(json.dumps(details))
    units = END_TO_END_UNITS if not args.trace else {n: layer_unit(n) for n in metrics}
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
