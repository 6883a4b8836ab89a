"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload orbits --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The lines before it
record the environment and, untraced, the metrics without the host-speed
correction.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("orbits", "scan", "geodesics", "cli")
SETUP_REPEATS = 3


def _commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # cap BLAS threads at the cores this process may use, before numpy loads;
    # CLI child processes inherit the cap
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    try:
        import lorentzbilliards
    except ImportError as exc:
        print(f"bench: cannot import lorentzbilliards from {src}: {exc}", file=sys.stderr)
        return 2
    if src.resolve() not in Path(lorentzbilliards.__file__).resolve().parents:
        print(f"bench: lorentzbilliards loaded from outside {src}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    import harness
    from hostspeed import REFERENCE_NOMINAL_S

    run = harness.Run(ROOT, args.workload, args.seed)
    run.warm_up()
    if args.setup_only:
        return 0
    try:
        if args.trace:
            metrics = run.trace()
        else:
            setups = harness.setup_times(Path(__file__), src, args.workload, args.seed, SETUP_REPEATS)
            metrics, raw, median_factor = run.measure(args.seconds)
            metrics["setup_s"] = (statistics.median(w / f for w, f in setups), "s")
            raw["setup_s"] = (statistics.median(w for w, _ in setups), "s")
            metrics["peak_rss_mb"] = raw["peak_rss_mb"] = (harness.peak_rss_mb(), "MB")
    finally:
        run.cleanup()

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": nproc,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "inputs": run.input_digest(),
    }
    if not args.trace:
        env["reference_nominal_s"] = REFERENCE_NOMINAL_S
        env["host_factor_median"] = median_factor
    for msg in run.failures[:20]:
        print(f"bench: failed: {msg}", file=sys.stderr)
    print("env " + json.dumps(env))
    if not args.trace:
        print("uncorrected " + json.dumps({name: v for name, (v, _) in raw.items()}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
