"""The nine CLI subcommands with fixed arguments, and the check of each one's
exit code, stdout summary and CSV header and row count.

At the defaults `confocal-count` and `circle-phase` take about 60% of the
suite and would measure again what the `scan` workload measures.  Here the
arguments are small, so that each subcommand takes less time than `checks`,
whose work is fixed, and the suite weighs start-up, import, argparse and
output.
"""
from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import Outcome

# runs one subcommand like the console script, after reporting on stderr
# how long `import lorentzbilliards.cli` took in this fresh interpreter
CLI_SNIPPET = (
    "import sys, time; t = time.perf_counter(); from lorentzbilliards.cli import main; "
    "print(time.perf_counter() - t, file=sys.stderr, flush=True); sys.exit(main(sys.argv[1:]))"
)
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import lorentzbilliards.cli; "
    "print(time.perf_counter() - t)"
)
# The host slows fresh interpreters differently from in-process code, so a
# CLI child's times are corrected by reference children started just before
# and just after it, which import numpy only.  Fast-state numpy import time
# and reference child wall time on the 2-core host the benchmark was defined
# on:
REFERENCE_SNIPPET = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
NUMPY_IMPORT_NOMINAL_S = 0.050
REFERENCE_WALL_NOMINAL_S = 0.095

# (argv without output paths, {flag: file name}, CSV checked, header, row count)
# A row count of "stdout" takes the count from the leading number of the
# summary line the subcommand prints.
SUITE = [
    ("billiard", ["--bounces", "100"], {"--out": "billiard.csv"},
     "billiard.csv", "bounce_index,x0,x1,v0,v1,energy,harmonic_defect", "stdout"),
    ("circle-phase", ["--grid", "8", "--orbit-len", "20"],
     {"--out-csv": "phase.csv", "--out-svg": "phase.svg", "--out-orbit-svg": "orbit.svg"},
     "phase.csv", "t1,t2,num,den,lambda", 8 * 8),
    ("confocal-count", ["--grid", "12"], {"--out-csv": "count.csv", "--out-svg": "count.svg"},
     "count.csv", "x,y,count,degenerate", 12 * 12),
    ("geodesic", ["--length", "0.5"], {"--out": "geodesic.csv"},
     "geodesic.csv", "t,x0,x1,x2,v0,v1,v2,F0,F1,F2,J", "stdout"),
    ("revolution", ["--length", "1"], {"--out": "revolution.csv"},
     "revolution.csv", "t,x,y,z,vx,vy,vz,cr,invariant,m", "stdout"),
    ("diameters", ["--starts", "10"], {"--out": "diameters.csv"},
     "diameters.csv", "x0,x1,y0,y1,causal,f_value", "stdout"),
    ("caustic", ["--grid", "180"], {"--out-csv": "caustic.csv", "--out-svg": "caustic.svg"},
     "caustic.csv", "t,x,y", None),
    ("eigen-sweep", ["--count", "20"], {"--out": "eigen.csv"},
     "eigen.csv", "r2,pair_small,pair_large", 20),
    ("checks", [], {}, None, None, None),
]
SUBCOMMANDS = [entry[0] for entry in SUITE]


def _caustic_rows(grid: int) -> int:
    """Grid angles the caustic subcommand keeps (0.02 away from the four
    singular points)."""
    sing = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi])
    ts = np.linspace(0.0, 2 * np.pi, grid, endpoint=False)
    return int(np.sum(np.min(np.abs(ts[:, None] - sing[None, :]), axis=1) > 0.02))


def argv_for(entry, outdir: Path) -> list[str]:
    name, args, outputs = entry[0], entry[1], entry[2]
    argv = [name, *args]
    for flag, fname in outputs.items():
        argv += [flag, str(outdir / fname)]
    return argv


def check(entry, rc: int, stdout: str, outdir: Path) -> list[str]:
    name, args, _, csv_name, header, rows = entry
    if rc != 0:
        return [f"cli {name}: exit code {rc}"]
    if name == "checks":
        return [] if "all checks passed" in stdout else ["cli checks: no 'all checks passed'"]
    if rows == "stdout":
        match = re.match(r"(\d+) ", stdout.strip().splitlines()[-1])
        if match is None:
            return [f"cli {name}: no count in summary {stdout.strip()!r}"]
        rows = int(match.group(1))
    elif rows is None:
        rows = _caustic_rows(int(args[args.index("--grid") + 1]))
    lines = (outdir / csv_name).read_text(encoding="utf-8").splitlines()
    failures = []
    if lines[0] != header:
        failures.append(f"cli {name}: header {lines[0]!r}")
    if len(lines) - 1 != rows:
        failures.append(f"cli {name}: {len(lines) - 1} rows, expected {rows}")
    return failures


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def process_factors(src: Path) -> dict[str, float]:
    """Host factors for a child's wall time (`cli`) and import time
    (`import`), from one reference child."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", REFERENCE_SNIPPET],
        env=child_env(src), capture_output=True, text=True, timeout=60, check=True,
    )
    wall = perf_counter() - t0
    return {"cli": wall / REFERENCE_WALL_NOMINAL_S, "import": float(proc.stdout) / NUMPY_IMPORT_NOMINAL_S}


def around(src: Path, child) -> tuple[object, dict[str, float]]:
    """Run `child()` between two reference children; returns its result and
    the mean host factors."""
    before = process_factors(src)
    result = child()
    after = process_factors(src)
    return result, {key: 0.5 * (before[key] + after[key]) for key in before}


def subprocess_op(entry, src: Path, outdir: Path) -> Outcome:
    """One subcommand in a fresh interpreter: its wall time (work key
    `cli`) and the import time the child reports (work key `import`), each
    with the host factors of the reference children around it."""

    def child():
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_SNIPPET, *argv_for(entry, outdir)],
            env=child_env(src), capture_output=True, text=True, timeout=120,
        )
        return proc, perf_counter() - t0

    (proc, wall), factors = around(src, child)
    out = Outcome(host_factors=factors)
    out.work["cli"] = (1, wall)
    out.failures += check(entry, proc.returncode, proc.stdout, outdir)
    try:
        out.work["import"] = (1, float(proc.stderr.split("\n", 1)[0]))
    except ValueError:
        out.failures.append(f"cli {entry[0]}: no import time on stderr")
    out.digest = str(len(out.failures))
    return out


def inprocess_suite_op(outdir: Path) -> Outcome:
    """All nine subcommands through `cli.main(argv)` in this process, each
    timed on its own (work key = subcommand name)."""
    from lorentzbilliards import cli

    out = Outcome()
    for entry in SUITE:
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv_for(entry, outdir))
        out.work[entry[0]] = (1, perf_counter() - t0)
        out.failures += check(entry, rc, buf.getvalue(), outdir)
    out.count("bytes_written", sum(p.stat().st_size for p in outdir.iterdir()))
    out.digest = str(len(out.failures))
    return out


def import_op(src: Path) -> Outcome:
    """Time of `import lorentzbilliards.cli` in a fresh interpreter, as the
    child measures it."""
    out = Outcome()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET],
        env=child_env(src), capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        out.failures.append(f"import failed: {proc.stderr.strip()[-200:]}")
        return out
    out.work["import"] = (1, float(proc.stdout.strip()))
    return out
