"""Workload definitions and the closed loop that runs them.

One caller issues operations back to back in this process (the CLI phase
starts one child interpreter per subcommand and waits for it).  Every run
reports every end-to-end metric, so every workload runs every phase; the
phases a workload exists for get most of its time (`SHARES`) and the inputs
it is about (`LONG`), the others a short probe.

A phase is a list of rounds of operations, the same inputs each time it
repeats them.  The run visits all phases in `CYCLES` cycles, each phase
taking an equal part of its share per cycle, so every phase is measured
across the whole run.

Measured times are divided by the host factor: the reference kernel of
`hostspeed` timed before and after every round, or for a CLI or set-up
child a reference child started just before it
(`cli_suite.process_factors`).  A metric is thus what the run would have
measured with the host at its fast speed.  Each distinct round's time is
the median of its repetitions; a rate is the work of the distinct rounds
over the sum of those times.
"""
from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import cli_suite
import workloads
from hostspeed import host_factor
from workloads import PHASES, Outcome

CYCLES = 10
# share of --seconds per phase
SHARES = {
    "orbits": dict(quadric=.17, implicit=.12, circle=.08, points=.02, lines=.02, levels=.03,
                   geodesic=.06, cli=.5),
    "scan": dict(quadric=.08, implicit=.02, circle=.02, points=.1, lines=.1, levels=.12,
                 geodesic=.06, cli=.5),
    "geodesics": dict(quadric=.02, implicit=.02, circle=.02, points=.02, lines=.02, levels=.03,
                      geodesic=.37, cli=.5),
    "cli": dict(quadric=.03, implicit=.03, circle=.02, points=.03, lines=.03, levels=.03,
                geodesic=.03, cli=.8),
}
# phases that draw the long (orbits) or full (geodesics) population
LONG = {"orbits": {"quadric", "implicit", "circle"}, "geodesics": {"geodesic"}}
# distinct rounds per phase, for the long (or full) and the short population:
# few, so that each operation repeats across the cycles (for the full
# geodesics: sets of eight single-geodesic rounds)
ROUNDS = dict(quadric=(2, 4), implicit=(2, 4), circle=(2, 4), points=(3, 3), lines=(3, 3),
              levels=(2, 2), geodesic=(2, 2))
IMPORT_REPEATS = 3

# end-to-end metric -> (phase, work key, unit, kind): "rate" is the work of
# the distinct rounds over the sum of their median times, "sum" that sum (one
# suite), "pooled" the median over every sample of a repeated unit of work
END_TO_END = {
    "bounces_per_s": ("quadric", "bounces", "1/s", "rate"),
    "implicit_bounces_per_s": ("implicit", "implicit_bounces", "1/s", "rate"),
    "circle_steps_per_s": ("circle", "steps", "1/s", "rate"),
    "points_per_s": ("points", "points", "1/s", "rate"),
    "lines_per_s": ("lines", "lines", "1/s", "rate"),
    "level_chords_per_s": ("levels", "levels", "1/s", "rate"),
    "geodesic_length_per_s": ("geodesic", "length", "1/s", "rate"),
    "cli_suite_s": ("cli", "cli", "s", "sum"),
    "import_s": ("cli", "import", "s", "pooled"),
}
# the geodesics workload takes its lines from the Jacobi-Chasles spectra of
# its geodesics (lines next to lambda = 0), not from the scan population
LINES_FROM_GEODESICS = {"geodesics"}


class Run:
    """Inputs of one workload and seed, plus what running them produced."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.work_dir = root / ".bench_run" / f"{workload}-{seed}"
        self.geo = workloads.build_geometry(seed)
        self.phases = {}
        for i, phase in enumerate(PHASES):
            if phase == "cli":
                # one subcommand per round, so the phase's time slices
                # are not bound to whole suites
                self.phases[phase] = [
                    [lambda entry=entry: cli_suite.subprocess_op(entry, self.src, self.work_dir)]
                    for entry in cli_suite.SUITE
                ]
                continue
            rng = np.random.default_rng([seed, i])
            long = phase in LONG.get(workload, ())
            n_rounds = ROUNDS[phase][0 if long else 1]
            self.phases[phase] = workloads.BUILDERS[phase](rng, self.geo, n_rounds, long)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def warm_up(self) -> None:
        """One op of each in-process phase, untimed (lazy imports, caches)."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        for phase, rounds in self.phases.items():
            if phase != "cli":
                rounds[0][0]()

    def run_op(self, op) -> Outcome:
        self.attempted += 1
        try:
            out = op()
        except Exception:
            out = Outcome(failures=[traceback.format_exc(limit=3).strip().splitlines()[-1]])
            out.digest = "exception"
        if out.failures:
            self.failed += 1
            self.failures += out.failures
        return out

    def run_pass(self, rounds, on_op=None) -> list[Outcome]:
        outcomes = []
        for ops in rounds:
            for op in ops:
                if on_op is not None:
                    on_op()
                outcomes.append(self.run_op(op))
        return outcomes

    def measure(self, seconds: float) -> tuple[dict, dict, float]:
        """Untraced run: every phase for its share of `seconds`.  Returns the
        end-to-end metrics, the same without the host-speed correction, and
        the median host factor."""
        shares = SHARES[self.workload]
        used = dict.fromkeys(self.phases, 0.0)
        done = dict.fromkeys(self.phases, 0)
        # reps[phase][round][key] = (units, [(seconds, corrected seconds), ...])
        reps = {phase: {} for phase in self.phases}
        factors = []

        def run_round(phase):
            rounds = self.phases[phase]
            r = done[phase] % len(rounds)
            before = host_factor()
            t0 = perf_counter()
            outcomes = [self.run_op(op) for op in rounds[r]]
            used[phase] += perf_counter() - t0
            factor = 0.5 * (before + host_factor())
            factors.append(factor)
            work = {}
            for out in outcomes:
                for key, (units, secs) in out.work.items():
                    acc = work.setdefault(key, [0.0, 0.0, 0.0])
                    acc[0] += units
                    acc[1] += secs
                    acc[2] += secs / out.host_factors.get(key, factor)
            for key, (units, secs, corrected_secs) in work.items():
                reps[phase].setdefault(r, {}).setdefault(key, (units, []))[1].append((secs, corrected_secs))
            done[phase] += 1

        for cycle in range(1, CYCLES + 1):
            for phase in self.phases:
                while used[phase] < shares[phase] * seconds * cycle / CYCLES:
                    run_round(phase)
        for phase, rounds in self.phases.items():
            # every distinct round at least once, whatever the budget
            while done[phase] < len(rounds):
                run_round(phase)

        corrected, raw = {}, {}
        for name, (phase, key, unit, kind) in END_TO_END.items():
            if name == "lines_per_s" and self.workload in LINES_FROM_GEODESICS:
                phase = "geodesic"
            per_round = [r[key] for r in reps[phase].values() if key in r]
            units = sum(u for u, _ in per_round)
            for out, correct in ((corrected, True), (raw, False)):
                times = [[c if correct else s for s, c in samples] for _, samples in per_round]
                if kind == "pooled":
                    value = statistics.median(t for ts in times for t in ts)
                else:
                    secs = sum(statistics.median(ts) for ts in times)
                    if units <= 0 or secs <= 0:
                        raise RuntimeError(f"no operation measured {name}")
                    value = units / secs if kind == "rate" else secs
                out[name] = (value, unit)
        return corrected, raw, statistics.median(factors)

    def trace(self) -> dict:
        """Traced run: each phase once untraced, then once traced with the
        same inputs; outputs of the two passes must be identical.  The CLI
        phase runs in this process through `cli.main(argv)`.  Span times are
        wall times; `trace.overhead` compares host-corrected pass times."""
        import layers
        from tracer import Tracer

        tracer = Tracer()
        op_phase: list[str] = []
        facts = {}
        # traced wall time, and both passes' host-corrected times
        traced_wall, untraced_s, traced_s = 0.0, 0.0, 0.0
        self.phases["cli"] = [[lambda: cli_suite.inprocess_suite_op(self.work_dir)]]
        for phase, rounds in self.phases.items():
            before = host_factor()
            t0 = perf_counter()
            plain = self.run_pass(rounds)
            untraced_s += (perf_counter() - t0) / (0.5 * (before + host_factor()))

            def next_op(phase=phase):
                tracer.op = len(op_phase)
                op_phase.append(phase)

            originals = layers.install(tracer, self.geo)
            try:
                before = host_factor()
                t0 = perf_counter()
                traced = self.run_pass(rounds, on_op=next_op)
                wall = perf_counter() - t0
                traced_wall += wall
                traced_s += wall / (0.5 * (before + host_factor()))
            finally:
                layers.uninstall(tracer, self.geo, originals)
            tracer.op = -1
            if [o.digest for o in plain] != [o.digest for o in traced]:
                self.failed += 1
                self.failures.append(f"{phase}: traced outputs differ from untraced outputs")
            counts, worst = {}, {}
            for o in traced:
                for k, v in o.counts.items():
                    counts[k] = counts.get(k, 0) + v
                for k, v in o.worst.items():
                    worst[k] = max(worst.get(k, 0.0), v)
            facts[phase] = {"counts": counts, "worst": worst, "work": plain[-1].work}
        imports = self.run_pass([[lambda: cli_suite.import_op(self.src)]] * IMPORT_REPEATS)
        import_s = statistics.median(o.work["import"][1] for o in imports if "import" in o.work)

        table = tracer.table()
        out = layers.metrics(layers.LayerView(table, op_phase), facts, traced_wall)
        cli_times = {sub: facts["cli"]["work"][sub][1] for sub in cli_suite.SUBCOMMANDS}
        for sub, secs in cli_times.items():
            out[f"cli.{sub}_s"] = (secs, "s")
        n = len(cli_times)
        out["cli.import_share"] = (n * import_s / (n * import_s + sum(cli_times.values())), "ratio")
        out["failed_share"] = (self.failed / self.attempted, "ratio")
        out["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
        path = self.root / ".bench_run" / f"trace-{self.workload}-{self.seed}.json"
        path.write_text(json.dumps({"spans": table.summary(), "metrics": out}, indent=1))
        return out

    def input_digest(self) -> str:
        return workloads.fingerprint({p: r for p, r in self.phases.items() if p != "cli"})

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_times(script: Path, src: Path, workload: str, seed: int, repeats: int) -> list[tuple[float, float]]:
    """Wall time of fresh processes that only set up (import, build inputs,
    warm up) and exit, each with the host factor of the reference children
    around it, as for CLI children."""
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", "0", "--setup-only"]

    def child():
        t0 = perf_counter()
        subprocess.run(argv, check=True, timeout=170, stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    times = []
    for _ in range(repeats):
        wall, factors = cli_suite.around(src, child)
        times.append((wall, factors["cli"]))
    return times
