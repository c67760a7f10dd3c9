"""Benchmark of the bhdual verification pipeline.

    python3 bench/run.py --workload verify_all --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process, no threads: iterations run one at a time in a closed
loop, and each fresh interpreter (the set-ups, the cold CLI) is a child
process waited for before the next step starts.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json.  Set-up and
iteration times are read at a fixed machine speed, measured by a probe that
runs alongside the timed work (see speed.py); the wall-clock times are
printed beside them.  ``--trace 1``
is a separate run that reports the per-layer metrics from spans recorded
around the calls into each module (see tracing.py and layers.json).  Either
way every output is checked, and the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS = 7
TRACE_DIR = ROOT / ".bench_trace"


def spread_line(name: str, samples: list[float], unit: str) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    text = f"{name}: median {statistics.median(ordered):.6g} {unit}"
    if n > 10:
        text += f", p{100 * (n - 10) // n} {ordered[n - 11]:.6g} {unit}"
    else:
        text += ", no percentile with ten samples beyond"
    return text + f" (n={n})"


def provenance(seed: int) -> str:
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = done.stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((SRC / "bhdual").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"provenance: python {platform.python_version()}, nproc {cores}, git {sha}, "
        f"src sha256 {digest.hexdigest()[:16]}, corpus seed {seed}, "
        f"load average (1 min) {os.getloadavg()[0]:.2f}"
    )


def declared_metrics(kind: str) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[kind]}


def run_iterations(state, tally, seconds: float, cold: bool, after_each=None) -> list[dict]:
    """Closed loop: start iterations while the next one, if as long as the
    last, still ends within ``seconds`` (at least one); returns the part
    windows of each."""
    runs = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        runs.append(state.iteration(len(runs), tally, cold))
        if after_each is not None:
            after_each(runs)
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            return runs


def totals(runs: list[dict]) -> list[float]:
    """Wall seconds of each iteration, its parts summed."""
    return [sum(end - start for start, end in parts.values()) for parts in runs]


def timed_run(name: str, seed: int, seconds: float):
    import speed
    import workloads

    tally = workloads.Tally()
    with speed.SpeedProbe() as probe:
        setups = [workloads.check_setup(name, seed, tally, i) for i in range(SETUPS)]

        import bhdual.cli  # noqa: F401  (set-up as a user pays it)

        state = workloads.WORKLOADS[name](seed)
        rss = []

        def after_each(runs: list[dict]) -> None:
            if len(runs) == 1:
                rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

        runs = run_iterations(state, tally, seconds, cold=True, after_each=after_each)
    # part -> per iteration (wall seconds, seconds at nominal speed)
    parts = {part: [probe.window(*r[part]) for r in runs] for part in runs[0]}
    wall = [sum(parts[p][i][0] for p in parts) for i in range(len(runs))]
    nominal = [sum(parts[p][i][1] for p in parts) for i in range(len(runs))]
    # a set-up is too short for a steady speed reading of its own: all of
    # them are read at the speed measured over their whole span
    span_wall, span_nominal = probe.window(setups[0][0], setups[-1][1])
    setup = [(end - start, (end - start) * span_nominal / span_wall) for start, end in setups]
    values = {
        "setup_s": statistics.median(s for _, s in setup),
        "iteration_s": statistics.median(nominal),
        "peak_rss_mb": rss[0],
    }
    print(
        f"speed probe: {len(probe.durations)} samples, trimmed mean "
        f"{probe.overall() * 1e3:.4g} ms (nominal {speed.NOMINAL_S * 1e3:g} ms); "
        "iteration wall times exclude the probe's own cost"
    )
    print(spread_line("setup_s (wall)", [w for w, _ in setup], "s"))
    print(spread_line("setup_s", [s for _, s in setup], "s") + " <- metric")
    print(spread_line("iteration_s (wall)", wall, "s"))
    print(spread_line("iteration_s", nominal, "s") + " <- metric")
    for part, samples in parts.items():
        print("  " + spread_line(part, [s for _, s in samples], "s"))
    if hasattr(state, "RATE"):
        rate, part = state.RATE
        print(f"  {rate}: {state.items / statistics.median(s for _, s in parts[part]):.6g} 1/s "
              f"({state.items} per {part} at nominal speed)")
    print(f"peak_rss_mb: {rss[0]:.6g} MB (this process after its first iteration)")
    units = {m: spec["unit"] for m, spec in declared_metrics("end_to_end").items()}
    return tally, {m: {"value": values[m], "unit": units[m]} for m in units}


def traced_run(name: str, seed: int, seconds: float):
    import tracing
    import workloads

    import bhdual.cli  # noqa: F401

    tally = workloads.Tally()
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    state = workloads.WORKLOADS[name](seed)
    uninstall()

    start = time.perf_counter()
    untraced = totals(run_iterations(state, tally, seconds / 2, cold=False))

    def next_iteration(runs: list[dict]) -> None:
        tracer.iteration = len(runs) + 1

    next_iteration([])
    uninstall = tracer.install()
    remaining = seconds - (time.perf_counter() - start)
    traced = totals(run_iterations(state, tally, remaining, cold=False, after_each=next_iteration))
    uninstall()
    trace_path = TRACE_DIR / f"{name}-seed{seed}.jsonl.gz"
    tracer.dump(trace_path)

    setup = tracing.IterationProfile(tracer, 0)
    profiles = [tracing.IterationProfile(tracer, i) for i in range(1, len(traced) + 1)]

    def per_iteration(value) -> float:
        return statistics.median(value(p) for p in profiles)

    special = {
        "fixtures.load_rows.self_s": lambda: setup.self_s["fixtures.load_rows"],
        "trace.overhead_ratio": lambda: statistics.median(traced) / statistics.median(untraced) - 1,
        "trace.total_s": lambda: per_iteration(lambda p: p.total_s),
    }
    readers = {
        "self_s": lambda p, base: p.self_s[base],
        "calls": lambda p, base: p.calls[base],
        "useful_ratio": lambda p, base: p.useful_ratio(base),
        "dim_sum": lambda p, base: p.size_sum(base),
        "degree_sum": lambda p, base: p.size_sum(base),
    }
    moves = json.loads((BENCH / "layers.json").read_text())["moves"]
    metrics = {}
    for metric, spec in declared_metrics("per_layer").items():
        if metric in special:
            value = special[metric]()
        else:
            base, kind = metric.rsplit(".", 1)
            value = per_iteration(lambda p: readers[kind](p, base))
        metrics[metric] = {"value": value, "unit": spec["unit"]}
        print(f"{metric}: {value:.6g} {spec['unit']}  -> {moves[metric]}")

    first = profiles[0]
    module_sum = sum(first.self_s[m] for m in tracing.MODULES)
    print(
        f"module self times sum to {module_sum:.6f} s; traced total {first.total_s:.6f} s; "
        f"iteration wall {traced[0]:.6f} s"
    )
    print(spread_line("untraced iteration", untraced, "s"))
    print(spread_line("traced iteration", traced, "s"))
    print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bhdual" / "__init__.py").is_file():
        print(f"error: no bhdual package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bhdual

    if Path(bhdual.__file__).resolve().parent != SRC / "bhdual":
        print(f"error: bhdual imported from {bhdual.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        import bhdual.cli  # noqa: F401  (set-up as a user pays it)

        workloads.WORKLOADS[args.workload](args.seed)
        return 0

    print(provenance(args.seed))
    run = traced_run if args.trace else timed_run
    tally, metrics = run(args.workload, args.seed, args.seconds)
    print(
        f"ops_failed_ratio: {tally.failed / tally.attempted:.6g} ({tally.failed} of "
        f"{tally.attempted} checks; {tally.failed - tally.unexpected} of them the documented "
        "factor_cyclotomic index bound)"
    )
    for example in tally.examples:
        print(f"unexpected failure: {example}")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
