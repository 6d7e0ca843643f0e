"""Benchmark of the inflaton simulator on its committed scenarios.

    python3 benchmark/run.py --workload decay-suites --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload for about ``--seconds``, checks every
output, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``wall_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer split from a
traced round, next to an untraced one.  See README.md in this directory.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark prints an error and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# repeated from workloads.py, which cannot be imported before the timed import
WORKLOAD_NAMES = ("decay-suites", "expanding-sweep", "conservation")
SETUP_PROBES = 6          # extra fresh interpreters timed for setup_s
RHS_CALLS, RHS_BATCHES = 400, 7


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time import plus setup and print the seconds")
    return p.parse_args(argv)


def require_checkout() -> None:
    missing = [p for p in (SRC / "inflaton" / "__init__.py",
                           ROOT / "configs" / "thm3_h1.json") if not p.is_file()]
    if missing:
        sys.exit(f"benchmark: {missing[0]} not found; run from a full checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))


def timed_setup(workload: str, seed: int):
    """Import inflaton, make the inputs, build the workload.

    Returns the workload and the seconds spent importing plus building;
    making the seed's inputs is not counted.
    """
    start = time.perf_counter()
    import inflaton
    imported = time.perf_counter() - start
    if not Path(inflaton.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"benchmark: imported inflaton from {inflaton.__file__}, not {SRC}")
    import workloads
    wl = workloads.WORKLOADS[workload](ROOT, seed)
    start = time.perf_counter()
    wl.setup()
    return wl, imported + time.perf_counter() - start


def probe_setup(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_round(wl, tally: dict, tracer=None) -> float:
    """One timed round, then its checks; returns the round's wall time."""
    if tracer is None:
        wall = wl.run()
    else:
        with tracer:
            wall = wl.run()
    for failures in wl.check():
        tally["attempted"] += 1
        if failures:
            tally["failed"] += 1
            for msg in failures:
                print(f"FAILED {wl.name}: {msg}", file=sys.stderr)
    return wall


def repeat(step, seconds: float) -> list[float]:
    """Call step(k) for whole rounds k = 0, 1, ...: at least two, then while
    the next round is expected to end within ``seconds``."""
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start + max(walls) <= seconds:
        walls.append(step(len(walls)))
    return walls


def end_to_end(wl, setup0: float, args) -> tuple[dict, dict]:
    setups = [setup0] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    tally = {"attempted": 0, "failed": 0}
    walls = repeat(lambda k: run_round(wl, tally), args.seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{wl.name}: {len(walls)} rounds, wall_s {walls}, setup_s {setups}")
    return tally, {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def rhs_probe(probe) -> tuple[float, float]:
    """(us per public rhs call, tracemalloc peak bytes of one call)."""
    import tracemalloc

    from inflaton import dynamics
    state, hubble, spec = probe
    grid = state.grid
    dynamics.rhs(state, hubble, spec, grid)
    per_call = []
    for _ in range(RHS_BATCHES):
        start = time.perf_counter()
        for _ in range(RHS_CALLS):
            dynamics.rhs(state, hubble, spec, grid)
        per_call.append((time.perf_counter() - start) / RHS_CALLS)
    tracemalloc.start()
    try:
        dynamics.rhs(state, hubble, spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(per_call) * 1e6, float(peak)


def per_layer(wl, args) -> tuple[dict, dict]:
    """Alternate untraced and traced rounds; split the traced ones by layer."""
    from tracer import Tracer
    from workloads import OUT_DIR

    tracer = Tracer()
    tally = {"attempted": 0, "failed": 0}
    walls = repeat(lambda k: run_round(wl, tally, tracer if k % 2 else None),
                   args.seconds)
    plain, traced = walls[0::2], walls[1::2]
    print(f"{wl.name}: untraced rounds {plain}, traced rounds {traced}")
    rhs_us, rhs_bytes = rhs_probe(wl.probe)
    tracer.write(ROOT / OUT_DIR / wl.name / "trace")
    metrics = tracer.metrics(rounds=len(traced))
    wall_traced = statistics.median(traced)
    wall_plain = statistics.median(plain)
    stepping_force = metrics["dynamics.stepping_s"][0] + metrics["potentials.force_s"][0]
    metrics.update({
        "dynamics.rhs_us": (rhs_us, "us"),
        "dynamics.rhs_peak_bytes": (rhs_bytes, "bytes"),
        "split.stepping_force_share": (stepping_force / wall_traced, "ratio"),
        "split.diagnostics_share": (
            metrics["virials.diagnostics_s"][0] / wall_traced, "ratio"),
        "trace.wall_untraced_s": (wall_plain, "s"),
        "trace.wall_traced_s": (wall_traced, "s"),
        "trace.overhead_s": (wall_traced - wall_plain, "s"),
    })
    return tally, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    os.environ["INFLATON_THREADS"] = "1"
    wl, setup0 = timed_setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup0))
        return 0
    if args.trace:
        tally, metrics = per_layer(wl, args)
    else:
        tally, metrics = end_to_end(wl, setup0, args)
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
