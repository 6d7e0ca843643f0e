"""Minor page faults and heap churn per benchmark round.

Runs the rounds of ``benchmark/workloads.py`` in one process, as
``benchmark/run.py`` does, and prints one JSON object: for each workload,
the minor page faults of each round (the change of
``resource.getrusage(RUSAGE_SELF).ru_minflt`` around it) after one warm-up
round, and the peak RSS after a fixed number of rounds, so that two
checkouts are compared at equal round counts.  To compare two checkouts,
run it in each:

    python tests/fault_probe.py --rounds 10 > faults.json

A fault is a page the kernel maps in on first touch, so the count shows
memory the program hands back to the system and takes again.  It takes
about 20 s at 10 rounds on one core of a 2-core x86-64 machine.  Not a
test module: pytest does not collect it.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmark")]

import workloads  # noqa: E402


def probe(name: str, seed: int, rounds: int) -> dict:
    wl = workloads.WORKLOADS[name](REPO, seed)
    wl.setup()
    wl.run()
    faults = []
    for _ in range(rounds):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        wl.run()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return {"faults_per_round": faults, "median": statistics.median(faults),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                   help="one workload (default: each, in one process apiece)")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    os.environ["INFLATON_THREADS"] = "1"
    if args.workload:
        print(json.dumps(probe(args.workload, args.seed, args.rounds)))
        return
    # each workload in a fresh interpreter, so one's heap does not shape the next's
    out = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--rounds", str(args.rounds), "--seed", str(args.seed)],
                              capture_output=True, text=True, check=True)
        out[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
