"""Byte-identity check of the program's outputs.

Prints one JSON object of sha256 digests: one per ``VirialSample`` field
and one per verdict field of each run, one per file the command line
writes, one per potential audit report and one per audit command's
output.  To compare two checkouts, run it in each and diff the outputs:

    python tests/output_digest.py > digests.json

The runs: the 12 committed suite runs, the energy-conservation run (C05),
the virial-consistency run at 1,024 cells (C07), dbrane runs that leave
the potential's domain (at the first snapshot, in the stepping's force or
at a later snapshot), E1 runs from rest that stop once the field outgrows
the step (RK4 sampled every 8 and every 16 steps, leapfrog), and
``inflaton simulate`` on configs/t1_smoke.json
and configs/t1_baseline.json and ``inflaton sweep`` on
configs/thm3_h1.json, one worker.  The audits: the ``to_dict()`` of the
default audit of every ``EXPECTED_CLASS`` family and of T3, E4 and
monodromy:q=0.3, and the stdout of ``inflaton audit T1`` and ``inflaton
audit-suite``.  It takes about 10 s on one core of a 2-core x86-64
machine.  Not a test module: pytest does not collect it.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from inflaton import cli  # noqa: E402
from inflaton.experiments import (Scenario, energy_conservation_scenario,  # noqa: E402
                                  run_scenario, thm1_suite, thm2_suite, thm3_suite,
                                  virial_consistency_scenario)
from inflaton.potentials import (EXPECTED_CLASS, PotentialSpec,  # noqa: E402
                                 audit_potential, parse_family)
from inflaton.virials import VirialSample  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dbrane_runs() -> list[Scenario]:
    """Data at rest focus through the origin and drive v towards -1; -1.5
    starts outside the domain."""
    runs = []
    for n in (1, 2):
        for amplitude in (-1.5, -0.6, -0.2):
            for scheme, order in (("rk4", 4), ("leapfrog", 2)):
                runs.append(Scenario(
                    name=f"dbrane{n}-a{amplitude:g}-{scheme}",
                    spec=PotentialSpec("dbrane", n=n), amplitude=amplitude,
                    center=4.0, width=1.5, velocity="rest", r_max=20.0,
                    n_cells=256, t_end=8.0, cfl=0.5 if scheme == "rk4" else 1.0,
                    space_order=order, output_every=1, scheme=scheme, mode="exploratory"))
    return runs


def stiffness_runs() -> list[Scenario]:
    """E1 data at rest focus into the stiff side of the potential until the
    visited window outgrows the step."""
    data = dict(spec=PotentialSpec("E", n=1), amplitude=-0.2, center=10.0, width=2.0,
                velocity="rest", cfl=1.0, space_order=2, decay_radius=5.0,
                mode="exploratory")
    return [*(Scenario(name=f"e1-rk4-every{every}", r_max=50.0, n_cells=256, t_end=30.0,
                       output_every=every, **data) for every in (8, 16)),
            Scenario(name="e1-leapfrog", r_max=40.0, n_cells=512, t_end=20.0,
                     output_every=8, scheme="leapfrog", **data)]


def run_digests(scenario: Scenario) -> dict[str, str]:
    result = run_scenario(scenario)
    out = {}
    for f in fields(VirialSample):
        values = np.array([getattr(s, f.name) for s in result.samples], dtype=float)
        out[f"{scenario.name}/{f.name}"] = _sha(values.tobytes())
    for f in fields(result.verdict):
        value = getattr(result.verdict, f.name)
        out[f"{scenario.name}/verdict.{f.name}"] = _sha(repr(value).encode())
    return out


def file_digests(root: Path) -> dict[str, str]:
    return {f"files/{path.relative_to(root)}": _sha(path.read_bytes())
            for path in sorted(root.rglob("*")) if path.is_file()}


def audit_digests() -> dict[str, str]:
    out = {}
    for label in [*EXPECTED_CLASS, "T3", "E4", "monodromy:q=0.3"]:
        report = audit_potential(parse_family(label)).to_dict()
        out[f"audit/{label}"] = _sha(json.dumps(report, sort_keys=True).encode())
    for argv in (["audit", "T1"], ["audit-suite"]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            cli.main(argv)
        out[f"stdout/{' '.join(argv)}"] = _sha(stdout.getvalue().encode())
    return out


def main() -> None:
    os.environ["INFLATON_THREADS"] = "1"
    scenarios = (thm1_suite() + thm2_suite() + thm3_suite()
                 + [energy_conservation_scenario(), virial_consistency_scenario(1024)]
                 + dbrane_runs() + stiffness_runs())
    digests = {}
    for scenario in scenarios:
        digests.update(run_digests(scenario))
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp)
        for name in ("t1_smoke", "t1_baseline"):
            cli.main(["simulate", str(REPO / "configs" / f"{name}.json"),
                      "--out", str(root / name)])
        cli.main(["sweep", str(REPO / "configs" / "thm3_h1.json"),
                  "--out", str(root / "thm3_h1-sweep")])
        digests.update(file_digests(root))
    digests.update(audit_digests())
    print(json.dumps(digests, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
