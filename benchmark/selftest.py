"""Self-test of the benchmark harness.

    python3 benchmark/selftest.py        (or: python3 -m pytest benchmark/selftest.py)

Checks that corrupted outputs are counted as failed operations and that
the tracer puts every wrapped function back.  Runs in a few seconds on
small grids; files go to .benchmark-out/selftest in the checkout.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
from inflaton import cli, dynamics  # noqa: E402
from inflaton.grid import RadialGrid  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import OUT_DIR, Conservation  # noqa: E402

WORK = ROOT / OUT_DIR / "selftest"


def _translation(n_cells: int):
    """A real translation run with the Conservation workload's parameters."""
    wl = Conservation(ROOT, seed=0)
    grid = RadialGrid(wl.r_max, n_cells)
    state0 = dynamics.initial_state(grid, 1.0, wl.center, wl.width,
                                    velocity="outgoing", space_order=wl.order)
    cfg = dynamics.SolverConfig(t_end=wl.t_end, cfl=wl.cfl, output_every=10**9,
                                space_order=wl.order)
    final = dynamics.evolve(state0, cfg, None, grid)
    return grid, final.u, checks.exact_translate(grid.r, final.t, wl.center, wl.width)


def test_pulse_shifted_by_one_cell_fails():
    grid, u, exact = _translation(1024)
    assert checks.check_translation(checks.relative_l2(u, exact), grid.n_cells) == []
    shifted = checks.relative_l2(np.roll(u, 1), exact)
    assert checks.check_translation(shifted, grid.n_cells) != []


def _expanding_run() -> tuple[str, str]:
    """series.csv and verdict.json of a short H = 1 run through the CLI."""
    cfg = json.loads((ROOT / "configs" / "thm3_h1.json").read_text())
    cfg.pop("sweep")
    cfg["grid"] = {"r_max": 12.0, "n_cells": 256}
    cfg["time"]["t_end"] = 2.0
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    (WORK / "config.json").write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", str(WORK / "config.json"),
                         "--out", str(WORK / "run")])
    assert code in (0, 2)   # the short horizon may miss the decay thresholds
    return ((WORK / "run" / "series.csv").read_text(),
            (WORK / "run" / "verdict.json").read_text())


def _edit_column(series: str, column: str, row: int, edit) -> str:
    """Replace one value of series.csv by edit(value, previous value)."""
    lines = series.splitlines()
    k = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[k] = repr(edit(float(cells[k]), float(lines[row].split(",")[k])))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_corrupted_sweep_outputs_fail():
    series, verdict = _expanding_run()
    assert checks.check_expanding_run("ok", series, verdict, 2.0) == []
    rising = _edit_column(series, "E", 5, lambda e, prev: prev * (1.0 + 1e-9))
    assert any("E increased" in m
               for m in checks.check_expanding_run("rising", rising, verdict, 2.0))
    last = len(series.splitlines()) - 2
    moved_w = _edit_column(series, "W", last, lambda w, prev: w * 1.001)
    assert any("w_ratio" in m
               for m in checks.check_expanding_run("W", moved_w, verdict, 2.0))
    not_finite = _edit_column(series, "E", 5, lambda e, prev: float("nan"))
    assert checks.check_expanding_run("nan", not_finite, verdict, 2.0) != []
    renamed = series.replace("coneE", "cone_E", 1)
    assert checks.check_expanding_run("header", renamed, verdict, 2.0) != []
    assert checks.check_expanding_run("short", series, verdict, 2.5) != []


class _Stub:
    name = "stub"

    def __init__(self, ops):
        self.ops = ops

    def run(self) -> float:
        return 1.0

    def check(self):
        return self.ops


def test_failed_check_counts_as_failed_operation():
    tally = {"attempted": 0, "failed": 0}
    run.run_round(_Stub([[], ["corrupted"], []]), tally)
    assert tally == {"attempted": 3, "failed": 1}


def _targets():
    return [(importlib.import_module(f"inflaton.{mod}"), attr)
            for mod, attr, *_ in tracer.PLAN]


def test_tracer_restores_every_wrapped_function():
    originals = [getattr(m, a) for m, a in _targets()]
    with tracer.Tracer() as t:
        assert all(getattr(m, a) is not o for (m, a), o in zip(_targets(), originals))
        _translation(256)
    assert all(getattr(m, a) is o for (m, a), o in zip(_targets(), originals))
    assert t.counts["dynamics.evolve"] == 1 and t.spans
    try:
        with tracer.Tracer():
            raise RuntimeError("fault inside a traced round")
    except RuntimeError:
        pass
    assert all(getattr(m, a) is o for (m, a), o in zip(_targets(), originals))


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
