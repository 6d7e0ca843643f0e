"""Tracing from outside the program.

The tracer replaces public functions of the ``inflaton`` modules with
wrappers at the names their callers look up (``experiments.evolve`` is the
name ``run_scenario`` calls, ``dynamics.eval_f`` the name the right-hand
side calls) and puts the originals back on exit.  A wrapper either records
a span (name, start, end, parent) or only counts calls.  Spans stay in
memory until ``write`` saves them.
"""

from __future__ import annotations

import csv
import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

SPAN, COUNT = "span", "count"


def _nodes(args) -> int:
    return int(np.size(args[1]))      # eval_f(spec, s)


def _rows(args) -> int:
    return len(args[1])               # write_series_csv(path, samples)


# (module, attribute, recorded name, kind, (extra count, measure) or None)
PLAN = (
    ("experiments", "run_scenario", "experiments.run_scenario", SPAN, None),
    ("cli", "run_scenario", "experiments.run_scenario", SPAN, None),
    ("experiments", "evolve", "dynamics.evolve", SPAN, None),
    ("dynamics", "evolve", "dynamics.evolve", SPAN, None),
    ("dynamics", "support_radius", "dynamics.support_radius", SPAN, None),
    ("dynamics", "eval_f", "potentials.force", SPAN, ("potentials.force_nodes", _nodes)),
    ("experiments", "sample_diagnostics", "virials.sample_diagnostics", SPAN, None),
    ("experiments", "audit_potential", "potentials.audit_potential", SPAN, None),
    ("cli", "load_config", "cli.load_config", SPAN, None),
    ("cli", "write_series_csv", "cli.write_series_csv", SPAN, ("cli.rows_written", _rows)),
    ("grid", "eval_F", "potentials.eval_F", COUNT, None),
    ("virials", "eval_F", "potentials.eval_F", COUNT, None),
    ("grid", "integrate", "grid.quadrature", COUNT, None),
    ("grid", "integrate_range", "grid.quadrature", COUNT, None),
    ("virials", "integrate", "grid.quadrature", COUNT, None),
)


class Tracer:
    """Context manager: wraps the PLAN functions on entry, restores on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, fn, name: str, extra):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            counts[name] += 1
            if extra is not None:
                counts[extra[0]] += extra[1](args)
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
        return traced

    def _count(self, fn, name: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def __enter__(self) -> "Tracer":
        for mod_name, attr, name, kind, extra in PLAN:
            module = importlib.import_module(f"inflaton.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrapper = (self._span(original, name, extra) if kind == SPAN
                       else self._count(original, name))
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis ------------------------------------------------------------

    def _child_time(self) -> list[float]:
        """Time each span spent in its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def totals(self) -> tuple[Counter, Counter]:
        """(total duration, self time) per span name."""
        total: Counter = Counter()
        own: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, self._child_time()):
            total[name] += end - start
            own[name] += end - start - inner
        return total, own

    def forced_stepping(self) -> float:
        """Self time of the evolve spans that evaluated a potential."""
        forced = {parent for name, _, _, parent in self.spans
                  if name == "potentials.force" and parent >= 0}
        child = self._child_time()
        return sum(self.spans[k][2] - self.spans[k][1] - child[k] for k in forced)

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures per traced round, keyed by metric name."""
        total, own = self.totals()
        c = self.counts
        samples = c["virials.sample_diagnostics"]
        force_s = total["potentials.force"]
        nodes = c["potentials.force_nodes"]
        per = 1.0 / rounds

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "dynamics.stepping_s": (own["dynamics.evolve"] * per, "s"),
            "dynamics.support_s": (total["dynamics.support_radius"] * per, "s"),
            "dynamics.ns_per_node_eval": (
                ratio(self.forced_stepping() + force_s, nodes) * 1e9, "ns"),
            "potentials.force_s": (force_s * per, "s"),
            "potentials.force_evals": (c["potentials.force"] * per, "count"),
            "potentials.audit_calls": (c["potentials.audit_potential"] * per, "count"),
            "potentials.audit_s": (total["potentials.audit_potential"] * per, "s"),
            "potentials.F_evals_per_sample": (ratio(c["potentials.eval_F"], samples),
                                              "count"),
            "virials.diagnostics_s": (total["virials.sample_diagnostics"] * per, "s"),
            "virials.samples": (samples * per, "count"),
            "virials.us_per_sample": (
                ratio(total["virials.sample_diagnostics"], samples) * 1e6, "us"),
            "grid.quadratures_per_sample": (ratio(c["grid.quadrature"], samples),
                                            "count"),
            "experiments.runs": (c["experiments.run_scenario"] * per, "count"),
            "experiments.grade_s": (own["experiments.run_scenario"] * per, "s"),
            "cli.load_config_s": (total["cli.load_config"] * per, "s"),
            "cli.write_s": (total["cli.write_series_csv"] * per, "s"),
            "cli.rows_written": (c["cli.rows_written"] * per, "count"),
        }

    def write(self, out_dir: Path) -> None:
        """Save the spans as CSV and the counts as JSON."""
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "spans.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start", "end", "parent"))
            writer.writerows(self.spans)
        (out_dir / "counts.json").write_text(
            json.dumps(dict(sorted(self.counts.items())), indent=2) + "\n")
