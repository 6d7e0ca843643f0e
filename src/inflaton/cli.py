"""Command-line front end: JSON scenario configs, CSV/JSON/SVG emission,
machine-readable verdicts.

A config is ``Scenario``'s fields under a nested-key map (``BLOCKS``); the
types, defaults and rules are ``Scenario``'s, and ``schema`` prints the map.

Exit codes for ``simulate``: 0 verdict passed, 1 malformed config (also a
potential whose audit refuses the mode or window), 2 verdict failed, 3 run
aborted (support overflow / non-finite field / potential domain violation /
field range outgrowing the leapfrog step).  ``sweep``: 0 every job passed, 1
as ``simulate``, 2 some job failed or aborted; an aborted job is a failed
row of ``summary.csv`` with the abort in its ``aborted`` column.  Both, and
``plot``, exit 1 also when an output cannot be written (``error: cannot
write output: ...``), after the run.  ``audit`` and ``audit-suite``: 1 on a
bad family, interval (also one on which the potential overflows) or sample
count, 2 on an expected-class mismatch.  ``Scenario`` checks the mode's
field rules and the step from its initial data when it is built: an
unstable step is refused at load, and ``sweep`` builds every job's
``Scenario`` before it writes anything.

``time.scheme`` picks the time integrator: ``"rk4"`` (the default, any
``time.space_order``), ``"leapfrog"`` (``space_order`` 2 only, any
``hubble``) or ``"leapfrog4"`` (any ``space_order``, ``hubble`` 0 only, also
in ``sweep.hubbles``).  Every scheme's step is also bounded by the
potential's stiffness, see ``inflaton.dynamics``.

One run is single-threaded and bit-reproducible: identical configs yield
identical CSV bytes.  ``sweep`` parallelizes across runs only; the worker
count is capped by the INFLATON_THREADS environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from .experiments import (_GRADED_RATIOS, CHOICES, Scenario, ScenarioClassError,
                          ScenarioResult, run_potential_audit_suite, run_scenario)
from .potentials import (EXPECTED_CLASS, audit_potential, coarse_class,
                         parse_family)
from .virials import CSV_COLUMNS

__all__ = ["main", "load_config", "ConfigError", "write_series_csv",
           "render_line_plot"]


class ConfigError(ValueError):
    """Malformed run configuration; message carries the offending key path."""


# ---------------------------------------------------------------------------
# config: Scenario's fields under a nested-key map

# JSON block -> the Scenario fields it holds.  Every other field is a
# top-level key of its own name, except ``spec``, named by ``potential``.
BLOCKS = {
    "initial": ("kind", "amplitude", "center", "width", "steepness", "velocity"),
    "grid": ("r_max", "n_cells"),
    "time": ("t_end", "cfl", "output_every", "space_order", "dt", "scheme"),
    "diagnostics": ("decay_radius", "cone_b", "j_sigma", "j_offset"),
}
# Scenario fields a config must give (and ``potential``); the others take
# Scenario's defaults
REQUIRED = ("name", "mode", "amplitude", "center", "width", "r_max", "n_cells", "t_end")
# front-end keys, not Scenario fields: key -> (type or block, default)
FRONT_END = {
    "seed": (int, 0),
    "emit_plots": (bool, False),
    "sweep": ({"amplitudes": (list, None), "hubbles": (list, None),
               "jitter_pct": (float, 0.0)}, None),
}

_FIELDS = {f.name for f in fields(Scenario)}
# Scenario field -> config key path, for the constructors' messages
_PATHS = {"spec": "potential",
          **{name: f"{block}.{name}" for block, names in BLOCKS.items() for name in names}}
_SWEEP_PATHS = {**_PATHS, "amplitude": "sweep.amplitudes", "hubble": "sweep.hubbles"}


def _config_keys() -> dict:
    """key -> (type or block of keys, default), from Scenario's fields and type
    hints (``float | None`` reads as float); MISSING marks a required key."""
    hints = typing.get_type_hints(Scenario)
    keys = {}
    for f in fields(Scenario):
        kind = (typing.get_args(hints[f.name]) or (hints[f.name],))[0]
        default = f.default if f.default_factory is MISSING else f.default_factory()
        keys[f.name] = (kind, MISSING if f.name in REQUIRED else default)
    del keys["spec"]
    keys["potential"] = (str, MISSING)      # the family name spec is parsed from
    for block, names in BLOCKS.items():
        block_keys = {name: keys.pop(name) for name in names}
        required = any(default is MISSING for _, default in block_keys.values())
        keys[block] = (block_keys, MISSING if required else {})
    return {**keys, **FRONT_END}


CONFIG_KEYS = _config_keys()


def _finite(value) -> bool:
    # Python's json also reads NaN, Infinity and overflowing literals
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:       # an integer literal beyond the float range
        return False


def _load_value(value, kind, path: str, errors: list):
    if isinstance(kind, dict):                  # a block of keys
        if isinstance(value, dict):
            return _load_block(value, kind, f"{path}.", errors)
        errors.append(f"{path}: expected object")
    elif kind is dict:                          # thresholds: name -> number
        if isinstance(value, dict):
            errors.extend(f"{path}.{k}: expected finite number"
                          for k, v in value.items()
                          if isinstance(v, bool) or not _finite(v))
            return dict(value)
        errors.append(f"{path}: expected object")
    elif kind is list:
        if isinstance(value, list) and value and all(
                _finite(v) and not isinstance(v, bool) for v in value):
            return [float(v) for v in value]
        errors.append(f"{path}: expected non-empty list of finite numbers")
    elif kind in (int, float) and isinstance(value, bool):
        name = "integer" if kind is int else "number"
        errors.append(f"{path}: expected {name}, got bool")
    elif not isinstance(value, (int, float) if kind is float else kind):
        name = "number" if kind is float else kind.__name__
        errors.append(f"{path}: expected {name}, got {type(value).__name__}")
    elif kind in (int, float) and not _finite(value):
        errors.append(f"{path}: must be a finite number")
    else:
        return float(value) if kind is float else value
    return None


def _load_block(data: dict, keys: dict, path: str, errors: list) -> dict:
    out = {}
    for key in sorted(set(data) - set(keys)):
        errors.append(f"{path}{key}: unknown key")
    for key, (kind, default) in keys.items():
        if key in data:
            out[key] = _load_value(data[key], kind, path + key, errors)
        elif default is MISSING:
            errors.append(f"{path}{key}: missing required key")
        elif default == {}:     # an omitted object takes the defaults of its keys
            out[key] = _load_value({}, kind, path + key, errors)
        else:
            out[key] = default
    return out


def _keyed(exc: ValueError, paths: dict = _PATHS) -> str:
    """The message of a constructor rule, its leading field name made a key path."""
    head, sep, rest = str(exc).partition(": ")
    name, dot, sub = head.partition(".")
    return f"{paths.get(name, name)}{dot}{sub}{sep}{rest}"


def load_config(path: str | Path) -> dict:
    """Parse a run config into a nested dict with every default filled in.
    Collects structural errors (unknown or missing keys, wrong types, non-finite
    numbers), then checks Scenario's rules; raises ConfigError with key paths."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    errors: list[str] = []
    cfg = _load_block(raw, CONFIG_KEYS, "", errors)
    if not errors and cfg["seed"] < 0:
        errors.append("seed: must be >= 0")
    if not errors and cfg["sweep"] and cfg["sweep"]["jitter_pct"] < 0:
        errors.append("sweep.jitter_pct: must be >= 0.0")
    if errors:
        raise ConfigError("; ".join(errors))
    try:
        scenario_from_config(cfg)
    except ValueError as exc:
        raise ConfigError(_keyed(exc)) from None
    return cfg


def scenario_from_config(cfg: dict) -> Scenario:
    """Flatten a loaded config onto Scenario's fields and construct it."""
    flat = {key: value for key, value in cfg.items() if key in _FIELDS}
    for block in BLOCKS:
        flat.update(cfg[block])
    try:
        spec = parse_family(cfg["potential"])
    except ValueError as exc:
        raise ValueError(f"spec: {exc}") from None
    return Scenario(spec=spec, **flat)


# ---------------------------------------------------------------------------
# writers


def write_series_csv(path: Path, samples) -> None:
    """Frozen column contract; floats via repr for bit-stable round trips."""
    with open(path, "w") as fh:     # row by row: no whole-file string in memory
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for sample in samples:
            fh.write(",".join(repr(float(v)) for v in sample.csv_row()) + "\n")


def read_series_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path}: empty series")
    return {name: data[:, i] for i, name in enumerate(header)}


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_line_plot(title: str, t: np.ndarray, series: list[tuple[str, np.ndarray]]) -> str:
    """Standalone 720 x 440 SVG line plot (no plotting dependency on the verdict path)."""
    width, height = 720, 440
    ml, mr, mt, mb = 70, 20, 40, 45
    pw, ph = width - ml - mr, height - mt - mb
    t = np.asarray(t, dtype=float)
    ys = np.concatenate([np.asarray(v, dtype=float) for _, v in series])
    t_lo, t_hi = float(t.min()), float(t.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if t_hi == t_lo:
        t_hi = t_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return ml + (x - t_lo) / (t_hi - t_lo) * pw

    def sy(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    colors = ("#1f6fb2", "#c44e52", "#2a9d5c", "#8172b2")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_svg_escape(title)}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#444" stroke-width="1"/>',
    ]
    for k in range(5):
        xv = t_lo + k * (t_hi - t_lo) / 4
        yv = y_lo + k * (y_hi - y_lo) / 4
        parts.append(f'<line x1="{sx(xv):.1f}" y1="{mt + ph}" x2="{sx(xv):.1f}" '
                     f'y2="{mt + ph + 5}" stroke="#444"/>')
        parts.append(f'<text x="{sx(xv):.1f}" y="{mt + ph + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{xv:.4g}</text>')
        parts.append(f'<line x1="{ml - 5}" y1="{sy(yv):.1f}" x2="{ml}" '
                     f'y2="{sy(yv):.1f}" stroke="#444"/>')
        parts.append(f'<text x="{ml - 8}" y="{sy(yv) + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{yv:.4g}</text>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">t</text>')
    for i, (label, values) in enumerate(series):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(t, values))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + 10}" y="{mt + 18 + 16 * i}" fill="{color}" '
                     f'font-family="sans-serif" font-size="12">{_svg_escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit_plots(series: dict[str, np.ndarray], out_dir: Path, stem: str) -> list[Path]:
    t = series["t"]
    written = []
    singles = [("E", "total energy"), ("W", "weighted norm W"), ("I", "virial I")]
    for col, title in singles:
        path = out_dir / f"{stem}_{col}.svg"
        path.write_text(render_line_plot(f"{title} vs t", t, [(col, series[col])]))
        written.append(path)
    if len(t) >= 3:
        fd = (series["I"][2:] - series["I"][:-2]) / (t[2:] - t[:-2])
        path = out_dir / f"{stem}_I_rate_check.svg"
        path.write_text(render_line_plot(
            "analytic I_rate vs centered difference of I", t[1:-1],
            [("I_rate", series["I_rate"][1:-1]), ("FD(I)", fd)]))
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# subcommands


def _cannot_write(exc: OSError) -> int:
    print(f"error: cannot write output: {exc}", file=sys.stderr)
    return 1


def _write_outputs(result: ScenarioResult, out_dir: Path, emit: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_series_csv(out_dir / "series.csv", result.samples)
    (out_dir / "verdict.json").write_text(
        json.dumps(result.verdict.to_dict(), indent=2, sort_keys=True) + "\n")
    if emit and result.samples:
        emit_plots(read_series_csv(out_dir / "series.csv"), out_dir, "series")


def cmd_simulate(args) -> int:
    try:
        cfg = load_config(args.config)
        result = run_scenario(scenario_from_config(cfg))
    except (ConfigError, ScenarioClassError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else Path(cfg["name"])
    try:
        _write_outputs(result, out_dir, cfg["emit_plots"])
    except OSError as exc:
        return _cannot_write(exc)
    verdict = result.verdict
    print(f"{verdict.name}: {'PASS' if verdict.passed else 'FAIL'}"
          f"{'  [' + verdict.diagnosis + ']' if verdict.diagnosis else ''}")
    if verdict.aborted:
        return 3
    return 0 if verdict.passed else 2


def cmd_audit(args) -> int:
    try:
        report = audit_potential(parse_family(args.family),
                                 interval=tuple(args.interval), n_samples=args.samples)
    except ValueError as exc:     # unknown family, bad interval, < 2 samples
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = [
        ("family", report.label),
        ("interval", f"[{report.interval[0]:g}, {report.interval[1]:g}]"),
        ("samples", str(report.n_samples)),
        ("sample spacing", f"{report.sample_spacing:.3e}"),
        ("min 2F - s f (wide)", f"{report.virial_sign_min:.6e}"),
        ("min 2F - s f (local)", f"{report.local_sign_min:.6e}"),
        ("min F (wide)", f"{report.potential_min:.6e}"),
        ("flatness constant", "unbounded" if not report.quartic_bounded
         else f"{report.quartic_constant:.6e}"),
        ("sup |f'| (wide)", f"{report.lipschitz_bound:.6e}"),
        ("min s f (local)", f"{report.defocusing_min:.6e}"),
        ("theorem class", report.theorem_class),
    ]
    width = max(len(k) for k, _ in rows)
    for key, val in rows:
        print(f"  {key:<{width}}  {val}")
    print(json.dumps(report.to_dict(), sort_keys=True))
    coarse = coarse_class(report.theorem_class)     # uncatalogued families pass
    return 0 if EXPECTED_CLASS.get(report.label, coarse) == coarse else 2


def sweep_scenarios(cfg: dict) -> list[tuple[str, Scenario]]:
    """(directory name, Scenario) of each job of a loaded config's sweep; the
    first job Scenario rejects raises its ValueError, the job name appended."""
    base = scenario_from_config(cfg)
    sweep = cfg["sweep"] or {}
    amplitudes = sweep.get("amplitudes") or [base.amplitude]
    hubbles = sweep.get("hubbles") or [base.hubble]
    jit = sweep.get("jitter_pct", 0.0)
    rng = np.random.default_rng(cfg["seed"])
    jobs = []
    seen: dict[str, int] = {}
    for amp in amplitudes:
        for hub in hubbles:
            a = amp
            if jit > 0.0:
                a *= 1.0 + jit / 100.0 * float(rng.uniform(-1.0, 1.0))
            name = f"a{amp:g}_H{hub:g}"
            seen[name] = seen.get(name, 0) + 1
            if seen[name] > 1:      # a repeated pair gets its own directory
                name = f"{name}-{seen[name]}"
            try:
                job = replace(base, name=f"{base.name}-{name}", amplitude=a, hubble=hub)
            except ValueError as exc:
                raise type(exc)(f"{exc} (sweep job {name})") from None
            jobs.append((name, job))
    return jobs


def _sweep_job(job: tuple) -> tuple[str, bool, str]:
    """Run one job and write its outputs; return its name, whether it passed
    and its summary.csv row, where a NaN (nothing sampled) is an empty cell."""
    scenario, name, out_dir, emit = job
    result = run_scenario(scenario)
    _write_outputs(result, Path(out_dir), emit)
    verdict = result.verdict
    ratios = [getattr(verdict, verdict_field) for verdict_field, _ in _GRADED_RATIOS.values()]
    cells = ["" if math.isnan(x) else repr(float(x))
             for x in (scenario.amplitude, verdict.hubble, *ratios)]
    row = [name, *cells[:2], str(verdict.passed), *cells[2:], verdict.aborted or ""]
    return name, verdict.passed, ",".join(row)


def cmd_sweep(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    threads = os.environ.get("INFLATON_THREADS", "0")
    try:
        max_workers = int(threads) or (os.cpu_count() or 1)
    except ValueError:
        print(f"error: INFLATON_THREADS must be an integer, got {threads!r}",
              file=sys.stderr)
        return 1
    out_root = Path(args.out) if args.out else Path(cfg["name"] + "-sweep")
    try:    # every job is checked before any output exists
        jobs = [(scn, name, str(out_root / name), cfg["emit_plots"])
                for name, scn in sweep_scenarios(cfg)]
    except ValueError as exc:
        print(f"config error: {_keyed(exc, _SWEEP_PATHS)}", file=sys.stderr)
        return 1
    max_workers = max(1, min(max_workers, len(jobs)))
    try:
        if max_workers == 1:
            results = [_sweep_job(job) for job in jobs]
        else:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                results = list(pool.map(_sweep_job, jobs))
    except ScenarioClassError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:      # a job's output directory or files
        return _cannot_write(exc)
    results.sort(key=lambda job: job[0])
    lines = [",".join(["run", "amplitude", "hubble", "passed", *_GRADED_RATIOS, "aborted"]),
             *(row for _, _, row in results)]
    try:
        (out_root / "summary.csv").write_text("\n".join(lines) + "\n")
    except OSError as exc:
        return _cannot_write(exc)
    print(f"swept {len(jobs)} runs -> {out_root}/summary.csv")
    return 0 if all(passed for _, passed, _ in results) else 2


def cmd_plot(args) -> int:
    path = Path(args.series)
    try:
        series = read_series_csv(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else path.parent
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = emit_plots(series, out_dir, path.stem)
    except OSError as exc:
        return _cannot_write(exc)
    for p in written:
        print(p)
    return 0


def _schema(keys: dict) -> dict:
    out = {}
    for key, (kind, default) in keys.items():
        block = isinstance(kind, dict)
        entry = {"type": "dict" if block else "number" if kind is float else kind.__name__}
        if default is MISSING:
            entry["required"] = True
        elif not (block or kind is dict):
            entry["default"] = default
        if key in CHOICES:
            entry["choices"] = list(CHOICES[key])
        if block:
            entry["fields"] = _schema(kind)
        out[key] = entry
    return out


def cmd_schema(args) -> int:
    del args
    print(json.dumps(_schema(CONFIG_KEYS), indent=2, sort_keys=True))
    return 0


def cmd_audit_suite(args) -> int:
    try:
        suite = run_potential_audit_suite(n_samples=args.samples)
    except ValueError as exc:     # fewer than 2 samples
        print(f"error: {exc}", file=sys.stderr)
        return 1
    width = max(len(label) for label in suite["reports"])
    for label, report in suite["reports"].items():
        print(f"  {label:<{width}}  {report.theorem_class:<14} "
              f"expected {EXPECTED_CLASS[label]}")
    if suite["mismatches"]:
        for label, expected, got in suite["mismatches"]:
            print(f"MISMATCH {label}: expected {expected}, audited {got}",
                  file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="inflaton",
        description="radial scalar-field decay simulator and virial diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario config")
    p.add_argument("config")
    p.add_argument("--out", help="output directory (default: scenario name)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="audit one potential family")
    p.add_argument("family")
    p.add_argument("--interval", nargs=2, type=float, default=[-10.0, 10.0])
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("audit-suite", help="audit the whole catalogue")
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=cmd_audit_suite)

    p = sub.add_parser("sweep", help="cartesian sweep over amplitudes/H")
    p.add_argument("config")
    p.add_argument("--out", help="output root directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="render SVG plots from a series.csv")
    p.add_argument("series")
    p.add_argument("--out", help="output directory (default: alongside input)")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("schema", help="print the config schema")
    p.set_defaults(func=cmd_schema)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
