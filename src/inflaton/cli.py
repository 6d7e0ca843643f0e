"""Command-line front end: JSON scenario configs, CSV/JSON/SVG emission,
machine-readable verdicts.

Exit codes for ``simulate``: 0 verdict passed, 1 malformed config (also a
time step the run refuses as unstable), 2 verdict failed, 3 run aborted
(support overflow / non-finite field / potential domain violation / field
range outgrowing the leapfrog step).

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
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .dynamics import SCHEMES, CflViolation
from .experiments import (DEFAULT_THRESHOLDS, Scenario, ScenarioClassError,
                          ScenarioResult, run_potential_audit_suite,
                          run_scenario)
from .grid import RadialGrid
from .potentials import (EXPECTED_CLASS, audit_potential, coarse_class,
                         parse_family)
from .virials import CSV_COLUMNS

__all__ = ["main", "load_config", "ConfigError", "write_series_csv",
           "render_line_plot"]


class ConfigError(ValueError):
    """Malformed run configuration; message carries the offending key path."""


# ---------------------------------------------------------------------------
# config schema

_MODES = tuple(DEFAULT_THRESHOLDS)

CONFIG_SCHEMA = {
    "name": {"type": str, "required": True},
    "mode": {"type": str, "required": True, "choices": _MODES},
    "potential": {"type": str, "required": True},
    "hubble": {"type": (int, float), "default": 0.0, "min": 0.0},
    "initial": {
        "type": dict,
        "required": True,
        "fields": {
            "kind": {"type": str, "default": "bump", "choices": ("bump", "gaussian")},
            "amplitude": {"type": (int, float), "required": True},
            "center": {"type": (int, float), "required": True, "min": 0.0},
            "width": {"type": (int, float), "required": True, "min_exclusive": 0.0},
            "steepness": {"type": (int, float), "default": 1.0, "min_exclusive": 0.0},
            "velocity": {"type": str, "default": "outgoing",
                         "choices": ("rest", "outgoing")},
        },
    },
    "grid": {
        "type": dict,
        "required": True,
        "fields": {
            "r_max": {"type": (int, float), "required": True, "min_exclusive": 0.0},
            "n_cells": {"type": int, "required": True, "min": 16},
        },
    },
    "time": {
        "type": dict,
        "required": True,
        "fields": {
            "t_end": {"type": (int, float), "required": True, "min": 0.0},
            "cfl": {"type": (int, float), "default": 0.5, "min_exclusive": 0.0,
                    "max": 1.0},
            "output_every": {"type": int, "default": 16, "min": 1},
            "space_order": {"type": int, "default": 4, "choices": (2, 4, 6)},
            "dt": {"type": (int, float), "default": None, "min_exclusive": 0.0},
            "scheme": {"type": str, "default": "rk4", "choices": SCHEMES},
        },
    },
    "diagnostics": {
        "type": dict,
        "default": {},
        "fields": {
            "decay_radius": {"type": (int, float), "default": 10.0,
                             "min_exclusive": 0.0},
            "cone_b": {"type": (int, float), "default": 2.0},
            "j_sigma": {"type": (int, float), "default": -2.0},
            "j_offset": {"type": (int, float), "default": 0.0},
        },
    },
    "thresholds": {"type": dict, "default": {}, "free_numeric": True},
    "seed": {"type": int, "default": 0},
    "emit_plots": {"type": bool, "default": False},
    "sweep": {
        "type": dict,
        "default": None,
        "fields": {
            "amplitudes": {"type": list, "default": None},
            "hubbles": {"type": list, "default": None},
            "jitter_pct": {"type": (int, float), "default": 0.0, "min": 0.0},
        },
    },
}


def _finite_number(value) -> bool:
    # Python's json also reads NaN, Infinity and overflowing literals as floats
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_scalar(value, rule, path, errors):
    expected = rule["type"]
    if expected is int and isinstance(value, bool):
        errors.append(f"{path}: expected integer, got bool")
        return
    if not isinstance(value, expected):
        name = expected.__name__ if isinstance(expected, type) else "number"
        errors.append(f"{path}: expected {name}, got {type(value).__name__}")
        return
    if isinstance(value, float) and not math.isfinite(value):
        errors.append(f"{path}: must be a finite number")
        return
    if "choices" in rule and value not in rule["choices"]:
        errors.append(f"{path}: must be one of {rule['choices']}, got {value!r}")
    if "min" in rule and value < rule["min"]:
        errors.append(f"{path}: must be >= {rule['min']}")
    if "min_exclusive" in rule and value <= rule["min_exclusive"]:
        errors.append(f"{path}: must be > {rule['min_exclusive']}")
    if "max" in rule and value > rule["max"]:
        errors.append(f"{path}: must be <= {rule['max']}")


def _validate_block(data: dict, schema: dict, path: str, errors: list) -> dict:
    out = {}
    unknown = set(data) - set(schema)
    for key in sorted(unknown):
        errors.append(f"{path}{key}: unknown key")
    for key, rule in schema.items():
        if key not in data:
            if rule.get("required"):
                errors.append(f"{path}{key}: missing required key")
            elif rule.get("default") == {} and "fields" in rule:
                # an omitted block takes the defaults of its fields
                out[key] = _validate_block({}, rule["fields"], f"{path}{key}.", errors)
            else:
                out[key] = rule.get("default")
            continue
        value = data[key]
        if rule["type"] is dict:
            if not isinstance(value, dict):
                errors.append(f"{path}{key}: expected object")
                continue
            if rule.get("free_numeric"):
                errors.extend(f"{path}{key}.{k}: expected finite number"
                              for k, v in value.items() if not _finite_number(v))
                out[key] = dict(value)
            else:
                out[key] = _validate_block(value, rule["fields"],
                                           f"{path}{key}.", errors)
        elif rule["type"] is list:
            if not isinstance(value, list) or not value or not all(
                    map(_finite_number, value)):
                errors.append(f"{path}{key}: expected non-empty list of finite numbers")
            else:
                out[key] = [float(v) for v in value]
        else:
            _check_scalar(value, rule, f"{path}{key}", errors)
            out[key] = value
    return out


def load_config(path: str | Path) -> dict:
    """Parse and validate a run config; raises ConfigError with diagnostics."""
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
    cfg = _validate_block(raw, CONFIG_SCHEMA, "", errors)
    if not errors:
        _cross_validate(cfg, errors)
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def _cross_validate(cfg: dict, errors: list) -> None:
    try:
        parse_family(cfg["potential"])
    except ValueError as exc:
        errors.append(f"potential: {exc}")
        return
    grid_cfg = cfg["grid"]
    if grid_cfg["n_cells"] % 2:
        errors.append("grid.n_cells: must be even")
        return
    grid = RadialGrid(grid_cfg["r_max"], grid_cfg["n_cells"])
    tcfg = cfg["time"]
    if tcfg["dt"] is not None and tcfg["dt"] > tcfg["cfl"] * grid.dr * (1 + 1e-12):
        errors.append(
            f"time.dt: {tcfg['dt']} exceeds cfl*dr = {tcfg['cfl'] * grid.dr:.6g}")
    if tcfg["scheme"] == "leapfrog":
        hubbles = [cfg["hubble"]] + ((cfg["sweep"] or {}).get("hubbles") or [])
        if max(hubbles) > 0.0:
            errors.append(f"time.scheme: leapfrog needs hubble = 0 (hubble / "
                          f"sweep.hubbles reach {max(hubbles):g}); use rk4")
        if tcfg["space_order"] != 2:
            errors.append(f"time.space_order: leapfrog needs space_order 2, "
                          f"got {tcfg['space_order']}")
    init = cfg["initial"]
    needed = init["center"] + init["width"] + tcfg["t_end"] + 5 * grid.dr
    if grid_cfg["r_max"] < needed:
        errors.append(
            f"grid.r_max: {grid_cfg['r_max']} too small for the data support "
            f"plus horizon (needs >= {needed:.3f})")


def scenario_from_config(cfg: dict) -> Scenario:
    init = cfg["initial"]
    tcfg = cfg["time"]
    diag = cfg["diagnostics"]
    return Scenario(
        name=cfg["name"],
        spec=parse_family(cfg["potential"]),
        hubble=float(cfg["hubble"]),
        amplitude=float(init["amplitude"]),
        center=float(init["center"]),
        width=float(init["width"]),
        steepness=float(init["steepness"]),
        kind=init["kind"],
        velocity=init["velocity"],
        r_max=float(cfg["grid"]["r_max"]),
        n_cells=cfg["grid"]["n_cells"],
        t_end=float(tcfg["t_end"]),
        cfl=float(tcfg["cfl"]),
        space_order=tcfg["space_order"],
        output_every=tcfg["output_every"],
        dt=tcfg["dt"],
        scheme=tcfg["scheme"],
        decay_radius=float(diag["decay_radius"]),
        cone_b=float(diag["cone_b"]),
        j_sigma=float(diag["j_sigma"]),
        j_offset=float(diag["j_offset"]),
        mode=cfg["mode"],
        thresholds=cfg["thresholds"],
    )


# ---------------------------------------------------------------------------
# writers


def write_series_csv(path: Path, samples) -> None:
    """Frozen column contract; floats via repr for bit-stable round trips."""
    lines = [",".join(CSV_COLUMNS)]
    for sample in samples:
        lines.append(",".join(repr(float(v)) for v in sample.csv_row()))
    path.write_text("\n".join(lines) + "\n")


def read_series_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path}: empty series")
    return {name: data[:, i] for i, name in enumerate(header)}


def _svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_line_plot(title: str, t: np.ndarray, series: list[tuple[str, np.ndarray]],
                     width: int = 720, height: int = 440) -> str:
    """Standalone SVG line plot (no plotting dependency on the verdict path)."""
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
        scenario = scenario_from_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        result = run_scenario(scenario)
    except (ScenarioClassError, CflViolation) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else Path(cfg["name"])
    _write_outputs(result, out_dir, cfg["emit_plots"])
    verdict = result.verdict
    print(f"{verdict.name}: {'PASS' if verdict.passed else 'FAIL'}"
          f"{'  [' + verdict.diagnosis + ']' if verdict.diagnosis else ''}")
    if verdict.aborted:
        return 3
    return 0 if verdict.passed else 2


def cmd_audit(args) -> int:
    try:
        spec = parse_family(args.family)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    interval = (args.interval[0], args.interval[1])
    if not interval[0] < interval[1]:
        print("error: interval must satisfy lo < hi", file=sys.stderr)
        return 1
    report = audit_potential(spec, interval=interval, n_samples=args.samples)
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
    expected = EXPECTED_CLASS.get(report.label)
    if expected is None:
        return 0
    return 0 if coarse_class(report.theorem_class) == expected else 2


def _sweep_job(payload: tuple) -> tuple[str, dict]:
    cfg, name, out_dir = payload
    scenario = scenario_from_config(cfg)
    result = run_scenario(scenario)
    _write_outputs(result, Path(out_dir), cfg["emit_plots"])
    verdict = result.verdict.to_dict()
    verdict["_amplitude"] = cfg["initial"]["amplitude"]
    return name, verdict


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
    sweep = cfg.get("sweep") or {}
    amplitudes = sweep.get("amplitudes") or [cfg["initial"]["amplitude"]]
    hubbles = sweep.get("hubbles") or [cfg["hubble"]]
    jit = float(sweep.get("jitter_pct") or 0.0)
    rng = np.random.default_rng(cfg["seed"])
    out_root = Path(args.out) if args.out else Path(cfg["name"] + "-sweep")
    out_root.mkdir(parents=True, exist_ok=True)

    jobs = []
    for amp in amplitudes:
        for hub in hubbles:
            job_cfg = json.loads(json.dumps(cfg))  # deep copy
            a = float(amp)
            if jit > 0.0:
                a *= 1.0 + jit / 100.0 * float(rng.uniform(-1.0, 1.0))
            job_cfg["initial"]["amplitude"] = a
            job_cfg["hubble"] = float(hub)
            job_cfg["sweep"] = None
            name = f"a{amp:g}_H{hub:g}"
            job_cfg["name"] = f"{cfg['name']}-{name}"
            jobs.append((job_cfg, name, str(out_root / name)))

    max_workers = max(1, min(max_workers, len(jobs)))
    try:
        if max_workers == 1:
            results = [_sweep_job(job) for job in jobs]
        else:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                results = list(pool.map(_sweep_job, jobs))
    except (ScenarioClassError, CflViolation) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    results.sort(key=lambda kv: kv[0])

    def num(value) -> str:      # null (nothing sampled) stays an empty cell
        return "" if value is None else repr(float(value))

    lines = ["run,amplitude,hubble,passed,w_ratio,local_ratio,cone_ratio,aborted"]
    for name, verdict in results:
        lines.append(",".join([
            name,
            num(verdict["_amplitude"]),
            num(verdict["hubble"]),
            str(verdict["passed"]),
            num(verdict["w_ratio"]),
            num(verdict["local_energy_ratio"]),
            num(verdict["cone_energy_ratio"]),
            verdict["aborted"] or "",
        ]))
    (out_root / "summary.csv").write_text("\n".join(lines) + "\n")
    print(f"swept {len(jobs)} runs -> {out_root}/summary.csv")
    return 0 if all(v["passed"] for _, v in results) else 2


def cmd_plot(args) -> int:
    path = Path(args.series)
    try:
        series = read_series_csv(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    written = emit_plots(series, out_dir, path.stem)
    for p in written:
        print(p)
    return 0


def cmd_schema(args) -> int:
    del args

    def strip(block: dict) -> dict:
        out = {}
        for key, rule in block.items():
            entry = {"type": ("number" if rule["type"] in ((int, float),)
                              else getattr(rule["type"], "__name__", "number"))}
            if rule.get("required"):
                entry["required"] = True
            if "default" in rule and rule["type"] is not dict:
                entry["default"] = rule["default"]
            if "choices" in rule:
                entry["choices"] = list(rule["choices"])
            if rule["type"] is dict and "fields" in rule:
                entry["fields"] = strip(rule["fields"])
            out[key] = entry
        return out

    print(json.dumps(strip(CONFIG_SCHEMA), indent=2, sort_keys=True))
    return 0


def cmd_audit_suite(args) -> int:
    suite = run_potential_audit_suite(n_samples=args.samples)
    width = max(len(label) for label in suite["reports"])
    for label, report in suite["reports"].items():
        expected = EXPECTED_CLASS.get(label, "-")
        print(f"  {label:<{width}}  {report.theorem_class:<14} expected {expected}")
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
