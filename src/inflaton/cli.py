"""Command-line front end: JSON scenario configs, CSV/JSON emission,
machine-readable verdicts.

A config is ``Scenario``'s fields under a nested-key map (``BLOCKS``), a
closed set of keys; the types, defaults and rules are ``Scenario``'s (a
field without a default is a required key), and ``schema`` prints the map.
The verdict thresholds are the mode's.

Exit codes for ``simulate``: 0 verdict passed, 1 malformed config (also a
potential whose audit refuses the mode or window), 2 verdict failed, 3 run
aborted (support overflow / non-finite field / potential domain violation /
field range outgrowing the step, under every scheme).  ``sweep``: 0 every
job passed, 1 as ``simulate``, 2 some job failed or aborted; an aborted job
is a failed row of ``summary.csv`` with the abort in its ``aborted`` column.
Both exit 1 also when an output cannot be written (``error: cannot write
output: ...``), after the run.  ``audit`` and ``audit-suite``: 1 on a bad family,
interval (also one on which the potential overflows) or sample count, 2 on
an expected-class mismatch.  A usage error (unknown command, missing or
malformed argument) exits 1, with argparse's message.  Every command exits 1
on a size it cannot allocate (``error: not enough memory: ...``), such as
a ``grid.n_cells`` or ``--samples`` of 10^13.  ``Scenario`` checks the
mode's field rules and the step from its initial data when it is built: an
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
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .experiments import (_GRADED_RATIOS, CHOICES, Scenario, ScenarioClassError,
                          ScenarioResult, run_potential_audit_suite, run_scenario)
from .potentials import (EXPECTED_CLASS, audit_potential, coarse_class,
                         parse_family)
from .virials import CSV_COLUMNS

__all__ = ["main", "load_config", "ConfigError", "write_series_csv"]


class ConfigError(ValueError):
    """Malformed run configuration; message carries the offending key path."""


# ---------------------------------------------------------------------------
# config: Scenario's fields under a nested-key map

# JSON block -> the Scenario fields it holds.  Every other field is a
# top-level key of its own name, except ``spec``, named by ``potential``.
BLOCKS = {
    "initial": ("kind", "amplitude", "center", "width", "steepness", "velocity"),
    "grid": ("r_max", "n_cells"),
    "time": ("t_end", "cfl", "output_every", "space_order", "scheme"),
    "diagnostics": ("decay_radius",),
}
# front-end keys, not Scenario fields: key -> (type or block, default)
FRONT_END = {
    "seed": (int, 0),
    "sweep": ({"amplitudes": (list, None), "hubbles": (list, None),
               "jitter_pct": (float, 0.0)}, None),
}

_FIELDS = {f.name for f in fields(Scenario)}
# Scenario field -> config key path, for the constructors' messages
_PATHS = {"spec": "potential",
          **{name: f"{block}.{name}" for block, names in BLOCKS.items() for name in names}}
# Scenario field -> the sweep key that lists a value for each job
_SWEPT = {"amplitude": "amplitudes", "hubble": "hubbles"}


def _config_keys() -> dict:
    """key -> (type or block of keys, default), from Scenario's fields and type
    hints; MISSING, a field without a default, marks a required key."""
    hints = typing.get_type_hints(Scenario)
    keys = {f.name: (hints[f.name], f.default) for f in fields(Scenario)}
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


def _keyed(exc: ValueError, paths: dict) -> str:
    """The message of a constructor rule, its leading field name made a key path."""
    head, sep, rest = str(exc).partition(": ")
    name, dot, sub = head.partition(".")
    return f"{paths.get(name, name)}{dot}{sub}{sep}{rest}"


def load_config(path: str | Path) -> dict:
    """Parse a run config into a nested dict with every default filled in.
    Collects structural errors (unknown or missing keys, wrong types, non-finite
    numbers), then, for a config without a ``sweep`` block, Scenario's rules;
    raises ConfigError with key paths.  A sweep is checked on its jobs
    (``sweep_scenarios``), never on the values they replace."""
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
    if not cfg["sweep"]:
        checked_scenario(cfg)
    return cfg


def checked_scenario(cfg: dict, **swept) -> Scenario:
    """Flatten a loaded config onto Scenario's fields, the ``swept`` ones
    (a sweep job's name, amplitude and hubble) replacing the config's, and
    construct it; a rule the scenario breaks raises ConfigError with its key
    path, a value a sweep lists keyed by its sweep key."""
    flat = {key: value for key, value in cfg.items() if key in _FIELDS}
    for block in BLOCKS:
        flat.update(cfg[block])
    try:
        spec = parse_family(cfg["potential"])
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from None
    try:
        return Scenario(spec=spec, **{**flat, **swept})
    except ValueError as exc:
        listed = cfg["sweep"] or {}
        paths = {**_PATHS, **{name: f"sweep.{key}" for name, key in _SWEPT.items()
                              if name in swept and listed.get(key)}}
        raise ConfigError(_keyed(exc, paths)) from None


# ---------------------------------------------------------------------------
# writers


def write_series_csv(path: Path, samples) -> None:
    """Frozen column contract; floats via repr for bit-stable round trips (a
    record's entries are Python floats already)."""
    with open(path, "w") as fh:     # row by row: no whole-file string in memory
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for sample in samples:
            fh.write(",".join(map(repr, sample.csv_row())) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cannot_write(exc: OSError) -> int:
    print(f"error: cannot write output: {exc}", file=sys.stderr)
    return 1


def _write_outputs(result: ScenarioResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_series_csv(out_dir / "series.csv", result.samples)
    (out_dir / "verdict.json").write_text(
        json.dumps(result.verdict.to_dict(), indent=2, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    try:
        cfg = load_config(args.config)
        result = run_scenario(checked_scenario(cfg))    # a sweep config's own values
    except (ConfigError, ScenarioClassError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else Path(cfg["name"])
    try:
        _write_outputs(result, out_dir)
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
    """(directory name, Scenario) of each job of a config's sweep, built from
    the config with the job's amplitude and hubble; the first job Scenario
    rejects raises its ConfigError, the job name appended.  A value the
    sweep replaces in every job is never built."""
    sweep = cfg["sweep"] or {}
    amplitudes = sweep.get("amplitudes") or [cfg["initial"]["amplitude"]]
    hubbles = sweep.get("hubbles") or [cfg["hubble"]]
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
                job = checked_scenario(cfg, name=f"{cfg['name']}-{name}", amplitude=a,
                                       hubble=hub)
            except ConfigError as exc:
                raise ConfigError(f"{exc} (sweep job {name})") from None
            jobs.append((name, job))
    return jobs


def _sweep_job(job: tuple) -> tuple[str, bool, str]:
    """Run one job and write its outputs; return its name, whether it passed
    and its summary.csv row, where a NaN (nothing sampled) is an empty cell."""
    scenario, name, out_dir = job
    result = run_scenario(scenario)
    _write_outputs(result, Path(out_dir))
    verdict = result.verdict
    ratios = [getattr(verdict, verdict_field) for verdict_field, _ in _GRADED_RATIOS.values()]
    cells = ["" if math.isnan(x) else repr(float(x))
             for x in (scenario.amplitude, verdict.hubble, *ratios)]
    row = [name, *cells[:2], str(verdict.passed), *cells[2:], verdict.aborted or ""]
    return name, verdict.passed, ",".join(row)


def cmd_sweep(args) -> int:
    try:    # every job is checked before any output exists
        cfg = load_config(args.config)
        swept = sweep_scenarios(cfg)
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
    jobs = [(scn, name, str(out_root / name)) for name, scn in swept]
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


def _schema(keys: dict) -> dict:
    out = {}
    for key, (kind, default) in keys.items():
        block = isinstance(kind, dict)
        entry = {"type": "dict" if block else "number" if kind is float else kind.__name__}
        if default is MISSING:
            entry["required"] = True
        elif not block:
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

    p = sub.add_parser("schema", help="print the config schema")
    p.set_defaults(func=cmd_schema)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse has printed the help or the usage error
        if exc.code == 0:
            raise
        return 1
    try:
        return args.func(args)
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
