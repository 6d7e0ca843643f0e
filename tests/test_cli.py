import dataclasses
import json
import math
import os
import re
import resource
import runpy
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from inflaton import cli, dynamics
from inflaton.cli import (ConfigError, checked_scenario, load_config, main,
                          sweep_scenarios)
from inflaton.dynamics import CflViolation, resolve_dt
from inflaton.experiments import DEFAULT_THRESHOLDS, Scenario, run_scenario
from inflaton.potentials import EXPECTED_CLASS, PotentialSpec
from inflaton.virials import CSV_COLUMNS

REPO = Path(__file__).resolve().parent.parent


def tiny_config(**overrides):
    cfg = {
        "name": "tiny",
        "mode": "exploratory",
        "potential": "T1",
        "hubble": 0.0,
        "initial": {"amplitude": 0.5, "center": 4.0, "width": 1.5,
                    "velocity": "outgoing"},
        "grid": {"r_max": 20.0, "n_cells": 256},
        "time": {"t_end": 5.0, "cfl": 0.5, "output_every": 8, "space_order": 2},
        "diagnostics": {"decay_radius": 5.0},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_load_config_valid(tmp_path):
    path = write_config(tmp_path, tiny_config())
    cfg = load_config(path)
    assert cfg["name"] == "tiny"
    assert cfg["time"]["cfl"] == 0.5
    assert cfg["seed"] == 0  # default filled in
    scn = checked_scenario(cfg)
    assert scn.n_cells == 256
    assert scn.spec.label == "T1"


def test_load_config_rejects_unknown_keys(tmp_path):
    cfg = tiny_config()
    cfg["grid"]["spacing"] = 0.1
    cfg["turbo"] = True
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    assert "grid.spacing" in msg and "turbo" in msg


@pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")),
                         ids=lambda path: path.name)
def test_load_config_accepts_every_committed_config(path):
    cfg = load_config(path)
    assert checked_scenario(cfg).name == cfg["name"]


def test_load_config_missing_and_typed(tmp_path):
    cfg = tiny_config()
    del cfg["potential"]
    cfg["time"]["t_end"] = "soon"
    cfg["diagnostics"] = 5.0
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    assert "potential" in msg and "time.t_end" in msg
    assert "diagnostics: expected object" in msg


def test_load_config_rejects_bools_for_numbers(tmp_path):
    # a JSON bool is an int to Python: it once loaded as H = 1.0 and cfl 1.0
    cfg = tiny_config(hubble=True)
    cfg["time"].update(cfl=True, output_every=False)
    cfg["sweep"] = {"amplitudes": [0.1], "jitter_pct": True}
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    for key in ("hubble", "time.cfl", "sweep.jitter_pct"):
        assert f"{key}: expected number, got bool" in msg
    assert "time.output_every: expected integer, got bool" in msg
    assert main(["simulate", str(path), "--out", str(tmp_path / "bool")]) == 1


def test_load_config_parse_error_has_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",,\n}')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_load_config_rejects_bad_monodromy(tmp_path):
    path = write_config(tmp_path, tiny_config(potential="monodromy:q=0"))
    with pytest.raises(ConfigError, match="monodromy"):
        load_config(path)


def test_config_root_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([tiny_config()]))
    with pytest.raises(ConfigError, match="^config root must be a JSON object$"):
        load_config(path)
    assert main(["simulate", str(path), "--out", str(tmp_path / "x")]) == 1
    assert "config root must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_rejects_negative_jitter(tmp_path, capsys):
    cfg = tiny_config()
    cfg["sweep"] = {"amplitudes": [0.3], "jitter_pct": -1}
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match=r"^sweep\.jitter_pct: must be >= 0\.0$"):
        load_config(path)
    assert main(["sweep", str(path), "--out", str(tmp_path / "sweep")]) == 1
    assert "sweep.jitter_pct: must be >= 0.0" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_load_config_rejects_undersized_grid(tmp_path):
    cfg = tiny_config()
    cfg["time"]["t_end"] = 100.0
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError, match="r_max"):
        load_config(path)


def test_simulate_end_to_end(tmp_path):
    path = write_config(tmp_path, tiny_config())
    out = tmp_path / "out"
    code = main(["simulate", str(path), "--out", str(out)])
    assert code == 0
    header, *rows = (out / "series.csv").read_text().splitlines()
    assert header.split(",") == list(CSV_COLUMNS)
    t = [float(row.split(",")[0]) for row in rows]
    assert t[0] == 0.0 and t[-1] == pytest.approx(5.0)
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["passed"] is True
    assert verdict["name"] == "tiny"
    assert verdict["aborted"] is None


def test_simulate_is_bit_deterministic(tmp_path):
    path = write_config(tmp_path, tiny_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(path), "--out", str(out1)]) == 0
    assert main(["simulate", str(path), "--out", str(out2)]) == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


def _t1_thm1_config(t_end):
    # the thm1 suite's T1 member (width 1, leapfrog at cfl 1, n = 2048)
    cfg = _leapfrog_config(t_end=t_end)
    cfg.update(mode="thm1", grid={"r_max": 40.0, "n_cells": 2048},
               diagnostics={"decay_radius": 10.0})
    cfg["initial"].update(amplitude=1.0, center=3.0, width=1.0)
    return cfg


def test_simulate_failing_threshold_exits_2(tmp_path, capsys):
    # to T = 20 the T1 pulse misses only thm1's w_ratio threshold 1e-2
    path = write_config(tmp_path, _t1_thm1_config(20.0))
    assert main(["simulate", str(path), "--out", str(tmp_path / "f")]) == 2
    verdict = json.loads((tmp_path / "f" / "verdict.json").read_text())
    assert verdict["diagnosis"] == "w_ratio 1.406e-02 > 1.0e-02"
    assert verdict["thresholds"] == DEFAULT_THRESHOLDS["thm1"]
    assert "FAIL" in capsys.readouterr().out
    # the thresholds are the mode's: a config cannot loosen them
    loosened = {**_t1_thm1_config(20.0), "thresholds": {"w_ratio": 0.02}}
    out = tmp_path / "loosened"
    assert main(["simulate", str(write_config(tmp_path, loosened)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "config error: thresholds: unknown key\n"
    assert not out.exists()


def test_simulate_bad_config_exits_1(tmp_path):
    cfg = tiny_config()
    cfg["grid"]["n_cells"] = 257  # odd
    path = write_config(tmp_path, cfg)
    assert main(["simulate", str(path), "--out", str(tmp_path / "x")]) == 1
    assert main(["simulate", str(tmp_path / "missing.json")]) == 1


def test_simulate_abort_exits_3(tmp_path):
    # support reaches the outer boundary almost immediately
    cfg = tiny_config()
    cfg["initial"]["center"] = 16.0
    cfg["initial"]["width"] = 2.0
    cfg["time"]["t_end"] = 1.5
    path = write_config(tmp_path, cfg)
    code = main(["simulate", str(path), "--out", str(tmp_path / "abort")])
    assert code == 3
    verdict = json.loads((tmp_path / "abort" / "verdict.json").read_text())
    assert verdict["aborted"] is not None


def test_simulate_refuses_unsupported_theorem_label(tmp_path):
    # axion audits outside every theorem class: running it as thm1 is a
    # config-level mistake, not a failing verdict
    cfg = tiny_config(mode="thm1", potential="axion")
    path = write_config(tmp_path, cfg)
    assert main(["simulate", str(path), "--out", str(tmp_path / "x")]) == 1


# potentials on which the gate's audit overflows: E200 on the default window
# [-10, 10], in any mode, and hilltop2 on the thm3 window an amplitude of
# 1e80 visits
_AUDIT_REFUSALS = [
    ({"potential": "E200"}, 0.05, "E200: F, f, f' not finite at s = -10"),
    ({"mode": "thm3", "hubble": 1.0, "potential": "hilltop2"}, 1e80,
     "hilltop2: F not finite at s = -2e+80"),
]


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("edit,amplitude,message", _AUDIT_REFUSALS)
def test_audit_refusal_exits_1_without_output(tmp_path, monkeypatch, capfd, command,
                                              edit, amplitude, message):
    monkeypatch.setenv("INFLATON_THREADS", "1")
    cfg = tiny_config(**edit)
    cfg["initial"]["amplitude"] = amplitude
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 1
    stdout, err = capfd.readouterr()
    assert err.startswith(f"config error: {message} on the audit interval")
    assert "Traceback" not in stdout + err
    assert not out.exists()


def test_simulate_domain_violation_exits_3(tmp_path):
    # dbrane data dipping to v <= -1 leave the potential's domain at once
    cfg = tiny_config(potential="dbrane1")
    cfg["initial"]["amplitude"] = -1.5
    path = write_config(tmp_path, cfg)
    assert main(["simulate", str(path), "--out", str(tmp_path / "dom")]) == 3


def test_audit_exit_codes(capsys):
    assert main(["audit", "T1"]) == 0
    out = capsys.readouterr().out
    assert "Thm1" in out and "theorem class" in out
    assert main(["audit", "axion"]) == 0      # matches expected None
    assert main(["audit", "monodromy:q=0"]) == 1
    assert main(["audit", "frobnicate"]) == 1
    assert main(["audit", "T1", "--interval", "3", "-3"]) == 1


def test_audit_json_line_is_strict_json(capsys):
    # E1's flatness ratio s f(s) / s^4 = O(1/s^2) is unbounded at the origin
    def refuse(literal):
        raise ValueError(f"non-standard JSON literal {literal}")

    assert main(["audit", "E1"]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    report = json.loads(line, parse_constant=refuse)
    assert report["quartic_constant"] == "unbounded"
    assert all(math.isfinite(v) for v in report.values() if isinstance(v, float))


@pytest.mark.parametrize("argv", [
    ["audit", "T1", "--samples", "1"],
    ["audit", "T1", "--samples", "0"],
    ["audit-suite", "--samples", "1"],
    ["audit", "dbrane1", "--interval", "-10", "-0.95"],   # empty after the clip
    ["audit", "T1", "--interval", "1", "inf"],
    ["audit", "E1", "--interval", "-1000", "10"],        # exp(-s) overflows
])
def test_audit_bad_arguments_exit_1(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["plot", "x"],                          # an unknown command
    ["simulate"],                           # a missing argument
    ["audit", "T1", "--samples", "abc"],    # a malformed argument
])
def test_usage_errors_exit_1(argv, capsys):
    # argparse's own status, 2, would read as a failed verdict
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: inflaton")
    assert "error: " in err and "Traceback" not in err


@pytest.mark.parametrize("argv,code", [
    (["schema"], 0), (["--help"], 0), (["simulate", "malformed.json"], 1)])
def test_module_entry_point_exits_with_main_status(tmp_path, monkeypatch, capsys,
                                                   argv, code):
    # python -m inflaton.cli: the entry point of a checkout that is not installed
    (tmp_path / "malformed.json").write_text("[]")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["inflaton", *argv])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)     # cli is imported already
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("inflaton.cli", run_name="__main__")
    assert exc.value.code == code
    err = capsys.readouterr().err
    assert ("config root must be a JSON object" in err) == (code == 1)


def test_audit_suite_command(capsys):
    assert main(["audit-suite", "--samples", "2000"]) == 0
    out = capsys.readouterr().out
    assert "T1" in out and "expected" in out


def test_audit_suite_mismatch_exits_2(monkeypatch, capsys):
    monkeypatch.setitem(EXPECTED_CLASS, "T1", "Thm2")
    assert main(["audit-suite", "--samples", "2000"]) == 2
    out, err = capsys.readouterr()
    assert "expected Thm2" in out
    assert err == "MISMATCH T1: expected Thm2, audited Thm1\n"


def test_schema_command(capsys):
    assert main(["schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert schema["potential"]["required"] is True
    assert "fields" in schema["grid"]


@pytest.mark.parametrize("command,threads", [
    ("simulate", "1"), ("sweep", "1"), ("sweep", "2")])
def test_unwritable_output_exits_1_without_traceback(tmp_path, monkeypatch, capfd,
                                                     command, threads):
    # --out below a regular file: the run completes, then writing fails
    monkeypatch.setenv("INFLATON_THREADS", threads)
    cfg = tiny_config()
    cfg["time"]["t_end"] = 1.0
    cfg["sweep"] = {"amplitudes": [0.2, 0.4], "hubbles": [0.0]}
    path = write_config(tmp_path, cfg)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main([command, str(path), "--out", str(blocker / "sub")]) == 1
    out, err = capfd.readouterr()
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert "Traceback" not in out + err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command", ["simulate", "audit"])
def test_an_unallocatable_size_exits_1_without_traceback(tmp_path, capfd, command):
    # 10^13 cells or samples take 73 TiB per array, so the first allocation
    # fails; a 16 TiB address-space limit makes it fail under any overcommit
    # policy, and nothing is allocated or written
    cfg = json.loads((REPO / "configs" / "t1_smoke.json").read_text())
    cfg["grid"]["n_cells"] = 10 ** 13
    out_dir = tmp_path / "out"
    argv = (["simulate", str(write_config(tmp_path, cfg)), "--out", str(out_dir)]
            if command == "simulate" else ["audit", "T1", "--samples", str(10 ** 13)])
    limits = resource.getrlimit(resource.RLIMIT_AS)
    cap = 1 << 44 if limits[1] == resource.RLIM_INFINITY else min(1 << 44, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    try:
        code = main(argv)
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limits)
    out, err = capfd.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: not enough memory: ") and err.count("\n") == 1
    assert "Traceback" not in err and not out_dir.exists()


def test_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("INFLATON_THREADS", "1")
    cfg = tiny_config()
    cfg["sweep"] = {"amplitudes": [0.0, 0.3], "hubbles": [0.0, 1.0]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", str(path), "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0].startswith("run,")
    assert len(summary) == 5  # header + 2x2 grid
    names = [line.split(",")[0] for line in summary[1:]]
    assert names == sorted(names)
    for name in names:
        assert (out / name / "series.csv").exists()
        assert (out / name / "verdict.json").exists()


def test_sweep_summary_write_failure_exits_1(tmp_path, monkeypatch, capsys):
    # a directory named summary.csv blocks the summary after every job wrote
    monkeypatch.setenv("INFLATON_THREADS", "1")
    cfg = tiny_config()
    cfg["time"]["t_end"] = 1.0
    cfg["sweep"] = {"amplitudes": [0.2], "hubbles": [0.0]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    (out / "summary.csv").mkdir(parents=True)
    assert main(["sweep", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output: ")
    assert captured.err.count("\n") == 1 and "swept" not in captured.out
    assert (out / "a0.2_H0" / "verdict.json").exists()
    assert not any((out / "summary.csv").iterdir())


def test_committed_sweep_config_runs_on_leapfrog(monkeypatch):
    # configs/thm3_h1.json at its largest amplitude, both hubbles: one force
    # evaluation per step plus the initial acceleration, the support front
    # inside the light cone, and the default thm3 thresholds met
    calls = 0
    real_eval_f = dynamics.eval_f

    def counting(spec, s):
        nonlocal calls
        calls += 1
        return real_eval_f(spec, s)

    monkeypatch.setattr(dynamics, "eval_f", counting)
    cfg = load_config(REPO / "configs" / "thm3_h1.json")
    jobs = [(name, scn) for name, scn in sweep_scenarios(cfg) if scn.amplitude == 0.2]
    assert [name for name, _ in jobs] == ["a0.2_H0.5", "a0.2_H1"]
    for name, scn in jobs:
        assert (scn.scheme, scn.space_order, scn.output_every) == ("leapfrog", 2, 1)
        grid = scn.grid()
        n_steps = math.ceil(scn.t_end / resolve_dt(grid, scn.solver_config(), scn.spec,
                                                   scn.initial(grid)) - 1e-12)
        calls = 0
        result = run_scenario(scn)
        verdict = result.verdict
        assert calls == n_steps + 1, name
        assert len(result.samples) == n_steps + 1 == 2732, name
        assert verdict.thresholds == DEFAULT_THRESHOLDS["thm3"]
        assert verdict.passed and verdict.aborted is None, name
        assert verdict.support_excess <= 0.0, name
        assert verdict.energy_nonincreasing and verdict.j_monotone, name


def test_sweep_keeps_repeated_jobs_apart(tmp_path, monkeypatch):
    # a repeated amplitude draws its own jitter and gets its own directory
    monkeypatch.setenv("INFLATON_THREADS", "1")
    cfg = tiny_config(seed=3)
    cfg["time"]["t_end"] = 1.0
    cfg["sweep"] = {"amplitudes": [0.3, 0.3], "hubbles": [0.0], "jitter_pct": 10.0}
    out = tmp_path / "sweep"
    assert main(["sweep", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    rows = [line.split(",") for line in
            (out / "summary.csv").read_text().strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["a0.3_H0", "a0.3_H0-2"]
    assert rows[0][1] != rows[1][1]
    for name in (row[0] for row in rows):
        verdict = json.loads((out / name / "verdict.json").read_text())
        assert verdict["name"] == f"tiny-{name}"
        assert (out / name / "series.csv").is_file()


def test_sweep_parallel_matches_sequential(tmp_path, monkeypatch):
    cfg = tiny_config()
    cfg["sweep"] = {"amplitudes": [0.2, 0.4], "hubbles": [0.0, 0.5]}
    path = write_config(tmp_path, cfg)
    out_seq, out_par = tmp_path / "seq", tmp_path / "par"
    monkeypatch.setenv("INFLATON_THREADS", "1")
    assert main(["sweep", str(path), "--out", str(out_seq)]) == 0
    monkeypatch.setenv("INFLATON_THREADS", "4")
    assert main(["sweep", str(path), "--out", str(out_par)]) == 0
    assert (out_seq / "summary.csv").read_bytes() == (out_par / "summary.csv").read_bytes()
    for sub in sorted(p.name for p in out_seq.iterdir() if p.is_dir()):
        assert ((out_seq / sub / "series.csv").read_bytes()
                == (out_par / sub / "series.csv").read_bytes())


def test_sweep_deterministic_jitter(tmp_path, monkeypatch):
    monkeypatch.setenv("INFLATON_THREADS", "1")
    cfg = tiny_config(seed=7)
    cfg["sweep"] = {"amplitudes": [0.3], "hubbles": [0.0], "jitter_pct": 5.0}
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", str(path), "--out", str(out1)]) == 0
    assert main(["sweep", str(path), "--out", str(out2)]) == 0
    a = (out1 / "a0.3_H0" / "series.csv").read_bytes()
    b = (out2 / "a0.3_H0" / "series.csv").read_bytes()
    assert a == b


def test_load_config_rejects_non_finite_numbers(tmp_path):
    # Python's json reads NaN / Infinity (and overflowing literals) as floats
    cfg = tiny_config()
    cfg["initial"]["amplitude"] = float("nan")
    cfg["sweep"] = {"amplitudes": [0.1, float("inf")], "hubbles": [0.0]}
    cfg["seed"] = 10**400       # an integer literal beyond the float range
    path = write_config(tmp_path, cfg)
    assert "NaN" in path.read_text() and "Infinity" in path.read_text()
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    assert "initial.amplitude: must be a finite number" in msg
    assert "sweep.amplitudes: expected non-empty list of finite numbers" in msg
    assert "seed: must be a finite number" in msg
    assert main(["simulate", str(path), "--out", str(tmp_path / "nan")]) == 1
    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps(tiny_config()).replace('"hubble": 0.0', '"hubble": 1e999'))
    with pytest.raises(ConfigError, match="hubble: must be a finite number"):
        load_config(overflow)


@pytest.mark.parametrize("run", ["t1_smoke", "sweep-job"])
def test_series_csv_bytes_are_the_repr_of_each_float(tmp_path, run):
    # each row is the join of repr over the record's entries, Python floats
    # already: the bytes of repr(float(v)) for every value
    cfg = load_config(REPO / "configs" / ("t1_smoke.json" if run == "t1_smoke"
                                          else "thm3_h1.json"))
    scn = (checked_scenario(cfg) if run == "t1_smoke"
           else dataclasses.replace(sweep_scenarios(cfg)[1][1], t_end=1.0))
    samples = run_scenario(scn).samples
    cli.write_series_csv(tmp_path / "series.csv", samples)
    rows = [",".join(CSV_COLUMNS)] + [",".join(repr(float(v)) for v in s.csv_row())
                                      for s in samples]
    assert len(rows) > 60
    assert (tmp_path / "series.csv").read_bytes() == ("\n".join(rows) + "\n").encode()


def test_simulate_abort_at_first_snapshot_exits_3(tmp_path, monkeypatch):
    # a wide gaussian already reaches the outer boundary at t = 0, so the
    # run aborts before its first sample, also with no step to take
    cfg = json.loads((REPO / "configs" / "t1_smoke.json").read_text())
    cfg["initial"].update(kind="gaussian", width=4.0)
    cfg["grid"].update(r_max=10.0, n_cells=256)
    verdicts = []
    for t_end in (0.0, 1.0):
        cfg["time"]["t_end"] = t_end
        path = write_config(tmp_path, cfg)
        out = tmp_path / f"abort0-{t_end}"
        assert main(["simulate", str(path), "--out", str(out)]) == 3
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["aborted"].startswith("SupportOverflow")
        assert " at t=0;" in verdict["aborted"]
        assert verdict["passed"] is False
        assert verdict["w_ratio"] is None and verdict["sup_phi_initial"] is None
        assert verdict["support_excess"] is None
        assert (out / "series.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"
        verdicts.append(verdict["aborted"])
    assert verdicts[0] == verdicts[1]
    monkeypatch.setenv("INFLATON_THREADS", "1")
    assert main(["sweep", str(path), "--out", str(tmp_path / "sweep")]) == 2
    row = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()[1]
    assert ",False,,,,SupportOverflow" in row


def test_sweep_rejects_non_integer_threads(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("INFLATON_THREADS", "abc")
    path = write_config(tmp_path, tiny_config())
    out = tmp_path / "sweep"
    assert main(["sweep", str(path), "--out", str(out)]) == 1
    assert "INFLATON_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_omitted_diagnostics_block_takes_field_defaults(tmp_path):
    cfg = tiny_config()
    del cfg["diagnostics"]
    path = write_config(tmp_path, cfg)
    assert load_config(path)["diagnostics"] == {"decay_radius": 10.0}
    assert main(["simulate", str(path), "--out", str(tmp_path / "nodiag")]) == 0


def test_sweep_reports_domain_violation_as_aborted_row(tmp_path, monkeypatch):
    # amplitude -1.5 takes dbrane1 below its pole at v = -1; the other job
    # must still run and the summary must still be written
    monkeypatch.setenv("INFLATON_THREADS", "1")
    cfg = tiny_config(potential="dbrane1")
    cfg["sweep"] = {"amplitudes": [0.5, -1.5], "hubbles": [0.0]}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "sweep"
    assert main(["sweep", str(path), "--out", str(out)]) == 2
    header, *rows = (out / "summary.csv").read_text().splitlines()
    assert header == "run,amplitude,hubble,passed,w_ratio,local_ratio,cone_ratio,aborted"
    cells = {row.split(",")[0]: row.split(",") for row in rows}
    assert set(cells) == {"a-1.5_H0", "a0.5_H0"}
    assert cells["a-1.5_H0"][3] == "False"
    assert cells["a-1.5_H0"][7].startswith("DomainViolation")
    assert cells["a0.5_H0"][3] == "True" and cells["a0.5_H0"][7] == ""
    assert (out / "a0.5_H0" / "series.csv").exists()


def _leapfrog_config(**time):
    cfg = tiny_config()
    cfg["time"].update({"scheme": "leapfrog", "cfl": 1.0, "space_order": 2, **time})
    return cfg


def test_load_config_leapfrog_rules(tmp_path):
    cfg = load_config(write_config(tmp_path, _leapfrog_config()))
    assert cfg["time"]["scheme"] == "leapfrog"
    assert checked_scenario(cfg).solver_config().scheme == "leapfrog"
    assert load_config(write_config(tmp_path, tiny_config()))["time"]["scheme"] == "rk4"
    # the leapfrog centres the Hubble friction: hubble > 0 loads, at the
    # top level and in sweep.hubbles
    expanding = _leapfrog_config()
    expanding["hubble"] = 0.5
    cfg = load_config(write_config(tmp_path, expanding))
    assert checked_scenario(cfg).solver_config().hubble == 0.5
    swept = _leapfrog_config()
    swept["sweep"] = {"amplitudes": [0.1], "hubbles": [0.0, 1.0]}
    assert load_config(write_config(tmp_path, swept))["sweep"]["hubbles"] == [0.0, 1.0]
    bad = _leapfrog_config(space_order=4)
    bad["hubble"] = 0.5
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, bad))
    assert "time.space_order: leapfrog needs space_order 2" in str(err.value)
    assert main(["simulate", str(write_config(tmp_path, bad)), "--out",
                 str(tmp_path / "bad")]) == 1


def test_leapfrog_unstable_step_exit_codes(tmp_path):
    # T1's sup f' = f'(0) = 2 is all linear mass, so its bound is dr and
    # the step 0.99995 dr runs
    path = write_config(tmp_path, _leapfrog_config())
    assert main(["simulate", str(path), "--out", str(tmp_path / "t1")]) == 0
    # E1 data at rest focus into the stiff side of the potential: the run
    # stops once the visited window outgrows the step
    cfg = _leapfrog_config(t_end=20.0)
    cfg.update(potential="E1", grid={"r_max": 40.0, "n_cells": 512})
    cfg["initial"].update(amplitude=-0.2, center=10.0, width=2.0, velocity="rest")
    out = tmp_path / "stiff"
    assert main(["simulate", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 3
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["aborted"].startswith("StiffnessViolation")


@pytest.mark.parametrize("output_every", [8, 16])
def test_rk4_stops_once_the_field_outgrows_its_step(tmp_path, output_every):
    # the same focusing under RK4 at cfl 1: its bound on the initial window
    # admits cfl dr, but at t = 14.0 sup|phi| is 2.1 and the bound on the
    # wider window is a tenth of the step: the run stops at that snapshot
    # (at t = 15.6 when sampled every 16 steps)
    cfg = tiny_config(potential="E1", grid={"r_max": 50.0, "n_cells": 256})
    cfg["time"].update(t_end=30.0, cfl=1.0, output_every=output_every)
    cfg["initial"].update(amplitude=-0.2, center=10.0, width=2.0, velocity="rest")
    out = tmp_path / "stiff"
    assert main(["simulate", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 3
    verdict = json.loads((out / "verdict.json").read_text())
    aborted = verdict["aborted"]
    assert aborted.startswith("StiffnessViolation")
    assert "the rk4 step dt=0.194805 exceeds its stiffness bound" in aborted
    # the snapshot that stops the run is recorded: its time is the last
    # sampled one and its sup|phi| the verdict's maximum
    t_last = float((out / "series.csv").read_text().splitlines()[-1].split(",")[0])
    assert f"sup|phi|={verdict['sup_phi_max']:.4g} at t={t_last:.6g} " in aborted


def test_rk4_refuses_a_step_above_its_stability_bound(tmp_path, capsys):
    # E3 at amplitude -3: sup f' ~ 1.5e17 on the window +-6, so the RK4 bound
    # 2 sqrt 2 / sqrt(16/3 / dr^2 + sup f') is 7.2e-9 against cfl dr = 0.0195;
    # stepped at cfl dr, the run grew its energy 5.9e4-fold and read passed;
    # the Scenario itself refuses it
    with pytest.raises(CflViolation, match=r"^cfl: the rk4 step .* admissible dt <= 7\.2\d*e-09"):
        run_scenario(Scenario(name="e3", spec=PotentialSpec("E", n=3), amplitude=-3.0,
                              center=3.0, width=2.0, r_max=40.0, n_cells=1024, t_end=0.5,
                              mode="exploratory"))
    cfg = tiny_config(potential="E3")
    cfg["initial"]["amplitude"] = -3.0
    out = tmp_path / "e3"
    assert main(["simulate", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 1
    assert "admissible dt <=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scheme,cfl,order,bound", [("leapfrog", 1.0, 2, r"5\.138\d*e-09"),
                                                    ("leapfrog4", 0.5, 4, r"4\.042\d*e-09")],
                         ids=["leapfrog", "leapfrog4"])
def test_leapfrogs_refuse_a_step_their_bound_cuts_below_half(tmp_path, monkeypatch, capsys,
                                                             scheme, cfl, order, bound):
    # E3 at amplitude -3 from rest: the stiffness bound is 5e-9 against cfl dr
    # 0.117 (leapfrog), so stepped at the bound T = 30 would take 5.8e9 steps;
    # the Scenario refuses it, and nothing runs
    def no_run(*args):
        raise AssertionError("a refused scenario ran")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    monkeypatch.setattr(cli, "_sweep_job", no_run)
    monkeypatch.setenv("INFLATON_THREADS", "1")
    cfg = tiny_config(potential="E3", grid={"r_max": 60.0, "n_cells": 512})
    cfg["initial"].update(amplitude=-3.0, center=10.0, width=2.0, velocity="rest")
    cfg["time"].update(t_end=30.0, cfl=cfl, space_order=order, scheme=scheme)
    message = (rf"cfl: the {scheme} step cfl\*dr = \S+ exceeds twice its stability bound "
               rf"cfl\* dr = {bound}; admissible dt <= {bound}")
    with pytest.raises(ConfigError, match=f"^time.{message}$"):
        checked_scenario({**cfg, "sweep": None})    # as load_config fills it in
    out = tmp_path / "e3"
    assert main(["simulate", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 1
    assert re.search(f"^config error: time.{message}$", capsys.readouterr().err, re.M)
    swept = {**cfg, "sweep": {"amplitudes": [0.1, -3.0]}}
    swept["initial"] = {**cfg["initial"], "amplitude": 0.1}     # the base job builds
    assert main(["sweep", str(write_config(tmp_path, swept)), "--out", str(out)]) == 1
    assert re.search(rf"^config error: time.{message} \(sweep job a-3_H0\)$",
                     capsys.readouterr().err, re.M)
    assert not out.exists()


def test_a_sweep_config_is_checked_on_its_jobs(tmp_path, monkeypatch, capsys):
    # initial.amplitude -3 admits no leapfrog step on E3 (bound 5.1e-9), but
    # sweep.amplitudes replaces it in every job: the config loads and sweeps
    monkeypatch.setenv("INFLATON_THREADS", "1")
    cfg = tiny_config(potential="E3", grid={"r_max": 60.0, "n_cells": 512})
    cfg["initial"].update(amplitude=-3.0, center=10.0, width=2.0)
    cfg["time"].update(t_end=30.0, cfl=1.0, space_order=2, scheme="leapfrog")
    swept = {**cfg, "sweep": {"amplitudes": [0.1]}}
    path = write_config(tmp_path, swept)
    assert load_config(path)["initial"]["amplitude"] == -3.0
    out = tmp_path / "sweep"
    assert main(["sweep", str(path), "--out", str(out)]) == 0
    assert (out / "a0.1_H0" / "series.csv").is_file()
    assert (out / "summary.csv").read_text().splitlines()[1].startswith("a0.1_H0,0.1,0.0,True")
    # simulate runs the config's own amplitude, which is refused when it is built
    assert main(["simulate", str(path), "--out", str(tmp_path / "base")]) == 1
    assert re.search(r"^config error: time\.cfl: the leapfrog step .* bound cfl\* dr = "
                     r"5\.138\d*e-09", capsys.readouterr().err, re.M)
    assert not (tmp_path / "base").exists()
    # a job that breaks the rule is still refused, by its name
    bad = {**cfg, "sweep": {"amplitudes": [0.1, -3.0]}}
    with pytest.raises(ConfigError, match=r"\(sweep job a-3_H0\)$"):
        sweep_scenarios(load_config(write_config(tmp_path, bad)))
    out = tmp_path / "bad"
    assert main(["sweep", str(write_config(tmp_path, bad)), "--out", str(out)]) == 1
    assert re.search(r"^config error: time\.cfl: .* \(sweep job a-3_H0\)$",
                     capsys.readouterr().err, re.M)
    assert not out.exists()
    # a value the sweep does not list is the config's own, keyed by its own path
    only_hubbles = {**cfg, "sweep": {"hubbles": [0.0]}}
    with pytest.raises(ConfigError, match=r"^time\.cfl: .* \(sweep job a-3_H0\)$"):
        sweep_scenarios(load_config(write_config(tmp_path, only_hubbles)))
    thm3 = {**tiny_config(), "mode": "thm3", "hubble": 1.0,
            "sweep": {"amplitudes": [0.1], "hubbles": [0.0]}}
    with pytest.raises(ConfigError, match=r"^sweep\.hubbles: thm3 needs hubble > 0"):
        sweep_scenarios(load_config(write_config(tmp_path, thm3)))
    thm3["sweep"] = {"amplitudes": [0.1]}
    thm3["hubble"] = 0.0
    with pytest.raises(ConfigError,
                       match=r"^hubble: thm3 needs hubble > 0, got 0\.0 \(sweep job a0\.1_H0\)$"):
        sweep_scenarios(load_config(write_config(tmp_path, thm3)))


def test_load_config_leapfrog4_needs_hubble_0(tmp_path, monkeypatch, capsys):
    cfg = tiny_config()
    cfg["time"].update(scheme="leapfrog4", space_order=6)
    assert load_config(write_config(tmp_path, cfg))["time"]["scheme"] == "leapfrog4"
    message = "leapfrog4 needs hubble 0"
    with pytest.raises(ConfigError, match=f"^hubble: {message}"):
        load_config(write_config(tmp_path, {**cfg, "hubble": 0.5}))
    assert main(["simulate", str(write_config(tmp_path, {**cfg, "hubble": 0.5})),
                 "--out", str(tmp_path / "x")]) == 1
    assert f"config error: hubble: {message}" in capsys.readouterr().err
    monkeypatch.setenv("INFLATON_THREADS", "1")
    swept = {**cfg, "sweep": {"amplitudes": [0.1], "hubbles": [0.0, 1.0]}}
    out = tmp_path / "sweep"
    assert main(["sweep", str(write_config(tmp_path, swept)), "--out", str(out)]) == 1
    assert f"config error: sweep.hubbles: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("block,key,value,message", [
    (None, "mode", "thm9", "mode: must be one of"),
    (None, "hubble", -1.0, "hubble: must be nonnegative"),
    ("initial", "center", -1.0, "initial.center: must be >= 0"),
    ("initial", "width", 0.0, "initial.width: must be > 0"),
    ("initial", "steepness", 0.0, "initial.steepness: must be > 0"),
    ("initial", "kind", "box", "initial.kind: must be one of"),
    ("initial", "velocity", "sideways", "initial.velocity: must be one of"),
    ("grid", "r_max", 0.0, "grid.r_max: must be > 0"),
    ("grid", "n_cells", 8, "grid.n_cells: must be even and >= 16"),
    ("time", "t_end", -1.0, "time.t_end: must be >= 0"),
    ("time", "cfl", 1.5, "time.cfl: must lie in (0, 1]"),
    ("time", "output_every", 0, "time.output_every: must be >= 1"),
    ("time", "space_order", 3, "time.space_order: must be one of"),
    ("time", "scheme", "euler", "time.scheme: must be one of"),
    ("diagnostics", "decay_radius", 0.0, "diagnostics.decay_radius: must be > 0"),
])
def test_constructor_rules_report_key_paths(tmp_path, block, key, value, message):
    # the rules live in Scenario / SolverConfig / RadialGrid; load_config
    # turns the field name that starts each message into its key path
    cfg = tiny_config()
    (cfg[block] if block else cfg)[key] = value
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, cfg))
    assert str(err.value).startswith(message)


# the sweep job each rule refuses, named at the end of its message
_REFUSED_JOB = {
    "sweep.hubbles: must be nonnegative": "a0.1_H-1",
    "time.cfl: the rk4 step cfl*dr = 0.0390625 exceeds its stability bound": "a-3_H0",
    "sweep.hubbles: thm3 needs hubble > 0": "a0.1_H0",
}


@pytest.mark.parametrize("edit,message", [
    ({"sweep": {"amplitudes": [0.1], "hubbles": [0.0, -1.0]}},
     "sweep.hubbles: must be nonnegative"),
    ({"seed": -1, "sweep": {"amplitudes": [0.1], "jitter_pct": 5.0}}, "seed: must be >= 0"),
    # keys of older configs
    ({"emit_plots": False}, "emit_plots: unknown key"),
    ({"time": {"t_end": 5.0, "dt": 0.01}}, "time.dt: unknown key"),
    ({"diagnostics": {"cone_b": 2.0}}, "diagnostics.cone_b: unknown key"),
    ({"diagnostics": {"j_sigma": -2.0}}, "diagnostics.j_sigma: unknown key"),
    ({"diagnostics": {"j_offset": 0.0}}, "diagnostics.j_offset: unknown key"),
    # the second job's step: E3 at amplitude -3 admits only dt <= 7.2e-9
    ({"potential": "E3", "sweep": {"amplitudes": [0.1, -3.0]}},
     "time.cfl: the rk4 step cfl*dr = 0.0390625 exceeds its stability bound"),
    ({"mode": "thm3", "hubble": 1.0, "sweep": {"amplitudes": [0.1], "hubbles": [1.0, 0.0]}},
     "sweep.hubbles: thm3 needs hubble > 0"),
    # refused by the potential's audit when the first job runs
    ({"mode": "thm1", "potential": "T2", "sweep": {"amplitudes": [0.1, 0.2]}},
     "T2 audits as Thm2-flatness, cannot run as thm1"),
    # a key of older configs: the thresholds are the mode's
    ({"thresholds": {"w_ratio": 0.01}}, "thresholds: unknown key"),
])
def test_sweep_bad_job_inputs_exit_1_before_any_output(tmp_path, monkeypatch, capsys,
                                                       edit, message):
    monkeypatch.setenv("INFLATON_THREADS", "1")
    path = write_config(tmp_path, tiny_config(**edit))
    out = tmp_path / "sweep"
    assert main(["sweep", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    if message in _REFUSED_JOB:
        assert err.rstrip().endswith(f" (sweep job {_REFUSED_JOB[message]})")
    assert not out.exists()


_MUTABLE_PATHS = [
    ("name",), ("mode",), ("potential",), ("hubble",), ("seed",),
    ("initial",), ("initial", "kind"),
    ("initial", "amplitude"), ("initial", "center"), ("initial", "width"),
    ("initial", "steepness"), ("initial", "velocity"), ("grid",), ("grid", "r_max"),
    ("grid", "n_cells"), ("time",), ("time", "t_end"), ("time", "cfl"),
    ("time", "output_every"), ("time", "space_order"), ("time", "scheme"),
    ("diagnostics",), ("diagnostics", "decay_radius"), ("sweep",), ("sweep", "amplitudes"),
    ("sweep", "hubbles"), ("sweep", "jitter_pct"),
]
_ODD_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", [], {}]),                      # wrong types
    st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400]),  # non-finite
    st.sampled_from([-1, -1.0, 0, 0.0, 1e-300, 1e300, 1.5, 2, 3, 4, 6, 15, 16, 17]),
    st.sampled_from(["rk4", "leapfrog", "gaussian", "rest", "thm3", "E1", "dbrane1",
                     "monodromy:q=0", "frobnicate"]),
    st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.floats(), st.integers(), st.booleans()), max_size=3),
    st.dictionaries(st.sampled_from(["w_ratio", "cone_ratio", "zz"]),
                    st.one_of(st.floats(), st.booleans()), max_size=2),
)
_MUTATIONS = st.lists(st.tuples(st.sampled_from(["drop", "set", "unknown"]),
                                st.sampled_from(_MUTABLE_PATHS), _ODD_VALUES),
                      min_size=1, max_size=3)


def _mutated_config(mutations) -> dict:
    cfg = tiny_config()
    for action, path, value in mutations:
        node = cfg
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        if action == "drop":
            node.pop(path[-1], None)
        else:
            node[path[-1] if action == "set" else path[-1] + "_x"] = value
    return cfg


@settings(max_examples=300)
@given(mutations=_MUTATIONS)
def test_mutated_configs_load_or_raise_config_error(tmp_path_factory, mutations):
    # dropped keys, unknown keys, wrong types, NaN/+-Infinity, out-of-range
    # and odd values: load_config either returns a config Scenario accepts
    # or raises ConfigError, never anything else
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(_mutated_config(mutations)))
    try:
        loaded = load_config(path)
    except ConfigError:
        return
    checked_scenario(loaded)


def _n_steps(scn: Scenario) -> float:
    grid = scn.grid()
    return scn.t_end / resolve_dt(grid, scn.solver_config(), scn.spec, scn.initial(grid))


# accepted mutations that end in exit 2 (a missed threshold: the pulse has
# not decayed by T = 5) and exit 3 (an abort: dbrane1 data at v = -1 leave
# the potential's domain)
_MISSES_THRESHOLD = [("set", ("mode",), "thm1")]
_ABORTS = [("set", ("potential",), "dbrane1"), ("set", ("initial", "amplitude"), -1)]


@settings(max_examples=60, deadline=None)
@given(mutations=_MUTATIONS)
@example(mutations=_MISSES_THRESHOLD)
@example(mutations=_ABORTS)
def test_accepted_mutated_configs_run_to_a_documented_exit(tmp_path_factory, mutations):
    # every config load_config accepts runs through simulate and sweep and
    # ends in exit 0, 1, 2 or 3, never in a traceback; runs above 1,024 cells
    # or 3,000 steps are left out (cfl 1e-300 is accepted and would not finish)
    work = tmp_path_factory.mktemp("mutated")
    path = work / "config.json"
    path.write_text(json.dumps(_mutated_config(mutations)))
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    try:
        jobs = [scn for _, scn in sweep_scenarios(cfg)]
    except ValueError:      # the sweep exits 1 before it runs a job
        jobs = []
    for scn in [checked_scenario(cfg), *jobs]:
        if scn.n_cells > 1024 or _n_steps(scn) > 3000:
            return
    with mock.patch.dict(os.environ, {"INFLATON_THREADS": "1"}):
        assert main(["simulate", str(path), "--out", str(work / "run")]) in (0, 1, 2, 3)
        assert main(["sweep", str(path), "--out", str(work / "sweep")]) in (0, 1, 2, 3)


@pytest.mark.parametrize("mutations,code", [(_MISSES_THRESHOLD, 2), (_ABORTS, 3)])
def test_mutation_examples_reach_exits_2_and_3(tmp_path, monkeypatch, mutations, code):
    monkeypatch.setenv("INFLATON_THREADS", "1")
    path = write_config(tmp_path, _mutated_config(mutations))
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == code
    assert main(["sweep", str(path), "--out", str(tmp_path / "sweep")]) == 2
