"""Output checks for the benchmark workloads.

Every check returns a list of failure messages (empty when the output is
correct).  None of them compares against stored output: each one tests an
exact solution the benchmark computes itself, an identity the method must
satisfy, or a committed threshold.
"""

from __future__ import annotations

import json
import math

import numpy as np

FROZEN_HEADER = ("t,E,W,P,R,I,I_rate,R_tilde,Rt_rate,J,J_bound,ballE,coneE,"
                 "sup_phi,h1_norm")

# slack for quantities that agree up to floating-point round-off only
ROUNDOFF = 1e-12
# H = 0 energy drift budget of the committed conservation run
DRIFT_LIMIT = 1e-6
# relative L2 error of the free translation runs; one cell of shift at the
# finest grid already costs ~6e-3
TRANSLATION_LIMIT = 1e-4
MIN_TRANSLATION_ORDER = 1.8


def bump(r: np.ndarray, amplitude: float, center: float, width: float) -> np.ndarray:
    """amplitude * exp(1 - 1/(1 - x^2)) for |x| < 1, x = (r - center)/width."""
    x = (np.asarray(r, dtype=float) - center) / width
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def exact_translate(r: np.ndarray, t: float, center: float, width: float) -> np.ndarray:
    """u = r phi of a unit outgoing bump after time t: u(r, t) = u(r - t, 0)."""
    shifted = np.asarray(r, dtype=float) - t
    return shifted * bump(shifted, 1.0, center, width)


def relative_l2(u: np.ndarray, exact: np.ndarray) -> float:
    return float(np.linalg.norm(u - exact) / np.linalg.norm(exact))


def observed_order(drs: list[float], errors: list[float]) -> float:
    """Least-squares slope of log(error) against log(dr)."""
    return float(np.polyfit(np.log(drs), np.log(errors), 1)[0])


def check_translation(err: float, n_cells: int) -> list[str]:
    if not err <= TRANSLATION_LIMIT:
        return [f"n={n_cells}: translation L2 error {err:.3e} > {TRANSLATION_LIMIT:.0e}"]
    return []


def check_order(drs: list[float], errors: list[float]) -> list[str]:
    order = observed_order(drs, errors)
    if not order >= MIN_TRANSLATION_ORDER:
        return [f"observed translation order {order:.2f} < {MIN_TRANSLATION_ORDER}"]
    return []


def check_drift(e0: float, e_end: float) -> list[str]:
    drift = abs(e_end - e0) / abs(e0)
    if not drift <= DRIFT_LIMIT:
        return [f"H=0 energy drift {drift:.3e} > {DRIFT_LIMIT:.0e}"]
    return []


def check_decay_run(name: str, passed: bool, thresholds: dict, w: np.ndarray,
                    i_rate: np.ndarray, h1w_sq: np.ndarray) -> list[str]:
    """A committed H = 0 theorem run: verdict, W threshold, virial lower bound.

    The W ratio is recomputed from the samples, and the displayed I rate
    must dominate the weighted H^1 norm on every sample.
    """
    failures = []
    if not passed:
        failures.append(f"{name}: verdict failed")
    w_ratio = w[-1] / w[0]
    if not w_ratio <= thresholds["w_ratio"]:
        failures.append(f"{name}: W ratio {w_ratio:.3e} > {thresholds['w_ratio']:.0e}")
    gap = i_rate - h1w_sq
    if not np.all(gap >= -1e-14):
        failures.append(f"{name}: I_rate < |phi|^2_H1w by {-gap.min():.3e}")
    return failures


def parse_series(text: str) -> tuple[str, dict[str, np.ndarray]]:
    header, _, body = text.partition("\n")
    cols = header.split(",")
    try:
        data = np.array([[float(v) for v in line.split(",")]
                         for line in body.splitlines()])
    except ValueError:      # a ragged or non-numeric row
        return header, {}
    if data.ndim != 2 or data.shape[1] != len(cols) or not np.isfinite(data).all():
        return header, {}
    return header, {name: data[:, k] for k, name in enumerate(cols)}


def check_expanding_run(name: str, series_text: str, verdict_text: str,
                        t_end: float) -> list[str]:
    """One H > 0 sweep job: frozen header, time axis, E non-increasing, and
    the verdict's W / ball / cone ratios recomputed from series.csv."""
    header, cols = parse_series(series_text)
    if header != FROZEN_HEADER:
        return [f"{name}: series.csv header changed: {header!r}"]
    if not cols or len(cols["t"]) < 2:
        return [f"{name}: series.csv has fewer than two finite, well-formed rows"]
    failures = []
    t = cols["t"]
    if t[0] != 0.0 or not math.isclose(t[-1], t_end, rel_tol=ROUNDOFF):
        failures.append(f"{name}: t runs from {t[0]!r} to {t[-1]!r}, not 0 to {t_end!r}")
    if not np.all(np.diff(t) > 0.0):
        failures.append(f"{name}: t not strictly increasing")
    e = cols["E"]
    rise = np.diff(e).max()
    if rise > ROUNDOFF * abs(e[0]):
        failures.append(f"{name}: E increased by {rise:.3e} at H>0")
    verdict = json.loads(verdict_text)
    for key, col in (("w_ratio", "W"), ("local_energy_ratio", "ballE"),
                     ("cone_energy_ratio", "coneE")):
        expect = cols[col][-1] / cols[col][0]
        if not math.isclose(verdict[key], expect, rel_tol=ROUNDOFF, abs_tol=0.0):
            failures.append(f"{name}: verdict {key}={verdict[key]!r}, "
                            f"series.csv gives {expect!r}")
    return failures


def check_summary(exit_code: int, summary_text: str, expected_rows: int) -> list[str]:
    failures = []
    if exit_code != 0:
        failures.append(f"sweep exit code {exit_code}")
    rows = summary_text.strip().splitlines()[1:]
    if len(rows) != expected_rows:
        failures.append(f"summary.csv has {len(rows)} rows, expected {expected_rows}")
    return failures
