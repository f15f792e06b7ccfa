"""Trajectory-fit metrics and the evaluation report.

MAPE excludes samples where the reference magnitude sits below a small floor
(the percentage is unbounded there); the exclusion count is part of the
report.  The coefficient of determination uses the total sum of squares
about the reference mean and is undefined (NaN, flagged) for references
without variance: constant ones, and ones whose spread is numerical noise,
such as an undisturbed record that drifts from its equilibrium by rounding
alone.  Negative values are meaningful: the prediction explains less
than the reference mean does.

Reports carry per-state values, their unweighted mean, and the same metrics
over stacked residuals, so no aggregation choice hides information.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

ZERO_FLOOR = 1e-9
# a reference whose root-mean-square spread about its mean is at most this
# share of its largest magnitude has no variance to explain: an undisturbed
# record at equilibrium drifts by about 1e-13 of its value, a disturbed one of
# the benchmark scenarios spreads by 1e-3 and more
SPREAD_FLOOR = 1e-9


def mape_detail(truth: np.ndarray, pred: np.ndarray) -> tuple[float, int, int]:
    """(MAPE percent, samples used, samples excluded by the zero guard)."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.shape != pred.shape:
        raise ValueError("truth and prediction must have equal length")
    keep = np.abs(truth) >= ZERO_FLOOR
    excluded = int(np.size(truth) - np.count_nonzero(keep))
    if not keep.any():
        return float("nan"), 0, excluded
    value = 100.0 * float(np.mean(np.abs(pred[keep] - truth[keep]) / np.abs(truth[keep])))
    return value, int(np.count_nonzero(keep)), excluded


def r_squared(truth: np.ndarray, pred: np.ndarray) -> float:
    """1 - SS_res/SS_tot about the truth mean; NaN for no samples and when
    truth has no variance beyond numerical noise (see ``SPREAD_FLOOR``)."""
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if truth.shape != pred.shape:
        raise ValueError("truth and prediction must have equal length")
    if not truth.size:
        return float("nan")
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    noise = SPREAD_FLOOR * float(np.max(np.abs(truth), initial=0.0))
    if ss_tot <= truth.size * noise * noise:
        return float("nan")
    with np.errstate(over="ignore"):  # wildly diverged predictions -> -inf
        ss_res = float(np.sum((pred - truth) ** 2))
    return 1.0 - ss_res / ss_tot


def build_report(truth_states: Mapping[str, np.ndarray],
                 pred_states: Mapping[str, np.ndarray],
                 n_valid: int, diverged: bool, metadata: Mapping | None = None) -> dict:
    """Per-state and aggregate MAPE/R2, computed on the finite prefix.  Its
    first sample is the initial state, no prediction: a prefix of that sample
    alone scores nothing, and every metric is undefined."""
    scored = n_valid if n_valid > 1 else 0
    per_state: dict[str, dict] = {}
    stacked_truth: list[np.ndarray] = []
    stacked_pred: list[np.ndarray] = []
    for name in truth_states:
        truth = np.asarray(truth_states[name])[:scored]
        pred = np.asarray(pred_states[name])[:scored]
        value, used, excluded = mape_detail(truth, pred)
        r2 = r_squared(truth, pred)
        per_state[name] = {
            "mape_pct": value,
            "r2": r2,
            "r2_undefined": bool(math.isnan(r2)),
            "samples_used": used,
            "samples_excluded": excluded,
        }
        stacked_truth.append(truth)
        stacked_pred.append(pred)
    all_truth = np.concatenate(stacked_truth)
    all_pred = np.concatenate(stacked_pred)
    stacked_mape, _, stacked_excluded = mape_detail(all_truth, all_pred)
    mapes = [v["mape_pct"] for v in per_state.values() if not math.isnan(v["mape_pct"])]
    r2s = [v["r2"] for v in per_state.values() if not v["r2_undefined"]]
    report = {
        "format": "daedisc-report",
        "version": 1,
        "per_state": per_state,
        "aggregate": {
            "mape_pct": float(np.mean(mapes)) if mapes else float("nan"),
            "r2": float(np.mean(r2s)) if r2s else float("nan"),
        },
        "stacked": {
            "mape_pct": stacked_mape,
            "r2": r_squared(all_truth, all_pred),
            "samples_excluded": stacked_excluded,
        },
        "diverged": bool(diverged),
        "valid_samples": int(n_valid),
    }
    if metadata:
        report["metadata"] = dict(metadata)
    return report


def merge_reports(named_reports: Mapping[str, dict]) -> tuple[str, dict]:
    """Comparison table (text) plus a merged JSON document, both deterministic."""
    rows = []
    for name, report in named_reports.items():
        agg = report.get("aggregate", {})
        rows.append((name, agg.get("mape_pct", float("nan")),
                     agg.get("r2", float("nan")), bool(report.get("diverged"))))
    width = max([len(r[0]) for r in rows] + [len("Model")])
    lines = [f"{'Model':<{width}}  {'MAPE':>10}  {'R2':>8}  {'Diverged':>8}"]
    for name, m, r2, div in rows:
        m_text = f"{m:.4f}%" if not math.isnan(m) else "n/a"
        r_text = f"{r2:.4f}" if not math.isnan(r2) else "n/a"
        lines.append(f"{name:<{width}}  {m_text:>10}  {r_text:>8}  {str(div):>8}")
    table = "\n".join(lines)
    merged = {
        "format": "daedisc-comparison",
        "version": 1,
        "runs": {name: report for name, report in named_reports.items()},
    }
    return table, merged
