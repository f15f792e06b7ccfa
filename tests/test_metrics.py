import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from daedisc.metrics import build_report, mape_detail, merge_reports, r_squared


def test_mape_exact_prediction_is_zero():
    x = np.array([1.0, -2.0, 3.5])
    assert mape_detail(x, x)[0] == 0.0


def test_mape_uniform_ten_percent():
    truth = np.array([1.0, 2.0, 4.0])
    pred = np.array([1.1, 2.2, 4.4])
    assert abs(mape_detail(truth, pred)[0] - 10.0) < 1e-12


def test_mape_excludes_zero_reference_samples():
    truth = np.array([0.0, 2.0, 4.0])
    pred = np.array([5.0, 2.2, 4.4])
    value, used, excluded = mape_detail(truth, pred)
    assert excluded == 1 and used == 2
    assert abs(value - 10.0) < 1e-12


def test_mape_all_zero_truth_is_nan():
    value, used, excluded = mape_detail(np.zeros(5), np.ones(5))
    assert math.isnan(value) and used == 0 and excluded == 5


def test_r_squared_perfect_and_mean_baseline():
    truth = np.array([1.0, 2.0, 3.0, 4.0])
    assert r_squared(truth, truth) == 1.0
    assert abs(r_squared(truth, np.full(4, truth.mean()))) < 1e-12


def test_r_squared_negative_for_anti_correlated():
    truth = np.array([1.0, 2.0, 3.0, 4.0])
    pred = truth[::-1].copy()
    assert r_squared(truth, pred) < 0.0


def test_r_squared_undefined_for_constant_truth():
    assert math.isnan(r_squared(np.ones(5), np.zeros(5)))


def test_r_squared_undefined_for_rounding_noise_truth():
    # a constant that drifts by a few ulps has no variance to explain; a
    # spread of 1e-6 of the value is dynamics and keeps R2 defined
    level = 0.49238314
    drift = level + np.arange(6) * 1e-13
    assert math.isnan(r_squared(drift, drift + 0.004))
    small = level + np.arange(6) * 1e-6
    assert r_squared(small, small) == 1.0


def test_r_squared_undefined_on_an_undisturbed_gen_data_record(tmp_path):
    # the test record of a scenario without a disturbance stays at the
    # equilibrium and drifts by rounding alone (about 5e-13 on delta)
    from click.testing import CliRunner

    from daedisc.cli import main
    from daedisc.dataset import import_record

    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"train": {"total_time": 1.0, "dt": 0.01, "seed": 1},
                                "test": {"total_time": 1.0, "dt": 0.01, "seed": 2}}))
    runner = CliRunner()
    result = runner.invoke(main, ["gen-data", "--model", "swing2", "--scenario", str(scen),
                                  "--out", str(tmp_path / "data")])
    assert result.exit_code == 0, result.output
    record = import_record(tmp_path / "data" / "test")
    delta = record.columns["delta"]
    assert 0.0 < np.ptp(delta) < 1e-11
    assert math.isnan(r_squared(delta, delta + 1e-3))
    result = runner.invoke(main, ["baseline", "--variant", "overcomplete",
                                  "--data", str(tmp_path / "data"),
                                  "--out", str(tmp_path / "sindy")])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["evaluate", "--model", str(tmp_path / "sindy" / "model.json"),
                                  "--data", str(tmp_path / "data"),
                                  "--out", str(tmp_path / "report.json")])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "report.json").read_text())
    for state in ("delta", "omega"):
        assert report["per_state"][state]["r2_undefined"]
        assert math.isnan(report["per_state"][state]["r2"])
    assert math.isnan(report["aggregate"]["r2"])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=30))
def test_metric_identity_properties(values):
    x = np.array(values)
    if np.all(np.abs(x) < 1e-9):
        return
    assert mape_detail(x, x)[0] == 0.0
    if np.ptp(x) > 0:
        assert r_squared(x, x) == 1.0


def test_build_report_structure_and_aggregate():
    truth = {"delta": np.array([1.0, 1.1, 1.2, 1.3]),
             "omega": np.array([1.0, 1.0, 1.0, 1.0])}
    pred = {"delta": np.array([1.0, 1.1, 1.2, 1.3]),
            "omega": np.array([1.0, 1.0, 1.0, 1.01])}
    report = build_report(truth, pred, n_valid=4, diverged=False,
                          metadata={"model": "demo"})
    assert report["per_state"]["delta"]["mape_pct"] == 0.0
    assert report["per_state"]["omega"]["r2_undefined"]
    # aggregate averages only defined values
    assert not math.isnan(report["aggregate"]["mape_pct"])
    assert report["metadata"]["model"] == "demo"
    assert report["valid_samples"] == 4


def test_build_report_divergence_prefix():
    truth = {"x": np.linspace(0, 1, 10)}
    pred = {"x": np.concatenate([np.linspace(0, 1, 10)[:5], np.full(5, np.nan)])}
    report = build_report(truth, pred, n_valid=5, diverged=True)
    assert report["diverged"]
    assert report["per_state"]["x"]["samples_used"] <= 5


def test_merge_reports_table_and_determinism():
    r1 = build_report({"x": np.array([1.0, 2.0])}, {"x": np.array([1.0, 2.0])},
                      2, False)
    r2 = build_report({"x": np.array([1.0, 2.0])}, {"x": np.array([1.5, 2.5])},
                      2, True)
    table, merged = merge_reports({"run_a": r1, "run_b": r2})
    lines = table.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("Model")
    assert "run_a" in lines[1] and "run_b" in lines[2]
    table2, merged2 = merge_reports({"run_a": r1, "run_b": r2})
    assert table == table2
    assert json.dumps(merged, sort_keys=True) == json.dumps(merged2, sort_keys=True)
