import json

import pytest
from click.testing import CliRunner

from daedisc.cli import main

TRUE_SWING = ("ddelta/dt = p0*(omega - 1)\n"
              "domega/dt = (p1 - p2*sin(delta) - p3*(omega - 1))/p4")


def fenced(text):
    return f"```equations\n{text}\n```"


SCENARIOS = {
    # train: a severe cleared-fault analog (strong nonlinearity for
    # identifiability); test: a milder kick at the same operating point
    "train": {
        "total_time": 10.0, "dt": 0.01, "noise_sigma": 0.0, "seed": 1,
        "disturbance": {"kind": "state_kick", "magnitude": 1.0,
                        "offsets": {"delta": 1.2, "omega": 0.004}},
    },
    "test": {
        "total_time": 10.0, "dt": 0.01, "noise_sigma": 0.0, "seed": 2,
        "disturbance": {"kind": "state_kick", "magnitude": 1.0,
                        "offsets": {"delta": 0.4, "omega": -0.002}},
    },
}

RUN_CONFIG = {
    "benchmark": "swing2",
    "seed": 5,
    "islands": 3,
    "n_b": 2,
    "de_max_iterations": 10,
    "ae_max_iterations": 5,
    "fit": {"steps": 2000, "learning_rate": 1.5, "restarts": 2, "seed": 0},
    "generator": {"kind": "mock", "script": "script.json"},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-data + discover once; downstream commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    (root / "scen.json").write_text(json.dumps(SCENARIOS))
    result = runner.invoke(main, ["gen-data", "--model", "swing2",
                                  "--scenario", str(root / "scen.json"),
                                  "--out", str(root / "data")])
    assert result.exit_code == 0, result.output
    script = [[fenced("ddelta/dt = p0*delta\ndomega/dt = p1*omega")],
              [fenced(TRUE_SWING)]]
    (root / "script.json").write_text(json.dumps(script))
    (root / "run.json").write_text(json.dumps(RUN_CONFIG))
    result = runner.invoke(main, ["discover", "--config", str(root / "run.json"),
                                  "--data", str(root / "data"),
                                  "--out", str(root / "run_discover")])
    assert result.exit_code == 0, result.output
    for variant in ("accurate", "overcomplete", "missing"):
        result = runner.invoke(main, ["baseline", "--variant", variant,
                                      "--data", str(root / "data"),
                                      "--out", str(root / f"run_{variant}")])
        assert result.exit_code == 0, result.output
    return root


def test_gen_data_outputs(workspace):
    import numpy as np

    data = workspace / "data"
    assert sorted(p.name for p in data.iterdir()) == [
        "test.full.npy", "test.meta.json", "test.npy",
        "train.full.npy", "train.meta.json", "train.npy"]
    meta = json.loads((data / "train.meta.json").read_text())
    assert (meta["version"], meta["states"]) == (2, ["delta", "omega"])
    table = np.load(data / "train.npy", allow_pickle=False)
    assert table.dtype == np.float64 and table.shape == (1001, 5)


def test_discover_outputs(workspace):
    out = workspace / "run_discover"
    assert (out / "model.json").exists()
    assert (out / "archive_de.json").exists()
    doc = json.loads((out / "model.json").read_text())
    assert doc["format"] == "daedisc-model"
    assert doc["de"]["text"] == TRUE_SWING.replace("(omega-1)", "(omega - 1)")
    assert doc["de"]["terminated"] is True
    assert "skipped" in doc["ae"]
    log_lines = (out / "run_log.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in log_lines]
    assert records[0]["event"] == "seed"
    assert any(r["event"] == "terminate" for r in records)


def test_evaluate_true_model_self_consistency(workspace, tmp_path):
    # a hand-written model file carrying the exact benchmark equations
    from daedisc.benchmarks import get_model

    model = get_model("swing2")
    p = model.params
    doc = {
        "format": "daedisc-model",
        "version": 1,
        "benchmark": "swing2",
        "de": {
            "targets": ["delta", "omega"],
            "text": TRUE_SWING.replace("(omega-1)", "(omega - 1)"),
            "params": [p["omega_b"], model.default_inputs["P_m"],
                       p["e_prime"] * p["v_bus"] / p["x_total"],
                       p["damping"], 2.0 * p["inertia"]],
            "score": 0.0,
        },
        "ae": {"skipped": "true model fixture"},
        "library": [],
    }
    model_path = tmp_path / "true_model.json"
    model_path.write_text(json.dumps(doc))
    report_path = tmp_path / "report.json"
    runner = CliRunner()
    result = runner.invoke(main, ["evaluate", "--model", str(model_path),
                                  "--data", str(workspace / "data"),
                                  "--out", str(report_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    assert report["aggregate"]["mape_pct"] < 0.1
    assert not report["diverged"]


def test_evaluate_discovered_model(workspace):
    runner = CliRunner()
    out = workspace / "run_discover"
    result = runner.invoke(main, ["evaluate", "--model", str(out / "model.json"),
                                  "--data", str(workspace / "data"),
                                  "--out", str(out / "report.json")])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["aggregate"]["mape_pct"] < 1.0
    assert report["aggregate"]["r2"] > 0.95


def test_baseline_three_variants(workspace):
    for variant in ("accurate", "overcomplete", "missing"):
        doc = json.loads((workspace / f"run_{variant}" / "model.json").read_text())
        assert doc["format"] == "daedisc-sindy"
        assert doc["variant"] == variant
    missing = json.loads((workspace / "run_missing" / "model.json").read_text())
    assert "P_e" not in missing["feature_names"]


def test_report_merges_four_runs(workspace, tmp_path):
    runner = CliRunner()
    # evaluate the three baseline variants so four runs carry reports
    run_dirs = [workspace / "run_discover"]
    for variant in ("accurate", "overcomplete", "missing"):
        run_dir = workspace / f"run_{variant}"
        result = runner.invoke(main, [
            "evaluate", "--model", str(run_dir / "model.json"),
            "--data", str(workspace / "data"),
            "--out", str(run_dir / "report.json")])
        assert result.exit_code == 0, result.output
        run_dirs.append(run_dir)
    out_path = tmp_path / "comparison.json"
    args = ["report", "--out", str(out_path)] + [str(d) for d in run_dirs]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("Model")
    assert len(lines) == 5  # header + one row per run
    merged = json.loads(out_path.read_text())
    assert set(merged["runs"]) == {"run_discover", "run_accurate",
                                   "run_overcomplete", "run_missing"}
    # byte-identical on repeat
    result2 = runner.invoke(main, args)
    assert result2.output == result.output


def test_report_rejects_runs_that_share_a_name(workspace, tmp_path):
    runner = CliRunner()
    first, second = tmp_path / "a" / "run", tmp_path / "b" / "run"
    result = runner.invoke(main, [
        "evaluate", "--model", str(workspace / "run_accurate" / "model.json"),
        "--data", str(workspace / "data"), "--out", str(tmp_path / "report.json")])
    assert result.exit_code == 0, result.output
    for run_dir in (first, second):
        run_dir.mkdir(parents=True)
        (run_dir / "report.json").write_bytes((tmp_path / "report.json").read_bytes())
    out_path = tmp_path / "comparison.json"
    result = runner.invoke(main, ["report", "--out", str(out_path), str(first), str(second)])
    assert result.exit_code == 1, result.output
    err = json.loads(result.output.strip().splitlines()[-1])
    assert err["error"]["type"] == "ValueError"
    assert f"run {second} has the name 'run' of an earlier run" in err["error"]["message"]
    assert not out_path.exists()


def test_failure_emits_error_json(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["evaluate", "--model", str(tmp_path / "x.json"),
                                  "--data", str(tmp_path), "--out",
                                  str(tmp_path / "r.json")])
    assert result.exit_code != 0
    # missing model file is caught by click's existence check; a missing
    # dataset must produce the JSON envelope
    (tmp_path / "m.json").write_text("{}")
    result = runner.invoke(main, ["evaluate", "--model", str(tmp_path / "m.json"),
                                  "--data", str(tmp_path), "--out",
                                  str(tmp_path / "r.json")])
    assert result.exit_code == 1
    err = json.loads(result.output.strip().splitlines()[-1])
    assert "error" in err and "message" in err["error"]


def test_discover_benchmark_mismatch_fails(workspace, tmp_path):
    cfg = dict(RUN_CONFIG)
    cfg["benchmark"] = "oneaxis3"
    cfg["generator"] = {"kind": "mock", "script": str(workspace / "script.json")}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    runner = CliRunner()
    result = runner.invoke(main, ["discover", "--config", str(bad),
                                  "--data", str(workspace / "data"),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    err = json.loads(result.output.strip().splitlines()[-1])
    assert "does not match dataset" in err["error"]["message"]


@pytest.mark.parametrize("option, value, message", [
    ("--iters", "0", "iters must be >= 1, got 0"),
    ("--iters", "-3", "iters must be >= 1, got -3"),
    ("--threshold", "-0.1", "threshold must be >= 0, got -0.1"),
    ("--threshold", "nan", "threshold must be >= 0, got nan"),
])
def test_baseline_rejects_bad_stlsq_settings(workspace, tmp_path, option, value,
                                             message):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["baseline", "--variant", "accurate",
                                       "--data", str(workspace / "data"),
                                       "--out", str(out), f"{option}={value}"])
    assert result.exit_code == 1, result.output
    err = json.loads(result.output.strip().splitlines()[-1])
    assert err["error"]["type"] == "ValueError"
    assert message in err["error"]["message"]
    assert not (out / "model.json").exists()


def _config_error(result):
    assert result.exit_code == 1, result.output
    errors = [json.loads(line) for line in result.output.strip().splitlines()
              if line.startswith('{"error"')]
    assert len(errors) == 1
    assert errors[0]["error"]["type"] == "ConfigError"
    return errors[0]["error"]["message"]


@pytest.mark.parametrize("config", [
    [RUN_CONFIG],
    {**RUN_CONFIG, "fit": None},
    {**RUN_CONFIG, "sampler": None},
    {**RUN_CONFIG, "generator": None},
    {**RUN_CONFIG, "max_seconds": "60"},
    {**RUN_CONFIG, "max_seconds": -1},
    {**RUN_CONFIG, "fit": {**RUN_CONFIG["fit"], "learning_rate": 10 ** 400}},
    {**RUN_CONFIG, "sampler": {"tau_cluster": 10 ** 400}},
], ids=["array", "fit-null", "sampler-null", "generator-null", "max-seconds-string",
        "max-seconds-negative", "learning-rate-beyond-float", "tau-cluster-beyond-float"])
def test_discover_rejects_malformed_config(workspace, tmp_path, config):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    result = CliRunner().invoke(main, ["discover", "--config", str(bad),
                                       "--data", str(workspace / "data"),
                                       "--out", str(tmp_path / "out")])
    _config_error(result)
    assert not (tmp_path / "out").exists()  # rejected before any fit


@pytest.mark.parametrize("key, value", [("timeout", 0), ("timeout", -5), ("max_tokens", 0)],
                         ids=["zero-timeout", "negative-timeout", "zero-max-tokens"])
def test_discover_rejects_a_generator_that_cannot_complete(workspace, tmp_path, key, value):
    bad = tmp_path / "bad.json"
    generator = {"kind": "mock", "script": str(workspace / "script.json"), key: value}
    bad.write_text(json.dumps({**RUN_CONFIG, "generator": generator}))
    result = CliRunner().invoke(main, ["discover", "--config", str(bad),
                                       "--data", str(workspace / "data"),
                                       "--out", str(tmp_path / "out")])
    assert f"generator: {key} must be" in _config_error(result)
    assert not (tmp_path / "out").exists()  # rejected before any fit


@pytest.mark.parametrize("train", [
    {**SCENARIOS["train"], "disturbance": None},
    {**SCENARIOS["train"], "disturbance": {"kind": "state_kick", "offsets": 5}},
    {**SCENARIOS["train"], "disturbance": {"kind": "state_kick", "offsets": {"delta": True}}},
    {**SCENARIOS["train"], "disturbance": {"kind": "state_kick", "offsets": {"delta": "0.3"}}},
    {**SCENARIOS["train"], "disturbance": {"kind": "state_kick", "offsets": [["delta", 0.5]]}},
], ids=["disturbance-null", "offsets-number", "offset-true", "offset-string", "offsets-array"])
def test_gen_data_rejects_malformed_scenario(tmp_path, train):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({**SCENARIOS, "train": train}))
    result = CliRunner().invoke(main, ["gen-data", "--model", "swing2",
                                       "--scenario", str(scen),
                                       "--out", str(tmp_path / "data")])
    assert "disturbance" in _config_error(result)
    assert not (tmp_path / "data").exists()


def test_gen_data_rejects_unknown_scenario_keys(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({**SCENARIOS, "validation": SCENARIOS["test"]}))
    result = CliRunner().invoke(main, ["gen-data", "--model", "swing2",
                                       "--scenario", str(scen),
                                       "--out", str(tmp_path / "data")])
    assert "validation" in _config_error(result)
    assert not (tmp_path / "data").exists()

@pytest.mark.parametrize("key, value", [
    ("noise_sigma", -0.5),
    ("total_time", -1.0),
    ("total_time", 0.0),
    ("seed", -1),
    ("total_time", 0.004),
    ("inputs", {"P_m": True}),
    ("inputs", {"P_m": "0.5"}),
    ("inputs", [["P_m", 0.5]]),
    ("initial_state", [["delta", 0.5], ["omega", 1.0]]),
], ids=["negative-noise", "negative-duration", "zero-duration", "negative-seed",
        "shorter-than-a-step", "input-true", "input-string", "inputs-array",
        "initial-state-array"])
def test_gen_data_rejects_out_of_range_scenario_values(tmp_path, key, value):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({**SCENARIOS, "train": {**SCENARIOS["train"], key: value}}))
    result = CliRunner().invoke(main, ["gen-data", "--model", "swing2",
                                       "--scenario", str(scen),
                                       "--out", str(tmp_path / "data")])
    assert key in _config_error(result)
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("train, key", [
    ({"noise_sigma": float("nan")}, "noise_sigma"),
    ({"total_time": float("inf")}, "total_time"),
    ({"disturbance": {"kind": "pm_step", "magnitude": float("nan"), "duration": 1.0}},
     "disturbance: magnitude"),
    ({"disturbance": {"kind": "state_kick", "magnitude": 1.0,
                      "offsets": {"delta": float("nan")}}}, "disturbance: offsets: delta"),
    ({"inputs": {"P_m": float("inf")}}, "inputs: P_m"),
    ({"noise_sigma": 10 ** 400}, "noise_sigma"),
    ({"disturbance": {"kind": "state_kick", "magnitude": 1.0,
                      "offsets": {"delta": 10 ** 400}}}, "disturbance: offsets: delta"),
], ids=["noise-nan", "duration-infinity", "magnitude-nan", "offset-nan", "input-infinity",
        "noise-beyond-float", "offset-beyond-float"])
def test_gen_data_rejects_non_finite_scenario_numbers(tmp_path, train, key):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({**SCENARIOS, "train": {**SCENARIOS["train"], **train}}))
    result = CliRunner().invoke(main, ["gen-data", "--model", "swing2",
                                       "--scenario", str(scen),
                                       "--out", str(tmp_path / "data")])
    assert f"{key}: expected a finite number" in _config_error(result)
    assert not (tmp_path / "data").exists()


def test_gen_data_writes_no_split_when_a_later_one_fails(tmp_path):
    # the test split kicks a state swing2 does not have: simulate refuses it
    # after the train split has simulated, and no file of either is written
    test = {**SCENARIOS["test"], "disturbance": {"kind": "state_kick", "magnitude": 1.0,
                                                 "offsets": {"delta_typo": 0.4}}}
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({**SCENARIOS, "test": test}))
    result = CliRunner().invoke(main, ["gen-data", "--model", "swing2",
                                       "--scenario", str(scen),
                                       "--out", str(tmp_path / "data")])
    assert result.exit_code == 1, result.output
    [error] = [json.loads(line)["error"] for line in result.output.strip().splitlines()
               if line.startswith('{"error"')]
    assert "delta_typo" in error["message"]
    assert not (tmp_path / "data").exists()


def test_discover_survives_a_deeply_nested_completion(workspace, tmp_path):
    deep = "(" * 300 + "delta" + ")" * 300
    script = [[fenced(f"ddelta/dt = {deep}\ndomega/dt = p1*omega")],
              [fenced(TRUE_SWING)]]
    (tmp_path / "script.json").write_text(json.dumps(script))
    (tmp_path / "run.json").write_text(json.dumps(RUN_CONFIG))
    result = CliRunner().invoke(main, ["discover", "--config", str(tmp_path / "run.json"),
                                       "--data", str(workspace / "data"),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    records = [json.loads(line) for line in
               (tmp_path / "out" / "run_log.jsonl").read_text().splitlines()]
    first = next(r for r in records if r["event"] == "iteration")
    assert (first["candidates"], first["rejected"]) == (1, 1)


def test_evaluate_reads_only_the_full_test_record(workspace, tmp_path):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    (data / "test.npy").unlink()
    model = workspace / "run_discover" / "model.json"
    reports = []
    for data_dir, name in ((workspace / "data", "with.json"), (data, "without.json")):
        result = CliRunner().invoke(main, ["evaluate", "--model", str(model),
                                           "--data", str(data_dir),
                                           "--out", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
        reports.append((tmp_path / name).read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("de_params, ae_params, message", [
    ([1.0, 0.0, 0.0, 0.0], [1.0], "DE model: 4 params for a skeleton with 2"),
    ([1.0], [1.0], "DE model: 1 params for a skeleton with 2"),
    ([1.0, 0.0], [1.0, 2.0], "AE model: 2 params for a skeleton with 1"),
    ([1.0, 0.0], [], "AE model: 0 params for a skeleton with 1"),
])
def test_evaluate_refuses_a_model_whose_param_count_is_not_its_skeletons(
        workspace, tmp_path, de_params, ae_params, message):
    # a model file is outside input: a count that is not the skeleton's is an error
    doc = {
        "format": "daedisc-model",
        "version": 1,
        "benchmark": "swing2",
        "de": {"targets": ["delta", "omega"],
               "text": "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1*P_e",
               "params": de_params, "score": 0.0},
        "ae": {"targets": ["P_e"], "text": "P_e = p0*sin(delta)",
               "params": ae_params, "score": 0.0},
        "library": [{"name": "P_e", "unit": "pu", "description": "", "kind": "algebraic"}],
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["evaluate", "--model", str(model_path),
                                       "--data", str(workspace / "data"),
                                       "--out", str(tmp_path / "report.json")])
    assert result.exit_code == 1, result.output
    err = json.loads(result.output.strip().splitlines()[-1])
    assert err["error"] == {"type": "ValueError", "message": message}
    assert not (tmp_path / "report.json").exists()
