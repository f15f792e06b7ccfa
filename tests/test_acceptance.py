"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Fixtures are deliberately explicit about scenario and run settings;
see the README for how they map onto the exposed configuration surface.
"""

import itertools
import json
import time

import numpy as np
from click.testing import CliRunner

from daedisc.archive import Archive, SamplerConfig, cluster_key
from daedisc.benchmarks import (
    Disturbance,
    ScenarioConfig,
    get_model,
    model_ids,
    simulate,
)
from daedisc.cli import main as cli_main
from daedisc.config import RunConfig
from daedisc.dataset import central_difference, make_dataset
from daedisc.dsl import ParseError, SymbolScope, parse
from daedisc.engine import Decision, DiscoveryEngine, check_trigger
from daedisc.evaluator import DomainFault, SampleBatch, gradient_check
from daedisc.fitting import FitConfig, ScoredSkeleton, cosine_lr, fit_and_score
from daedisc.gateway import MockBackend, parse_completion
from daedisc.metrics import build_report
from daedisc.sindy import SkeletonModel, fit_baseline, simulate_identified, stlsq
from daedisc.sindy import LibraryConfig, build_library

TRUE_SWING = ("ddelta/dt = p0*(omega - 1)\n"
              "domega/dt = (p1 - p2*sin(delta) - p3*(omega - 1))/p4")
TRUE_SWING_CANONICAL = TRUE_SWING


def fenced(text, requirements=None):
    out = f"```equations\n{text}\n```"
    if requirements is not None:
        out += "\n```requirements\n" + json.dumps(requirements) + "\n```"
    return out


def _ok(n, label):
    print(f"\nACCEPTANCE {n} ({label}): PASS")


# ---------------------------------------------------------------------------
# 1. Closed-loop recovery


SCENARIOS = {
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
    "seed": 0,
    "islands": 10,
    "n_b": 4,
    "epsilon": 0.01,
    "gamma": 0.01,
    "window": 3,
    "de_max_iterations": 12,
    "ae_max_iterations": 6,
    "fit": {"steps": 2000, "learning_rate": 1.5, "restarts": 2, "seed": 0},
    "generator": {"kind": "mock", "script": "script.json"},
}

MOCK_SCRIPT = [
    # batch 1 and 2: distractors (one prose completion exercises rejection)
    [fenced("ddelta/dt = p0*delta\ndomega/dt = p1*omega"),
     "I would need to see the data first."],
    [fenced("ddelta/dt = p0*sin(delta)\ndomega/dt = p1*cos(delta)"),
     fenced("ddelta/dt = p0\ndomega/dt = p1")],
    # batch 3: the true structure, next to one more distractor
    [fenced(TRUE_SWING),
     fenced("ddelta/dt = p0*omega*delta\ndomega/dt = p1*delta")],
]


def test_acceptance_1_closed_loop_recovery(tmp_path):
    started = time.monotonic()
    runner = CliRunner()
    (tmp_path / "scen.json").write_text(json.dumps(SCENARIOS))
    result = runner.invoke(cli_main, ["gen-data", "--model", "swing2",
                                      "--scenario", str(tmp_path / "scen.json"),
                                      "--out", str(tmp_path / "data")])
    assert result.exit_code == 0, result.output
    (tmp_path / "script.json").write_text(json.dumps(MOCK_SCRIPT))
    (tmp_path / "run.json").write_text(json.dumps(RUN_CONFIG))
    result = runner.invoke(cli_main, ["discover", "--config", str(tmp_path / "run.json"),
                                      "--data", str(tmp_path / "data"),
                                      "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "out" / "model.json").read_text())
    # terminated through the score rule, with the true structure selected
    assert doc["de"]["terminated"] is True
    assert doc["de"]["iterations"] < RUN_CONFIG["de_max_iterations"]
    assert doc["de"]["text"] == TRUE_SWING_CANONICAL
    assert doc["de"]["score"] > -RUN_CONFIG["gamma"]
    records = [json.loads(line) for line in
               (tmp_path / "out" / "run_log.jsonl").read_text().splitlines()]
    assert any(r.get("event") == "terminate" and r.get("loop") == "de"
               for r in records)
    # replay on the held-out scenario
    result = runner.invoke(cli_main, ["evaluate",
                                      "--model", str(tmp_path / "out" / "model.json"),
                                      "--data", str(tmp_path / "data"),
                                      "--out", str(tmp_path / "out" / "report.json")])
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    elapsed = time.monotonic() - started
    assert report["aggregate"]["mape_pct"] < 1.0, report["aggregate"]
    assert report["aggregate"]["r2"] > 0.95, report["aggregate"]
    assert not report["diverged"]
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _ok(1, f"closed-loop recovery: MAPE {report['aggregate']['mape_pct']:.3f}%, "
           f"R2 {report['aggregate']['r2']:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Variable-extension path


def _reference_trigger(history, window, epsilon, gamma):
    n = len(history)
    if n >= window and min(history[-window:]) > -gamma:
        return Decision.TERMINATE
    if n >= window + 1 and history[-1] <= -gamma:
        deltas = [history[i + 1] - history[i] for i in range(n - 1)]
        if max(deltas[-window:]) <= epsilon:
            return Decision.EXTEND
    return Decision.CONTINUE


def test_acceptance_2_variable_extension_path():
    # measurement noise keeps every score at the noise floor (far below
    # -gamma), so the run shows the stagnation trigger with the published
    # thresholds epsilon = gamma = 0.01 and R = 3
    model = get_model("swing2")
    scen = ScenarioConfig(
        total_time=10.0, dt=0.01, noise_sigma=0.01, seed=3,
        disturbance=Disturbance(kind="state_kick", magnitude=1.0,
                                offsets=(("delta", 1.2), ("omega", 0.004))))
    dataset = make_dataset(simulate(model, scen), scen)
    batches = [
        [fenced("ddelta/dt = p0\ndomega/dt = p1",
                requirements=[{"name": "P_e", "justification": "air-gap power"}])],
        [fenced("ddelta/dt = p0*delta\ndomega/dt = p1",
                requirements=[{"name": "P_e"}])],
        [fenced("ddelta/dt = p0\ndomega/dt = p1*delta",
                requirements=[{"name": "P_e"}])],
        [fenced("ddelta/dt = p0*(omega - 1)\n"
                "domega/dt = (p1 - p2*P_e - p3*(omega - 1))/p4")],
    ]
    cfg = RunConfig.from_dict({
        "benchmark": "swing2", "seed": 7, "islands": 3, "n_b": 2,
        "epsilon": 0.01, "gamma": 0.01, "window": 3,
        "de_max_iterations": 6,
        "fit": {"steps": 1500, "learning_rate": 1.5, "restarts": 2, "seed": 0},
        "generator": {"kind": "mock", "script": "unused.json"},
    })
    engine = DiscoveryEngine(dataset, MockBackend(batches), cfg)
    de = engine.run_de_loop()
    # reconstruct the best-score history the loop monitored
    history = [r["best_score"] for r in engine.run_log_
               if r.get("loop") == "de" and r.get("event") in ("seed", "iteration")]
    extension_records = [r for r in engine.run_log_
                         if r.get("loop") == "de" and r.get("added_variables")]
    assert extension_records, "extension never fired"
    t_ext = extension_records[0]["iteration"]
    # the trigger fired exactly when the reference rule first says EXTEND
    for t in range(1, len(history) + 1):
        expected = _reference_trigger(history[:t], 3, 0.01, 0.01)
        if t < t_ext:
            assert expected is not Decision.EXTEND, f"late fire: rule said EXTEND at {t}"
        if t == t_ext:
            assert expected is Decision.EXTEND, "trigger fired without the rule"
            break
    assert history[t_ext - 1] <= -0.01
    deltas = [history[i + 1] - history[i] for i in range(t_ext - 1)]
    assert all(d <= 0.01 for d in deltas[-3:])
    # the requested signal entered the library, and its column is the hidden
    # record's
    assert extension_records[0]["added_variables"] == ["P_e"]
    admitted = tuple(e.name for e in de.library)
    assert "P_e" in admitted
    assert np.array_equal(dataset.to_batch(admitted).column("P_e"),
                          dataset.full.columns["P_e"])
    # the post-extension candidate referencing P_e compiled and was fitted
    assert extension_records[0]["rejected"] == 0
    assert extension_records[0]["candidates"] == 1
    # exhaustive brute-force oracle over all histories of length <= 6
    grid = (-1.5, -1.495, -0.02, -0.01, -0.005)
    count = 0
    for length in range(1, 7):
        for history in itertools.product(grid, repeat=length):
            assert check_trigger(list(history), 3, 0.01, 0.01) is _reference_trigger(
                list(history), 3, 0.01, 0.01), history
            count += 1
    assert count == sum(5 ** n for n in range(1, 7))
    _ok(2, f"variable extension at iteration {t_ext}; oracle over {count} histories")


# ---------------------------------------------------------------------------
# 3. Sampler fidelity


def _scored(text, score, scope, targets):
    sk = parse(text, scope, targets, kind="de")
    params = np.zeros(sk.n_params)
    params.setflags(write=False)
    return ScoredSkeleton(skeleton=sk, params=params, score=score)


def test_acceptance_3_sampler_fidelity():
    from scipy import stats

    scope = SymbolScope(states=("delta", "omega"))
    rng_cfg = np.random.default_rng(2024)
    tau = 0.2
    pool = ["p0*delta", "p0*omega", "p0*sin(delta)", "p0*cos(omega)",
            "p0*delta + p1", "p0*omega - p1", "p0*delta*omega", "p0*exp(delta)"]
    for config_index in range(5):
        n_clusters = int(rng_cfg.integers(2, 7))
        scores = np.round(rng_cfg.uniform(-3.0, -0.2, n_clusters), 3)
        while len(set(cluster_key(s) for s in scores)) < n_clusters:
            scores = np.round(rng_cfg.uniform(-3.0, -0.2, n_clusters), 3)
        archive = Archive(1)
        for i, score in enumerate(scores):
            archive.register(1, _scored(f"ddelta/dt = {pool[i]}", float(score),
                                        scope, ["delta"]))
        island = archive.island(1)
        keys = sorted(island.clusters)
        means = np.array([np.mean([m.score for m in island.clusters[k]]) for k in keys])
        logits = means / tau
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        n_draws = 100_000
        rng = np.random.default_rng(500 + config_index)
        counts = {k: 0 for k in keys}
        for _ in range(n_draws):
            counts[archive.sample_cluster(island, tau, rng)] += 1
        observed = np.array([counts[k] for k in keys], dtype=float)
        expected = probs * n_draws
        # merge tiny-expectation bins so the chi-square statistic is valid
        keep = expected >= 5.0
        obs = list(observed[keep])
        exp = list(expected[keep])
        if (~keep).any():
            obs.append(observed[~keep].sum())
            exp.append(expected[~keep].sum())
        if len(obs) < 2:
            continue  # a single live bin carries no test
        stat, p_value = stats.chisquare(obs, exp)
        assert p_value > 0.01, (
            f"config {config_index}: chi2 p={p_value:.4f} scores={scores}")
    # island marginal uniform within 3 sigma over 10^4 full draws
    seed = _scored("ddelta/dt = p0*delta + p1*omega + p2", -1.0, scope, ["delta"])
    archive = Archive.seeded(10, seed)
    rng = np.random.default_rng(17)
    n = 10_000
    counts = np.zeros(10)
    for _ in range(n):
        island_id, _ = archive.sample_examples(SamplerConfig(examples_per_prompt=1), rng)
        counts[island_id - 1] += 1
    p = 0.1
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * sigma), counts
    _ok(3, "sampler fidelity: chi-square over 5 configs, uniform islands")


# ---------------------------------------------------------------------------
# 4. Gradient correctness


_SAFE_FUNCS = ("sin", "cos", "exp", "log", "sqrt", "tanh")


def _random_expr(rng, depth, n_params):
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.4:
            return f"p{rng.integers(0, n_params)}"
        if r < 0.8:
            return "x"
        return f"{rng.uniform(0.2, 3.0):.3f}"
    r = rng.random()
    a = _random_expr(rng, depth - 1, n_params)
    b = _random_expr(rng, depth - 1, n_params)
    if r < 0.45:
        op = rng.choice(["+", "-", "*", "/"])
        return f"({a} {op} {b})"
    if r < 0.6:
        return f"-({a})"
    if r < 0.75:
        return f"({a})^{rng.integers(-3, 4)}"
    return f"{rng.choice(_SAFE_FUNCS)}({a})"


def test_acceptance_4_gradient_correctness():
    rng = np.random.default_rng(99)
    scope = SymbolScope(states=("x",))
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 200 and attempts < 4000:
        attempts += 1
        text = f"dx/dt = {_random_expr(rng, 3, 3)}"
        try:
            sk = parse(text, scope, ["x"], kind="de")
        except ParseError:
            continue
        if sk.n_params == 0:
            continue
        batch = SampleBatch.from_columns({"x": rng.uniform(0.5, 2.0, 10)})
        params = rng.uniform(-2.0, 2.0, sk.n_params)
        try:
            err = gradient_check(sk, params, batch)
        except DomainFault:
            continue
        worst = max(worst, err)
        assert err < 1e-5, f"{text} params={params} err={err}"
        checked += 1
    assert checked == 200, f"only {checked} skeletons checked"
    _ok(4, f"gradients: 200 random skeletons, max rel error {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. Fitting correctness


def test_acceptance_5_fitting_correctness():
    x = np.linspace(1.0, 2.0, 50)
    batch = SampleBatch.from_columns({"x": x, "dx_dt": 3.0 * x})
    scope = SymbolScope(states=("x",))
    sk = parse("dx/dt = p0*x", scope, ["x"], kind="de")
    cfg = FitConfig(seed=4)
    scored = fit_and_score(sk, batch, ["dx_dt"], cfg)
    assert abs(scored.params[0] - 3.0) < 1e-3
    assert abs(cosine_lr(0, 0.05, 2000) - 0.05) < 1e-12
    assert abs(cosine_lr(2000, 0.05, 2000)) < 1e-12
    repeat = fit_and_score(sk, batch, ["dx_dt"], cfg)
    assert repeat.score == scored.score
    assert np.array_equal(repeat.params, scored.params)
    _ok(5, f"fitting: coefficient {scored.params[0]:.6f}, deterministic score")


# ---------------------------------------------------------------------------
# 6. Sparse-regression oracle equivalence and directional consistency


def test_acceptance_6_sindy_oracle_and_ordering():
    # (a) threshold 0 with one round equals ordinary least squares
    rng = np.random.default_rng(12)
    columns = {"a": rng.normal(size=400), "b": rng.normal(size=400)}
    theta, _ = build_library(LibraryConfig("overcomplete"), ["a", "b"], columns)
    y = rng.normal(size=(400, 2))
    xi, _, _ = stlsq(theta, y, threshold=0.0, iters=1)
    oracle, *_ = np.linalg.lstsq(theta, y, rcond=None)
    assert np.max(np.abs(xi - oracle.T)) < 1e-9
    # (b) exact support recovery on a synthetic sparse linear system
    columns = {name: rng.uniform(-2, 2, 600) for name in ("a", "b", "c", "d")}
    theta, terms = build_library(LibraryConfig("overcomplete"), list(columns), columns)
    true_xi = np.zeros((2, len(terms)))
    true_xi[0, [1, 6]] = [1.1, -0.7]
    true_xi[1, [0, 3]] = [0.5, 0.3]
    targets = theta @ true_xi.T
    xi, degenerate, _ = stlsq(theta, targets, threshold=0.05, iters=10)
    assert not any(degenerate)
    assert np.array_equal(xi != 0.0, true_xi != 0.0)
    # (c) directional consistency on the one-axis benchmark: missing-variable
    # priors must do worse than accurate priors.  The scenario explores the
    # sin(delta) nonlinearity so that a state-linear surrogate cannot stand
    # in for the missing electrical-power signal.
    model = get_model("oneaxis3")
    train_scen = ScenarioConfig(
        total_time=10.0, dt=0.01, noise_sigma=0.0, seed=5,
        disturbance=Disturbance(kind="state_kick", magnitude=1.0,
                                offsets=(("delta", 1.2), ("omega", 0.004))))
    test_scen = ScenarioConfig(
        total_time=10.0, dt=0.01, noise_sigma=0.0, seed=6,
        disturbance=Disturbance(kind="state_kick", magnitude=1.0,
                                offsets=(("delta", 0.5), ("omega", -0.002))))
    train = simulate(model, train_scen)
    test = simulate(model, test_scen)
    features = {name: train.columns[name] for name in model.state_names}
    for name in model.core_variable_names:
        features[name] = train.columns[name]
    derivs = {f"d{s}_dt": central_difference(train.columns[s], train.dt)
              for s in model.state_names}
    core_algebraic = tuple(n for n in model.core_variable_names
                           if n not in model.input_names)
    mapes = {}
    for variant, excluded in [("accurate", ()), ("missing", core_algebraic)]:
        fitted, _ = fit_baseline(features, derivs, test.state_names, variant=variant,
                                 threshold=0.05, iters=10, excluded=excluded)
        replay = simulate_identified(fitted, test)
        truth = {n: test.columns[n] for n in test.state_names}
        report = build_report(truth, replay.states, replay.n_valid, replay.diverged)
        mapes[variant] = report["aggregate"]["mape_pct"]
    assert mapes["missing"] > mapes["accurate"], mapes
    _ok(6, f"sparse regression: OLS match, support recovery, "
           f"missing {mapes['missing']:.2f}% > accurate {mapes['accurate']:.2f}%")


# ---------------------------------------------------------------------------
# 7. Simulator soundness


def test_acceptance_7_simulator_soundness():
    # equilibrium invariance over 10 s for every benchmark model
    for model_id in model_ids():
        model = get_model(model_id)
        scen = ScenarioConfig(total_time=10.0, dt=0.01, noise_sigma=0.0, seed=0)
        rec = simulate(model, scen)
        drift = max(np.max(np.abs(rec.columns[s] - rec.columns[s][0]))
                    for s in model.state_names)
        assert drift <= 1e-8, f"{model_id}: drift {drift:.2e}"
    # RK4 self-convergence order measured over the whole trajectory
    model = get_model("swing2")
    kick = Disturbance(kind="state_kick", magnitude=1.0,
                       offsets=(("delta", 0.4), ("omega", 0.003)))

    def trajectory(dt):
        scen = ScenarioConfig(total_time=1.0, dt=dt, noise_sigma=0.0, seed=0,
                              disturbance=kick)
        return simulate(model, scen)

    dt_ref = 0.01 / 8.0
    reference = trajectory(dt_ref)

    def error(dt):
        rec = trajectory(dt)
        stride = int(round(dt / dt_ref))
        return max(np.max(np.abs(rec.columns[s] - reference.columns[s][::stride]))
                   for s in model.state_names)

    order = float(np.log2(error(0.02) / error(0.01)))
    assert order >= 3.8, f"measured order {order:.2f}"
    # noiseless numerical differentiation matches the analytic right-hand side
    scen = ScenarioConfig(total_time=10.0, dt=0.01, noise_sigma=0.0, seed=0,
                          disturbance=Disturbance(
                              kind="state_kick", magnitude=1.0,
                              offsets=(("delta", 0.3), ("omega", 0.002))))
    record = simulate(model, scen)
    ds = make_dataset(record, scen)
    worst = 0.0
    for j, state in enumerate(model.state_names):
        exact = np.empty(record.n_samples)
        for i in range(record.n_samples):
            x = np.array([record.columns[s][i] for s in model.state_names])
            exact[i] = model.rhs(x, {"P_m": record.columns["P_m"][i]})[j]
        approx = ds.derivs[f"d{state}_dt"]
        rel = np.abs(approx[1:-1] - exact[1:-1]) / max(np.max(np.abs(exact)), 1e-12)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-3, f"max relative differentiation error {worst:.2e}"
    _ok(7, f"simulator: order {order:.2f}, diff error {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. Robustness


def test_acceptance_8_robustness():
    # fuzzed completions never crash the extractor
    rng = np.random.default_rng(314)
    alphabet = list("abc` \n\"{}[]()=d/t*+-^_01x,:;#$%pP_e\\🙂")
    for _ in range(2000):
        n = int(rng.integers(0, 120))
        raw = "".join(rng.choice(alphabet) for _ in range(n))
        completion = parse_completion(raw)
        assert isinstance(completion.skeleton_text, str)
    parse_completion("```equations\nunterminated fence")
    parse_completion("\x00\x01\x02```json\n[1,2,\n```")
    # non-compiling skeletons are filtered without aborting the iteration
    model = get_model("swing2")
    scen = ScenarioConfig(total_time=3.0, dt=0.01, noise_sigma=0.0, seed=1,
                          disturbance=Disturbance(
                              kind="state_kick", magnitude=1.0,
                              offsets=(("delta", 0.6), ("omega", 0.003))))
    dataset = make_dataset(simulate(model, scen), scen)
    batches = [[
        "no fenced block at all",
        fenced("ddelta/dt = p0*unknown_name\ndomega/dt = p1"),
        fenced("ddelta/dt = p0*(\ndomega/dt = p1"),
        fenced("ddelta/dt = p0*delta\ndomega/dt = p1*omega"),
    ]]
    cfg = RunConfig.from_dict({
        "benchmark": "swing2", "seed": 1, "islands": 2, "n_b": 4,
        "de_max_iterations": 1,
        "fit": {"steps": 200, "learning_rate": 0.5, "restarts": 1, "seed": 0},
        "generator": {"kind": "mock", "script": "unused.json"},
    })
    engine = DiscoveryEngine(dataset, MockBackend(batches), cfg)
    de = engine.run_de_loop()
    iteration = [r for r in engine.run_log_ if r.get("event") == "iteration"][0]
    assert iteration["rejected"] == 3
    assert iteration["candidates"] == 4
    # unstable identified models flag divergence instead of crashing
    record = dataset.full
    unstable = SkeletonModel.from_text(
        "ddelta/dt = p0*delta\ndomega/dt = p1*omega", [500.0, 500.0],
        record.state_names, record.state_names)
    replay = simulate_identified(unstable, record)
    assert replay.diverged
    assert replay.n_valid < record.n_samples
    truth = {n: record.columns[n] for n in record.state_names}
    report = build_report(truth, replay.states, replay.n_valid, replay.diverged)
    assert report["diverged"]
    _ok(8, "robustness: fuzzed extraction, rejection path, divergence flags")
