import numpy as np
import pytest

from daedisc.benchmarks import Disturbance, ScenarioConfig, get_model, simulate
from daedisc.sindy import (
    LibraryConfig,
    SindyBaseline,
    SkeletonModel,
    build_library,
    library_terms,
    load_model,
    save_model,
    simulate_identified,
    stlsq,
)


def test_library_term_order_accurate():
    terms = library_terms(LibraryConfig("accurate"), ["delta", "omega"])
    assert [t.name for t in terms] == ["1", "delta", "omega"]


def test_library_term_order_overcomplete():
    terms = library_terms(LibraryConfig("overcomplete"), ["delta", "omega"])
    assert [t.name for t in terms] == [
        "1", "delta", "omega", "delta*delta", "delta*omega", "omega*omega"]


def test_library_missing_variant():
    terms = library_terms(LibraryConfig("missing", ("omega",)), ["delta", "omega"])
    assert [t.name for t in terms] == ["1", "delta"]
    with pytest.raises(ValueError):
        LibraryConfig(variant="missing")
    with pytest.raises(ValueError):
        LibraryConfig(variant="accurate", excluded=("omega",))
    with pytest.raises(ValueError):
        LibraryConfig(variant="overcomplete", excluded=("omega",))


def test_stlsq_recovers_linear_decay():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.5, 2.0, 200)
    columns = {"x": x}
    theta, terms = build_library(LibraryConfig("accurate"), ["x"], columns)
    targets = (-2.0 * x)[:, None]
    xi, degenerate, ridge = stlsq(theta, targets, threshold=0.05, iters=10)
    np.testing.assert_allclose(xi[0], [0.0, -2.0], atol=1e-6)
    assert not any(degenerate)


def test_stlsq_zero_targets_degenerate():
    rng = np.random.default_rng(1)
    columns = {"x": rng.uniform(0.5, 2.0, 100)}
    theta, _ = build_library(LibraryConfig("accurate"), ["x"], columns)
    xi, degenerate, _ = stlsq(theta, np.zeros((100, 1)), threshold=0.05)
    assert degenerate == [True]
    assert np.all(xi == 0.0)


def test_stlsq_best_linear_fit_of_sine_matches_ols_oracle():
    x = np.linspace(-1.0, 1.0, 400)
    y = np.sin(x)
    theta, _ = build_library(LibraryConfig("accurate"), ["x"], {"x": x})
    xi, _, _ = stlsq(theta, y[:, None], threshold=0.0, iters=1)
    oracle, *_ = np.linalg.lstsq(theta, y, rcond=None)
    np.testing.assert_allclose(xi[0], oracle, atol=1e-9)
    residual = np.linalg.norm(theta @ xi[0] - y)
    assert residual > 1e-3  # structural misfit is visible, not hidden


def test_stlsq_lambda_zero_equals_ols():
    rng = np.random.default_rng(2)
    columns = {"a": rng.normal(size=300), "b": rng.normal(size=300)}
    theta, _ = build_library(LibraryConfig("overcomplete"), ["a", "b"], columns)
    y = rng.normal(size=(300, 2))
    xi, _, _ = stlsq(theta, y, threshold=0.0, iters=1)
    oracle, *_ = np.linalg.lstsq(theta, y, rcond=None)
    np.testing.assert_allclose(xi, oracle.T, atol=1e-9)


def test_stlsq_sparsity_monotone_in_threshold():
    rng = np.random.default_rng(3)
    columns = {"a": rng.normal(size=400), "b": rng.normal(size=400),
               "c": rng.normal(size=400)}
    theta, _ = build_library(LibraryConfig("overcomplete"), ["a", "b", "c"], columns)
    y = (0.9 * columns["a"] - 0.4 * columns["b"] * columns["c"]
         + 0.05 * columns["c"] + rng.normal(0, 0.01, 400))[:, None]
    counts = []
    for lam in [0.0, 0.02, 0.1, 0.5, 1.5]:
        xi, _, _ = stlsq(theta, y, threshold=lam, iters=10)
        counts.append(int(np.count_nonzero(xi)))
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_stlsq_exact_support_recovery():
    rng = np.random.default_rng(4)
    n = 500
    columns = {name: rng.uniform(-2, 2, n) for name in ("a", "b", "c", "d")}
    theta, terms = build_library(LibraryConfig("overcomplete"), list(columns), columns)
    lam = 0.05
    true_xi = np.zeros((2, len(terms)))
    # coefficients at least 2*lambda in magnitude on a sparse support
    true_xi[0, [1, 5]] = [1.3, -0.6]     # a, a*a
    true_xi[1, [0, 4]] = [0.4, 0.25]     # 1, d
    targets = theta @ true_xi.T
    xi, degenerate, _ = stlsq(theta, targets, threshold=lam, iters=10)
    assert not any(degenerate)
    np.testing.assert_array_equal(xi != 0.0, true_xi != 0.0)
    np.testing.assert_allclose(xi, true_xi, atol=1e-8)


def test_baseline_estimator_surface():
    rng = np.random.default_rng(5)
    features = {"x": rng.uniform(0.5, 2.0, 100)}
    targets = {"dx_dt": -2.0 * features["x"]}
    est = SindyBaseline(variant="accurate", threshold=0.05)
    assert est.get_params()["variant"] == "accurate"
    est.set_params(threshold=0.02)
    assert est.threshold == 0.02
    est.fit(features, targets)
    pred = est.predict(features)["dx_dt"]
    np.testing.assert_allclose(pred, targets["dx_dt"], atol=1e-8)
    with pytest.raises(ValueError):
        est.set_params(bogus=1)


def test_baseline_exclusions_only_with_missing_variant():
    rng = np.random.default_rng(7)
    features = {"a": rng.uniform(0.5, 2.0, 50), "b": rng.uniform(-1, 1, 50)}
    targets = {"da_dt": -features["a"]}
    for variant, excluded in (("accurate", ("b",)), ("overcomplete", ("b",)),
                              ("acurate", ("b",)), ("missing", ("b_typo",))):
        with pytest.raises(ValueError):
            SindyBaseline(variant=variant, excluded=excluded).fit(features, targets)
    est = SindyBaseline(variant="missing", excluded=("b",)).fit(features, targets)
    assert est.model_.feature_names == ("a",)
    assert [t.name for t in est.model_.terms] == ["1", "a"]


def test_model_json_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    features = {"x": rng.uniform(0.5, 2.0, 100), "y": rng.uniform(-1, 1, 100)}
    targets = {"dx_dt": -2.0 * features["x"] + 0.5 * features["y"]}
    est = SindyBaseline(variant="overcomplete").fit(features, targets)
    path = tmp_path / "model.json"
    save_model(est.model_, path)
    again = load_model(path)
    np.testing.assert_array_equal(again.coefficients, est.model_.coefficients)
    assert again.target_names == est.model_.target_names
    assert [t.name for t in again.terms] == [t.name for t in est.model_.terms]


KICK = Disturbance(kind="state_kick", magnitude=1.0,
                   offsets=(("delta", 0.5), ("omega", 0.003)))


def _record(model_id="swing2", seed=0):
    model = get_model(model_id)
    scen = ScenarioConfig(total_time=5.0, dt=0.01, noise_sigma=0.0, seed=seed,
                          disturbance=KICK)
    return model, simulate(model, scen)


def test_replay_true_skeleton_reproduces_record():
    model, record = _record()
    p = model.params
    text = "ddelta/dt = p0*(omega - 1)\ndomega/dt = (p1 - p2*sin(delta) - p3*(omega - 1))/p4"
    true_params = [p["omega_b"], model.default_inputs["P_m"],
                   p["e_prime"] * p["v_bus"] / p["x_total"], p["damping"],
                   2.0 * p["inertia"]]
    sk_model = SkeletonModel.from_text(text, true_params, record.state_names,
                                   record.state_names)
    replay = simulate_identified(sk_model, record)
    assert not replay.diverged
    for name in record.state_names:
        assert np.max(np.abs(replay.states[name] - record.columns[name])) < 1e-8


def test_replay_zero_model_stays_constant():
    model, record = _record()
    sk_model = SkeletonModel.from_text(
        "ddelta/dt = 0*p0\ndomega/dt = 0*p1", [0.0, 0.0], record.state_names,
        record.state_names)
    replay = simulate_identified(sk_model, record)
    assert not replay.diverged
    assert np.all(replay.states["delta"] == replay.states["delta"][0])


def test_replay_unstable_model_flags_divergence():
    model, record = _record()
    sk_model = SkeletonModel.from_text(
        "ddelta/dt = p0*delta\ndomega/dt = p1*omega", [200.0, 200.0],
        record.state_names, record.state_names)
    replay = simulate_identified(sk_model, record)
    assert replay.diverged
    assert 1 <= replay.n_valid < record.n_samples
    prefix = replay.states["delta"][: replay.n_valid]
    assert np.all(np.isfinite(prefix))


def test_replay_sindy_model_with_recorded_signals():
    model, record = _record()
    # fit the exact structure: ddelta/dt = a*(omega-1), domega/dt linear in P_e, omega
    features = {"delta": record.columns["delta"], "omega": record.columns["omega"],
                "P_e": record.columns["P_e"], "P_m": record.columns["P_m"]}
    from daedisc.dataset import central_difference

    derivs = {
        "ddelta_dt": central_difference(record.columns["delta"], record.dt),
        "domega_dt": central_difference(record.columns["omega"], record.dt),
    }
    est = SindyBaseline(variant="accurate", threshold=0.02).fit(features, derivs)
    replay = simulate_identified(est.model_, record)
    assert not replay.diverged
    # recorded-signal replay of a well-fit linear model tracks the truth to a
    # few percent (bias limited by the differentiated training targets)
    err = np.max(np.abs(replay.states["delta"] - record.columns["delta"]))
    assert err < 0.05


def test_replay_with_ae_substitution():
    model, record = _record()
    p = model.params
    de_text = "ddelta/dt = p0*(omega - 1)\ndomega/dt = (p1 - p2*P_e - p3*(omega - 1))/p4"
    de = SkeletonModel.from_text(
        de_text, [p["omega_b"], model.default_inputs["P_m"], 1.0, p["damping"],
                  2.0 * p["inertia"]],
        record.state_names, record.state_names, variables=("P_e",))
    ae = SkeletonModel.from_text(
        "P_e = p0*sin(delta)",
        [p["e_prime"] * p["v_bus"] / p["x_total"]],
        ("P_e",), record.state_names, kind="ae")
    # substituting the exact algebraic relation closes the system: error at
    # integrator roundoff level
    replay = simulate_identified(de, record, ae_model=ae)
    assert not replay.diverged
    assert np.max(np.abs(replay.states["delta"] - record.columns["delta"])) < 1e-9
    # recorded mode interpolates P_e between samples: O(dt^2) forcing error
    replay2 = simulate_identified(de, record)
    assert np.max(np.abs(replay2.states["delta"] - record.columns["delta"])) < 5e-3


def test_replay_ignores_a_non_finite_gradient():
    # at equilibrium until the kick: omega is exactly 1 at the first sample, so
    # d sqrt(p5*(omega - 1)^2)/dp5 is 0/0 there while the value is 0
    model = get_model("swing2")
    scen = ScenarioConfig(total_time=2.0, dt=0.01, noise_sigma=0.0, disturbance=Disturbance(
        kind="state_kick", start=1.0, magnitude=1.0, offsets=(("omega", 0.003),)))
    record = simulate(model, scen)
    assert record.columns["omega"][0] == 1.0
    p = model.params
    text = "ddelta/dt = p0*(omega - 1)\ndomega/dt = (p1 - p2*sin(delta) - p3*(omega - 1))/p4"
    true_params = [p["omega_b"], model.default_inputs["P_m"],
                   p["e_prime"] * p["v_bus"] / p["x_total"], p["damping"],
                   2.0 * p["inertia"]]
    base = simulate_identified(SkeletonModel.from_text(
        text, true_params, record.state_names, record.state_names), record)
    padded = simulate_identified(SkeletonModel.from_text(
        text + " + sqrt(p5*(omega - 1)^2)", true_params + [0.0],
        record.state_names, record.state_names), record)
    assert not padded.diverged and padded.n_valid == record.n_samples
    for name in record.state_names:
        assert np.array_equal(padded.states[name], base.states[name])
