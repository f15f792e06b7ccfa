import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from daedisc.benchmarks import Disturbance, ScenarioConfig, get_model, rk4_step, simulate
from daedisc.dataset import central_difference, deriv_name
from daedisc.dsl import variables_in
from daedisc.evaluator import FaultInfo, SampleBatch, evaluate
from daedisc.sindy import (
    LibraryConfig,
    SindyBaseline,
    SindyModel,
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


def test_stlsq_settings_are_checked_not_clamped():
    rng = np.random.default_rng(5)
    features = {"x": rng.uniform(0.5, 2.0, 100)}
    targets = {"dx_dt": -2.0 * features["x"]}
    for settings in ({"iters": 0}, {"iters": -1}, {"threshold": -0.05},
                     {"threshold": math.nan}, {"threshold": -math.inf}):
        with pytest.raises(ValueError, match="STLSQ"):
            SindyBaseline(**settings).fit(features, targets)
    # the edges that stay valid: one sweep, and a threshold that keeps every term
    theta, _ = build_library(LibraryConfig("accurate"), ["x"], features)
    one = SindyBaseline(iters=1, threshold=0.0).fit(features, targets).model_
    assert one.iters == 1 and one.threshold == 0.0
    xi, _, _ = stlsq(theta, targets["dx_dt"][:, None], threshold=0.0, iters=1)
    np.testing.assert_array_equal(one.coefficients, xi)


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


# --- replay oracle: the per-stage right-hand side replay used to build ------

def _reference_predict(model, values, targets):
    """One sample's outputs of ``model`` in ``targets`` order (for a skeleton,
    its own target order); NaN when an input is non-finite or it faults."""
    if not all(math.isfinite(v) for v in values.values()):
        return np.full(len(targets), np.nan)
    columns = {name: np.array([v]) for name, v in values.items()}
    if isinstance(model, SindyModel):
        pred = model.predict(columns)
        return np.array([pred[name][0] for name in targets])
    # every value was checked finite above, which is all from_columns would check
    res = evaluate(model.skeleton, model.params, SampleBatch(columns, 1), gradients=False)
    if res.faulted:
        return np.full(len(targets), np.nan)
    return res.outputs[:, 0]


def _reference_replay(model, record, ae_model=None):
    """Replay with a right-hand side that builds dicts and batches per stage."""
    state_names = list(record.state_names)
    if isinstance(model, SindyModel):
        targets = [deriv_name(s) for s in state_names]
        inputs = set(model.feature_names)
    else:
        targets = state_names
        inputs = variables_in(model.skeleton)
    ae_targets = ()
    if ae_model is not None:
        ae_targets = tuple(ae_model.skeleton.target_names)
        inputs = inputs | variables_in(ae_model.skeleton)
    signals = sorted(inputs - set(state_names))
    time_grid = record.time
    start, dt = time_grid[:-1], np.diff(time_grid)
    stage_times = np.stack([start, start + dt / 2.0, start + dt], axis=1)
    recorded = np.empty(stage_times.shape + (len(signals),))
    for k, name in enumerate(signals):
        recorded[:, :, k] = np.interp(stage_times, time_grid, record.columns[name])

    def rhs(state, signal_values):
        values = dict(zip(state_names, state))
        values.update(zip(signals, signal_values))
        if ae_targets:
            ae_inputs = {k: v for k, v in values.items() if k not in ae_targets}
            values.update(zip(ae_targets, _reference_predict(ae_model, ae_inputs, ae_targets)))
        return _reference_predict(model, values, targets)

    x = np.array([record.columns[s][0] for s in state_names])
    n = len(time_grid)
    out = np.full((n, len(state_names)), np.nan)
    out[0] = x
    diverged = False
    n_valid = 1
    with np.errstate(all="ignore"):
        for i in range(n - 1):
            x = rk4_step(rhs, x, float(dt[i]), *recorded[i])
            if not np.all(np.isfinite(x)):
                diverged = True
                break
            out[i + 1] = x
            n_valid += 1
    return out, diverged, n_valid


def _assert_replays_as_reference(model, record, ae_model=None):
    replay = simulate_identified(model, record, ae_model=ae_model)
    out, diverged, n_valid = _reference_replay(model, record, ae_model)
    assert (replay.diverged, replay.n_valid) == (diverged, n_valid)
    states = np.column_stack([replay.states[s] for s in record.state_names])
    assert np.array_equal(states, out, equal_nan=True)
    return replay


def _swing_skeleton(record):
    model = get_model("swing2")
    p = model.params
    return SkeletonModel.from_text(
        "ddelta/dt = p0*(omega - 1)\ndomega/dt = (p1 - p2*sin(delta) - p3*(omega - 1))/p4",
        [p["omega_b"], model.default_inputs["P_m"], p["e_prime"] * p["v_bus"] / p["x_total"],
         p["damping"], 2.0 * p["inertia"]], record.state_names, record.state_names)


def _swing_de_ae(record, ae_text, ae_targets):
    """A swing skeleton reading P_e, and an algebraic model predicting it."""
    model = get_model("swing2")
    p = model.params
    de = SkeletonModel.from_text(
        "ddelta/dt = p0*(omega - 1)\ndomega/dt = (p1 - p2*P_e - p3*(omega - 1))/p4",
        [p["omega_b"], model.default_inputs["P_m"], 1.0, p["damping"], 2.0 * p["inertia"]],
        record.state_names, record.state_names, variables=("P_e",))
    ae = SkeletonModel.from_text(ae_text, [p["e_prime"] * p["v_bus"] / p["x_total"]],
                                 ae_targets, record.state_names, kind="ae")
    return de, ae


def _held_out(model_id, kick):
    scen = ScenarioConfig(total_time=5.0, dt=0.01, noise_sigma=0.0, disturbance=Disturbance(
        kind="state_kick", magnitude=1.0, offsets=kick))
    return simulate(get_model(model_id), scen)


def _stlsq_model(variant, model_id, features):
    train = _held_out(model_id, (("delta", 0.5), ("omega", 0.003)))
    features = {n: train.columns[n] for n in features}
    derivs = {deriv_name(s): central_difference(train.columns[s], train.dt)
              for s in train.state_names}
    return SindyBaseline(variant=variant, threshold=0.02).fit(features, derivs).model_


def test_replay_matches_reference_for_sparse_models():
    record = _held_out("swing2", (("delta", 0.3), ("omega", 0.004)))
    accurate = _stlsq_model("accurate", "swing2", ("delta", "omega", "P_e"))
    assert not _assert_replays_as_reference(accurate, record).diverged
    overcomplete = _stlsq_model("overcomplete", "type1order5",
                                ("delta", "omega", "e_q_t", "e_d_t", "e_d_st", "i_d", "i_q"))
    overcomplete = _assert_replays_as_reference(
        overcomplete, _held_out("type1order5", (("delta", 0.6), ("omega", 0.006))))
    assert overcomplete.diverged and 1 < overcomplete.n_valid < record.n_samples


def test_replay_matches_reference_for_skeletons():
    _, record = _record()
    assert not _assert_replays_as_reference(_swing_skeleton(record), record).diverged
    # Q_e is predicted and read by nothing
    de, ae = _swing_de_ae(record, "P_e = p0*sin(delta)\nQ_e = p0*cos(delta)", ("P_e", "Q_e"))
    assert not _assert_replays_as_reference(de, record, ae_model=ae).diverged
    # log(p1 - delta) faults once delta, growing at rate p0, passes p1
    faulting = SkeletonModel.from_text(
        "ddelta/dt = p0\ndomega/dt = log(p1 - delta)",
        [1.0, record.columns["delta"][0] + 2.0], record.state_names, record.state_names)
    replay = _assert_replays_as_reference(faulting, record)
    assert replay.diverged and 100 < replay.n_valid < record.n_samples - 100


def _array_rk4_step(f, x, dt, start, middle, end):
    """The RK4 step as NumPy array arithmetic: the oracle of ``rk4_step``,
    which works on lists of floats."""
    k1 = f(x, start)
    k2 = f(x + dt * k1 / 2.0, middle)
    k3 = f(x + dt * k2 / 2.0, middle)
    k4 = f(x + dt * k3, end)
    return x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


@pytest.fixture
def array_rk4(monkeypatch):
    """``_reference_replay`` steps with ``_array_rk4_step``, not the production step."""
    monkeypatch.setitem(globals(), "rk4_step", _array_rk4_step)


def test_replay_matches_an_array_rk4_oracle(array_rk4):
    record = _held_out("swing2", (("delta", 0.3), ("omega", 0.004)))
    sparse = _stlsq_model("accurate", "swing2", ("delta", "omega", "P_e"))
    assert not _assert_replays_as_reference(sparse, record).diverged
    _, kicked = _record()
    assert not _assert_replays_as_reference(_swing_skeleton(kicked), kicked).diverged
    de, ae = _swing_de_ae(kicked, "P_e = p0*sin(delta)", ("P_e",))
    assert not _assert_replays_as_reference(de, kicked, ae_model=ae).diverged
    overcomplete = _stlsq_model("overcomplete", "type1order5",
                                ("delta", "omega", "e_q_t", "e_d_t", "e_d_st", "i_d", "i_q"))
    replay = _assert_replays_as_reference(
        overcomplete, _held_out("type1order5", (("delta", 0.6), ("omega", 0.006))))
    assert replay.diverged and 1 < replay.n_valid < record.n_samples


def test_replay_names_its_domain_fault(caplog):
    _, record = _record()
    assert simulate_identified(_swing_skeleton(record), record).fault is None
    faulting = SkeletonModel.from_text(
        "ddelta/dt = p0\ndomega/dt = log(p1 - delta)",
        [1.0, record.columns["delta"][0] + 2.0], record.state_names, record.state_names)
    with caplog.at_level(logging.WARNING, logger="daedisc.sindy"):
        replay = simulate_identified(faulting, record)
    # the step from the last valid sample faults
    assert replay.fault == FaultInfo(replay.n_valid - 1, "log of non-positive argument")
    assert len(caplog.records) == 1
    assert "DE model" in caplog.text and "log of non-positive argument" in caplog.text
    assert f"t = {record.time[replay.n_valid - 1]:g} s" in caplog.text
    # an algebraic model that faults once delta falls to 0.5
    de, ae = _swing_de_ae(record, "P_e = p0*sin(delta) + 0*log(delta - 0.5)", ("P_e",))
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="daedisc.sindy"):
        replay = simulate_identified(de, record, ae_model=ae)
    assert replay.diverged
    assert replay.fault == FaultInfo(replay.n_valid - 1, "log of non-positive argument")
    assert "AE model" in caplog.text


def test_ae_targets_need_no_recorded_column():
    _, record = _record()
    de, ae = _swing_de_ae(record, "P_e = p0*sin(delta)", ("P_e",))
    slim = replace(record, columns={n: c for n, c in record.columns.items() if n != "P_e"})
    full, cut = (simulate_identified(de, r, ae_model=ae) for r in (record, slim))
    assert (cut.diverged, cut.n_valid) == (full.diverged, full.n_valid)
    for name in record.state_names:
        assert np.array_equal(cut.states[name], full.states[name])
    with pytest.raises(ValueError, match="P_e"):
        simulate_identified(de, slim)


def test_term_products_match_powers():
    # the library's products, factor by factor, give the bits of x**power
    rng = np.random.default_rng(9)
    columns = {"a": rng.normal(size=500), "b": rng.uniform(-3.0, 3.0, 500)}
    for term in library_terms(LibraryConfig("overcomplete"), ["a", "b"]):
        powered = np.ones(500)
        for var, power in term.powers:
            powered = powered * columns[var] ** power
        assert np.array_equal(term.evaluate(columns, 500), powered)
