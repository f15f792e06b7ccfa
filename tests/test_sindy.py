import hashlib
import json
import logging
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from daedisc.benchmarks import (Disturbance, FullRecord, ScenarioConfig, get_model, rk4_step,
                               simulate)
from daedisc.dataset import central_difference, deriv_name
from daedisc.dsl import serialize, variables_in
from daedisc.evaluator import FaultInfo, SampleBatch, evaluate
from daedisc.sindy import (
    LibraryConfig,
    SkeletonModel,
    build_library,
    fit_baseline,
    library_terms,
    load_model,
    save_model,
    simulate_identified,
    stlsq,
)


def test_library_term_order_accurate():
    terms = library_terms(LibraryConfig("accurate"), ["delta", "omega"])
    assert terms == ((), ("delta",), ("omega",))


def test_library_term_order_overcomplete():
    terms = library_terms(LibraryConfig("overcomplete"), ["delta", "omega"])
    assert terms == ((), ("delta",), ("omega",), ("delta", "delta"), ("delta", "omega"),
                     ("omega", "omega"))


def test_library_leaves_no_batch_data_behind():
    # the library is one values-only evaluate: it holds nothing of the batch
    # once it returns (the 66 product columns of 1001 samples would be 0.53 MB)
    import tracemalloc

    model = get_model("type1order5")
    names = list(model.state_names) + list(model.core_variable_names)
    rng = np.random.default_rng(5)
    columns = {name: rng.uniform(0.5, 1.5, 1001) for name in names}
    build_library(LibraryConfig("overcomplete"), names, columns)  # warm caches
    tracemalloc.start()
    try:
        theta, terms = build_library(LibraryConfig("overcomplete"), names, columns)
        assert theta.shape == (1001, 66)
        del theta, terms
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.15e6


def test_library_missing_variant():
    terms = library_terms(LibraryConfig("missing", ("omega",)), ["delta", "omega"])
    assert terms == ((), ("delta",))
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
    model, record = fit_baseline(features, targets, ("x",), variant="accurate", threshold=0.02)
    assert (record["variant"], record["threshold"], record["iters"]) == ("accurate", 0.02, 10)
    assert record["terms"] == ["1", "x"]
    np.testing.assert_allclose(record["coefficients"], [[0.0, -2.0]], atol=1e-8)
    assert serialize(model.skeleton) == "dx/dt = p0*x"
    # a state without a derivative column is refused
    with pytest.raises(ValueError, match=r"does not define derivatives for \['y'\]"):
        fit_baseline(features, targets, ("x", "y"))


def test_stlsq_settings_are_checked_not_clamped():
    rng = np.random.default_rng(5)
    features = {"x": rng.uniform(0.5, 2.0, 100)}
    targets = {"dx_dt": -2.0 * features["x"]}
    for settings in ({"iters": 0}, {"iters": -1}, {"threshold": -0.05},
                     {"threshold": math.nan}, {"threshold": -math.inf}):
        with pytest.raises(ValueError, match="STLSQ"):
            fit_baseline(features, targets, ("x",), **settings)
    # the edges that stay valid: one sweep, and a threshold that keeps every term
    theta, _ = build_library(LibraryConfig("accurate"), ["x"], features)
    _, one = fit_baseline(features, targets, ("x",), iters=1, threshold=0.0)
    assert one["iters"] == 1 and one["threshold"] == 0.0
    xi, _, _ = stlsq(theta, targets["dx_dt"][:, None], threshold=0.0, iters=1)
    np.testing.assert_array_equal(one["coefficients"], xi)


def test_baseline_exclusions_only_with_missing_variant():
    rng = np.random.default_rng(7)
    features = {"a": rng.uniform(0.5, 2.0, 50), "b": rng.uniform(-1, 1, 50)}
    targets = {"da_dt": -features["a"]}
    for variant, excluded in (("accurate", ("b",)), ("overcomplete", ("b",)),
                              ("acurate", ("b",)), ("missing", ("b_typo",))):
        with pytest.raises(ValueError):
            fit_baseline(features, targets, ("a",), variant=variant, excluded=excluded)
    _, record = fit_baseline(features, targets, ("a",), variant="missing", excluded=("b",))
    assert record["feature_names"] == ["a"]
    assert record["terms"] == ["1", "a"]


def test_baseline_refuses_a_bare_string_of_exclusions():
    # a string is a sequence of its characters: "P_m" would exclude P, _ and m
    features = {"P_m": np.linspace(0.5, 1.0, 20), "x": np.linspace(1.0, 2.0, 20)}
    targets = {"dx_dt": -features["x"]}
    for make in (lambda: LibraryConfig("missing", "P_m"),
                 lambda: fit_baseline(features, targets, ("x",), variant="missing",
                                      excluded="P_m")):
        with pytest.raises(ValueError, match="'P_m'"):
            make()
    assert LibraryConfig("missing", ["P_m"]).excluded == ("P_m",)
    _, record = fit_baseline(features, targets, ("x",), variant="missing", excluded=["P_m"])
    assert record["feature_names"] == ["x"]


def _baseline_fits(variant, threshold=0.02):
    """(benchmark, record, (skeleton, STLSQ record) of the ``variant`` fit of
    the record) on swing2, over the features ``daedisc baseline`` fits on: the
    states and the core variables, less the algebraic ones for the missing
    variant."""
    bench, record = _record()
    features = {name: record.columns[name]
                for name in bench.state_names + bench.core_variable_names}
    derivs = {deriv_name(s): central_difference(record.columns[s], record.dt)
              for s in bench.state_names}
    algebraic = tuple(n for n in bench.core_variable_names if n not in bench.input_names)
    excluded = algebraic if variant == "missing" else ()
    return bench, record, fit_baseline(features, derivs, bench.state_names, variant, threshold,
                                       excluded=excluded)


def test_model_json_roundtrip(tmp_path):
    # a saved baseline loads as its own skeleton and replays bit for bit as
    # it; its STLSQ fit is the document's record
    for variant in ("accurate", "overcomplete", "missing"):
        bench, record, (direct, fit) = _baseline_fits(variant)
        path = tmp_path / f"{variant}.json"
        save_model(direct, fit, bench, path)
        loaded, ae = load_model(path, record.state_names)
        assert ae is None
        assert serialize(loaded.skeleton) == serialize(direct.skeleton)
        assert np.array_equal(loaded.params, direct.params)
        again, replay = (simulate_identified(m, record) for m in (loaded, direct))
        assert (again.diverged, again.n_valid, again.fault) == (
            replay.diverged, replay.n_valid, replay.fault)
        for name in record.state_names:
            assert np.array_equal(again.states[name], replay.states[name], equal_nan=True)
        doc = json.loads(path.read_text())
        assert (doc["format"], doc["benchmark"], doc["ae"]) == (
            "daedisc-model", "swing2",
            {"skipped": "a sparse-regression baseline identifies the state equations only"})
        assert [e["name"] for e in doc["library"]] == [
            n for n in fit["feature_names"] if n not in record.state_names]
        assert doc["coefficients"] == fit["coefficients"]
        assert (doc["variant"], doc["ridge_fallback"]) == (variant, fit["ridge_fallback"])
        assert doc["terms"] == fit["terms"]
        assert "term_powers" not in doc


# sha256 of ``save_model``'s bytes for each fit of ``_baseline_fits``, as the
# baseline wrote them when its fit was a model object with its own term type
GOLDEN_DOCUMENTS = {
    "accurate": "a36e7d40f7e3c8e47d0db3778094414117654e8edbee1f5edf44b41e3813b39d",
    "overcomplete": "40219e812051119ee15218d95f29db4f3fbfb2320cad3a9da6bffd529a400d69",
    "missing": "4c86460d776051272e1eebcbdd9a0f33440d39705a8bcc6e6ffcb526dfb4c21b",
}


@pytest.mark.parametrize("variant", list(GOLDEN_DOCUMENTS))
def test_baseline_document_golden(tmp_path, variant):
    bench, _, (model, fit) = _baseline_fits(variant)
    path = tmp_path / "model.json"
    save_model(model, fit, bench, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_DOCUMENTS[variant]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_json_refuses_non_finite_coefficients(tmp_path, bad):
    # a non-finite active coefficient in the DE part is refused on load
    bench, record, (model, fit) = _baseline_fits("overcomplete")
    path = tmp_path / "model.json"
    save_model(model, fit, bench, path)
    doc = json.loads(path.read_text())
    doc["de"]["params"][1] = bad
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"DE model: params .* are not finite"):
        load_model(path, record.state_names)


@pytest.mark.parametrize("key, bad", [
    ("params", 3), ("text", 5), ("params", ["1", 2.0]), ("params", [True, 2.0]),
    ("targets", "delta"),
])
def test_model_json_refuses_a_part_key_of_the_wrong_type(tmp_path, key, bad):
    # each would otherwise fail deep in the reader, naming nothing, or load:
    # "1" and True both as 1.0, and a target string as one target per character
    part = {"targets": ["delta"], "text": "ddelta/dt = p0*delta + p1", "params": [1.0, 2.0]}
    doc = {"format": "daedisc-model", "version": 1, "benchmark": "hand", "de": part,
           "ae": {"skipped": "none"}, "library": []}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert load_model(path, ("delta",))[0].params.tolist() == [1.0, 2.0]
    path.write_text(json.dumps({**doc, "de": {**part, key: bad}}))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: the DE part has a "
                                         rf"'{key}' that is not "):
        load_model(path, ("delta",))


@pytest.mark.parametrize("kind, text, targets", [
    ("de", "dx/dt = p0*x + p1", ("x",)),
    ("ae", "u = p0*x + p1", ("u",)),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_skeleton_model_refuses_non_finite_params(kind, text, targets, bad):
    with pytest.raises(ValueError, match=rf"{kind.upper()} model: params \[1\.0, "
                                         rf"{bad}\] are not finite"):
        SkeletonModel.from_text(text, [1.0, bad], targets, ("x",), kind=kind)
    finite = SkeletonModel.from_text(text, [1.0, 2.0], targets, ("x",), kind=kind)
    assert finite.params.tolist() == [1.0, 2.0]


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
    model, _ = fit_baseline(features, derivs, record.state_names, variant="accurate",
                            threshold=0.02)
    replay = simulate_identified(model, record)
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
    its own target order); NaN when an input is non-finite or it faults.

    An STLSQ record gives its library row, every term's product formed from 1
    with the factors its name lists, times the coefficients' transpose by
    NumPy matmul: the replay's right-hand side before sparse models replayed
    as skeletons."""
    if not all(math.isfinite(v) for v in values.values()):
        return np.full(len(targets), np.nan)
    if isinstance(model, dict):
        row = np.ones((1, len(model["terms"])))
        for j, name in enumerate(model["terms"]):
            for var in ([] if name == "1" else name.split("*")):
                row[0, j] = row[0, j] * values[var]
        pred = (row @ np.array(model["coefficients"]).T)[0]
        return np.array([pred[model["target_names"].index(name)] for name in targets])
    columns = {name: np.array([v]) for name, v in values.items()}
    # every value was checked finite above, which is all from_columns would check
    res = evaluate(model.skeleton, model.params, SampleBatch(columns, 1), gradients=False)
    if res.faulted:
        return np.full(len(targets), np.nan)
    return res.outputs[:, 0]


def _reference_replay(model, record, ae_model=None):
    """Replay with a right-hand side that builds dicts and batches per stage."""
    state_names = list(record.state_names)
    if isinstance(model, dict):
        targets = [deriv_name(s) for s in state_names]
        inputs = set(model["feature_names"])
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


# the matmul sums every term, the skeleton its active terms left to right, so
# the states differ by rounding alone, which a diverging model amplifies (to
# 3.4e-11 on the overcomplete type1order5 model below)
MATMUL_RTOL = 1e-9


def _assert_sparse_replays_as_references(fitted, record):
    """A sparse model, ``fit_baseline``'s (skeleton, STLSQ record), replays
    bit for bit as its skeleton through the reference's ``evaluate``, and
    like the record's matmul reference within ``MATMUL_RTOL``, with the same
    divergence."""
    skeleton, fit = fitted
    replay = simulate_identified(skeleton, record)
    assert skeleton.skeleton.n_params == np.count_nonzero(fit["coefficients"])
    out, diverged, n_valid = _reference_replay(skeleton, record)
    assert (replay.diverged, replay.n_valid) == (diverged, n_valid)
    states = np.column_stack([replay.states[s] for s in record.state_names])
    assert np.array_equal(states, out, equal_nan=True)
    out, diverged, n_valid = _reference_replay(fit, record)
    assert (replay.diverged, replay.n_valid) == (diverged, n_valid)
    np.testing.assert_allclose(states, out, rtol=MATMUL_RTOL, atol=0.0, equal_nan=True)
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
    return fit_baseline(features, derivs, train.state_names, variant=variant, threshold=0.02)


def test_replay_matches_reference_for_sparse_models():
    record = _held_out("swing2", (("delta", 0.3), ("omega", 0.004)))
    accurate = _stlsq_model("accurate", "swing2", ("delta", "omega", "P_e"))
    assert not _assert_sparse_replays_as_references(accurate, record).diverged
    overcomplete = _stlsq_model("overcomplete", "type1order5",
                                ("delta", "omega", "e_q_t", "e_d_t", "e_d_st", "i_d", "i_q"))
    overcomplete = _assert_sparse_replays_as_references(
        overcomplete, _held_out("type1order5", (("delta", 0.6), ("omega", 0.006))))
    assert overcomplete.diverged and 1 < overcomplete.n_valid < record.n_samples
    # a derivative that leaves the floats is the skeleton's fault, as for any skeleton
    assert overcomplete.fault == FaultInfo(overcomplete.n_valid - 1, "non-finite value")


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
    assert not _assert_sparse_replays_as_references(sparse, record).diverged
    _, kicked = _record()
    assert not _assert_replays_as_reference(_swing_skeleton(kicked), kicked).diverged
    de, ae = _swing_de_ae(kicked, "P_e = p0*sin(delta)", ("P_e",))
    assert not _assert_replays_as_reference(de, kicked, ae_model=ae).diverged
    overcomplete = _stlsq_model("overcomplete", "type1order5",
                                ("delta", "omega", "e_q_t", "e_d_t", "e_d_st", "i_d", "i_q"))
    replay = _assert_sparse_replays_as_references(
        overcomplete, _held_out("type1order5", (("delta", 0.6), ("omega", 0.006))))
    assert replay.diverged and 1 < replay.n_valid < record.n_samples


def test_replay_of_one_state_matches_an_array_rk4_oracle(array_rk4):
    time = np.arange(301) * 0.01
    record = FullRecord(model_id="hand", time=time,
                        columns={"x": np.cos(time), "u": np.sin(3.0 * time)},
                        state_names=("x",), scenario={})
    lag = SkeletonModel.from_text("dx/dt = p0*(u - x)", [2.0], ("x",), ("x",), ("u",))
    replay = _assert_replays_as_reference(lag, record)
    assert not replay.diverged and replay.n_valid == record.n_samples
    # no recorded signal at all
    decay = SkeletonModel.from_text("dx/dt = -p0*x^2", [0.5], ("x",), ("x",))
    assert not _assert_replays_as_reference(decay, record).diverged


def test_replay_of_a_de_model_reading_no_recorded_signal_with_an_ae_model(array_rk4):
    _, record = _record()
    de = _swing_skeleton(record)
    # predictions that the differential model does not read, from states alone
    _, ae = _swing_de_ae(record, "P_e = p0*sin(delta)\nQ_e = p0*cos(delta)", ("P_e", "Q_e"))
    assert not _assert_replays_as_reference(de, record, ae_model=ae).diverged
    # the algebraic model alone reads a recorded input
    ae = SkeletonModel.from_text("P_e = p0*sin(delta) + 0*P_m", [1.0], ("P_e",),
                                 record.state_names, ("P_m",), kind="ae")
    assert not _assert_replays_as_reference(de, record, ae_model=ae).diverged


def test_replay_diverges_where_a_recorded_signal_turns_nan(array_rk4, caplog):
    _, record = _record()
    de, _ = _swing_de_ae(record, "P_e = p0*sin(delta)", ("P_e",))
    p_e = record.columns["P_e"].copy()
    p_e[200:] = np.nan
    cut = replace(record, columns={**record.columns, "P_e": p_e})
    with caplog.at_level(logging.WARNING, logger="daedisc.sindy"):
        replay = _assert_replays_as_reference(de, cut)
    # the step from sample 199 reads P_e at sample 200: no model faults
    assert replay.diverged and replay.n_valid == 200
    assert replay.fault is None and not caplog.records


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


# library columns whose degree-2 products stay finite
_COLUMN_VALUES = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda width: st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(_COLUMN_VALUES, min_size=n, max_size=n),
                       min_size=width, max_size=width))))
def test_library_matrix_is_the_column_products(values):
    # the library skeleton's gradient gives the bits of x**power products and
    # of each term's product formed from np.ones, but for the sign of a zero:
    # the gradient adds each product into zeros, and 0.0 + -0.0 is 0.0
    names = ["a", "b", "c"][:len(values)]
    columns = {name: np.array(column) for name, column in zip(names, values)}
    n = len(values[0])
    for cfg in (LibraryConfig("accurate"), LibraryConfig("overcomplete"),
                LibraryConfig("missing", (names[-1],))):
        theta, terms = build_library(cfg, names, columns)
        assert theta.shape == (n, len(terms))
        for j, term in enumerate(terms):
            powered = np.ones(n)
            product = np.ones(n)
            for var, power in Counter(term).items():
                powered = powered * columns[var] ** power
                for _ in range(power):
                    product = product * columns[var]
            for reference in (powered, product):
                assert np.array_equal(theta[:, j].view(np.int64),
                                      (reference + 0.0).view(np.int64)), term


def test_library_with_an_overflowing_product_is_an_error():
    columns = {"a": np.array([1.0, 1e200]), "b": np.array([2.0, 3.0])}
    assert np.isfinite(build_library(LibraryConfig("accurate"), ["a", "b"], columns)[0]).all()
    with pytest.raises(ValueError, match="not finite at sample 1"):
        build_library(LibraryConfig("overcomplete"), ["a", "b"], columns)


# float.hex of the STLSQ coefficients as the baseline wrote them when its
# library matrix was formed with np.ones and column products
GOLDEN_COEFFICIENTS = {
    ("accurate", ("delta", "omega", "P_e")): [
        ["-0x1.78b0cddeeb022p+8", "0x0.0p+0", "0x1.78b0bdbe77335p+8", "0x0.0p+0"],
        ["0x1.dc6bc8f1ab44fp-3", "0x0.0p+0", "-0x1.53ff86e1bfa13p-3", "-0x1.55135af5d1185p-4"],
    ],
    ("overcomplete", ("delta", "omega")): [
        ["-0x1.730ec2343e307p+8", "0x1.94aaf2a2b1413p-4", "0x1.6d5fcba140c00p+8", "0x0.0p+0",
         "-0x1.9838cfc56ed7cp-4", "0x1.6bbe827b99408p+2"],
        ["0x1.8bb2c6e1a39ccp+2", "-0x1.4141699bd8bb1p-3", "-0x1.8218b30193c6dp+3",
         "0x1.277aff5fc1296p-5", "0x0.0p+0", "0x1.7cda3d3861d0bp+2"],
    ],
}


@pytest.mark.parametrize("variant, features", list(GOLDEN_COEFFICIENTS))
def test_stlsq_coefficients_golden(variant, features):
    _, fit = _stlsq_model(variant, "swing2", features)
    assert [[float(v).hex() for v in row] for row in fit["coefficients"]] == \
        GOLDEN_COEFFICIENTS[variant, features]
