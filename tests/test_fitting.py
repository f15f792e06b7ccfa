
import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from daedisc.archive import Archive
from daedisc.benchmarks import get_model
from daedisc.dsl import SymbolScope, make_skeleton, parse, serialize, term_sum
from daedisc.evaluator import SampleBatch, evaluate
from daedisc.fitting import (
    ADAM_EPS,
    BETA1,
    BETA2,
    INIT_HIGH,
    INIT_LOW,
    SENTINEL_SCORE,
    FitConfig,
    ScoredSkeleton,
    cosine_lr,
    derived_fit_config,
    fit_and_score,
    score_of,
)
from daedisc.sindy import SkeletonModel, load_model, save_model

SCOPE = SymbolScope(states=("x",))


def test_linear_recovery():
    x = np.linspace(1.0, 2.0, 50)
    batch = SampleBatch.from_columns({"x": x, "dx_dt": 3.0 * x})
    sk = parse("dx/dt = p0*x", SCOPE, ["x"], kind="de")
    scored = fit_and_score(sk, batch, ["dx_dt"], FitConfig(seed=3))
    assert abs(scored.params[0] - 3.0) < 1e-3
    assert scored.score >= -1e-6


def test_constant_on_zero_targets():
    batch = SampleBatch.from_columns({"x": np.linspace(0, 1, 40), "dx_dt": np.zeros(40)})
    sk = parse("dx/dt = p0", SCOPE, ["x"], kind="de")
    scored = fit_and_score(sk, batch, ["dx_dt"], FitConfig(seed=1))
    assert abs(scored.params[0]) < 1e-4
    assert scored.score > -1e-6


def test_cosine_schedule_endpoints():
    assert abs(cosine_lr(0, 0.05, 2000) - 0.05) < 1e-12
    assert abs(cosine_lr(2000, 0.05, 2000)) < 1e-12


def test_monotone_restart_selection():
    x = np.linspace(0.5, 2.0, 30)
    batch = SampleBatch.from_columns({"x": x, "dx_dt": np.sin(2.0 * x)})
    sk = parse("dx/dt = sin(p0*x)", SCOPE, ["x"], kind="de")
    scored = fit_and_score(sk, batch, ["dx_dt"], FitConfig(steps=400, restarts=4, seed=9))
    assert len(scored.restart_losses) == 4
    assert -scored.score <= min(scored.restart_losses) + 1e-15


def test_score_sign_and_sentinel():
    assert score_of(0.0) == 0.0
    assert score_of(1.5) == -1.5
    assert score_of(float("nan")) == SENTINEL_SCORE
    assert score_of(float("inf")) == SENTINEL_SCORE


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 2.0, 40)
    batch = SampleBatch.from_columns({"x": x, "dx_dt": 1.3 * x - 0.2})
    sk = parse("dx/dt = p0*x + p1", SCOPE, ["x"], kind="de")
    cfg = FitConfig(steps=300, seed=11)
    a = fit_and_score(sk, batch, ["dx_dt"], cfg)
    b = fit_and_score(sk, batch, ["dx_dt"], cfg)
    assert np.array_equal(a.params, b.params)
    assert a.score == b.score


def test_domain_fault_poisons_candidate():
    batch = SampleBatch.from_columns({"x": np.array([-1.0, 1.0]), "dx_dt": np.zeros(2)})
    sk = parse("dx/dt = log(x)", SCOPE, ["x"], kind="de")
    scored = fit_and_score(sk, batch, ["dx_dt"], FitConfig(seed=0))
    assert scored.poisoned
    assert scored.score == SENTINEL_SCORE


def test_no_parameter_skeleton():
    x = np.linspace(0.5, 1.5, 20)
    batch = SampleBatch.from_columns({"x": x, "dx_dt": x})
    sk = parse("dx/dt = x", SCOPE, ["x"], kind="de")
    scored = fit_and_score(sk, batch, ["dx_dt"], FitConfig(seed=0))
    assert scored.score == 0.0


def test_derived_fit_config_deterministic():
    cfg = FitConfig(seed=7)
    a = derived_fit_config(cfg, 1, 2)
    b = derived_fit_config(cfg, 1, 2)
    c = derived_fit_config(cfg, 1, 3)
    assert a.seed == b.seed
    assert a.seed != c.seed


def test_swing_structure_fit_reproduces_derivatives():
    # Data from the classical second-order machine; the fitted right-hand side
    # must reproduce the derivative function even though individual parameters
    # carry a scale redundancy.
    from daedisc.benchmarks import ScenarioConfig, Disturbance, get_model, simulate

    model = get_model("swing2")
    scen = ScenarioConfig(
        total_time=5.0, dt=0.01, noise_sigma=0.0, seed=0,
        disturbance=Disturbance(kind="state_kick", magnitude=1.0,
                                offsets=(("delta", 0.5), ("omega", 0.004))))
    record = simulate(model, scen)
    delta = record.columns["delta"]
    omega = record.columns["omega"]
    # exact derivatives from the model equations
    pe = model.params["e_prime"] * model.params["v_bus"] / model.params["x_total"] * np.sin(
        delta - model.params["theta_bus"])
    true_domega = (record.columns["P_m"] - pe
                   - model.params["damping"] * (omega - 1.0)) / (2.0 * model.params["inertia"])
    batch = SampleBatch.from_columns({"delta": delta, "omega": omega, "domega_dt": true_domega})
    scope = SymbolScope(states=("delta", "omega"))
    sk = parse("domega/dt = (p0 - p1*sin(delta) - p2*(omega - 1))/p3", scope,
               ["omega"], kind="de")
    scored = fit_and_score(sk, batch, ["domega_dt"], FitConfig(steps=2000, restarts=3, seed=2))
    from daedisc.evaluator import evaluate

    res = evaluate(scored.skeleton, scored.params, batch)
    pred = res.outputs[0]
    scale = np.max(np.abs(true_domega))
    mape_like = np.mean(np.abs(pred - true_domega)) / scale * 100.0
    assert mape_like < 1.0


# --- bitwise goldens of the fitter --------------------------------------------
# float.hex values recorded from the fitter whose loss gradient is the
# evaluator's residual-weighted sum

def _parity_batch():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.5, 2.0, 40)
    delta = rng.uniform(0.1, 1.2, 40)
    return SampleBatch.from_columns({
        "x": x, "delta": delta, "dx_dt": 1.3 * x - 0.2 * np.sin(delta),
        "ddelta_dt": 0.7 * x * delta - 0.4})


def _hex(scored):
    return ([float(v).hex() for v in scored.params],
            [loss.hex() for loss in scored.restart_losses])


def test_golden_two_targets():
    scope = SymbolScope(states=("x", "delta"))
    sk = parse("dx/dt = p0*x + p1*sin(delta)\nddelta/dt = p2*x*delta + p3", scope,
               ["x", "delta"], kind="de")
    scored = fit_and_score(sk, _parity_batch(), ["dx_dt", "ddelta_dt"],
                           FitConfig(steps=300, restarts=3, seed=11))
    assert _hex(scored) == (
        ["0x1.4cccbd8683b09p+0", "-0x1.99989525998bcp-3",
         "0x1.66667f5defeafp-1", "-0x1.9999c5ec9e9d2p-2"],
        ["0x1.28cc9d27a46bdp-42", "0x1.72b4b4acd5801p-21", "0x1.fbc071b31f975p-7"])


def test_golden_repeated_parameter():
    # p0 appears twice, so its per-sample adjoints are summed in tree order
    sk = parse("dx/dt = (x - p0)*p1 + p0*x", SCOPE, ["x"], kind="de")
    scored = fit_and_score(sk, _parity_batch(), ["dx_dt"],
                           FitConfig(steps=300, restarts=3, seed=4))
    assert _hex(scored) == (
        ["0x1.3267d3521ce73p+0", "0x1.852e241a0b016p-4"],
        ["0x1.1059877eaca70p-9", "0x1.10598784e3473p-9", "0x1.105cbc26b7e9bp-9"])


# one-restart fits: each step evaluates one parameter row, on scalar
# parameters; recorded from the fitter that broadcast (1, 1) parameter columns
@pytest.mark.parametrize("text, states, target_columns, seed, want", [
    ("dx/dt = p0*x + p1*sin(delta)\nddelta/dt = p2*x*delta + p3", ("x", "delta"),
     ["dx_dt", "ddelta_dt"], 11,
     (["0x1.4cccbd8683b09p+0", "-0x1.99989525998bcp-3",
       "0x1.66667f5defeafp-1", "-0x1.9999c5ec9e9d2p-2"], ["0x1.28cc9d27a46bdp-42"])),
    ("dx/dt = (x - p0)*p1 + p0*x", ("x",), ["dx_dt"], 4,
     (["0x1.3267d3521ce73p+0", "0x1.852e241a0b016p-4"], ["0x1.1059877eaca70p-9"])),
    # a parameter-only subtree, exp(p3), and a bare parameter divisor, p2
    ("dx/dt = (p0 - p1*sin(x))/p2 + exp(p3)", ("x",), ["dx_dt"], 3,
     (["-0x1.056b12d09c189p-1", "-0x1.bf9d1ccce3449p-1",
       "0x1.1af31f5466785p-2", "-0x1.b73ae1d5f948dp-2"], ["0x1.4f496fdf094a7p-4"])),
], ids=["two-targets", "repeated-parameter", "parameter-only-subtrees"])
def test_golden_one_restart(text, states, target_columns, seed, want):
    sk = parse(text, SymbolScope(states=states), list(states), kind="de")
    scored = fit_and_score(sk, _parity_batch(), target_columns,
                           FitConfig(steps=300, restarts=1, seed=seed))
    assert _hex(scored) == want


def test_an_unpoisoned_fit_evaluates_once_per_step_and_once_for_the_losses(monkeypatch):
    # the loss is the evaluator's sum of squares: no second call for it
    from daedisc import fitting

    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("targets") is not None)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(fitting, "evaluate", counting)
    sk = parse("dx/dt = (x - p0)*p1 + p0*x", SCOPE, ["x"], kind="de")
    for restarts in (1, 3):
        calls.clear()
        scored = fit_and_score(sk, _parity_batch(), ["dx_dt"],
                               FitConfig(steps=40, restarts=restarts, seed=4))
        assert not scored.poisoned
        assert calls == [True] * 41


def _einsum_adam(sk, batch, target_columns, cfg):
    """(best parameters, restart losses) of Adam in lockstep on the dense
    per-sample gradients (R, T, n, k) contracted with the residual by
    np.einsum: the reference for the fitter's residual-weighted gradient."""
    targets = np.stack([batch.column(c) for c in target_columns])
    p = np.stack([np.random.default_rng(seed).uniform(INIT_LOW, INIT_HIGH, sk.n_params)
                  for seed in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)])
    m, v = np.zeros_like(p), np.zeros_like(p)

    def residual(p):
        res = evaluate(sk, p, batch)
        return res.outputs - targets, res.gradients

    for t in range(cfg.steps):
        r, jac = residual(p)
        grad = 2.0 / targets.size * np.einsum("rts,rtsk->rk", r, jac)
        m = BETA1 * m + (1.0 - BETA1) * grad
        v = BETA2 * v + (1.0 - BETA2) * grad * grad
        m_hat = m / (1.0 - BETA1 ** (t + 1))
        v_hat = v / (1.0 - BETA2 ** (t + 1))
        p = p - (cosine_lr(t, cfg.learning_rate, cfg.steps) * m_hat
                 / (np.sqrt(v_hat) + ADAM_EPS))
    losses = (residual(p)[0] ** 2).reshape(len(p), -1).mean(axis=1)
    return p[np.argmin(losses)], losses


@pytest.mark.parametrize("text, states, target_columns, cfg", [
    ("dx/dt = p0*x + p1*sin(delta)\nddelta/dt = p2*x*delta + p3", ("x", "delta"),
     ["dx_dt", "ddelta_dt"], FitConfig(steps=300, restarts=3, seed=11)),
    ("dx/dt = (x - p0)*p1 + p0*x", ("x",), ["dx_dt"], FitConfig(steps=300, restarts=3, seed=4)),
], ids=["two-targets", "repeated-parameter"])
def test_weighted_gradient_fit_matches_the_einsum_fit(text, states, target_columns, cfg):
    sk = parse(text, SymbolScope(states=states), list(states), kind="de")
    batch = _parity_batch()
    want_params, want_losses = _einsum_adam(sk, batch, target_columns, cfg)
    scored = fit_and_score(sk, batch, target_columns, cfg)
    np.testing.assert_allclose(scored.params, want_params, rtol=1e-9)
    np.testing.assert_allclose(scored.restart_losses, want_losses, rtol=1e-9)


def test_fault_in_a_later_restart_poisons():
    # seed 4 starts p0 at 0.81, 0.95 and -0.83; only the third reaches log(<=0)
    x = np.linspace(0.5, 2.0, 20)
    batch = SampleBatch.from_columns({"x": x, "dx_dt": np.log(2.0 + x)})
    sk = parse("dx/dt = log(p0 + x)", SCOPE, ["x"], kind="de")
    assert not fit_and_score(sk, batch, ["dx_dt"], FitConfig(steps=50, restarts=2, seed=4)).poisoned
    scored = fit_and_score(sk, batch, ["dx_dt"], FitConfig(steps=50, restarts=3, seed=4))
    assert scored.poisoned
    assert scored.score == SENTINEL_SCORE


def test_poisoned_fit_logs_its_fault(caplog):
    x = np.linspace(0.5, 2.0, 20)
    batch = SampleBatch.from_columns({"x": x, "dx_dt": np.log(2.0 + x)})
    sk = parse("dx/dt = log(p0 + x)", SCOPE, ["x"], kind="de")
    with caplog.at_level(logging.DEBUG, logger="daedisc.fitting"):
        scored = fit_and_score(sk, batch, ["dx_dt"], FitConfig(steps=50, restarts=3, seed=4))
    assert scored.poisoned
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    assert "'dx/dt = log(p0 + x)' poisoned: domain fault at sample " in record.getMessage()


def test_non_finite_loss_logs_without_a_fault(caplog):
    # outputs near 1e200 are finite, but their squared residuals overflow:
    # that poisons the fit, and no RuntimeWarning reaches the caller
    x = np.full(4, 1e200)
    batch = SampleBatch.from_columns({"x": x, "dx_dt": np.zeros(4)})
    sk = parse("dx/dt = p0*x", SCOPE, ["x"], kind="de")
    with caplog.at_level(logging.DEBUG, logger="daedisc.fitting"), warnings.catch_warnings():
        warnings.simplefilter("error")
        scored = fit_and_score(sk, batch, ["dx_dt"], FitConfig(steps=5, seed=0))
    assert scored.poisoned
    assert [r.getMessage() for r in caplog.records] == [
        "fit of 'dx/dt = p0*x' poisoned: non-finite loss"]


# -- the on-disk form of a fitted skeleton -------------------------------------

SWING_STATES = ("delta", "omega")
SWING_SIGNALS = ("i_d", "i_q", "P_e", "P_m")
# the extremes of the finite floats: the sign of zero, the least subnormal and
# the largest magnitudes must all survive the text
EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308])


@st.composite
def fitted_term_sums(draw):
    """(skeleton, params): one random ``term_sum`` per swing state over the
    states and signals, and one random finite number per slot."""
    factor = st.sampled_from(SWING_STATES + SWING_SIGNALS)
    products = st.lists(st.lists(factor, max_size=3).map(tuple), max_size=4)
    exprs, slots = [], 0
    for _ in SWING_STATES:
        terms = draw(products)
        exprs.append(term_sum(terms, slots))
        slots += len(terms)
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False), EDGE_FLOATS)
    params = np.array(draw(st.lists(number, min_size=slots, max_size=slots)),
                      dtype=np.float64)
    params.setflags(write=False)
    return make_skeleton("de", SWING_STATES, exprs), params


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=150, deadline=None)
@given(fitted_term_sums())
def test_model_files_and_snapshots_keep_a_fitted_skeleton_bit_for_bit(tmp_path_factory,
                                                                      fitted):
    skeleton, params = fitted
    text = serialize(skeleton)
    work = tmp_path_factory.getbasetemp()
    model_path, archive_path = work / "roundtrip_model.json", work / "roundtrip_archive.json"
    save_model(SkeletonModel(skeleton, params), {"feature_names": list(SWING_SIGNALS)},
               get_model("swing2"), model_path)
    loaded, ae = load_model(model_path, SWING_STATES)
    assert ae is None
    assert serialize(loaded.skeleton) == text
    assert _same_bits(loaded.params, params)
    scope = SymbolScope(states=SWING_STATES, variables=SWING_SIGNALS)
    archive = Archive(1)
    archive.register(1, ScoredSkeleton(skeleton=skeleton, params=params, score=-1.0))
    archive.save(archive_path, "de", SWING_STATES, scope)
    [member] = Archive.load(archive_path)[0].all_members()
    assert member.canonical == text
    assert _same_bits(member.params, params)
