import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from daedisc.benchmarks import (
    Disturbance,
    EquilibriumNotFound,
    NonFiniteState,
    ScenarioConfig,
    UnknownModel,
    get_model,
    model_ids,
    rk4_step,
    simulate,
    solve_equilibrium,
)

ALL_MODELS = list(model_ids())


def test_model_registry():
    assert set(ALL_MODELS) == {"swing2", "oneaxis3", "type1order5"}
    with pytest.raises(UnknownModel):
        get_model("order99")


@pytest.mark.parametrize("model_id", ALL_MODELS)
def test_equilibrium_invariance(model_id):
    model = get_model(model_id)
    scen = ScenarioConfig(total_time=10.0, dt=0.01, noise_sigma=0.0, seed=0)
    rec = simulate(model, scen)
    drift = max(np.max(np.abs(rec.columns[s] - rec.columns[s][0]))
                for s in model.state_names)
    assert drift <= 1e-8


@pytest.mark.parametrize("model_id", ALL_MODELS)
def test_equilibrium_residual(model_id):
    model = get_model(model_id)
    eq = solve_equilibrium(model, model.default_inputs)
    assert np.max(np.abs(model.rhs(eq, model.default_inputs))) < 1e-12


def test_equilibrium_not_found_for_infeasible_loading():
    model = get_model("swing2")
    # more power than the line can transfer: no equilibrium exists
    with pytest.raises(EquilibriumNotFound):
        solve_equilibrium(model, {"P_m": 5.0})


def test_pm_step_oscillates_and_settles():
    model = get_model("swing2")
    scen = ScenarioConfig(
        total_time=10.0, dt=0.01, noise_sigma=0.0, seed=0,
        disturbance=Disturbance(kind="pm_step", start=1.0, duration=1.0, magnitude=0.15))
    rec = simulate(model, scen)
    delta = rec.columns["delta"]
    ddelta = np.abs(np.gradient(delta, scen.dt))
    early = ddelta[100:400].max()
    late = ddelta[-200:].max()
    assert early > 10 * np.abs(ddelta[:90]).max() + 1e-9  # disturbance excites
    assert late < early  # positive damping settles the swing
    assert rec.columns["P_m"][150] == pytest.approx(0.95)
    assert rec.columns["P_m"][50] == pytest.approx(0.8)


def test_x_step_changes_algebra_inside_window():
    model = get_model("swing2")
    scen = ScenarioConfig(
        total_time=2.0, dt=0.01, noise_sigma=0.0, seed=0,
        disturbance=Disturbance(kind="x_step", start=0.5, duration=0.5, magnitude=0.3))
    rec = simulate(model, scen)
    p_e = rec.columns["P_e"]
    assert abs(p_e[10] - 0.8) < 1e-9           # pre-window equilibrium
    assert abs(p_e[51] - 0.8) > 0.05           # reactance step cuts transfer


def test_rk4_self_convergence_order():
    # error measured over the whole trajectory on shared grid points; an
    # end-state-only norm is confounded by phase alignment in an oscillator
    model = get_model("swing2")
    kick = Disturbance(kind="state_kick", magnitude=1.0,
                       offsets=(("delta", 0.4), ("omega", 0.003)))

    def trajectory(dt):
        scen = ScenarioConfig(total_time=1.0, dt=dt, noise_sigma=0.0,
                              seed=0, disturbance=kick)
        return simulate(model, scen)

    dt_ref = 0.01 / 8.0
    reference = trajectory(dt_ref)

    def error(dt):
        rec = trajectory(dt)
        stride = int(round(dt / dt_ref))
        return max(np.max(np.abs(rec.columns[s] - reference.columns[s][::stride]))
                   for s in model.state_names)

    order = np.log2(error(0.02) / error(0.01))
    assert order >= 3.8


def _array_rk4_step(f, x, dt, start, middle, end):
    """The RK4 step as NumPy array arithmetic: the oracle of ``rk4_step``,
    which works on lists of floats."""
    k1 = f(x, start)
    k2 = f(x + dt * k1 / 2.0, middle)
    k3 = f(x + dt * k2 / 2.0, middle)
    k4 = f(x + dt * k3, end)
    return x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(_ANY_FLOAT, min_size=n, max_size=n), min_size=5, max_size=5)), _ANY_FLOAT)
def test_list_rk4_step_has_the_array_formulas_bits(rows, dt):
    # rows: the state, then the derivative each of the four stages returns
    x, derivatives = rows[0], rows[1:]

    def scripted(as_kind):
        calls = []

        def f(state, u):
            calls.append((u, [float.hex(float(v)) for v in state]))
            return as_kind(derivatives[len(calls) - 1])
        return f, calls

    f_list, list_calls = scripted(list)
    f_array, array_calls = scripted(np.array)
    got = rk4_step(f_list, list(x), dt, "start", "middle", "end")
    with np.errstate(all="ignore"):
        want = _array_rk4_step(f_array, np.array(x), dt, "start", "middle", "end")
    assert type(got) is list
    assert list_calls == array_calls
    assert [float.hex(v) for v in got] == [float.hex(float(v)) for v in want]


def _array_simulate(model, scen):
    """``simulate``'s states and algebraic signals from an array RK4 loop
    written out here (pm_step and state_kick disturbances)."""
    dist = scen.disturbance
    base = model.inputs_with(dict(scen.inputs))

    def inputs_at(t):
        pulse = dist.kind == "pm_step" and dist.start <= t < dist.start + dist.duration
        return {**base, "P_m": base["P_m"] + dist.magnitude} if pulse else base

    def f(x, t):
        return model.rhs(x, inputs_at(t))

    n = int(round(scen.total_time / scen.dt))
    kick_at = int(round(dist.start / scen.dt)) if dist.kind == "state_kick" else -1
    offsets = dict(dist.offsets)
    kick = np.array([dist.magnitude * offsets.get(s, 0.0) for s in model.state_names])
    x = solve_equilibrium(model, base)
    states = np.empty((n + 1, len(x)))
    algebra = {name: np.empty(n + 1) for name in model.algebraic_names}
    for i, t in enumerate(np.arange(n + 1) * scen.dt):
        if i == kick_at:
            x = x + kick
        states[i] = x
        for name, value in model.algebra(x, inputs_at(t)).items():
            algebra[name][i] = value
        if i < n:
            x = _array_rk4_step(f, x, scen.dt, t, t + scen.dt / 2.0, t + scen.dt)
    return states, algebra


@pytest.mark.parametrize("model_id", ALL_MODELS)
@pytest.mark.parametrize("disturbance", [
    Disturbance(kind="state_kick", start=0.5, magnitude=1.0,
                offsets=(("delta", 0.4), ("omega", 0.003))),
    Disturbance(kind="pm_step", start=0.5, duration=0.5, magnitude=0.1),
], ids=["state_kick", "pm_step"])
def test_simulate_matches_an_array_rk4_loop(model_id, disturbance):
    model = get_model(model_id)
    scen = ScenarioConfig(total_time=2.0, dt=0.01, noise_sigma=0.0, disturbance=disturbance)
    record = simulate(model, scen)
    states, algebra = _array_simulate(model, scen)
    assert np.array_equal(np.column_stack([record.columns[s] for s in model.state_names]),
                          states)
    for name, column in algebra.items():
        assert np.array_equal(record.columns[name], column)


def test_non_finite_state_raises():
    model = get_model("swing2")
    scen = ScenarioConfig(total_time=5.0, dt=0.01, noise_sigma=0.0, seed=0,
                          initial_state=(("delta", 0.5), ("omega", float("nan"))))
    with pytest.raises(NonFiniteState):
        simulate(model, scen)


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(dt=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(total_time=1.0,
                       disturbance=Disturbance(kind="pm_step", start=2.0, duration=0.1))
    with pytest.raises(ValueError):
        Disturbance(kind="lightning")
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict({"total_time": 1.0, "noise": 0.0})
    with pytest.raises(ValueError):
        Disturbance.from_dict({"kind": "pm_step", "magnitud": 0.1})


def test_scenario_defaults_come_from_the_dataclass():
    assert ScenarioConfig.from_dict({"seed": 4}) == ScenarioConfig(seed=4)
    assert Disturbance.from_dict({}) == Disturbance()


def test_scenario_roundtrip_dict():
    scen = ScenarioConfig(
        total_time=5.0, dt=0.02, noise_sigma=0.001, seed=9,
        inputs=(("P_m", 0.7),),
        disturbance=Disturbance(kind="state_kick", start=0.0, magnitude=1.0,
                                offsets=(("delta", 0.3),)))
    again = ScenarioConfig.from_dict(scen.to_dict())
    assert again == scen


def test_determinism():
    model = get_model("oneaxis3")
    scen = ScenarioConfig(total_time=2.0, dt=0.01, noise_sigma=0.0, seed=0,
                          disturbance=Disturbance(kind="pm_step", start=0.5,
                                                  duration=0.5, magnitude=0.1))
    a = simulate(model, scen)
    b = simulate(model, scen)
    for name in a.columns:
        assert np.array_equal(a.columns[name], b.columns[name])


def test_catalog_alias_resolution():
    model = get_model("oneaxis3")
    assert model.catalog_entry("P_e").name == "P_e"
    assert model.catalog_entry("pe").name == "P_e"
    assert model.catalog_entry("THETA").name == "theta_g"
    assert model.catalog_entry("stator_flux") is None


# ------------------------------------------------ machine-equation oracles
# Each machine's algebra and rhs written out in full, one class per machine,
# so the shared swing/stator/field helpers stay pinned bit for bit.


class _RefSwing2:
    def __init__(self, params):
        self.params = params

    def algebra(self, x, u, x_shift=0.0):
        delta = x[0]
        p = self.params
        x_eq = p["x_total"] + x_shift
        angle = delta - p["theta_bus"]
        i_q = p["v_bus"] * np.sin(angle) / x_eq
        i_d = (p["e_prime"] - p["v_bus"] * np.cos(angle)) / x_eq
        p_e = p["e_prime"] * i_q
        return {"i_d": i_d, "i_q": i_q, "P_e": p_e}

    def rhs(self, x, u, x_shift=0.0):
        delta, omega = x[0], x[1]
        p = self.params
        alg = self.algebra(x, u, x_shift)
        d_delta = p["omega_b"] * (omega - 1.0)
        d_omega = (u["P_m"] - alg["P_e"] - p["damping"] * (omega - 1.0)) / (2.0 * p["inertia"])
        return np.array([d_delta, d_omega])


class _RefOneAxis3:
    def __init__(self, params):
        self.params = params

    def algebra(self, x, u, x_shift=0.0):
        delta, e_q_t = x[0], x[2]
        p = self.params
        x_e = p["x_e"] + x_shift
        angle = delta - p["theta_bus"]
        i_d = (e_q_t - p["v_bus"] * np.cos(angle)) / (p["x_d_t"] + x_e)
        i_q = p["v_bus"] * np.sin(angle) / (p["x_q"] + x_e)
        v_d = p["x_q"] * i_q
        v_q = e_q_t - p["x_d_t"] * i_d
        p_e = v_d * i_d + v_q * i_q
        v_g = np.sqrt(v_d * v_d + v_q * v_q)
        theta_g = delta - np.arctan2(v_d, v_q)
        return {"i_d": i_d, "i_q": i_q, "P_e": p_e, "V_g": v_g, "theta_g": theta_g}

    def rhs(self, x, u, x_shift=0.0):
        delta, omega, e_q_t = x[0], x[1], x[2]
        p = self.params
        alg = self.algebra(x, u, x_shift)
        d_delta = p["omega_b"] * (omega - 1.0)
        d_omega = (u["P_m"] - alg["P_e"] - p["damping"] * (omega - 1.0)) / (2.0 * p["inertia"])
        d_e_q_t = (-e_q_t - (p["x_d"] - p["x_d_t"]) * alg["i_d"] + u["v_f"]) / p["t_d0_t"]
        return np.array([d_delta, d_omega, d_e_q_t])


class _RefType1Order5:
    def __init__(self, params):
        self.params = params

    def algebra(self, x, u, x_shift=0.0):
        delta, e_q_t, e_d_st = x[0], x[2], x[4]
        p = self.params
        x_e = p["x_e"] + x_shift
        angle = delta - p["theta_bus"]
        i_d = (e_q_t - p["v_bus"] * np.cos(angle)) / (p["x_d_t"] + x_e)
        i_q = (p["v_bus"] * np.sin(angle) - e_d_st) / (p["x_q_st"] + x_e)
        v_d = e_d_st + p["x_q_st"] * i_q
        v_q = e_q_t - p["x_d_t"] * i_d
        p_e = v_d * i_d + v_q * i_q
        v_g = np.sqrt(v_d * v_d + v_q * v_q)
        theta_g = delta - np.arctan2(v_d, v_q)
        return {"i_d": i_d, "i_q": i_q, "P_e": p_e, "V_g": v_g, "theta_g": theta_g}

    def rhs(self, x, u, x_shift=0.0):
        delta, omega, e_q_t, e_d_t, e_d_st = x
        p = self.params
        alg = self.algebra(x, u, x_shift)
        d_delta = p["omega_b"] * (omega - 1.0)
        d_omega = (u["P_m"] - alg["P_e"] - p["damping"] * (omega - 1.0)) / (2.0 * p["inertia"])
        d_e_q_t = (-e_q_t - (p["x_d"] - p["x_d_t"]) * alg["i_d"] + u["v_f"]) / p["t_d0_t"]
        d_e_d_t = (-e_d_t + (p["x_q"] - p["x_q_t"]) * alg["i_q"]) / p["t_q0_t"]
        d_e_d_st = (-e_d_st + e_d_t + (p["x_q_t"] - p["x_q_st"]) * alg["i_q"]) / p["t_q0_st"]
        return np.array([d_delta, d_omega, d_e_q_t, d_e_d_t, d_e_d_st])


_ORACLES = {"swing2": _RefSwing2, "oneaxis3": _RefOneAxis3, "type1order5": _RefType1Order5}
# sampling box per state and input: wide swings, off-equilibrium fluxes
_STATE_RANGE = {"delta": (-3.0, 3.0), "omega": (0.95, 1.05), "e_q_t": (0.5, 1.5),
                "e_d_t": (-0.6, 0.6), "e_d_st": (-0.6, 0.6)}
_INPUT_RANGE = {"P_m": (0.0, 1.5), "v_f": (1.0, 3.0)}


@pytest.mark.parametrize("model_id", ALL_MODELS)
def test_machine_equations_match_the_written_out_oracle(model_id):
    model = get_model(model_id)
    oracle = _ORACLES[model_id](model.params)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = np.array([rng.uniform(*_STATE_RANGE[s]) for s in model.state_names])
        u = {name: rng.uniform(*_INPUT_RANGE[name]) for name in model.input_names}
        x_shift = rng.uniform(0.05, 0.5)
        got, want = model.algebra(x, u, x_shift), oracle.algebra(x, u, x_shift)
        assert list(got) == list(want) == list(model.algebraic_names)
        for name in want:
            assert np.array_equal(got[name], want[name]), name
        assert np.array_equal(model.rhs(x, u, x_shift), oracle.rhs(x, u, x_shift))
