"""Single-machine-infinite-bus benchmark models and the trajectory simulator.

Three synchronous-machine models of increasing order serve as ground truth
for discovery runs, replacing a full network simulation at desk scale:

* ``swing2``       classical model: rotor angle / speed behind one reactance,
                   electrical power E'V/X * sin(delta - theta).
* ``oneaxis3``     flux-decay (one-axis) model: adds the q-axis transient
                   voltage e_q' with field input v_f.
* ``type1order5``  fifth-order machine with one field winding and two q-axis
                   rotor circuits: states delta, omega, e_q', e_d', e_d''.

All models expose an explicit algebraic map (stator currents i_d/i_q,
electrical power P_e, and for the higher-order machines the terminal voltage
magnitude/angle), plus a signal catalog describing every algebraic and input
signal that a discovery run may request; a model's algebraic and input names
are its catalog's entries of that kind.  The machines share their equations
where their physics does: all three use one swing equation, and the two
higher-order machines one stator algebra and one field-winding equation (the
one-axis machine is the fifth-order stator with no q-axis rotor voltage).

Conventions (resistances neglected, machine dq frame, per unit):
    v_q = e_q' - x_d' i_d                 v_d = e_d'' + x_q'' i_q
    v_d = V sin(delta - theta) - x_e i_q  v_q = V cos(delta - theta) + x_e i_d
so the currents follow from eliminating the terminal voltage.  At steady
state the two q-axis circuits collapse to v_d = x_q i_q, the familiar
round-rotor relation.

Integration is classic fixed-step RK4; scenarios add a disturbance (input
power step, network reactance step, or a displaced post-fault initial state)
on top of an equilibrium initial condition solved by damped Newton.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping

import numpy as np

OMEGA_BASE = 2.0 * math.pi * 60.0


class EquilibriumNotFound(RuntimeError):
    pass


class NonFiniteState(RuntimeError):
    pass


class UnknownModel(KeyError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    """One signal a discovery run may request by name."""

    name: str
    unit: str
    description: str
    kind: str  # "algebraic" | "input"
    aliases: tuple[str, ...] = ()

    def matches(self, requested: str) -> bool:
        """Whether ``requested`` is the name or an alias, ignoring case."""
        lowered = requested.casefold()
        if lowered == self.name.casefold():
            return True
        return any(lowered == a.casefold() for a in self.aliases)


# a scalar field's declared type -> (the JSON values it takes, their name);
# bool is an int in Python, but JSON true/false is no number
_SCALARS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
            "str": (str, "a string")}


def _type_error(declared: str, value) -> str | None:
    """Why a JSON value cannot fill a field declared as ``declared``, or None if
    it can or the field is no scalar (its converter checks it then).  JSON's
    NaN and Infinity fill no field: NaN passes every range check, since each
    comparison with it is false, and Infinity turns a limit off.  Nor does an
    integer beyond the float range, which the float conversion would refuse."""
    scalar, _, rest = declared.partition(" | ")
    if scalar not in _SCALARS or value is None and rest == "None":
        return None
    kinds, name = _SCALARS[scalar]
    null = " or null" if rest == "None" else ""
    if isinstance(value, kinds) and not isinstance(value, bool):
        if scalar != "float" or abs(value) <= sys.float_info.max:
            return None
        got = value if isinstance(value, float) else "an integer too large for a float"
        return f"expected a finite number{null}, got {got}"
    got = "null" if value is None else type(value).__name__
    return f"expected {name}{null}, got {got}"


def from_json_object(cls, data, **convert):
    """Build the settings dataclass ``cls`` from a JSON object.  Every key must be
    a field, so a misspelled key cannot pass unnoticed; a scalar value must have
    its field's declared type (an integer fills a float field); a key present
    goes through its converter in ``convert``, if any; an absent field keeps its
    default.  Malformed input raises ValueError: naming the key for a wrong
    type or a failed conversion, or the dataclass's own for a value it rejects."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {type(data).__name__}")
    declared = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(data) - set(declared))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {unknown}")
    values = {}
    for key, value in data.items():
        problem = _type_error(declared[key], value)
        if problem:
            raise ValueError(f"{key}: {problem}")
        try:
            values[key] = convert[key](value) if key in convert else value
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{key}: {exc}") from exc
    return cls(**values)


def _pairs(data) -> tuple[tuple[str, float], ...]:
    """A JSON object of finite numbers as sorted (name, value) pairs; each value
    is checked as a scalar float field is."""
    if not isinstance(data, Mapping):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    for name, value in data.items():
        problem = _type_error("float", value)
        if problem:
            raise ValueError(f"{name}: {problem}")
    return tuple(sorted((str(k), float(v)) for k, v in data.items()))


@dataclass(frozen=True)
class Disturbance:
    """What gets perturbed during the run.

    kind:
      - "none"
      - "pm_step":    mechanical power += magnitude for t in [start, start+duration)
      - "x_step":     series reactance += magnitude for t in [start, start+duration)
      - "state_kick": states displaced by `offsets` at t = start (a cleared-fault
                      analog; duration/magnitude scale the offsets by `magnitude`)
    """

    kind: str = "none"
    start: float = 0.0
    duration: float = 0.0
    magnitude: float = 0.0
    offsets: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.kind not in ("none", "pm_step", "x_step", "state_kick"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "start": self.start, "duration": self.duration,
                "magnitude": self.magnitude, "offsets": dict(self.offsets)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Disturbance":
        return from_json_object(cls, data, start=float, duration=float,
                                magnitude=float, offsets=_pairs)


@dataclass(frozen=True)
class ScenarioConfig:
    total_time: float = 10.0
    dt: float = 0.01
    disturbance: Disturbance = field(default_factory=Disturbance)
    inputs: tuple[tuple[str, float], ...] = ()  # overrides of the model defaults
    noise_sigma: float = 0.01  # fraction of per-signal amplitude (max abs value)
    seed: int = 0
    initial_state: tuple[tuple[str, float], ...] | None = None  # None: equilibrium

    def __post_init__(self):
        if self.total_time <= 0:
            raise ValueError(f"total_time must be positive, got {self.total_time}")
        if self.dt <= 0:
            raise ValueError("step must be positive")
        if round(self.total_time / self.dt) < 1:
            raise ValueError(f"total_time {self.total_time} is shorter than one step "
                             f"of dt {self.dt}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.disturbance.kind != "none":
            if not (0.0 <= self.disturbance.start <= self.total_time):
                raise ValueError("disturbance window outside the run")
            if self.disturbance.start + self.disturbance.duration > self.total_time + 1e-12:
                raise ValueError("disturbance window outside the run")

    def to_dict(self) -> dict:
        return {"total_time": self.total_time, "dt": self.dt,
                "disturbance": self.disturbance.to_dict(), "inputs": dict(self.inputs),
                "noise_sigma": self.noise_sigma, "seed": self.seed,
                "initial_state": None if self.initial_state is None else dict(self.initial_state)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioConfig":
        return from_json_object(
            cls, data, total_time=float, dt=float, disturbance=Disturbance.from_dict,
            inputs=_pairs, noise_sigma=float,
            initial_state=lambda init: None if init is None else _pairs(init))


@dataclass(frozen=True)
class FullRecord:
    """Noiseless simulation output: every catalog signal at every step."""

    model_id: str
    time: np.ndarray
    columns: dict[str, np.ndarray]  # states + algebraic + inputs
    state_names: tuple[str, ...]
    scenario: dict

    @property
    def dt(self) -> float:
        return float(self.time[1] - self.time[0])

    @property
    def n_samples(self) -> int:
        return int(self.time.shape[0])


# ---------------------------------------------------------------------------
# Models


def _swing(p, omega, p_m, p_e):
    """d(delta)/dt = omega_b (omega - 1), 2H d(omega)/dt = P_m - P_e - D (omega - 1)."""
    d_delta = p["omega_b"] * (omega - 1.0)
    d_omega = (p_m - p_e - p["damping"] * (omega - 1.0)) / (2.0 * p["inertia"])
    return d_delta, d_omega


def _stator(p, delta, e_q, e_d, x_q, x_shift):
    """Stator currents, air-gap power and terminal voltage for internal
    voltages e_q (behind x_d') and e_d (behind x_q) on the series reactance
    x_e + x_shift."""
    x_e = p["x_e"] + x_shift
    angle = delta - p["theta_bus"]
    i_d = (e_q - p["v_bus"] * np.cos(angle)) / (p["x_d_t"] + x_e)
    i_q = (p["v_bus"] * np.sin(angle) - e_d) / (x_q + x_e)
    v_d = e_d + x_q * i_q
    v_q = e_q - p["x_d_t"] * i_d
    p_e = v_d * i_d + v_q * i_q
    v_g = np.sqrt(v_d * v_d + v_q * v_q)
    theta_g = delta - np.arctan2(v_d, v_q)
    return {"i_d": i_d, "i_q": i_q, "P_e": p_e, "V_g": v_g, "theta_g": theta_g}


def _field(p, e_q, i_d, v_f):
    """T'_d0 de_q'/dt = -e_q' - (x_d - x_d') i_d + v_f."""
    return (-e_q - (p["x_d"] - p["x_d_t"]) * i_d + v_f) / p["t_d0_t"]


class BenchmarkModel:
    """Shared structure: subclasses provide equations and the signal catalog."""

    model_id: str
    state_names: tuple[str, ...]
    # the machine's own variable set (stator currents, electrical power,
    # inputs): what a prior-rich regression baseline is given; terminal
    # voltage magnitude/angle stay catalog-only extension material
    core_variable_names: tuple[str, ...] = ()
    catalog: tuple[CatalogEntry, ...]

    def __init__(self, params: dict[str, float], default_inputs: dict[str, float]):
        self.params = dict(params)
        self.default_inputs = dict(default_inputs)
        # the catalog's signals of each kind, in catalog order
        self.algebraic_names, self.input_names = (
            tuple(e.name for e in self.catalog if e.kind == kind)
            for kind in ("algebraic", "input"))

    def algebra(self, x, u: Mapping[str, float], x_shift: float = 0.0) -> dict:
        raise NotImplementedError

    def rhs(self, x, u: Mapping[str, float], x_shift: float = 0.0) -> np.ndarray:
        raise NotImplementedError

    def catalog_entry(self, requested: str) -> CatalogEntry | None:
        for entry in self.catalog:
            if entry.name == requested:
                return entry
        for entry in self.catalog:
            if entry.matches(requested):
                return entry
        return None

    def inputs_with(self, overrides: Mapping[str, float]) -> dict[str, float]:
        merged = dict(self.default_inputs)
        for name, value in overrides.items():
            if name not in merged:
                raise ValueError(f"{self.model_id} has no input {name!r}")
            merged[name] = float(value)
        return merged


class Swing2(BenchmarkModel):
    """Classical machine: d(delta)/dt = omega_b (omega - 1),
    2H d(omega)/dt = P_m - P_e - D (omega - 1), P_e = E'V/X sin(delta - theta)."""

    model_id = "swing2"
    state_names = ("delta", "omega")
    core_variable_names = ("i_d", "i_q", "P_e", "P_m")
    catalog = (
        CatalogEntry("i_d", "pu", "d-axis stator current", "algebraic", ("id",)),
        CatalogEntry("i_q", "pu", "q-axis stator current", "algebraic", ("iq",)),
        CatalogEntry("P_e", "pu", "electrical air-gap power", "algebraic", ("pe", "p_e")),
        CatalogEntry("P_m", "pu", "mechanical power input", "input", ("pm", "p_m")),
    )

    def __init__(self):
        # inertia keeps the swing mode slow enough that central differences at
        # dt = 0.01 stay within 1e-3 relative error: (omega_n*dt)^2/6 < 1e-3
        super().__init__(
            params={"omega_b": OMEGA_BASE, "inertia": 6.0, "damping": 2.0,
                    "e_prime": 1.1, "v_bus": 1.0, "theta_bus": 0.0, "x_total": 0.65},
            default_inputs={"P_m": 0.8})

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
        alg = self.algebra(x, u, x_shift)
        return np.array(_swing(self.params, x[1], u["P_m"], alg["P_e"]))


class OneAxis3(BenchmarkModel):
    """Flux-decay model: swing dynamics plus T'_d0 de_q'/dt = -e_q' - (x_d - x_d') i_d + v_f."""

    model_id = "oneaxis3"
    state_names = ("delta", "omega", "e_q_t")
    core_variable_names = ("i_d", "i_q", "P_e", "P_m", "v_f")
    catalog = (
        CatalogEntry("i_d", "pu", "d-axis stator current", "algebraic", ("id",)),
        CatalogEntry("i_q", "pu", "q-axis stator current", "algebraic", ("iq",)),
        CatalogEntry("P_e", "pu", "electrical air-gap power", "algebraic", ("pe", "p_e")),
        CatalogEntry("V_g", "pu", "terminal voltage magnitude", "algebraic", ("vg", "v_g")),
        CatalogEntry("theta_g", "rad", "terminal voltage angle", "algebraic", ("theta",)),
        CatalogEntry("P_m", "pu", "mechanical power input", "input", ("pm", "p_m")),
        CatalogEntry("v_f", "pu", "excitation (field) voltage input", "input", ("vf", "efd")),
    )

    def __init__(self):
        super().__init__(
            params={"omega_b": OMEGA_BASE, "inertia": 3.5, "damping": 2.0,
                    "x_d": 1.8, "x_d_t": 0.3, "x_q": 1.7, "x_e": 0.3,
                    "t_d0_t": 8.0, "v_bus": 1.0, "theta_bus": 0.0},
            default_inputs={"P_m": 0.8, "v_f": 2.1})

    def algebra(self, x, u, x_shift=0.0):
        # no q-axis rotor circuit: zero internal d-axis voltage behind x_q
        return _stator(self.params, x[0], x[2], 0.0, self.params["x_q"], x_shift)

    def rhs(self, x, u, x_shift=0.0):
        p = self.params
        alg = self.algebra(x, u, x_shift)
        return np.array([*_swing(p, x[1], u["P_m"], alg["P_e"]),
                         _field(p, x[2], alg["i_d"], u["v_f"])])


class Type1Order5(BenchmarkModel):
    """Fifth-order machine: field winding plus two q-axis rotor circuits.

    States delta, omega, e_q' (x_d/x_d', T'_d0), e_d' (x_q/x_q', T'_q0) and
    e_d'' (x_q'/x_q'', T''_q0); the subtransient d-axis voltage enters the
    stator equation v_d = e_d'' + x_q'' i_q.
    """

    model_id = "type1order5"
    state_names = ("delta", "omega", "e_q_t", "e_d_t", "e_d_st")
    core_variable_names = OneAxis3.core_variable_names
    catalog = OneAxis3.catalog

    def __init__(self):
        super().__init__(
            params={"omega_b": OMEGA_BASE, "inertia": 3.5, "damping": 2.0,
                    "x_d": 1.8, "x_d_t": 0.3, "x_q": 1.7, "x_q_t": 0.55,
                    "x_q_st": 0.25, "x_e": 0.3, "t_d0_t": 8.0, "t_q0_t": 0.4,
                    "t_q0_st": 0.05, "v_bus": 1.0, "theta_bus": 0.0},
            default_inputs={"P_m": 0.8, "v_f": 2.1})

    def algebra(self, x, u, x_shift=0.0):
        return _stator(self.params, x[0], x[2], x[4], self.params["x_q_st"], x_shift)

    def rhs(self, x, u, x_shift=0.0):
        _, omega, e_q_t, e_d_t, e_d_st = x
        p = self.params
        alg = self.algebra(x, u, x_shift)
        d_delta, d_omega = _swing(p, omega, u["P_m"], alg["P_e"])
        d_e_q_t = _field(p, e_q_t, alg["i_d"], u["v_f"])
        d_e_d_t = (-e_d_t + (p["x_q"] - p["x_q_t"]) * alg["i_q"]) / p["t_q0_t"]
        d_e_d_st = (-e_d_st + e_d_t + (p["x_q_t"] - p["x_q_st"]) * alg["i_q"]) / p["t_q0_st"]
        return np.array([d_delta, d_omega, d_e_q_t, d_e_d_t, d_e_d_st])


_MODELS: dict[str, Callable[[], BenchmarkModel]] = {
    "swing2": Swing2,
    "oneaxis3": OneAxis3,
    "type1order5": Type1Order5,
}


def model_ids() -> tuple[str, ...]:
    return tuple(_MODELS)


def get_model(model_id: str) -> BenchmarkModel:
    try:
        return _MODELS[model_id]()
    except KeyError:
        raise UnknownModel(model_id) from None


# ---------------------------------------------------------------------------
# Equilibrium and integration


EQUILIBRIUM_MAX_ITERATIONS = 100
EQUILIBRIUM_TOLERANCE = 1e-12


def solve_equilibrium(model: BenchmarkModel, inputs: Mapping[str, float]) -> np.ndarray:
    """Damped Newton on rhs(x) = 0 with a numerical Jacobian."""
    guess = {"delta": 0.4, "omega": 1.0, "e_q_t": 1.0, "e_d_t": 0.2, "e_d_st": 0.2}
    x = np.array([guess[name] for name in model.state_names])
    n = x.size

    def residual(state):
        return model.rhs(state, inputs)

    f = residual(x)
    for _ in range(EQUILIBRIUM_MAX_ITERATIONS):
        if np.max(np.abs(f)) < EQUILIBRIUM_TOLERANCE:
            return x
        jac = np.empty((n, n))
        for j in range(n):
            h = 1e-7 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            jac[:, j] = (residual(xp) - residual(xm)) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            raise EquilibriumNotFound(f"singular Jacobian for {model.model_id}")
        lam = 1.0
        norm0 = np.max(np.abs(f))
        while lam > 1e-6:
            candidate = x + lam * step
            f_new = residual(candidate)
            if np.all(np.isfinite(f_new)) and np.max(np.abs(f_new)) < norm0:
                x, f = candidate, f_new
                break
            lam *= 0.5
        else:
            raise EquilibriumNotFound(
                f"Newton stalled for {model.model_id} at residual {norm0:.3e}")
    if np.max(np.abs(f)) < EQUILIBRIUM_TOLERANCE:
        return x
    raise EquilibriumNotFound(
        f"no equilibrium for {model.model_id} after {EQUILIBRIUM_MAX_ITERATIONS} iterations")


@functools.cache
def _unrolled_rk4_step(n: int) -> Callable:
    """The RK4 step for ``n`` states as straight-line code, compiled once per
    state count: the state and each stage's derivatives are unpacked into
    locals (``x<j>`` and ``k<stage>_<j>``), and every element is written out
    with the array formula's operations in its order."""
    x = [f"x{j}" for j in range(n)]
    k = [[f"k{stage}_{j}" for j in range(n)] for stage in range(1, 5)]

    def listed(names) -> str:
        return "[" + ", ".join(names) + "]"

    def stage(i: int, scale: str) -> str:
        return listed(f"{a} + dt * {b}{scale}" for a, b in zip(x, k[i]))

    lines = ["def step(f, x, dt, start, middle, end):",
             f"    {listed(x)} = x",
             f"    {listed(k[0])} = f(x, start)",
             f"    {listed(k[1])} = f({stage(0, ' / 2.0')}, middle)",
             f"    {listed(k[2])} = f({stage(1, ' / 2.0')}, middle)",
             f"    {listed(k[3])} = f({stage(2, '')}, end)",
             "    return " + listed(f"{a} + dt * ({b1} + 2.0 * {b2} + 2.0 * {b3} + {b4}) / 6.0"
                                    for a, b1, b2, b3, b4 in zip(x, *k))]
    namespace: dict = {}
    exec(compile("\n".join(lines) + "\n", f"<rk4 step of {n} states>", "exec"), namespace)
    return namespace.pop("step")


def rk4_step(f: Callable[[list[float], object], list[float]], x: list[float], dt: float,
             start, middle, end) -> list[float]:
    """One classic RK4 step of ``f(x, u)`` on lists of floats, the one step
    shared by data generation and replay; the caller supplies ``u`` at the
    step's start, midpoint (shared by the two middle stages) and end.  The
    step is unrolled for ``len(x)`` states (``f`` gives as many derivatives),
    and each element takes the operations of the array formula in its order,
    so the bits are those of ``x + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0``."""
    return _unrolled_rk4_step(len(x))(f, x, dt, start, middle, end)


def _state_values(model: BenchmarkModel, pairs, what: str) -> dict[str, float]:
    """``pairs`` as a dict, each name a state of ``model``."""
    values = dict(pairs)
    for name in values:
        if name not in model.state_names:
            raise ValueError(f"{what}: {model.model_id} has no state {name!r}")
    return values


def simulate(model: BenchmarkModel, scen: ScenarioConfig) -> FullRecord:
    """Fixed-step RK4 run; every catalog signal recorded at every step, noiseless."""
    base_inputs = model.inputs_with(dict(scen.inputs))
    dist = scen.disturbance

    def inputs_at(t: float) -> dict[str, float]:
        u = dict(base_inputs)
        if dist.kind == "pm_step" and dist.start <= t < dist.start + dist.duration:
            u["P_m"] = u["P_m"] + dist.magnitude
        return u

    def shift_at(t: float) -> float:
        if dist.kind == "x_step" and dist.start <= t < dist.start + dist.duration:
            return dist.magnitude
        return 0.0

    def f(state: list[float], t: float) -> list[float]:
        return model.rhs(state, inputs_at(t), shift_at(t)).tolist()

    if scen.initial_state is not None:
        given = _state_values(model, scen.initial_state, "initial_state")
        missing = [s for s in model.state_names if s not in given]
        if missing:
            raise ValueError(f"initial_state missing {missing}")
        x = [float(given[name]) for name in model.state_names]
    else:
        x = solve_equilibrium(model, base_inputs).tolist()

    kick_index = -1
    if dist.kind == "state_kick":
        kick_index = int(round(dist.start / scen.dt))
        offsets = _state_values(model, dist.offsets, "offsets")
        scale = dist.magnitude if dist.magnitude != 0.0 else 1.0
        kick = [scale * offsets.get(name, 0.0) for name in model.state_names]

    n_steps = int(round(scen.total_time / scen.dt))
    time = np.arange(n_steps + 1) * scen.dt
    states = np.empty((n_steps + 1, len(model.state_names)))
    alg_rows: dict[str, np.ndarray] = {name: np.empty(n_steps + 1)
                                       for name in model.algebraic_names}
    input_rows: dict[str, np.ndarray] = {name: np.empty(n_steps + 1)
                                         for name in model.input_names}
    for i in range(n_steps + 1):
        t = time[i]
        if i == kick_index:
            x = [a + b for a, b in zip(x, kick)]
        if not all(map(math.isfinite, x)):
            raise NonFiniteState(f"integration blew up at t={t:.4f}")
        states[i] = x
        u = inputs_at(t)
        alg = model.algebra(x, u, shift_at(t))
        for name in model.algebraic_names:
            alg_rows[name][i] = alg[name]
        for name in model.input_names:
            input_rows[name][i] = u[name]
        if i < n_steps:
            x = rk4_step(f, x, scen.dt, t, t + scen.dt / 2.0, t + scen.dt)
    columns: dict[str, np.ndarray] = {
        name: states[:, j] for j, name in enumerate(model.state_names)}
    columns.update(alg_rows)
    columns.update(input_rows)
    return FullRecord(model_id=model.model_id, time=time, columns=columns,
                      state_names=model.state_names, scenario=scen.to_dict())
