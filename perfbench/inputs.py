"""Seeded inputs for the benchmark workloads.

Everything the program sees in a workload is written here from the workload
seed: scenario files for ``daedisc gen-data``, run configurations, mock
generator scripts and, for ``replay_baseline``, analytic true-parameter model
files.  The same (workload, seed) always gives byte-identical files.

The seed varies the scenario (disturbance sizes), the order and position of
the scripted candidates and which variant of each candidate kind appears.  It
never varies how much work a pass does: every seed fits the same number of
candidates with the same step budgets, so timings compare across seeds.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from daedisc.benchmarks import get_model

WORKLOADS = ("fit_swing2", "search_order5", "replay_baseline")
MACHINES = ("swing2", "oneaxis3", "type1order5")


def fenced(text: str, requirements: list | None = None) -> str:
    out = f"```equations\n{text}\n```"
    if requirements is not None:
        out += "\n```requirements\n" + json.dumps(requirements) + "\n```"
    return out


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0x7FFFFFFF, zlib.crc32(workload.encode())]))


def _pick(rng: np.random.Generator, options):
    return options[int(rng.integers(len(options)))]


def _u(rng: np.random.Generator, low: float, high: float) -> float:
    return round(float(rng.uniform(low, high)), 6)


def _kick(offsets: dict, total_time: float, seed: int) -> dict:
    return {"total_time": total_time, "dt": 0.01, "noise_sigma": 0.0, "seed": seed,
            "disturbance": {"kind": "state_kick", "magnitude": 1.0, "offsets": offsets}}


def _write(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# fit_swing2: the README walkthrough, more candidates of every kind

SWING_TRUE = ("ddelta/dt = p0*(omega - 1)\n"
              "domega/dt = (p1 - p2*sin(delta) - p3*(omega - 1))/p4")

SWING_WELL_FORMED = (
    "ddelta/dt = p0*delta + p1*omega\ndomega/dt = p2*delta + p3*omega + p4",
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1*delta + p2*(omega - 1) + p3",
    "ddelta/dt = p0*omega + p1\ndomega/dt = p2*cos(delta) + p3*omega + p4",
)

SWING_PROSE = (
    "I would need to see the data first.",
    "The rotor angle follows the speed deviation and the speed is damped; "
    "a swing equation should fit well.",
    "Sure! ddelta/dt = p0*(omega - 1) but I am not certain about the rest.",
)

SWING_OUT_OF_SCOPE = (
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = (P_m - P_e - p1*(omega - 1))*p2",
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1*i_q + p2*(omega - 1) + p3",
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1 - p2*V_g*sin(delta)",
)

SWING_DOMAIN_FAULT = (
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1*log(delta - 10) + p2",
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1*sqrt(omega - 5) + p2",
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1/(omega - omega) + p2",
)


def fit_swing2(out: Path, seed: int) -> dict:
    rng = _rng("fit_swing2", seed)
    scen = {
        "train": _kick({"delta": _u(rng, 1.0, 1.3), "omega": _u(rng, 0.002, 0.005)},
                       10.0, seed + 1),
        "test": _kick({"delta": _u(rng, 0.3, 0.5), "omega": _u(rng, -0.003, -0.001)},
                      10.0, seed + 2),
    }
    kinds = ["well_formed"] * 2 + ["prose_reject", "out_of_scope", "domain_fault", "true"]
    texts = {
        "well_formed": [fenced(t) for t in rng.permutation(SWING_WELL_FORMED)[:2]],
        "prose_reject": [_pick(rng, SWING_PROSE)],
        "out_of_scope": [fenced(_pick(rng, SWING_OUT_OF_SCOPE))],
        "domain_fault": [fenced(_pick(rng, SWING_DOMAIN_FAULT))],
        "true": [fenced(SWING_TRUE)],
    }
    order = [kinds[i] for i in rng.permutation(len(kinds))]
    # three batches: every batch is consumed before the score rule can
    # terminate the loop, so all six completions are always processed
    script, mix = _batches(order, texts, (2, 2, 2))
    run = {
        "benchmark": "swing2", "seed": seed, "islands": 10, "n_b": 4,
        "de_max_iterations": 12, "ae_max_iterations": 6,
        "fit": {"steps": 2000, "learning_rate": 1.5, "restarts": 3, "seed": seed},
        "generator": {"kind": "mock", "script": "script.json"},
    }
    _write(out / "scen_swing2.json", scen)
    _write(out / "script.json", script)
    _write(out / "run.json", run)
    return {"machines": ["swing2"], "mix": mix}


def _batches(order: list[str], texts: dict, sizes, first_iteration: int = 1,
             mix: dict | None = None) -> tuple[list, dict]:
    """Deal completions into batches in ``order``, drawing each kind's texts
    in turn; returns (script batches, candidate mix)."""
    pools = {k: list(v) for k, v in texts.items()}
    script: list[list[str]] = []
    mix = mix or {"counts": {}, "true_position": None, "batches": []}
    counts = mix["counts"]
    it = iter(order)
    for b, size in enumerate(sizes, start=first_iteration):
        batch = []
        kinds = []
        for j in range(size):
            kind = next(it)
            counts[kind] = counts.get(kind, 0) + 1
            if kind == "true":
                mix["true_position"] = {"iteration": b, "completion": j}
            batch.append(pools[kind].pop(0))
            kinds.append(kind)
        script.append(batch)
        mix["batches"].append(kinds)
    return script, mix


# ---------------------------------------------------------------------------
# search_order5: both loops on the fifth-order machine, many short fits

# states-only proposals that ask for the machine's signals; the extension at
# iteration 4 admits what the best of them request
O5_STATES_ONLY = (
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1 - p2*sin(delta) - p3*(omega - 1)\n"
    "de_q_t/dt = p4 - p5*e_q_t + p6*cos(delta)\nde_d_t/dt = p7*sin(delta) - p8*e_d_t\n"
    "de_d_st/dt = p9*(e_d_t - e_d_st)",
    "ddelta/dt = p0*omega + p1\ndomega/dt = p2*delta + p3*omega + p4\n"
    "de_q_t/dt = p5*e_q_t + p6\nde_d_t/dt = p7*e_d_t + p8*delta\n"
    "de_d_st/dt = p9*e_d_st + p10*e_d_t",
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1*sin(delta) + p2\n"
    "de_q_t/dt = p3*(p4 - e_q_t)\nde_d_t/dt = -p5*e_d_t\n"
    "de_d_st/dt = p6*e_d_t - p7*e_d_st",
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1 - p2*sin(delta)*e_q_t - p3*omega\n"
    "de_q_t/dt = p4 - p5*e_q_t - p6*cos(delta)\nde_d_t/dt = p7*sin(delta) - p8*e_d_t\n"
    "de_d_st/dt = p9*e_d_t - p10*e_d_st + p11*sin(delta)",
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1 - p2*e_q_t*sin(delta)\n"
    "de_q_t/dt = p3 - p4*e_q_t + p5*e_q_t*cos(delta)\nde_d_t/dt = -p6*e_d_t + p7*sin(delta)\n"
    "de_d_st/dt = p8*(e_d_t - e_d_st) + p9*sin(delta)",
)

O5_REQUIREMENTS = (
    [{"name": "P_e", "justification": "air-gap power drives the speed"},
     {"name": "i_d", "justification": "field winding sees the d-axis current"},
     {"name": "i_q", "justification": "q-axis circuits see the q-axis current"},
     {"name": "P_m", "justification": "mechanical input power"},
     {"name": "v_f", "justification": "field voltage input"}],
    [{"name": "pe"}, {"name": "id"}, {"name": "iq"}, {"name": "pm"}, {"name": "vf"},
     {"name": "rotor_flux", "justification": "not a catalog signal"}],
    [{"name": "P_e", "justification": "electrical power"}, {"name": "i_d"},
     {"name": "i_q"}, {"name": "p_m"}, {"name": "efd"}],
)

# once the signals are in scope, proposals also fix the synchronous base
# speed 2*pi*60 rad/s instead of fitting it
OMEGA_B = "376.99111843077515"

O5_TRUE = (f"ddelta/dt = {OMEGA_B}*(omega - 1)\n"
           "domega/dt = (P_m - P_e - p0*(omega - 1))*p1\n"
           "de_q_t/dt = (v_f - e_q_t - p2*i_d)*p3\n"
           "de_d_t/dt = (p4*i_q - e_d_t)*p5\n"
           "de_d_st/dt = (e_d_t - e_d_st + p6*i_q)*p7")

# well-formed once the signals are in scope; every one references P_e, i_d
# and i_q, so the algebraic loop has the same targets whichever scores best
O5_WITH_SIGNALS = (
    O5_TRUE.replace("(P_m - P_e - p0*(omega - 1))*p1", "(P_m - P_e)*p1"),
    O5_TRUE.replace("(v_f - e_q_t - p2*i_d)*p3", "(v_f - e_q_t)*p3 + p2*i_d*i_q"),
    O5_TRUE.replace("(e_d_t - e_d_st + p6*i_q)*p7", "(e_d_t - e_d_st + p6*i_d)*p7"),
    O5_TRUE.replace("(p4*i_q - e_d_t)*p5", "(p4*P_e - e_d_t)*p5"),
    O5_TRUE.replace("(e_d_t - e_d_st + p6*i_q)*p7", "(e_d_t - e_d_st)*p7 + p6*i_q"),
    f"ddelta/dt = {OMEGA_B}*(omega - 1)\ndomega/dt = p0*P_m - p1*P_e + p2\n"
    "de_q_t/dt = p3*v_f - p4*e_q_t + p5*i_d\nde_d_t/dt = p6*i_q - p7*e_d_t\n"
    "de_d_st/dt = p8*e_d_t - p9*e_d_st + p10*i_q",
)

O5_PROSE = (
    "Without the field voltage I cannot say more.",
    "The fifth-order machine has subtransient dynamics; equations follow later.",
    "```python\nprint('not an equations block')\n```",
)

# before extension P_e is out of scope; T_e and psi_d never are in scope
O5_EARLY_OUT_OF_SCOPE = (
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = (P_m - P_e)*p1\n"
    "de_q_t/dt = p2*e_q_t\nde_d_t/dt = p3*e_d_t\nde_d_st/dt = p4*e_d_st",
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1*T_e\n"
    "de_q_t/dt = p2*e_q_t\nde_d_t/dt = p3*e_d_t\nde_d_st/dt = p4*e_d_st",
)
O5_LATE_OUT_OF_SCOPE = (
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = (P_m - T_e)*p1\n"
    "de_q_t/dt = (v_f - e_q_t - p2*i_d)*p3\nde_d_t/dt = (p4*i_q - e_d_t)*p5\n"
    "de_d_st/dt = (e_d_t - e_d_st + p6*i_q)*p7",
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = (P_m - P_e - p1*(omega - 1))*p2\n"
    "de_q_t/dt = (v_f - e_q_t - p3*psi_d)*p4\nde_d_t/dt = (p5*i_q - e_d_t)*p6\n"
    "de_d_st/dt = (e_d_t - e_d_st + p7*i_q)*p8",
)

O5_DOMAIN_FAULT = (
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1*log(delta - 10)\n"
    "de_q_t/dt = p2*e_q_t\nde_d_t/dt = p3*e_d_t\nde_d_st/dt = p4*e_d_st",
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1*omega\n"
    "de_q_t/dt = p2*sqrt(e_q_t - 10)\nde_d_t/dt = p3*e_d_t\nde_d_st/dt = p4*e_d_st",
    "ddelta/dt = p0*(omega - 1)\ndomega/dt = p1*omega\n"
    "de_q_t/dt = p2*e_q_t\nde_d_t/dt = p3/(e_d_t - e_d_t)\nde_d_st/dt = p4*e_d_st",
)

# algebraic loop: targets are the algebraic signals the true system uses
O5_AE_TRUE = ("i_d = (e_q_t - p0*cos(delta))*p1\n"
              "i_q = (p2*sin(delta) - e_d_st)*p3\n"
              "P_e = e_d_st*(e_q_t - p0*cos(delta))*p1 + e_q_t*(p2*sin(delta) - e_d_st)*p3"
              " + p4*(e_q_t - p0*cos(delta))*(p2*sin(delta) - e_d_st)*p1*p3")

O5_AE_WELL_FORMED = (
    "i_d = p0*e_q_t + p1*cos(delta) + p2\ni_q = p3*sin(delta) + p4*e_d_st + p5\n"
    "P_e = p6*sin(delta) + p7*e_q_t + p8",
    "i_d = (e_q_t - p0*cos(delta))*p1\ni_q = p2*sin(delta)\n"
    "P_e = p3*e_q_t*sin(delta)",
    "i_d = (e_q_t - p0*cos(delta))*p1\ni_q = (p2*sin(delta) - e_d_st)*p3\n"
    "P_e = p4*e_q_t*sin(delta) + p5*e_d_st*cos(delta)",
    "i_d = p0*e_q_t - p1*V_g*cos(delta - theta_g)\ni_q = p2*V_g*sin(delta - theta_g)\n"
    "P_e = p3*V_g*sin(delta - theta_g)*e_q_t",
    "i_d = p0*(e_q_t - cos(delta))\ni_q = p1*(sin(delta) - e_d_st)\n"
    "P_e = p2*e_q_t*(sin(delta) - e_d_st) + p3*e_d_st*(e_q_t - cos(delta))",
)

O5_AE_OUT_OF_SCOPE = (
    "i_d = (e_q_t - p0*cos(delta))*p1\ni_q = (p2*sin(delta) - e_d_st)*p3\n"
    "P_e = p4*i_d*i_q + e_q_t*i_q",
    "i_d = p0*e_q_t\ni_q = p1*sin(delta)\nP_e = p2*T_e",
)

O5_AE_DOMAIN_FAULT = (
    "i_d = p0*log(e_q_t - 10)\ni_q = p1*sin(delta)\nP_e = p2*e_q_t",
    "i_d = p0*e_q_t\ni_q = p1/(delta - delta)\nP_e = p2*e_q_t",
)

O5_DE_ITERATIONS = 12
O5_AE_ITERATIONS = 5


def search_order5(out: Path, seed: int) -> dict:
    rng = _rng("search_order5", seed)
    offsets = {"delta": _u(rng, 0.7, 0.9), "omega": _u(rng, 0.003, 0.005),
               "e_q_t": _u(rng, 0.08, 0.12), "e_d_t": _u(rng, 0.04, 0.06),
               "e_d_st": _u(rng, 0.04, 0.06)}
    test_offsets = {k: round(-0.5 * v, 6) for k, v in offsets.items()}
    scen = {"train": _kick(offsets, 10.0, seed + 1), "test": _kick(test_offsets, 5.0, seed + 2)}

    def with_reqs(texts):
        return [fenced(t, O5_REQUIREMENTS[int(rng.integers(len(O5_REQUIREMENTS)))])
                for t in texts]

    # iterations 1-3: states-only scope
    early_kinds = (["requirement_bearing"] * 8 + ["prose_reject", "out_of_scope"]
                   + ["domain_fault"] * 2)
    early_texts = {
        "requirement_bearing": with_reqs(
            [O5_STATES_ONLY[i % len(O5_STATES_ONLY)] for i in rng.permutation(8)]),
        "prose_reject": [_pick(rng, O5_PROSE)],
        "out_of_scope": [fenced(_pick(rng, O5_EARLY_OUT_OF_SCOPE))],
        "domain_fault": [fenced(t) for t in rng.permutation(O5_DOMAIN_FAULT)[:2]],
    }
    # iterations 4-12: the signals are in scope
    late_kinds = (["well_formed"] * 24 + ["true"] + ["prose_reject"] * 3
                  + ["out_of_scope"] * 4 + ["domain_fault"] * 4)
    late_texts = {
        "well_formed": [fenced(O5_WITH_SIGNALS[i % len(O5_WITH_SIGNALS)])
                        for i in rng.permutation(24)],
        "true": [fenced(O5_TRUE)],
        "prose_reject": [O5_PROSE[int(i)] for i in rng.permutation(3)],
        "out_of_scope": [fenced(O5_LATE_OUT_OF_SCOPE[int(i) % 2]) for i in rng.permutation(4)],
        "domain_fault": [fenced(O5_DOMAIN_FAULT[int(i) % 3]) for i in rng.permutation(4)],
    }
    early = [early_kinds[i] for i in rng.permutation(len(early_kinds))]
    late = [late_kinds[i] for i in rng.permutation(len(late_kinds))]
    early_script, de_mix = _batches(early, early_texts, [4] * 3)
    late_script, de_mix = _batches(late, late_texts, [4] * (O5_DE_ITERATIONS - 3),
                                   first_iteration=4, mix=de_mix)
    ae_kinds = (["well_formed"] * 13 + ["true"] + ["prose_reject"] * 2
                + ["out_of_scope"] * 2 + ["domain_fault"] * 2)
    ae_texts = {
        "well_formed": [fenced(O5_AE_WELL_FORMED[i % 5]) for i in rng.permutation(13)],
        "true": [fenced(O5_AE_TRUE)],
        "prose_reject": [O5_PROSE[int(i)] for i in rng.permutation(3)[:2]],
        "out_of_scope": [fenced(t) for t in O5_AE_OUT_OF_SCOPE],
        "domain_fault": [fenced(t) for t in O5_AE_DOMAIN_FAULT],
    }
    ae_order = [ae_kinds[i] for i in rng.permutation(len(ae_kinds))]
    ae_script, ae_mix = _batches(ae_order, ae_texts, [4] * O5_AE_ITERATIONS)
    run = {
        "benchmark": "type1order5", "seed": seed, "islands": 10, "n_b": 4,
        # a gain threshold no step reaches and a termination threshold no
        # short fit reaches: extension fires at every iteration once the
        # window fills, and both loops run their full budgets, so the work
        # per pass does not depend on which candidate scores best
        "epsilon": 1000.0, "gamma": 1e-9, "window": 3, "top_k": 3,
        "de_max_iterations": O5_DE_ITERATIONS, "ae_max_iterations": O5_AE_ITERATIONS,
        "fit": {"steps": 150, "learning_rate": 1.0, "restarts": 1, "seed": seed},
        "generator": {"kind": "mock", "script": "script.json"},
    }
    _write(out / "scen_type1order5.json", scen)
    _write(out / "script.json", early_script + late_script + ae_script)
    _write(out / "run.json", run)
    return {"machines": ["type1order5"], "mix": {"de": de_mix, "ae": ae_mix}}


# ---------------------------------------------------------------------------
# replay_baseline: no fitting; the three machines on held-out records

REPLAY_TEST_SECONDS = 4.0


def _library(model, names) -> list[dict]:
    entries = (model.catalog_entry(n) for n in names)
    return [{"name": e.name, "unit": e.unit, "description": e.description, "kind": e.kind}
            for e in entries]


def analytic_model(model_id: str) -> dict:
    """``daedisc-model`` document holding the machine's own equations with its
    true parameters: a DE part over states and recorded signals, and an AE
    part giving those algebraic signals from the states."""
    model = get_model(model_id)
    p = model.params
    if p["theta_bus"] != 0.0 or p["v_bus"] != 1.0:
        raise ValueError("fixtures assume an infinite bus at angle 0 and 1 pu")
    swing = ["p0*(omega - 1)", "(P_m - P_e - p1*(omega - 1))/p2"]
    de_params = [p["omega_b"], p["damping"], 2.0 * p["inertia"]]
    if model_id == "swing2":
        de_lines, library = swing, ["P_e", "P_m"]
        ae_targets = ["P_e"]
        ae_text = "P_e = p0*sin(delta)"
        ae_params = [p["e_prime"] * p["v_bus"] / p["x_total"]]
    elif model_id == "oneaxis3":
        de_lines = swing + ["(v_f - e_q_t - p3*i_d)/p4"]
        de_params += [p["x_d"] - p["x_d_t"], p["t_d0_t"]]
        library = ["i_d", "P_e", "P_m", "v_f"]
        ae_targets = ["i_d", "P_e"]
        # i_q = V sin(delta)/(x_q + x_e);  P_e = i_q (e_q' + (x_q - x_d') i_d)
        ae_text = ("i_d = (e_q_t - p0*cos(delta))/p1\n"
                   "P_e = p2*sin(delta)*(e_q_t + p3*(e_q_t - p0*cos(delta))/p1)")
        ae_params = [p["v_bus"], p["x_d_t"] + p["x_e"], p["v_bus"] / (p["x_q"] + p["x_e"]),
                     p["x_q"] - p["x_d_t"]]
    elif model_id == "type1order5":
        de_lines = swing + ["(v_f - e_q_t - p3*i_d)/p4", "(p5*i_q - e_d_t)/p6",
                            "(e_d_t - e_d_st + p7*i_q)/p8"]
        de_params += [p["x_d"] - p["x_d_t"], p["t_d0_t"], p["x_q"] - p["x_q_t"],
                      p["t_q0_t"], p["x_q_t"] - p["x_q_st"], p["t_q0_st"]]
        library = ["i_d", "i_q", "P_e", "P_m", "v_f"]
        ae_targets = ["i_d", "i_q", "P_e"]
        # P_e = e_d'' i_d + e_q' i_q + (x_q'' - x_d') i_d i_q
        i_d = "(e_q_t - p0*cos(delta))/p1"
        i_q = "(p0*sin(delta) - e_d_st)/p2"
        ae_text = (f"i_d = {i_d}\ni_q = {i_q}\n"
                   f"P_e = e_d_st*{i_d} + e_q_t*{i_q} + p3*{i_d}*{i_q}")
        ae_params = [p["v_bus"], p["x_d_t"] + p["x_e"], p["x_q_st"] + p["x_e"],
                     p["x_q_st"] - p["x_d_t"]]
    else:
        raise ValueError(f"no analytic fixture for {model_id!r}")
    de_text = "\n".join(f"d{s}/dt = {rhs}" for s, rhs in zip(model.state_names, de_lines))
    return {
        "format": "daedisc-model", "version": 1, "benchmark": model_id,
        "de": {"targets": list(model.state_names), "text": de_text,
               "params": [float(v) for v in de_params]},
        "ae": {"targets": ae_targets, "text": ae_text,
               "params": [float(v) for v in ae_params]},
        "library": _library(model, library),
    }


# state kicks: the training record (what STLSQ fits) moves little with the
# seed, so the identified models, and where an unstable one diverges in
# replay, barely change; the held-out record moves more
REPLAY_TRAIN_KICK = {"delta": 0.9, "omega": 0.002, "e_q_t": 0.05, "e_d_t": 0.03,
                     "e_d_st": 0.03}
REPLAY_TEST_KICK = {"delta": 0.45, "omega": -0.002, "e_q_t": -0.03, "e_d_t": -0.02,
                    "e_d_st": 0.02}


def _jitter(rng, center: dict, states, spread: float) -> dict:
    return {s: _u(rng, *sorted((center[s] * (1.0 - spread), center[s] * (1.0 + spread))))
            for s in states}


def replay_baseline(out: Path, seed: int) -> dict:
    rng = _rng("replay_baseline", seed)
    for machine in MACHINES:
        states = get_model(machine).state_names
        _write(out / f"scen_{machine}.json",
               {"train": _kick(_jitter(rng, REPLAY_TRAIN_KICK, states, 0.02), 10.0, seed + 1),
                "test": _kick(_jitter(rng, REPLAY_TEST_KICK, states, 0.2),
                              REPLAY_TEST_SECONDS, seed + 2)})
        _write(out / f"analytic_{machine}.json", analytic_model(machine))
    return {"machines": list(MACHINES), "mix": None}


GENERATORS = {"fit_swing2": fit_swing2, "search_order5": search_order5,
              "replay_baseline": replay_baseline}


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's input files into ``out``; returns a description
    (machines simulated, candidate mix) for the result file."""
    out.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](out, seed)
