import itertools
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from daedisc import engine as engine_module
from daedisc.archive import Archive, Island
from daedisc.benchmarks import CatalogEntry, Disturbance, ScenarioConfig, get_model, simulate
from daedisc.config import RunConfig
from daedisc.dataset import deriv_name, make_dataset
from daedisc.dsl import SymbolScope, parse, serialize, variables_in
from daedisc.engine import (
    BudgetExceeded,
    CatalogExhausted,
    Decision,
    DiscoveryEngine,
    GenerationExhausted,
    LoopState,
    VariableLibrary,
    check_trigger,
    derive_ae_targets,
    extend_variables,
)
from daedisc.fitting import Requirement, ScoredSkeleton
from daedisc.gateway import MockBackend

KICK = Disturbance(kind="state_kick", magnitude=1.0,
                   offsets=(("delta", 1.2), ("omega", 0.004)))

TRUE_SWING = ("ddelta/dt = p0*(omega - 1)\n"
              "domega/dt = (p1 - p2*sin(delta) - p3*(omega - 1))/p4")
TRUE_SWING_PE = ("ddelta/dt = p0*(omega - 1)\n"
                 "domega/dt = (p1 - p2*P_e - p3*(omega - 1))/p4")
TRUE_AE = "P_e = p0*sin(delta)"

DISTRACTORS = [
    "ddelta/dt = p0*delta\ndomega/dt = p1*omega",
    "ddelta/dt = p0\ndomega/dt = p1",
    "I cannot help with that.",
    "ddelta/dt = p0*sin(theta_x)\ndomega/dt = p1",  # out of scope, filtered
]


def fenced(text, requirements=None):
    out = f"```equations\n{text}\n```"
    if requirements is not None:
        out += "\n```requirements\n" + json.dumps(requirements) + "\n```"
    return out


def swing_dataset(noise=0.0, seed=0, total_time=10.0):
    model = get_model("swing2")
    scen = ScenarioConfig(total_time=total_time, dt=0.01, noise_sigma=noise,
                          seed=seed, disturbance=KICK)
    return make_dataset(simulate(model, scen), scen)


def fast_config(**overrides):
    base = dict(
        benchmark="swing2", seed=11, islands=3, n_b=4,
        de_max_iterations=12, ae_max_iterations=8,
        fit={"steps": 2000, "learning_rate": 1.5, "restarts": 2, "seed": 0},
        generator={"kind": "mock", "script": "unused.json"},
    )
    base.update(overrides)
    return RunConfig.from_dict(base)


# --------------------------------------------------------------- check_trigger

def test_trigger_extend_on_flat_history():
    assert check_trigger([-1.5, -1.5, -1.5, -1.5], 3, 0.01, 0.01) is Decision.EXTEND


def test_trigger_terminate_when_above_gamma():
    assert check_trigger([-0.005, -0.004, -0.003], 3, 0.01, 0.01) is Decision.TERMINATE


def test_trigger_continue_on_real_gains():
    assert check_trigger([-2.0, -1.0, -0.5], 3, 0.01, 0.01) is Decision.CONTINUE


def test_trigger_short_history_continues():
    assert check_trigger([-1.5], 3, 0.01, 0.01) is Decision.CONTINUE
    assert check_trigger([-1.5, -1.5], 3, 0.01, 0.01) is Decision.CONTINUE
    assert check_trigger([-1.5, -1.5, -1.5], 3, 0.01, 0.01) is Decision.CONTINUE


def _reference_trigger(history, window, epsilon, gamma):
    # independent literal restatement of the rule, kept deliberately naive
    n = len(history)
    if n >= window:
        tail = history[n - window:]
        if min(tail) > -gamma:
            return Decision.TERMINATE
    if n >= window + 1 and history[-1] <= -gamma:
        deltas = [history[i + 1] - history[i] for i in range(n - 1)]
        recent = deltas[len(deltas) - window:]
        if max(recent) <= epsilon:
            return Decision.EXTEND
    return Decision.CONTINUE


GRID = (-1.5, -1.495, -0.02, -0.01, -0.005)


def test_trigger_matches_bruteforce_oracle_exhaustively():
    window, eps, gamma = 3, 0.01, 0.01
    checked = 0
    for length in range(1, 7):
        for history in itertools.product(GRID, repeat=length):
            expected = _reference_trigger(list(history), window, eps, gamma)
            assert check_trigger(list(history), window, eps, gamma) is expected, history
            checked += 1
    assert checked == sum(5 ** n for n in range(1, 7))


# ------------------------------------------------------------ extend_variables

def scored_with_reqs(text, score, reqs, scope, targets):
    sk = parse(text, scope, targets, kind="de")
    params = np.zeros(sk.n_params)
    params.setflags(write=False)
    return ScoredSkeleton(skeleton=sk, params=params, score=score,
                          requirements=tuple(Requirement(name=r) for r in reqs))


def test_extend_variables_admits_catalog_matches():
    ds = swing_dataset(total_time=2.0)
    model = get_model("swing2")
    scope = SymbolScope(states=("delta", "omega"))
    library = VariableLibrary()
    archive = Archive.seeded(1, scored_with_reqs(
        "ddelta/dt = p0\ndomega/dt = p1", -2.0, ["i_d", "i_q", "P_e", "stator_flux"],
        scope, ["delta", "omega"]))
    added, ignored = extend_variables(archive, library, ds, model, top_k=3)
    assert added == ["i_d", "i_q", "P_e"]
    assert ignored == ["stator_flux"]
    assert library.names() == ("i_d", "i_q", "P_e")


def test_extend_variables_fallback_in_catalog_order():
    ds = swing_dataset(total_time=2.0)
    model = get_model("swing2")
    scope = SymbolScope(states=("delta", "omega"))
    library = VariableLibrary()
    archive = Archive.seeded(1, scored_with_reqs(
        "ddelta/dt = p0\ndomega/dt = p1", -2.0, [], scope, ["delta", "omega"]))
    added, ignored = extend_variables(archive, library, ds, model, top_k=3)
    assert added == ["i_d"]  # first catalog entry
    assert ignored == []


def test_extend_variables_catalog_exhausted():
    ds = swing_dataset(total_time=2.0)
    model = get_model("swing2")
    scope = SymbolScope(states=("delta", "omega"))
    library = VariableLibrary()
    for entry in model.catalog:
        library.add(entry)
    archive = Archive.seeded(1, scored_with_reqs(
        "ddelta/dt = p0\ndomega/dt = p1", -2.0, [], scope, ["delta", "omega"]))
    with pytest.raises(CatalogExhausted):
        extend_variables(archive, library, ds, model, top_k=3)


def test_extend_variables_respects_aliases_and_exclusions():
    ds = swing_dataset(total_time=2.0)
    model = get_model("swing2")
    scope = SymbolScope(states=("delta", "omega"))
    library = VariableLibrary()
    archive = Archive.seeded(1, scored_with_reqs(
        "ddelta/dt = p0\ndomega/dt = p1", -2.0, ["pe", "Pm"], scope, ["delta", "omega"]))
    added, _ = extend_variables(archive, library, ds, model, top_k=3,
                                excluded=("P_m",))
    assert added == ["P_e"]  # alias resolved; excluded input skipped


def test_extend_variables_admits_an_aliased_duplicate_once():
    ds = swing_dataset(total_time=2.0)
    model = get_model("swing2")
    scope = SymbolScope(states=("delta", "omega"))
    library = VariableLibrary()
    archive = Archive.seeded(1, scored_with_reqs(
        "ddelta/dt = p0\ndomega/dt = p1", -2.0, ["pe", "P_e"], scope, ["delta", "omega"]))
    added, ignored = extend_variables(archive, library, ds, model, top_k=3)
    assert added == ["P_e"]
    assert ignored == []
    assert library.names() == ("P_e",)


def test_extend_variables_falls_back_when_every_request_is_admitted():
    ds = swing_dataset(total_time=2.0)
    model = get_model("swing2")
    scope = SymbolScope(states=("delta", "omega"))
    library = VariableLibrary()
    for name in ("i_d", "P_e"):
        entry = model.catalog_entry(name)
        library.add(entry)
    archive = Archive.seeded(1, scored_with_reqs(
        "ddelta/dt = p0\ndomega/dt = p1", -2.0, ["P_e", "i_d"], scope, ["delta", "omega"]))
    added, ignored = extend_variables(archive, library, ds, model, top_k=3)
    assert added == ["i_q"]  # first catalog entry not yet admitted
    assert ignored == []
    assert library.names() == ("i_d", "P_e", "i_q")


# ------------------------------------------------------------------ full loops

def engine_with_script(batches, dataset=None, **config_overrides):
    dataset = dataset or swing_dataset()
    cfg = fast_config(**config_overrides)
    return DiscoveryEngine(dataset, MockBackend(batches), cfg)


def test_closed_loop_recovers_true_swing_structure():
    batches = [
        [fenced(DISTRACTORS[0]), DISTRACTORS[2]],
        [fenced(DISTRACTORS[1]), fenced(DISTRACTORS[3])],
        [fenced(TRUE_SWING)],
    ]
    engine = engine_with_script(batches)
    de = engine.run_de_loop()
    assert de.terminated
    assert de.best.canonical == TRUE_SWING.replace("(omega-1)", "(omega - 1)")
    assert de.best.score > -engine.config.gamma
    # termination happened via the score rule, not the budget
    assert len(de.history) - 1 < engine.config.de_max_iterations


def test_constant_only_mock_triggers_extension_at_earliest_window():
    # flat history forces the extension rule as soon as `window` increments exist
    batches = [[fenced("ddelta/dt = p0\ndomega/dt = p1")] for _ in range(8)]
    ds = swing_dataset(noise=0.01)  # measurement noise keeps every score <= -gamma
    engine = engine_with_script(batches, dataset=ds, de_max_iterations=6)
    de = engine.run_de_loop()
    extensions = [r for r in engine.run_log_
                  if r.get("loop") == "de" and r.get("added_variables")]
    assert extensions, "extension never fired"
    first = extensions[0]
    # earliest possible: the check that sees window increments (history 0..window)
    assert first["iteration"] == engine.config.window + 1
    assert first["added_variables"] == ["i_d"]  # fallback, catalog order
    assert "i_d" in de.library


def test_requirements_drive_extension_then_ae_loop():
    batches = [
        [fenced(DISTRACTORS[0], requirements=[{"name": "P_e", "justification": "power"}])],
        [fenced(DISTRACTORS[1], requirements=[{"name": "P_e"}])],
        [fenced(TRUE_SWING_PE)],  # consumed right after the extension fires
        [fenced(DISTRACTORS[1])],
        [fenced(TRUE_AE)],
    ]
    engine = engine_with_script(batches, window=2)
    engine.fit()
    de = engine.de_result_
    assert de.terminated
    assert de.best.canonical == TRUE_SWING_PE.replace("(omega-1)", "(omega - 1)")
    assert de.library.names() == ("P_e",)
    ae = engine.ae_result_
    assert ae is not None and engine.ae_skip_reason_ is None
    assert ae.target_names == ("P_e",)
    assert ae.terminated
    assert ae.best.canonical == "P_e = p0*sin(delta)"
    assert abs(ae.best.params[0] - 1.1 * 1.0 / 0.65) < 2e-3
    # consistency: AE references stay inside states + AE library
    refs = variables_in(ae.best.skeleton)
    allowed = set(engine.dataset.state_names) | set(ae.library.names())
    assert refs <= allowed
    # every AE target was referenced by the best DE skeleton
    assert set(ae.target_names) <= variables_in(de.best.skeleton)


def test_ae_skipped_when_de_uses_states_only():
    batches = [[fenced(TRUE_SWING)]]
    engine = engine_with_script(batches)
    engine.fit()
    assert engine.ae_result_ is None
    assert "no algebraic variables" in engine.ae_skip_reason_
    doc = engine.result_dict()
    assert "skipped" in doc["ae"]
    assert doc["de"]["text"] == TRUE_SWING.replace("(omega-1)", "(omega - 1)")


def test_zero_budget_returns_seed():
    engine = engine_with_script([[fenced(TRUE_SWING)]], de_max_iterations=0)
    de = engine.run_de_loop()
    assert not de.terminated
    assert de.library.names() == ()
    assert "p0*delta + p1*omega + p2" in de.best.canonical


def test_generation_exhausted_when_generator_never_answers():
    engine = engine_with_script([], de_max_iterations=3)
    with pytest.raises(GenerationExhausted):
        engine.run_de_loop()


def test_run_is_deterministic():
    batches = [
        [fenced(DISTRACTORS[0]), fenced(DISTRACTORS[1])],
        [fenced(TRUE_SWING)],
    ]
    logs = []
    for _ in range(2):
        engine = engine_with_script(batches)
        engine.fit()
        logs.append((json.dumps(engine.run_log_, sort_keys=True),
                     json.dumps(engine.result_dict(), sort_keys=True)))
    assert logs[0] == logs[1]


def test_fit_is_repeatable_on_the_same_engine():
    batches = [
        [fenced(DISTRACTORS[0], requirements=[{"name": "P_e"}])],
        [fenced(DISTRACTORS[1])],
        [fenced(DISTRACTORS[1])],
        [fenced(TRUE_SWING_PE)],
        [fenced(TRUE_AE)],
    ]
    engine = engine_with_script(batches, window=2)
    runs = []
    for _ in range(2):
        engine.backend = MockBackend(batches)
        engine.fit()
        runs.append((json.dumps(engine.run_log_, sort_keys=True),
                     json.dumps(engine.result_dict(), sort_keys=True)))
    assert runs[0] == runs[1]


def test_best_score_history_monotone():
    batches = [
        [fenced(DISTRACTORS[0])],
        [fenced(TRUE_SWING)],
        [fenced(DISTRACTORS[1])],
    ]
    engine = engine_with_script(batches)
    de = engine.run_de_loop()
    history = de.history
    assert all(b >= a for a, b in zip(history, history[1:]))


def test_rejected_candidates_logged_not_fatal():
    batches = [[DISTRACTORS[2], fenced(DISTRACTORS[3]), fenced(TRUE_SWING)]]
    engine = engine_with_script(batches, de_max_iterations=5)
    de = engine.run_de_loop()
    iteration_records = [r for r in engine.run_log_ if r.get("event") == "iteration"]
    assert iteration_records[0]["rejected"] == 2
    assert de.best.canonical == TRUE_SWING.replace("(omega-1)", "(omega - 1)")


def test_ae_targets_exclude_exogenous_inputs():
    # a differential system touching i_d, i_q, P_e and the inputs P_m, v_f
    # yields exactly the three algebraic variables as algebraic-loop targets
    scope = SymbolScope(states=("delta", "omega"),
                        variables=("i_d", "i_q", "P_e", "P_m", "v_f"))
    sk = parse("ddelta/dt = p0*(omega - 1)\n"
               "domega/dt = (P_m - p1*P_e - p2*i_d*i_q)/p3",
               scope, ["delta", "omega"], kind="de")
    params = np.zeros(sk.n_params)
    params.setflags(write=False)
    best = ScoredSkeleton(skeleton=sk, params=params, score=-0.001)
    library = VariableLibrary(entries=[
        CatalogEntry("i_d", "pu", "", "algebraic"),
        CatalogEntry("i_q", "pu", "", "algebraic"),
        CatalogEntry("P_e", "pu", "", "algebraic"),
        CatalogEntry("P_m", "pu", "", "input"),
        CatalogEntry("v_f", "pu", "", "input"),
    ])
    assert derive_ae_targets(best, library) == ("i_d", "i_q", "P_e")
    # states-only system: nothing to target
    sk2 = parse("ddelta/dt = p0*omega\ndomega/dt = p1*delta",
                scope, ["delta", "omega"], kind="de")
    best2 = ScoredSkeleton(skeleton=sk2, params=np.zeros(2), score=-1.0)
    assert derive_ae_targets(best2, library) == ()


def test_wallclock_budget_exceeded():
    engine = engine_with_script([[fenced(TRUE_SWING)]], max_seconds=0.0)
    with pytest.raises(BudgetExceeded):
        engine.run_de_loop()


def test_wallclock_budget_restarts_with_each_run(monkeypatch):
    # a run_de_loop() after fit() gets its own max_seconds, not fit()'s leftover
    clock = [100.0]
    monkeypatch.setattr(engine_module, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    engine = engine_with_script([[fenced(TRUE_SWING)]], max_seconds=2.0,
                                de_max_iterations=1, ae_max_iterations=0)
    engine.fit()
    clock[0] += 2.1
    engine.backend = MockBackend([[fenced(TRUE_SWING)]])
    engine.run_de_loop()


def test_a_refit_that_fails_leaves_no_results_behind():
    # a second fit() that raises must not pair the first run's results with
    # the new config and run log
    engine = engine_with_script([[fenced(TRUE_SWING)]], de_max_iterations=1,
                                ae_max_iterations=0)
    engine.fit()
    engine.result_dict()
    engine.config = replace(engine.config, max_seconds=0.0)
    engine.backend = MockBackend([[fenced(TRUE_SWING)]])
    with pytest.raises(BudgetExceeded):
        engine.fit()
    for name in ("de_result_", "ae_result_", "library_", "ae_skip_reason_"):
        assert not hasattr(engine, name)
    with pytest.raises(RuntimeError, match=r"call fit\(\) first"):
        engine.result_dict()


def test_a_refit_that_fails_in_the_algebraic_loop_leaves_no_results_behind():
    # the max_seconds budget spans both loops, so the algebraic loop can raise
    # after the differential loop has finished
    engine = engine_with_script([[fenced(TRUE_SWING)]], de_max_iterations=1,
                                ae_max_iterations=0)
    engine.fit()
    engine.backend = MockBackend([[fenced(TRUE_SWING)]])

    def over_budget(de):
        raise BudgetExceeded("run exceeded 0.0 s")

    engine._run_ae_loop = over_budget
    with pytest.raises(BudgetExceeded):
        engine.fit()
    for name in ("de_result_", "ae_result_", "library_", "ae_skip_reason_"):
        assert not hasattr(engine, name)
    with pytest.raises(RuntimeError, match=r"call fit\(\) first"):
        engine.result_dict()

# the first completion asks for P_e, the later ones use it
PE_SCRIPT = [
    [fenced(DISTRACTORS[0], requirements=[{"name": "P_e"}])],
    [fenced(DISTRACTORS[1])],
    [fenced(TRUE_SWING_PE)],
    [fenced(DISTRACTORS[1])],
    [fenced(TRUE_AE)],
]


def test_a_run_that_admits_signals_leaves_the_dataset_as_it_was():
    engine = engine_with_script(PE_SCRIPT, window=2)
    ds = engine.dataset
    columns = {"states": ds.states, "derivs": ds.derivs, "full": ds.full.columns}
    before = {kind: {name: values.copy() for name, values in cols.items()}
              for kind, cols in columns.items()}
    runs = []
    for _ in range(2):
        engine.backend = MockBackend(PE_SCRIPT)
        engine.fit()
        assert engine.library_.names() == ("P_e",)
        assert engine.ae_result_.target_names == ("P_e",)
        for kind, cols in columns.items():
            assert list(cols) == list(before[kind]), kind
            for name, values in cols.items():
                assert np.array_equal(values, before[kind][name]), (kind, name)
        runs.append((json.dumps(engine.run_log_, sort_keys=True),
                     json.dumps(engine.result_dict(), sort_keys=True)))
    assert runs[0] == runs[1]
    with pytest.raises(AttributeError):
        ds.states = {}  # frozen: nothing assigns to a built dataset


def test_each_loop_state_holds_the_columns_its_loop_fits_on():
    engine = engine_with_script(PE_SCRIPT, window=2)
    engine.fit()
    ds = engine.dataset
    visible = [*ds.states, *ds.derivs]
    de, ae = engine.de_result_, engine.ae_result_
    for state in (de, ae):
        assert isinstance(state, LoopState)
        assert state.scope.states == ds.state_names
        assert state.scope.variables == state.library.names()
        assert state.best.canonical == state.archive.best().canonical
    # the differential loop admitted P_e: its batch was rebuilt with it
    assert de.library.names() == ("P_e",) and de.signals == ()
    assert de.labels == tuple(deriv_name(s) for s in ds.state_names)
    assert list(de.batch.columns) == visible + ["P_e"]
    # the algebraic loop fits P_e to its own column and never admits it
    assert ae.target_names == ae.labels == ae.signals == ("P_e",)
    assert "P_e" not in ae.library
    assert list(ae.batch.columns) == visible + list(ae.library.names()) + ["P_e"]


def test_a_states_only_run_logs_the_skipped_algebraic_loop_last():
    engine = engine_with_script([[fenced(TRUE_SWING)]])
    engine.fit()
    de = engine.de_result_
    assert de.library.names() == () and de.scope.variables == ()
    assert list(de.batch.columns) == [*engine.dataset.states, *engine.dataset.derivs]
    assert engine.run_log_[-1] == {"loop": "ae", "event": "skipped",
                                   "reason": engine.ae_skip_reason_}


SEED_DE = ("ddelta/dt = p0*delta + p1*omega + p2\n"
           "domega/dt = p3*delta + p4*omega + p5")
# the algebraic loop's seed once P_e and then the fallback i_d are admitted
SEED_AE = "P_e = p0*delta + p1*omega + p2*i_d + p3"
FAULTING = "ddelta/dt = log(delta - 5)\ndomega/dt = p0"  # poisoned, quarantined

# every batch repeats a text: verbatim, with other spacing, or as the seed
DUPLICATE_TEXTS = [
    [DISTRACTORS[0], "ddelta/dt=p0 * delta\ndomega/dt  =  p1*omega", SEED_DE,
     FAULTING, FAULTING],
    [DISTRACTORS[1], DISTRACTORS[0], DISTRACTORS[1], FAULTING],
    [TRUE_SWING_PE, TRUE_SWING_PE.replace(" ", ""), DISTRACTORS[0]],
    [TRUE_SWING_PE, DISTRACTORS[1]],
    [TRUE_AE, "P_e = p0 * sin( delta )", SEED_AE],
    [TRUE_AE, "P_e = p0*delta"],
]
# distractors ask for P_e, so that every copy the archive keeps asks for it
DUPLICATE_SCRIPT = [
    [fenced(text, [{"name": "P_e"}] if text in DISTRACTORS else None) for text in batch]
    for batch in DUPLICATE_TEXTS]


def _canonical_script():
    """Each batch's completions as canonical text."""
    scope = SymbolScope(states=("delta", "omega"), variables=("P_e", "i_d"))
    out = []
    for batch in DUPLICATE_TEXTS:
        kind, targets = (("ae", ["P_e"]) if batch[0].startswith("P_e")
                         else ("de", ["delta", "omega"]))
        out.append([serialize(parse(t, scope, targets, kind)) for t in batch])
    return out


def _duplicate_run(monkeypatch, old_path):
    fitted = []
    real_fit = engine_module.fit_and_score

    def counting_fit(skeleton, *args, **kwargs):
        fitted.append(serialize(skeleton))
        return real_fit(skeleton, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "fit_and_score", counting_fit)
        if old_path:  # fit every candidate and let register drop duplicates
            patch.setattr(Island, "holds", lambda self, skeleton: False)
        engine = engine_with_script(
            DUPLICATE_SCRIPT, n_b=5, window=2, epsilon=1000.0, gamma=1e-12,
            de_max_iterations=4, ae_max_iterations=2,
            fit={"steps": 300, "learning_rate": 1.5, "restarts": 1, "seed": 0})
        engine.fit()
    assert engine.ae_result_ is not None
    archives = [json.dumps(r.archive.to_snapshot(r.kind, r.target_names, r.scope),
                           sort_keys=True)
                for r in (engine.de_result_, engine.ae_result_)]
    outputs = (json.dumps(engine.result_dict(), sort_keys=True),
               json.dumps(engine.run_log_, sort_keys=True), archives)
    return outputs, fitted, engine


def test_duplicate_skip_changes_nothing_but_the_fits(monkeypatch):
    outputs, fitted, engine = _duplicate_run(monkeypatch, old_path=False)
    old_outputs, old_fitted, _ = _duplicate_run(monkeypatch, old_path=True)
    assert outputs == old_outputs
    # one fit per loop seed, then one per distinct (island, text) in that loop
    iterations = [r for r in engine.run_log_ if r.get("event") == "iteration"]
    assert len(iterations) == len(DUPLICATE_SCRIPT)
    held: dict[tuple[str, int], set[str]] = {}
    expected = []
    for record, batch in zip(iterations, _canonical_script()):
        loop = record["loop"]
        seed = SEED_DE if loop == "de" else SEED_AE
        if not any(key[0] == loop for key in held):
            expected.append(seed)
        texts = held.setdefault((loop, record["island"]), {seed})
        for text in batch:
            if text not in texts:
                texts.add(text)
                expected.append(text)
    assert fitted == expected
    assert len(old_fitted) == 2 + sum(len(b) for b in DUPLICATE_SCRIPT)
    assert len(fitted) < len(old_fitted)


def test_run_config_validation():
    from daedisc.config import ConfigError

    with pytest.raises(ConfigError):  # gamma must not exceed epsilon
        RunConfig.from_dict({"epsilon": 0.01, "gamma": 0.02,
                             "generator": {"kind": "mock", "script": "s.json"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"islands": 0,
                             "generator": {"kind": "mock", "script": "s.json"}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"mystery_knob": 1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"generator": {"kind": "http"}})  # base_url missing
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"temperature": 0.0,
                             "generator": {"kind": "mock", "script": "s.json"}})
    cfg = RunConfig.from_dict({"generator": {"kind": "mock", "script": "s.json"},
                               "fit": {"steps": 100}})
    assert cfg.fit.steps == 100
    assert cfg.fit.learning_rate == 0.05  # untouched defaults survive


@pytest.mark.parametrize("data, message", [
    ({"islands": "3"}, "islands: expected an integer, got str"),
    ({"fit": {"steps": "10"}}, "fit: steps: expected an integer, got str"),
    ({"sampler": {"tau_cluster": "x"}}, "sampler: tau_cluster: expected a number, got str"),
    ({"temperature": True}, "temperature: expected a number, got bool"),
    ({"islands": 3.0}, "islands: expected an integer, got float"),
    ({"max_seconds": "60"}, "max_seconds: expected a number or null, got str"),
    ({"generator": {"kind": "mock", "script": 5}},
     "generator: script: expected a string or null, got int"),
], ids=["islands-string", "steps-string", "tau-string", "temperature-bool", "islands-float",
        "max-seconds-string", "script-number"])
def test_run_config_names_a_wrong_type(data, message):
    from daedisc.config import ConfigError

    with pytest.raises(ConfigError) as caught:
        RunConfig.from_dict({"generator": {"kind": "mock", "script": "s.json"}, **data})
    assert str(caught.value) == f"bad run config: {message}"


@pytest.mark.parametrize("data, message", [
    ({"fit": {"learning_rate": float("nan")}}, "fit: learning_rate: expected a finite number"),
    ({"epsilon": float("nan")}, "epsilon: expected a finite number"),
    ({"gamma": float("nan")}, "gamma: expected a finite number"),
    ({"max_seconds": float("nan")}, "max_seconds: expected a finite number or null"),
    ({"max_seconds": float("inf")}, "max_seconds: expected a finite number or null"),
    ({"temperature": float("inf")}, "temperature: expected a finite number"),
    ({"sampler": {"tau_cluster": float("-inf")}},
     "sampler: tau_cluster: expected a finite number"),
], ids=["learning-rate-nan", "epsilon-nan", "gamma-nan", "max-seconds-nan",
        "max-seconds-infinity", "temperature-infinity", "tau-cluster-minus-infinity"])
def test_run_config_rejects_a_non_finite_number(data, message):
    # Python's json reads NaN and Infinity; a config file must not slip them in
    from daedisc.config import ConfigError

    text = json.dumps({"generator": {"kind": "mock", "script": "s.json"}, **data})
    with pytest.raises(ConfigError) as caught:
        RunConfig.from_dict(json.loads(text))
    assert str(caught.value).startswith(f"bad run config: {message}, got ")
    cfg = RunConfig.from_dict({"generator": {"kind": "mock", "script": "s.json"},
                               "max_seconds": None})
    assert cfg.max_seconds is None  # null still turns the budget off


def test_run_config_rejects_a_negative_fit_seed():
    from daedisc.config import ConfigError

    with pytest.raises(ConfigError) as caught:
        RunConfig.from_dict({"generator": {"kind": "mock", "script": "s.json"},
                             "fit": {"seed": -2}})
    assert str(caught.value) == "bad run config: fit: seed must be >= 0, got -2"
    cfg = RunConfig.from_dict({"generator": {"kind": "mock", "script": "s.json"},
                               "fit": {"seed": 0}})
    assert cfg.fit.seed == 0


def test_run_config_takes_an_integer_for_a_float():
    cfg = RunConfig.from_dict({"temperature": 2, "max_seconds": 60,
                               "sampler": {"tau_cluster": 1},
                               "generator": {"kind": "mock", "script": "s.json"}})
    assert (cfg.temperature, cfg.max_seconds, cfg.sampler.tau_cluster) == (2, 60, 1)
