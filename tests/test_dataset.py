import json

import numpy as np
import pytest

from daedisc.benchmarks import Disturbance, ScenarioConfig, get_model, simulate
from daedisc.dataset import (
    SchemaMismatch,
    UnknownSignal,
    central_difference,
    export_dataset,
    import_dataset,
    make_dataset,
)

KICK = Disturbance(kind="state_kick", magnitude=1.0,
                   offsets=(("delta", 0.4), ("omega", 0.003)))


def _dataset(noise=0.0, seed=0, model_id="swing2", total_time=5.0):
    model = get_model(model_id)
    scen = ScenarioConfig(total_time=total_time, dt=0.01, noise_sigma=noise,
                          seed=seed, disturbance=KICK)
    record = simulate(model, scen)
    return make_dataset(record, scen), record, model


def test_noiseless_diff_matches_analytic_rhs():
    ds, record, model = _dataset(noise=0.0)
    # exact derivatives from the model equations along the trajectory
    n = record.n_samples
    for j, state in enumerate(model.state_names):
        exact = np.empty(n)
        for i in range(n):
            x = np.array([record.columns[s][i] for s in model.state_names])
            exact[i] = model.rhs(x, {"P_m": record.columns["P_m"][i]})[j]
        approx = ds.derivs[f"d{state}_dt"]
        scale = np.max(np.abs(exact))
        rel = np.abs(approx[1:-1] - exact[1:-1]) / max(scale, 1e-12)
        assert rel.max() < 1e-3


def test_constant_state_has_zero_interior_derivative():
    model = get_model("swing2")
    scen = ScenarioConfig(total_time=2.0, dt=0.01, noise_sigma=0.0, seed=0)
    ds = make_dataset(simulate(model, scen), scen)
    for name in ("ddelta_dt", "domega_dt"):
        assert np.max(np.abs(ds.derivs[name][1:-1])) < 1e-9


def test_noise_is_seed_deterministic():
    a, _, _ = _dataset(noise=0.01, seed=5)
    b, _, _ = _dataset(noise=0.01, seed=5)
    c, _, _ = _dataset(noise=0.01, seed=6)
    assert np.array_equal(a.states["delta"], b.states["delta"])
    assert not np.array_equal(a.states["delta"], c.states["delta"])


def test_noise_amplitude_rule():
    ds, record, _ = _dataset(noise=0.01, seed=1, total_time=10.0)
    clean = record.columns["delta"]
    sigma_target = 0.01 * np.max(np.abs(clean))
    residual = ds.states["delta"] - clean
    assert abs(residual.std() - sigma_target) < 0.1 * sigma_target


def test_reveal_flow():
    ds, record, _ = _dataset()
    assert set(ds.to_batch().columns) == {"delta", "omega", "ddelta_dt", "domega_dt"}
    batch = ds.to_batch(["i_d"])
    assert set(batch.columns) == {"delta", "omega", "ddelta_dt", "domega_dt", "i_d"}
    assert np.array_equal(batch.column("i_d"), record.columns["i_d"])


@pytest.mark.parametrize("names", [["stator_flux"], ["delta"], ["P_e", "omega"], ["t"]],
                         ids=["unknown", "state", "state-after-signal", "time"])
def test_to_batch_refuses_what_is_no_catalog_signal(names):
    # the hidden record holds the noiseless states too, but they are not
    # catalog signals: a run sees only their noisy columns
    ds, _, _ = _dataset(total_time=1.0)
    with pytest.raises(UnknownSignal, match=names[-1]):
        ds.to_batch(names)


def test_reveal_pe_closes_loop_with_true_skeleton():
    # with P_e from the hidden record, the exact swing structure reproduces
    # the omega derivative up to differentiation error
    from daedisc.dsl import SymbolScope, parse
    from daedisc.evaluator import evaluate

    ds, record, model = _dataset(noise=0.0)
    batch = ds.to_batch(["P_e"])
    scope = SymbolScope(states=("delta", "omega"), variables=("P_e",))
    sk = parse("domega/dt = (p0 - P_e - p1*(omega - 1))/p2", scope, ["omega"], kind="de")
    p = [model.default_inputs["P_m"], model.params["damping"], 2.0 * model.params["inertia"]]
    res = evaluate(sk, p, batch)
    resid = res.outputs[0][1:-1] - ds.derivs["domega_dt"][1:-1]
    assert np.max(np.abs(resid)) / np.max(np.abs(ds.derivs["domega_dt"])) < 1e-3


def test_export_import_roundtrip(tmp_path):
    ds, _, _ = _dataset(noise=0.01, seed=3)
    prefix = tmp_path / "train"
    export_dataset(ds, prefix)
    again = import_dataset(prefix)
    assert np.array_equal(again.time, ds.time)
    for name in ds.states:
        assert np.array_equal(again.states[name], ds.states[name])
    for name in ds.derivs:
        assert np.array_equal(again.derivs[name], ds.derivs[name])
    # the hidden record survives, so a run on the import reads the same signals
    for name in ds.full.columns:
        assert np.array_equal(again.full.columns[name], ds.full.columns[name])
    assert np.array_equal(again.to_batch(["i_d"]).column("i_d"), ds.full.columns["i_d"])
    assert again.metadata["model"] == "swing2"


def test_import_missing_column_is_schema_mismatch(tmp_path):
    ds, _, _ = _dataset()
    prefix = tmp_path / "train"
    export_dataset(ds, prefix)
    csv_path = prefix.with_suffix(".csv")
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    keep = [i for i in range(len(header)) if header[i] != "domega_dt"]
    slim = "\n".join(",".join(line.split(",")[i] for i in keep) for line in lines)
    csv_path.write_text(slim + "\n")
    with pytest.raises(SchemaMismatch):
        import_dataset(prefix)


def test_import_ragged_row_is_schema_mismatch_naming_the_file(tmp_path):
    ds, _, _ = _dataset()
    prefix = tmp_path / "train"
    export_dataset(ds, prefix)
    csv_path = prefix.with_suffix(".csv")
    lines = csv_path.read_text().splitlines()
    lines[7] = lines[7].rsplit(",", 1)[0]  # one value short of the header
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaMismatch, match="train.csv"):
        import_dataset(prefix)


def test_import_header_only_gives_empty_columns(tmp_path):
    ds, _, _ = _dataset()
    prefix = tmp_path / "train"
    export_dataset(ds, prefix)
    csv_path = prefix.with_suffix(".csv")
    csv_path.write_text(csv_path.read_text().splitlines()[0] + "\n")
    again = import_dataset(prefix)
    assert again.time.shape == (0,)
    for column in (*again.states.values(), *again.derivs.values()):
        assert column.shape == (0,) and column.dtype == np.float64
    assert np.array_equal(again.full.time, ds.full.time)


def test_import_ignores_a_revealed_list_in_the_sidecar(tmp_path):
    # older sidecars carry an empty "revealed" list: gen-data wrote one for
    # every split
    ds, _, _ = _dataset(total_time=1.0)
    prefix = tmp_path / "train"
    export_dataset(ds, prefix)
    meta_path = prefix.with_suffix(".meta.json")
    meta = json.loads(meta_path.read_text())
    assert "revealed" not in meta
    meta_path.write_text(json.dumps({**meta, "revealed": []}, indent=2, sort_keys=True))
    again = import_dataset(prefix)
    assert again.state_names == ds.state_names
    for name in ds.states:
        assert np.array_equal(again.states[name], ds.states[name])
    assert list(again.full.columns) == list(ds.full.columns)


def test_import_without_full_record_is_schema_mismatch(tmp_path):
    ds, _, _ = _dataset()
    prefix = tmp_path / "train"
    export_dataset(ds, prefix)
    meta_path = prefix.with_suffix(".meta.json")
    meta = json.loads(meta_path.read_text())
    meta["full_columns"] = None
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(SchemaMismatch):
        import_dataset(prefix)


def test_header_order_fixed(tmp_path):
    ds, _, _ = _dataset()
    export_dataset(ds, tmp_path / "d")
    header = (tmp_path / "d.csv").read_text().splitlines()[0]
    assert header == "t,delta,omega,ddelta_dt,domega_dt"


def test_central_difference_quadratic_exact():
    t = np.linspace(0.0, 1.0, 101)
    y = 3.0 * t * t + 2.0 * t + 1.0
    d = central_difference(y, t[1] - t[0])
    np.testing.assert_allclose(d[1:-1], 6.0 * t[1:-1] + 2.0, rtol=0, atol=1e-9)
