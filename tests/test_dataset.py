import io
import json
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from daedisc.benchmarks import (
    Disturbance, FullRecord, ScenarioConfig, get_model, simulate)
from daedisc.dataset import (
    SchemaMismatch,
    TrajectoryDataset,
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


# finite float64 values whose bits a decimal or lossy format could change
EDGE_VALUES = (-0.0, 5e-324, -2.2e-308, 1.7e308, -1.7e308, 0.1, 1.0 / 3.0)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 12), st.just(8)),
              elements=st.one_of(st.sampled_from(EDGE_VALUES),
                                 st.floats(allow_nan=False, allow_infinity=False))))
def test_export_import_roundtrip_is_bit_equal(table):
    # columns: t, delta, omega, ddelta_dt, domega_dt, then P_e, i_d, P_m of
    # the full record, whose own states are delta and omega again
    cols = list(table.T)
    full = FullRecord(model_id="swing2", time=cols[0],
                      columns=dict(zip(("delta", "omega", "P_e", "i_d", "P_m"),
                                       cols[1:3] + cols[5:])),
                      state_names=("delta", "omega"), scenario={})
    ds = TrajectoryDataset(time=cols[0], states={"delta": cols[1], "omega": cols[2]},
                           derivs={"ddelta_dt": cols[3], "domega_dt": cols[4]},
                           full=full)
    with tempfile.TemporaryDirectory() as tmp:
        export_dataset(ds, Path(tmp) / "train")
        again = import_dataset(Path(tmp) / "train")
    pairs = [(again.time, ds.time), (again.full.time, full.time)]
    pairs += [(again.states[n], ds.states[n]) for n in ds.states]
    pairs += [(again.derivs[n], ds.derivs[n]) for n in ds.derivs]
    pairs += [(again.full.columns[n], full.columns[n]) for n in full.columns]
    assert list(again.full.columns) == list(full.columns)
    for got, want in pairs:
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _exported(tmp_path):
    ds, _, _ = _dataset(total_time=1.0)
    prefix = tmp_path / "train"
    export_dataset(ds, prefix)
    return ds, prefix


def test_import_missing_column_is_schema_mismatch(tmp_path):
    _, prefix = _exported(tmp_path)
    path = prefix.with_suffix(".npy")
    np.save(path, np.delete(np.load(path), 4, axis=1))  # no domega_dt
    with pytest.raises(SchemaMismatch, match=r"train\.npy: 4 columns, the sidecar names 5"):
        import_dataset(prefix)


def test_import_full_record_of_the_wrong_width_is_schema_mismatch_naming_the_file(tmp_path):
    _, prefix = _exported(tmp_path)
    path = tmp_path / "train.full.npy"
    table = np.load(path)
    np.save(path, np.column_stack([table, table[:, -1]]))
    with pytest.raises(SchemaMismatch, match=r"train\.full\.npy: 8 columns, the sidecar names 7"):
        import_dataset(prefix)


def test_import_header_only_gives_empty_columns(tmp_path):
    # a (0, k) table is a dataset of no samples, as a header-only CSV was
    ds, prefix = _exported(tmp_path)
    np.save(prefix.with_suffix(".npy"), np.empty((0, 5)))
    again = import_dataset(prefix)
    assert again.time.shape == (0,)
    for column in (*again.states.values(), *again.derivs.values()):
        assert column.shape == (0,) and column.dtype == np.float64
    assert np.array_equal(again.full.time, ds.full.time)


@pytest.mark.parametrize("version", [1, 3, None])
def test_import_refuses_a_sidecar_of_another_version(tmp_path, version):
    _, prefix = _exported(tmp_path)
    meta_path = prefix.with_suffix(".meta.json")
    meta = json.loads(meta_path.read_text())
    if version is None:
        del meta["version"]
    else:
        meta["version"] = version
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(SchemaMismatch, match=r"train\.meta\.json: dataset version "
                                             r".*as CSV: rerun `daedisc gen-data`"):
        import_dataset(prefix)


@pytest.mark.parametrize("name", ["train.npy", "train.full.npy"])
def test_import_refuses_a_missing_table(tmp_path, name):
    _, prefix = _exported(tmp_path)
    (tmp_path / name).unlink()
    with pytest.raises(SchemaMismatch, match=f"missing table .*{name}"):
        import_dataset(prefix)


def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


def _npz_bytes():
    buf = io.BytesIO()
    np.savez(buf, table=np.zeros((3, 5)))
    return buf.getvalue()


@pytest.mark.parametrize("content", [
    pytest.param(lambda good: good[:-8], id="truncated-data"),
    pytest.param(lambda good: good[:40], id="truncated-header"),
    pytest.param(lambda good: b"", id="empty"),
    pytest.param(lambda good: b"t,delta,omega,ddelta_dt,domega_dt\n0.0,1,2,3,4\n", id="csv"),
    pytest.param(lambda good: _npz_bytes(), id="npz"),
    pytest.param(lambda good: pickle.dumps(np.zeros((3, 5))), id="pickle"),
    pytest.param(lambda good: _npy_bytes(np.array([[0.0, "x"]] * 3, dtype=object)),
                 id="object-array"),
])
def test_import_refuses_a_file_np_load_refuses(tmp_path, content):
    _, prefix = _exported(tmp_path)
    path = prefix.with_suffix(".npy")
    path.write_bytes(content(path.read_bytes()))
    with pytest.raises(SchemaMismatch, match=r"train\.npy: "):
        import_dataset(prefix)


@pytest.mark.parametrize("table", [
    pytest.param(np.zeros(5), id="1-d"),
    pytest.param(np.zeros((2, 3, 5)), id="3-d"),
    pytest.param(np.zeros((3, 5), dtype=np.float32), id="float32"),
    pytest.param(np.zeros((3, 5), dtype=np.int64), id="int64"),
    pytest.param(np.zeros((3, 5), dtype=">f8"), id="big-endian"),
])
def test_import_refuses_a_table_that_is_not_2d_float64(tmp_path, table):
    _, prefix = _exported(tmp_path)
    np.save(tmp_path / "train.full.npy", table)
    with pytest.raises(SchemaMismatch, match=r"train\.full\.npy: expected a 2-D float64 table"):
        import_dataset(prefix)


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
    # the sidecar names the columns: t, the states in order, their derivatives
    ds, _, _ = _dataset()
    export_dataset(ds, tmp_path / "d")
    meta = json.loads((tmp_path / "d.meta.json").read_text())
    assert meta["states"] == ["delta", "omega"]
    table = np.load(tmp_path / "d.npy", allow_pickle=False)
    expected = [ds.time, ds.states["delta"], ds.states["omega"],
                ds.derivs["ddelta_dt"], ds.derivs["domega_dt"]]
    assert table.shape[1] == len(expected)
    for i, column in enumerate(expected):
        assert np.array_equal(table[:, i], column)


def test_central_difference_quadratic_exact():
    t = np.linspace(0.0, 1.0, 101)
    y = 3.0 * t * t + 2.0 * t + 1.0
    d = central_difference(y, t[1] - t[0])
    np.testing.assert_allclose(d[1:-1], 6.0 * t[1:-1] + 2.0, rtol=0, atol=1e-9)
