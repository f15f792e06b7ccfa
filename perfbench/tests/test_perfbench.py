"""Tests of the benchmark's own pieces: input generator, tracer, checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import math

import pytest

from perfbench import clock, inputs, tracer as tr, workloads as wl


def _files(path):
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    a = inputs.write_inputs(workload, 7, tmp_path / "a")
    b = inputs.write_inputs(workload, 7, tmp_path / "b")
    c = inputs.write_inputs(workload, 8, tmp_path / "c")
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_candidate_mix_is_the_same_size_for_every_seed(tmp_path):
    counts = {json.dumps(inputs.write_inputs("search_order5", s, tmp_path / str(s))["mix"]
                         ["de"]["counts"], sort_keys=True) for s in range(5)}
    assert len(counts) == 1


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    spans = [tr.Span("root", 0.0, 10.0), tr.Span("a", 1.0, 4.0, parent=0),
             tr.Span("c", 2.0, 3.0, parent=1), tr.Span("b", 5.0, 9.0, parent=0)]
    assert tr.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    m = tr.layer_metrics([tr.Span("fitting.fit_and_score", 0.0, 2.0, note=False),
                          tr.Span("evaluator.fit", 0.5, 1.0, parent=0, note=(100, False)),
                          tr.Span("evaluator.fit", 1.0, 1.5, parent=0, note=(100, True))],
                         fit_steps=2, fit_restarts=1)
    assert m["fitting.fit_and_score.self_s"] == 1.0
    assert m["evaluator.fit.calls"] == 2 and m["evaluator.fit.faults"] == 1
    assert math.isclose(m["evaluator.fit.ns_per_sample_node"], 1.0 / 200 * 1e9)
    assert m["fitting.us_per_restart_step"] == 1e6


def test_tracer_restores_every_original():
    import daedisc.engine as engine
    from daedisc.archive import Archive

    before = (engine.fit_and_score, Archive.__dict__["register"])
    tracer = tr.Tracer()
    with tr.installed(tracer):
        assert engine.fit_and_score is not before[0]
    assert (engine.fit_and_score, Archive.__dict__["register"]) == before


def _replay(tmp_path, doc, machine):
    from daedisc.cli import main as cli_main

    seed = wl.DEFAULT_SEED
    inputs.write_inputs("replay_baseline", seed, tmp_path / "inputs")
    with pytest.raises(SystemExit) as done:
        cli_main(["gen-data", "--model", machine, "--scenario",
                  str(tmp_path / "inputs" / f"scen_{machine}.json"),
                  "--out", str(tmp_path / "data" / machine)])
    assert done.value.code == 0
    (tmp_path / "model.json").write_text(json.dumps(doc))
    cmd = wl.Command("evaluate:swing2_analytic", "evaluate",
                     ("evaluate", "--model", str(tmp_path / "model.json"),
                      "--data", str(tmp_path / "data" / machine),
                      "--out", str(tmp_path / "report.json")),
                     tmp_path / "report.json", analytic=True)
    with pytest.raises(SystemExit) as done:
        cli_main(list(cmd.args))
    assert done.value.code == 0
    return cmd, wl.summarize(cmd)


def test_checker_rejects_one_perturbed_parameter(tmp_path):
    doc = inputs.analytic_model("swing2")
    cmd, good = _replay(tmp_path / "good", doc, "swing2")
    assert wl.check_invariants("replay_baseline", cmd, good, None) == []
    reference = wl.load_reference("replay_baseline")["summaries"][cmd.key]
    assert wl.compare(good, reference, "reference") == []

    doc["de"]["params"][1] *= 1.05  # damping
    cmd, bad = _replay(tmp_path / "bad", doc, "swing2")
    assert wl.compare(bad, reference, "reference")
    doc["de"]["params"][0] *= 1.05  # base speed
    cmd, worse = _replay(tmp_path / "worse", doc, "swing2")
    assert wl.check_invariants("replay_baseline", cmd, worse, None)


def test_checker_rejects_a_discovered_model_with_one_perturbed_parameter():
    summary = json.loads(json.dumps(
        wl.load_reference("fit_swing2")["summaries"]["discover"]))
    reference = wl.load_reference("fit_swing2")["summaries"]["discover"]
    assert wl.compare(summary, reference, "reference") == []
    summary["de"]["params"][2] *= 1.0 + 1e-4
    assert wl.compare(summary, reference, "reference") == ["de differs from the reference"]


def test_speed_clock_is_monotonic_and_leaves_out_probe_time():
    import time

    readings = []
    with clock.SpeedClock(period=0.01) as speed:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            readings.append(speed.now())
            sum(range(200))
    assert readings[0] >= 0.0 and readings[-1] > readings[0]
    assert all(b >= a for a, b in zip(readings, readings[1:]))
    assert speed.probe_s > 0.0
