"""Command-line pipeline: data generation, discovery, baseline, evaluation.

Every command writes data to files and logs to stderr; failures exit nonzero
with one machine-readable JSON error object on stderr.  ``discover`` and
``baseline`` each write a ``daedisc-model`` document, which ``evaluate``
reads through ``sindy.load_model`` and replays.

    daedisc gen-data  --model swing2 --scenario scen.json --out data/
    daedisc discover  --config run.json --data data/ --out run1/
    daedisc baseline  --variant accurate --data data/ --out run2/
    daedisc evaluate  --model run1/model.json --data data/ --out run1/report.json
    daedisc report    run1 run2 --out comparison.json
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from .benchmarks import get_model, model_ids, simulate
from .config import ConfigError, RunConfig, load_scenarios
from .dataset import deriv_name, export_dataset, import_dataset, import_record
from .engine import DiscoveryEngine
from .fitting import read_json
from .metrics import build_report, merge_reports
from .sindy import fit_baseline, load_model, save_model, simulate_identified

logger = logging.getLogger("daedisc")


def _fail(message: str, **details) -> None:
    payload = {"error": {"message": message, **details}}
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(1)


def _guard(fn):
    """Uniform failure envelope for command bodies."""
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SystemExit:
            raise
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            _fail(str(exc), type=type(exc).__name__)

    return wrapper


@click.group()
@click.option("--verbose", is_flag=True, help="debug logging to stderr")
def main(verbose: bool):
    """Dynamic-model discovery toolkit."""
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")


@main.command("gen-data")
@click.option("--model", "model_id", required=True,
              type=click.Choice(sorted(model_ids())))
@click.option("--scenario", "scenario_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_guard
def gen_data(model_id: str, scenario_path: str, out_dir: str):
    """Simulate train/test scenarios and write .npy datasets."""
    from .dataset import make_dataset

    scenarios = load_scenarios(scenario_path)
    model = get_model(model_id)
    # every split is built before --out is made, so a split that fails to
    # simulate leaves no file of the others behind
    datasets = {split: make_dataset(simulate(model, scen), scen)
                for split, scen in scenarios.items()}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for split, dataset in datasets.items():
        export_dataset(dataset, out / split)
        logger.info("%s: %d samples -> %s", split, dataset.n_samples, out / f"{split}.npy")
    click.echo(json.dumps({"ok": True, "model": model_id, "out": str(out)},
                          sort_keys=True))


@main.command("discover")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_dir", required=True, type=click.Path(file_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@_guard
def discover(config_path: str, data_dir: str, out_dir: str):
    """Run the differential and algebraic discovery loops."""
    cfg = RunConfig.from_file(config_path)
    dataset = import_dataset(Path(data_dir) / "train")
    if cfg.benchmark and cfg.benchmark != dataset.metadata.get("model"):
        raise ConfigError(
            f"config benchmark {cfg.benchmark!r} does not match dataset "
            f"{dataset.metadata.get('model')!r}")
    backend = cfg.generator.build(base_dir=Path(config_path).parent)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    engine = DiscoveryEngine(dataset, backend, cfg)
    engine.fit()
    with (out / "run_log.jsonl").open("w") as fh:
        for record in engine.run_log_:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    doc = engine.result_dict()
    (out / "model.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    for state in (engine.de_result_, engine.ae_result_):
        if state is not None:
            state.archive.save(out / f"archive_{state.kind}.json", state.kind,
                               state.target_names, state.scope)
    logger.info("best DE score %.6g; AE %s", doc["de"]["score"],
                "skipped" if "skipped" in doc["ae"] else f"score {doc['ae']['score']:.6g}")
    click.echo(json.dumps({"ok": True, "model_file": str(out / "model.json"),
                           "de_score": doc["de"]["score"]}, sort_keys=True))


@main.command("baseline")
@click.option("--variant", required=True,
              type=click.Choice(["accurate", "overcomplete", "missing"]))
@click.option("--data", "data_dir", required=True, type=click.Path(file_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--threshold", default=0.05, show_default=True)
@click.option("--iters", default=10, show_default=True)
@click.option("--exclude", "excluded", multiple=True,
              help="variables removed, only with --variant missing, each one "
                   "a feature (default: the model's algebraic signals)")
@_guard
def baseline(variant: str, data_dir: str, out_dir: str, threshold: float,
             iters: int, excluded: tuple[str, ...]):
    """Sparse-regression baseline over the complete variable set."""
    dataset = import_dataset(Path(data_dir) / "train")
    model = get_model(dataset.metadata["model"])
    core_algebraic = tuple(n for n in model.core_variable_names
                           if n not in model.input_names)
    if variant == "missing" and not excluded:
        excluded = core_algebraic
    full = dataset.full.columns
    features = {**dataset.states,  # noisy states, as trained on
                **{name: full[name] for name in model.core_variable_names}}
    targets = {deriv_name(s): dataset.derivs[deriv_name(s)] for s in dataset.state_names}
    fitted, record = fit_baseline(features, targets, model.state_names, variant, threshold,
                                  iters, excluded)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "model.json"
    save_model(fitted, record, model, path)
    active = fitted.skeleton.n_params
    logger.info("%s: %d active terms, ridge_fallback=%s", variant, active,
                record["ridge_fallback"])
    click.echo(json.dumps({"ok": True, "model_file": str(path),
                           "active_terms": active}, sort_keys=True))


@main.command("evaluate")
@click.option("--model", "model_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--data", "data_dir", required=True, type=click.Path(file_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--use-ae", is_flag=True,
              help="substitute the discovered algebraic model for recorded signals")
@_guard
def evaluate_cmd(model_path: str, data_dir: str, out_path: str, use_ae: bool):
    """Replay an identified model on the held-out test record and score it."""
    record = import_record(Path(data_dir) / "test")
    model, ae_model = load_model(model_path, record.state_names)
    if use_ae and ae_model is None:
        raise ValueError("--use-ae: the model file has no algebraic part")
    replay = simulate_identified(model, record, ae_model if use_ae else None)
    truth = {name: record.columns[name] for name in record.state_names}
    report = build_report(truth, replay.states, replay.n_valid, replay.diverged,
                          metadata={"model_file": str(model_path),
                                    "benchmark": record.model_id,
                                    "replay_mode": "ae_model" if use_ae else "recorded"})
    Path(out_path).write_text(json.dumps(report, indent=2, sort_keys=True))
    logger.info("aggregate MAPE %.4f%%, R2 %.4f, diverged=%s",
                report["aggregate"]["mape_pct"], report["aggregate"]["r2"],
                report["diverged"])
    click.echo(json.dumps({"ok": True, "report": str(out_path),
                           "mape_pct": report["aggregate"]["mape_pct"],
                           "r2": report["aggregate"]["r2"]}, sort_keys=True))


@main.command("report")
@click.argument("runs", nargs=-1, required=True,
                type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", default="comparison.json", show_default=True,
              type=click.Path(dir_okay=False))
@_guard
def report_cmd(runs: tuple[str, ...], out_path: str):
    """Merge per-run report.json files into one comparison table."""
    named = {}
    for run_dir in runs:
        path, name = Path(run_dir) / "report.json", Path(run_dir).name
        if name in named:
            raise ValueError(f"run {run_dir} has the name {name!r} of an earlier run; "
                             "runs are keyed by their directory's name")
        if not path.exists():
            raise FileNotFoundError(f"{path} missing (run `daedisc evaluate` first)")
        named[name] = read_json(path)
    table, merged = merge_reports(named)
    Path(out_path).write_text(json.dumps(merged, indent=2, sort_keys=True))
    click.echo(table)


if __name__ == "__main__":
    main()
