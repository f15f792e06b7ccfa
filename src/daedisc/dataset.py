"""Trajectory datasets: noisy training views over a hidden full record.

A dataset holds the state trajectories and their numerically differentiated
derivatives as its visible columns, next to the hidden (noiseless) full
record of every catalog signal.  A dataset never changes once built: a
discovery run asks ``to_batch`` for the visible columns plus the hidden
columns of the signals it has admitted.  Noise is Gaussian with a per-state
standard deviation of ``noise_sigma`` times the signal amplitude, where
amplitude means the max absolute value over the record.  Derivatives come
from central differences on the noisy states with one-sided differences at
the endpoints.

CSV export writes the visible columns plus the full record and a JSON
metadata sidecar; import reproduces every value exactly (floats serialized
with ``repr``).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .benchmarks import FullRecord, ScenarioConfig
from .evaluator import SampleBatch


class UnknownSignal(KeyError):
    pass


class SchemaMismatch(ValueError):
    pass


def central_difference(values: np.ndarray, dt: float) -> np.ndarray:
    """Central differences inside, one-sided at both endpoints."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    out[0] = (values[1] - values[0]) / dt
    out[-1] = (values[-1] - values[-2]) / dt
    return out


def deriv_name(state: str) -> str:
    return f"d{state}_dt"


@dataclass(frozen=True)
class TrajectoryDataset:
    """Visible training columns plus a handle on the hidden full record."""

    time: np.ndarray
    states: dict[str, np.ndarray]
    derivs: dict[str, np.ndarray]
    full: FullRecord
    metadata: dict = field(default_factory=dict)

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(self.states)

    @property
    def n_samples(self) -> int:
        return int(self.time.shape[0])

    def to_batch(self, names=()) -> SampleBatch:
        """The visible columns plus the named catalog signals from the hidden
        record; a state or a name the record lacks raises UnknownSignal."""
        for name in names:
            if name not in self.full.columns or name in self.full.state_names:
                raise UnknownSignal(name)
        return SampleBatch.from_columns(
            {**self.states, **self.derivs, **{n: self.full.columns[n] for n in names}})


def make_dataset(record: FullRecord, scen: ScenarioConfig) -> TrajectoryDataset:
    """Noisy training view of a simulation record.

    Noise is applied to state trajectories only; derivative columns are
    central differences of the noisy states.  Deterministic in
    (record, scenario, seed).
    """
    rng = np.random.default_rng(scen.seed)
    dt = record.dt
    states: dict[str, np.ndarray] = {}
    derivs: dict[str, np.ndarray] = {}
    for name in record.state_names:
        clean = record.columns[name]
        amplitude = float(np.max(np.abs(clean)))
        sigma = scen.noise_sigma * amplitude
        noisy = clean + rng.normal(0.0, sigma, clean.shape) if sigma > 0 else clean.copy()
        states[name] = noisy
        derivs[deriv_name(name)] = central_difference(noisy, dt)
    return TrajectoryDataset(
        time=record.time.copy(), states=states, derivs=derivs, full=record,
        metadata={"model": record.model_id, "scenario": record.scenario,
                  "seed": scen.seed})


# ---------------------------------------------------------------------------
# CSV + sidecar persistence


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])


def _read_csv(path: Path) -> tuple[list[str], dict[str, np.ndarray]]:
    with path.open("r", newline="") as fh:
        line = fh.readline()
        if not line:
            raise SchemaMismatch(f"{path} is empty")
        header = next(csv.reader([line]))
        body = fh.tell()
        if fh.read(1):
            fh.seek(body)
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            except ValueError as exc:  # a ragged row or a value that is not a number
                raise SchemaMismatch(f"{path}: {exc}") from None
        else:
            data = np.empty((0, len(header)))
    if data.shape[1] != len(header):
        raise SchemaMismatch(f"{path}: row width does not match header")
    return header, {name: data[:, i] for i, name in enumerate(header)}


def export_dataset(dataset: TrajectoryDataset, prefix: str | Path) -> None:
    """Write ``<prefix>.csv``, ``<prefix>.full.csv`` and ``<prefix>.meta.json``."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    states = list(dataset.states)
    header = ["t"] + states + [deriv_name(s) for s in states]
    columns = ([dataset.time] + [dataset.states[s] for s in states]
               + [dataset.derivs[deriv_name(s)] for s in states])
    _write_csv(prefix.with_suffix(".csv"), header, columns)
    full = dataset.full
    _write_csv(Path(str(prefix) + ".full.csv"), ["t"] + list(full.columns),
               [full.time] + [full.columns[n] for n in full.columns])
    meta = {
        "format": "daedisc-dataset",
        "version": 1,
        "model": dataset.metadata.get("model"),
        "scenario": dataset.metadata.get("scenario"),
        "seed": dataset.metadata.get("seed"),
        "states": states,
        "full_columns": list(full.columns),
        "full_states": list(full.state_names),
    }
    prefix.with_suffix(".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))


def _read_sidecar(prefix: Path) -> dict:
    meta_path = prefix.with_suffix(".meta.json")
    if not meta_path.exists():
        raise SchemaMismatch(f"missing sidecar {meta_path}")
    meta = json.loads(meta_path.read_text())
    if meta.get("format") != "daedisc-dataset":
        raise SchemaMismatch("sidecar is not a dataset descriptor")
    if meta.get("full_columns") is None or meta.get("full_states") is None:
        raise SchemaMismatch("sidecar does not describe the full record")
    return meta


def import_record(prefix: str | Path) -> FullRecord:
    """The hidden full record alone: ``<prefix>.full.csv`` and its sidecar."""
    prefix = Path(prefix)
    meta = _read_sidecar(prefix)
    full_path = Path(str(prefix) + ".full.csv")
    if not full_path.exists():
        raise SchemaMismatch(f"missing full record {full_path}")
    full_header, full_data = _read_csv(full_path)
    if full_header != ["t"] + meta["full_columns"]:
        raise SchemaMismatch("full record columns do not match sidecar")
    return FullRecord(
        model_id=meta["model"], time=full_data["t"],
        columns={n: full_data[n] for n in meta["full_columns"]},
        state_names=tuple(meta["full_states"]), scenario=meta["scenario"])


def import_dataset(prefix: str | Path) -> TrajectoryDataset:
    prefix = Path(prefix)
    meta = _read_sidecar(prefix)
    header, data = _read_csv(prefix.with_suffix(".csv"))
    states = meta["states"]
    expected = ["t"] + states + [deriv_name(s) for s in states]
    if header != expected:
        raise SchemaMismatch(
            f"column order mismatch: expected {expected}, found {header}")
    return TrajectoryDataset(
        time=data["t"],
        states={s: data[s] for s in states},
        derivs={deriv_name(s): data[deriv_name(s)] for s in states},
        full=import_record(prefix),
        metadata={"model": meta["model"], "scenario": meta["scenario"],
                  "seed": meta["seed"]},
    )
