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

Export writes two native float64 ``.npy`` tables, the visible columns and
the full record, plus a JSON sidecar that names their columns; import
reproduces every value bit for bit and refuses a table that does not match
its sidecar.
"""

from __future__ import annotations

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
# .npy tables + sidecar persistence

VERSION = 2


def _full_path(prefix: Path) -> Path:
    return Path(str(prefix) + ".full.npy")


def _write_table(path: Path, columns: list[np.ndarray]) -> None:
    np.save(path, np.column_stack(columns).astype(np.float64, copy=False))


def _read_table(path: Path, width: int) -> np.ndarray:
    """The (n, width) float64 matrix at ``path``; anything else is refused."""
    if not path.exists():
        raise SchemaMismatch(f"missing table {path}")
    try:
        with path.open("rb") as fh:
            table = np.load(fh, allow_pickle=False)
    except (ValueError, OSError, EOFError) as exc:  # truncated, not .npy, or pickled
        raise SchemaMismatch(f"{path}: {exc}") from None
    if not isinstance(table, np.ndarray):  # an .npz archive
        raise SchemaMismatch(f"{path}: not a .npy table")
    if table.ndim != 2 or table.dtype != np.float64:
        raise SchemaMismatch(f"{path}: expected a 2-D float64 table, found "
                             f"{table.dtype} of shape {table.shape}")
    if table.shape[1] != width:
        raise SchemaMismatch(f"{path}: {table.shape[1]} columns, the sidecar "
                             f"names {width}")
    return table


def export_dataset(dataset: TrajectoryDataset, prefix: str | Path) -> None:
    """Write ``<prefix>.npy``, ``<prefix>.full.npy`` and ``<prefix>.meta.json``."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    states = list(dataset.states)
    _write_table(prefix.with_suffix(".npy"),
                 [dataset.time] + [dataset.states[s] for s in states]
                 + [dataset.derivs[deriv_name(s)] for s in states])
    full = dataset.full
    _write_table(_full_path(prefix), [full.time] + list(full.columns.values()))
    meta = {
        "format": "daedisc-dataset",
        "version": VERSION,
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
    if meta.get("version") != VERSION:
        raise SchemaMismatch(
            f"{meta_path}: dataset version {meta.get('version')!r}, expected "
            f"{VERSION}; an earlier daedisc wrote its tables as CSV: rerun "
            f"`daedisc gen-data` to regenerate the dataset")
    if meta.get("full_columns") is None or meta.get("full_states") is None:
        raise SchemaMismatch("sidecar does not describe the full record")
    return meta


def import_record(prefix: str | Path) -> FullRecord:
    """The hidden full record alone: ``<prefix>.full.npy`` and its sidecar."""
    prefix = Path(prefix)
    meta = _read_sidecar(prefix)
    names = meta["full_columns"]
    table = _read_table(_full_path(prefix), 1 + len(names))
    return FullRecord(
        model_id=meta["model"], time=table[:, 0],
        columns={n: table[:, i] for i, n in enumerate(names, start=1)},
        state_names=tuple(meta["full_states"]), scenario=meta["scenario"])


def import_dataset(prefix: str | Path) -> TrajectoryDataset:
    """The visible columns of ``<prefix>.npy``, in the sidecar's order
    (``t``, the states, their derivatives), over the full record."""
    prefix = Path(prefix)
    meta = _read_sidecar(prefix)
    states = meta["states"]
    table = _read_table(prefix.with_suffix(".npy"), 1 + 2 * len(states))
    return TrajectoryDataset(
        time=table[:, 0],
        states={s: table[:, 1 + i] for i, s in enumerate(states)},
        derivs={deriv_name(s): table[:, 1 + len(states) + i] for i, s in enumerate(states)},
        full=import_record(prefix),
        metadata={"model": meta["model"], "scenario": meta["scenario"],
                  "seed": meta["seed"]},
    )
