"""Sparse regression baseline and trajectory replay of identified models.

Sequential thresholded least squares (STLSQ) over a polynomial candidate
library, with the three prior-knowledge configurations used for comparison
runs: ``accurate`` (degree-1 library over the complete variable set),
``overcomplete`` (quadratic terms appended) and ``missing`` (a subset of
variables removed).  The library is a skeleton with one target per term,
the term's product (``dsl.monomial``, 1 for the constant), and its matrix is
the transposed outputs of one value-only ``evaluate`` of it with no
parameters.  Least squares goes through the normal equations with a
Cholesky solve; ill-conditioned active sets fall back to a small ridge
penalty and are flagged.  ``fit_baseline`` fits one model, configured by
its arguments alone; each library's variant and exclusions are checked once,
by ``LibraryConfig``.  A library term is its product, a tuple of factors
(none for the constant).  A fitted model is a skeleton, each derivative the
sum of its active products, built by ``dsl.term_sum`` like the search's
linear seed; its STLSQ fit is a record of plain values, the one the model
document keeps.

``simulate_identified`` replays a fitted skeleton through the same RK4
step, on lists of floats, that produced the benchmark data.  Exogenous
inputs and recorded algebraic signals are fed from the test record by linear
interpolation, computed once for every signal at every RK4 stage time, and
``rk4_step`` hands each stage its recorded signals; a
discovered algebraic model can substitute its own predictions instead, and
then the record need not hold its targets.  The right-hand side is compiled
once per replay as straight-line code: it unpacks the stage's states and
recorded signals into numbered locals, checks each finite, and calls each
skeleton's compiled one-sample walk (``evaluator.sample_walk``) with the
variables it reads listed in place, the algebraic model's first, whose
predictions it unpacks for the differential model, and returns the
derivatives as a list.  The walks give values only, so a non-finite
gradient is no fault, and the step is ``rk4_step``, itself unrolled for the
state count.  The loop keeps the accepted states as lists and writes the
trajectory array once, at the end.  A skeleton that faults (a non-finite
derivative is a fault) is evaluated once more by a value-only ``evaluate``,
whose checking walk names the fault; the replay logs it and returns it.  An unstable identified
model yields a divergence flag and the finite prefix, never a crash.

Every model file is one ``daedisc-model`` document, written by
``model_document`` for ``discover`` and for the baseline (``save_model``,
whose DE part is the sparse model's skeleton text and whose record is its
STLSQ fit) and read by
``load_model`` alone, which gives the skeletons replay takes.  Each part's
``text`` and ``params`` are written and read by the fitted-skeleton codec in
``fitting`` that archive snapshots use too.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .benchmarks import BenchmarkModel, CatalogEntry, FullRecord, rk4_step
from .dataset import deriv_name
from . import evaluator
from .dsl import Skeleton, SymbolScope, make_skeleton, monomial, term_sum
from .evaluator import FaultInfo, SampleBatch, evaluate, sample_walk
from .fitting import part_document, part_value, read_fitted, read_json

logger = logging.getLogger(__name__)

COND_LIMIT = 1e12
RIDGE = 1e-8
MODEL_FORMAT = "daedisc-model"


@dataclass(frozen=True)
class LibraryConfig:
    variant: str  # "accurate" | "overcomplete" | "missing"
    excluded: tuple[str, ...] = ()

    def __post_init__(self):
        # a bare string would split into one name per character
        if isinstance(self.excluded, str):
            raise ValueError(f"excluded takes a sequence of variable names, "
                             f"got the string {self.excluded!r}")
        object.__setattr__(self, "excluded", tuple(self.excluded))
        if self.variant not in ("accurate", "overcomplete", "missing"):
            raise ValueError(f"unknown library variant {self.variant!r}")
        # the missing variant, and only it, removes variables
        if (self.variant == "missing") != bool(self.excluded):
            raise ValueError("excluded variables go with the missing variant, "
                             f"and only with it (got {self.variant!r}, {self.excluded})")

    @property
    def degree(self) -> int:
        return 2 if self.variant == "overcomplete" else 1


def _term_name(product: Sequence[str]) -> str:
    """A library term's name: its factors joined by ``*``, ``1`` for none."""
    return "*".join(product) or "1"


def library_terms(cfg: LibraryConfig, names: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    """The library's products, each a tuple of factors, in a deterministic
    order: the constant (no factor), linear terms in declared order, then
    (degree 2) products x_a*x_b with a <= b.  An excluded name that is not a
    feature is an error: it would leave the library whole."""
    unknown = [n for n in cfg.excluded if n not in names]
    if unknown:
        raise ValueError(f"excluded variables {unknown} are not features {list(names)}")
    active = [n for n in names if n not in cfg.excluded]
    terms = [()] + [(n,) for n in active]
    if cfg.degree >= 2:
        terms += combinations_with_replacement(active, 2)
    return tuple(terms)


def build_library(cfg: LibraryConfig, names: Sequence[str],
                  columns: Mapping[str, np.ndarray]
                  ) -> tuple[np.ndarray, tuple[tuple[str, ...], ...]]:
    """(library matrix, products): one row per sample, one column per
    product, ones for the constant and otherwise the factors multiplied in
    order.  The library skeleton has one target per term, its product; the
    matrix is the transposed view of the outputs of one value-only
    ``evaluate`` of it with no parameters (no copy).  A ``-0.0`` product
    reads ``+0.0``.  A non-finite product is an error at the sample that the
    evaluator's fault record names."""
    terms = library_terms(cfg, names)
    library = make_skeleton("ae", [_term_name(t) for t in terms], [monomial(t) for t in terms])
    batch = SampleBatch.from_columns({name: columns[name] for name in names})
    # through the module: perfbench's tracer counts calls of this module's
    # name ``evaluate`` as replay's fault naming, and this call is not one
    result = evaluator.evaluate(library, (), batch, gradients=False)
    if result.faulted:
        raise ValueError(f"library column not finite at sample "
                         f"{result.domain_fault.sample_index}: {result.domain_fault.reason}")
    theta = result.outputs.T
    theta += 0.0
    return theta, terms


def _solve_ls(theta_active: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, bool]:
    """Normal equations with a Cholesky solve; ridge fallback (flagged) when
    the Gram matrix is ill-conditioned or not positive definite."""
    gram = theta_active.T @ theta_active
    rhs = theta_active.T @ target
    if np.linalg.cond(gram) <= COND_LIMIT:
        try:
            c = np.linalg.cholesky(gram)
            return np.linalg.solve(c.T, np.linalg.solve(c, rhs)), False
        except np.linalg.LinAlgError:
            pass
    gram = gram + RIDGE * np.eye(gram.shape[0])
    return np.linalg.solve(gram, rhs), True


def stlsq(theta: np.ndarray, targets: np.ndarray, threshold: float = 0.05,
          iters: int = 10) -> tuple[np.ndarray, list[bool], bool]:
    """Alternate least squares and hard thresholding until the mask is stable.

    theta: (n_samples, n_terms); targets: (n_samples, n_targets).
    Returns (coefficients (n_targets, n_terms), degenerate flags per target,
    ridge_fallback used anywhere).  ``iters`` caps the sweeps and must be at
    least 1; ``threshold`` must be a number >= 0 (0 keeps every term).
    """
    if iters < 1:
        raise ValueError(f"STLSQ iters must be >= 1, got {iters}")
    if not threshold >= 0:
        raise ValueError(f"STLSQ threshold must be >= 0, got {threshold}")
    n_samples, n_terms = theta.shape
    targets = np.atleast_2d(targets.T).T  # ensure 2-D (n_samples, n_targets)
    n_targets = targets.shape[1]
    xi = np.zeros((n_targets, n_terms))
    degenerate = [False] * n_targets
    ridge_used = False
    for j in range(n_targets):
        mask = np.ones(n_terms, dtype=bool)
        coef = np.zeros(n_terms)
        for _ in range(iters):
            if not mask.any():
                break
            solution, used_ridge = _solve_ls(theta[:, mask], targets[:, j])
            ridge_used = ridge_used or used_ridge
            coef = np.zeros(n_terms)
            coef[mask] = solution
            new_mask = np.abs(coef) >= threshold if threshold > 0 else mask
            coef[~new_mask] = 0.0
            if np.array_equal(new_mask, mask):
                mask = new_mask
                break
            mask = new_mask
        if not mask.any():
            degenerate[j] = True
            coef = np.zeros(n_terms)
        xi[j] = coef
    return xi, degenerate, ridge_used


def fit_baseline(features: Mapping[str, np.ndarray], targets: Mapping[str, np.ndarray],
                 states: Sequence[str], variant: str = "accurate", threshold: float = 0.05,
                 iters: int = 10, excluded: Sequence[str] = ()) -> tuple[SkeletonModel, dict]:
    """(skeleton, record): the STLSQ model of ``targets`` (state derivatives)
    over the ``variant`` library of ``features``; ``threshold``/``iters``
    drive STLSQ, and ``excluded`` names the variables the missing variant
    removes.  The skeleton is over ``states``: each state's derivative is the
    sum of its active products (``dsl.term_sum``), their coefficients the
    parameters, and 0 without one.  The record is the fit as a model
    document keeps it: the settings, the target, feature and term names, the
    coefficient rows, and the degenerate and ridge flags."""
    target_names = tuple(targets)
    missing = [s for s in states if deriv_name(s) not in target_names]
    if missing:
        raise ValueError(f"model does not define derivatives for {missing}")
    names = tuple(features)
    cfg = LibraryConfig(variant, excluded)
    theta, terms = build_library(cfg, names, features)
    y = np.column_stack([targets[n] for n in target_names])
    xi, degenerate, ridge = stlsq(theta, y, threshold, iters)
    if any(degenerate):
        logger.warning("degenerate library: all terms thresholded out for %s",
                       [n for n, d in zip(target_names, degenerate) if d])
    exprs, params = [], []
    for state in states:
        row = xi[target_names.index(deriv_name(state))]
        active = np.flatnonzero(row)
        exprs.append(term_sum([terms[i] for i in active], len(params)))
        params.extend(row[active].tolist())
    p = np.array(params, dtype=np.float64)
    p.setflags(write=False)
    record = {"variant": variant, "threshold": threshold, "iters": iters,
              "target_names": target_names,
              "feature_names": [n for n in names if n not in cfg.excluded],
              "terms": [_term_name(t) for t in terms], "coefficients": xi.tolist(),
              "degenerate": degenerate, "ridge_fallback": ridge}
    return SkeletonModel(make_skeleton("de", states, exprs), p), record


# ---------------------------------------------------------------------------
# Replay of identified models


@dataclass(frozen=True)
class SkeletonModel:
    """A fitted skeleton system ready for replay."""

    skeleton: Skeleton
    params: np.ndarray

    @classmethod
    def from_text(cls, text: str, params: Sequence[float], targets: Sequence[str],
                  states: Sequence[str], variables: Sequence[str] = (),
                  kind: str = "de") -> "SkeletonModel":
        scope = SymbolScope(states=tuple(states), variables=tuple(variables))
        return cls(*read_fitted(text, params, scope, targets, kind, f"{kind.upper()} model"))


@dataclass
class ReplayResult:
    time: np.ndarray
    states: dict[str, np.ndarray]
    diverged: bool
    n_valid: int  # samples with finite values
    # the domain fault that ended the replay, its sample_index the time-grid
    # index of the faulting RK4 step's start
    fault: FaultInfo | None = None


def _name_fault(model: SkeletonModel, variables: Sequence[str],
                values: Sequence[float]) -> FaultInfo:
    """The domain fault of a skeleton on the replay sample ``values`` of its
    ``variables``, named by the checking walk of one value-only ``evaluate``."""
    batch = SampleBatch({name: np.array((value,)) for name, value in zip(variables, values)}, 1)
    return evaluate(model.skeleton, model.params, batch, gradients=False).domain_fault


def _replay_rhs(model: SkeletonModel, ae_model: SkeletonModel | None,
                state_names: list[str], signals: list[str], faults: list) -> Callable:
    """``rhs(state, signal_values)``: the replay's right-hand side, compiled
    once per replay from straight-line source.

    The states, the recorded ``signals`` and then the algebraic model's
    targets are the locals ``v<i>``, numbered in that order.  The given
    values are unpacked and checked finite (one that is not gives NaN
    derivatives, so every later stage stops there); the algebraic model's
    walk, if there is one, and then the differential model's are called with
    their variables listed in place, the first unpacking its predictions and
    the second returning its list.  A walk that faults appends ``(which
    model, its fault)`` to ``faults``, the fault named by ``_name_fault`` on
    its inputs, and gives the NaN list.  The walks, parameters, NaN list and
    fault callbacks are bound in the namespace, so the source holds nothing
    but local numbers, indices and fixed templates.  Call it under
    ``np.errstate(all="ignore")``, as each walk.
    """
    ae_targets = [] if ae_model is None else list(ae_model.skeleton.target_names)
    names = state_names + signals + ae_targets
    local = [f"v{i}" for i in range(len(names))]
    position = dict(zip(names, local))
    n_states, n_given = len(state_names), len(state_names) + len(signals)

    def listed(values) -> str:
        return "[" + ", ".join(values) + "]"

    lines = ["def rhs(s, u):", f"    {listed(local[:n_states])} = s"]
    if signals:
        lines.append(f"    {listed(local[n_states:n_given])} = u")
    lines += [f"    if not ({' and '.join(f'isfinite({v})' for v in local[:n_given])}):",
              "        return N"]
    namespace = {"__builtins__": {}, "isfinite": math.isfinite, "N": [math.nan] * n_states,
                 "faults": faults}
    # (walk name, model, what follows a call that did not fault)
    calls = [("de", model, "    return y")]
    if ae_model is not None:
        calls.insert(0, ("ae", ae_model, f"    {listed(local[n_given:])} = y"))
    for which, stage_model, then in calls:
        variables, walk = sample_walk(stage_model.skeleton)
        inputs = listed(position[name] for name in variables)
        namespace[which], namespace[f"p_{which}"] = walk, stage_model.params.tolist()
        namespace[f"name_{which}"] = functools.partial(_name_fault, stage_model, variables)
        lines += [f"    y = {which}({inputs}, p_{which})",
                  "    if y is None:",
                  f"        faults.append(('{which.upper()}', name_{which}({inputs})))",
                  "        return N",
                  then]
    exec(compile("\n".join(lines) + "\n", "<replay rhs>", "exec"), namespace)
    return namespace.pop("rhs")  # left in its globals, it would form a cycle


def simulate_identified(model: SkeletonModel, record: FullRecord,
                        ae_model: SkeletonModel | None = None) -> ReplayResult:
    """RK4 replay of an identified model over a test record's time grid,
    starting from the record's first state row.

    Algebraic and input signals are interpolated from the record; given an
    ``ae_model``, its targets are predicted from the current state instead
    (inputs still come from the record), so the record need not hold them.
    A sparse-regression model is a skeleton already, as ``fit_baseline``
    returns it.
    """
    state_names = list(record.state_names)
    if tuple(model.skeleton.target_names) != tuple(state_names):
        raise ValueError("skeleton targets do not match the record's states")
    inputs = set(sample_walk(model.skeleton)[0])
    ae_targets: list[str] = []
    if ae_model is not None:
        ae_targets = list(ae_model.skeleton.target_names)
        ae_inputs = set(sample_walk(ae_model.skeleton)[0])
        if ae_inputs & set(ae_targets):
            raise ValueError("the algebraic model reads its own targets")
        inputs |= ae_inputs
    signals = sorted(inputs - set(state_names) - set(ae_targets))
    for name in signals:
        if name not in record.columns:
            raise ValueError(f"record has no column {name!r} required for replay")

    # every signal at every RK4 stage time: (steps, 3 stages, signals)
    time_grid = record.time
    start, dt = time_grid[:-1], np.diff(time_grid)
    stage_times = np.stack([start, start + dt / 2.0, start + dt], axis=1)
    recorded = np.empty(stage_times.shape + (len(signals),))
    for k, name in enumerate(signals):
        recorded[:, :, k] = np.interp(stage_times, time_grid, record.columns[name])

    faulted: list = []  # (which model, its fault): at most one, as it ends the replay
    rhs = _replay_rhs(model, ae_model, state_names, signals, faulted)
    x = [float(record.columns[s][0]) for s in state_names]
    rows = [x]  # the accepted states, written into the trajectory at the end
    diverged = False
    with np.errstate(all="ignore"):
        # each step's signals become lists once, not the whole record's at once
        for step, stage_signals in zip(dt.tolist(), recorded):
            x = rk4_step(rhs, x, step, *stage_signals.tolist())
            if not all(map(math.isfinite, x)):
                diverged = True
                break
            rows.append(x)
    n_valid = len(rows)
    out = np.full((len(time_grid), len(state_names)), np.nan)
    out[:n_valid] = rows
    info = None
    if faulted:
        [(which, info)] = faulted
        info = replace(info, sample_index=n_valid - 1)
        logger.warning("replay: the %s model faults in the RK4 step from t = %g s: %s",
                       which, time_grid[n_valid - 1], info.reason)
    states = {s: out[:, j] for j, s in enumerate(state_names)}
    return ReplayResult(time=time_grid.copy(), states=states,
                        diverged=diverged, n_valid=n_valid, fault=info)


# ---------------------------------------------------------------------------
# Model files


def model_document(benchmark: str, de: dict, ae: dict, library: Sequence[CatalogEntry],
                   **record) -> dict:
    """The ``daedisc-model`` document of ``benchmark``: its ``de`` and ``ae``
    parts (each ``targets``, ``text`` and ``params``, or an ``ae`` of
    ``{"skipped": why}``), the catalog entries of the signals they may read,
    and beside them the producer's ``record``, which no reader uses."""
    return {"format": MODEL_FORMAT, "version": 1, "benchmark": benchmark, "de": de, "ae": ae,
            "library": [{"name": e.name, "unit": e.unit, "description": e.description,
                         "kind": e.kind} for e in library],
            **record}


def save_model(model: SkeletonModel, record: Mapping, benchmark: BenchmarkModel,
               path: str | Path) -> None:
    """Write the baseline ``model`` of ``benchmark``'s data, with its STLSQ
    ``record`` (as ``fit_baseline`` returns them), as a model document: the
    skeleton is the DE part, the catalog entries of its other features the
    library, and the record sits beside them."""
    states = model.skeleton.target_names
    doc = model_document(
        benchmark.model_id,
        {"targets": list(states), **part_document(model.skeleton, model.params)},
        {"skipped": "a sparse-regression baseline identifies the state equations only"},
        [benchmark.catalog_entry(name) for name in record["feature_names"]
         if name not in states],
        **record)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True))


def load_model(path: str | Path, state_names: Sequence[str]
               ) -> tuple[SkeletonModel, SkeletonModel | None]:
    """(DE model, AE model or None) of the model document at ``path``, its
    parts parsed over ``state_names`` and the library's signals (an AE part
    reads none of its targets).  A document that lacks a key a reader uses,
    or holds a part's key of the wrong type, is refused with a
    ``ValueError`` naming the file and the key (``fitting.part_value``), as
    is a file that is not JSON."""
    data = read_json(path)
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != MODEL_FORMAT:
        raise ValueError(f"{path}: unrecognized model format {fmt!r}; model files are the "
                         f"{MODEL_FORMAT} documents that `daedisc discover` and "
                         f"`daedisc baseline` write")

    def load(kind: str, library: Sequence[str]) -> SkeletonModel:
        part = part_value(data, kind, f"{path}: the model document")
        targets, text, params = (part_value(part, key, f"{path}: the {kind.upper()} part")
                                 for key in ("targets", "text", "params"))
        return SkeletonModel.from_text(text, params, targets, state_names,
                                       [n for n in library if n not in targets], kind)

    library = [part_value(entry, "name", f"{path}: library entry {i}")
               for i, entry in enumerate(data.get("library", []))]
    ae = data.get("ae") or {}
    return load("de", library), None if "skipped" in ae or not ae else load("ae", library)
