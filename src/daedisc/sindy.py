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
by ``LibraryConfig``.  A fitted model is the sum of its active terms, built
by ``dsl.term_sum`` like the search's linear seed.

``simulate_identified`` replays a fitted skeleton, or a sparse-regression
model as the skeleton of its active terms, through the same RK4 step, on
lists of floats, that produced the benchmark data.  Exogenous inputs and
recorded algebraic signals are fed from the test record by linear
interpolation, computed once for every signal at every RK4 stage time, and
``rk4_step`` hands each stage its recorded signals; a discovered algebraic
model can substitute its own predictions instead, and then the record need
not hold its targets.  The right-hand side is built once per replay: every
state, signal and algebraic prediction has a fixed place in one flat list
of floats, and it returns the derivatives as a list.  Each stage evaluates
the skeletons through their compiled one-sample walk
(``evaluator.sample_walk``) on lists of the variables they read and of
their parameters (values only, so a non-finite gradient is no fault).  A
skeleton that faults (a non-finite derivative is a fault) is evaluated once
more by a value-only ``evaluate``, whose checking walk names the fault; the
replay logs it and returns it.  An unstable identified model yields a
divergence flag and the finite prefix, never a crash.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .benchmarks import FullRecord, rk4_step
from .dataset import deriv_name
from . import evaluator
from .dsl import (Skeleton, SymbolScope, make_skeleton, monomial, parse, term_sum,
                  variables_in)
from .evaluator import FaultInfo, SampleBatch, evaluate, sample_walk

logger = logging.getLogger(__name__)

COND_LIMIT = 1e12
RIDGE = 1e-8


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


@dataclass(frozen=True)
class Term:
    """One candidate function: a monomial over named columns."""

    name: str
    powers: tuple[tuple[str, int], ...]  # empty = constant term


def _factors(term: Term) -> tuple[str, ...]:
    """The monomial as a product, each variable repeated ``power`` times."""
    return tuple(var for var, power in term.powers for _ in range(power))


def library_terms(cfg: LibraryConfig, names: Sequence[str]) -> tuple[Term, ...]:
    """Deterministic term order: constant, linear terms in declared order,
    then (degree 2) products x_a*x_b with a <= b.  An excluded name that is
    not a feature is an error: it would leave the library whole."""
    unknown = [n for n in cfg.excluded if n not in names]
    if unknown:
        raise ValueError(f"excluded variables {unknown} are not features {list(names)}")
    active = [n for n in names if n not in cfg.excluded]
    terms = [Term("1", ())]
    for n in active:
        terms.append(Term(n, ((n, 1),)))
    if cfg.degree >= 2:
        for a, b in combinations_with_replacement(active, 2):
            powers = ((a, 2),) if a == b else ((a, 1), (b, 1))
            terms.append(Term(f"{a}*{b}", powers))
    return tuple(terms)


def build_library(cfg: LibraryConfig, names: Sequence[str],
                  columns: Mapping[str, np.ndarray]) -> tuple[np.ndarray, tuple[Term, ...]]:
    """(library matrix, terms): one row per sample, one column per term,
    ones for the constant and otherwise the term's product in ``_factors``
    order.  The library skeleton has one target per term, its product; the
    matrix is the transposed view of the outputs of one value-only
    ``evaluate`` of it with no parameters (no copy).  A ``-0.0`` product
    reads ``+0.0``.  A non-finite product is an error at the sample that the
    evaluator's fault record names."""
    terms = library_terms(cfg, names)
    library = make_skeleton("ae", [term.name for term in terms],
                            [monomial(_factors(term)) for term in terms])
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


@dataclass
class SindyModel:
    coefficients: np.ndarray  # (n_targets, n_terms)
    terms: tuple[Term, ...]
    target_names: tuple[str, ...]
    feature_names: tuple[str, ...]
    variant: str
    threshold: float
    iters: int
    degenerate: tuple[bool, ...]
    ridge_fallback: bool

    def as_skeleton(self, state_names: Sequence[str]) -> "SkeletonModel":
        """The model as a skeleton over ``state_names``: each state's
        derivative is the sum of its active terms (``dsl.term_sum``), their
        coefficients the parameters; a derivative without one is 0."""
        targets = [deriv_name(s) for s in state_names]
        missing = [s for s, t in zip(state_names, targets) if t not in self.target_names]
        if missing:
            raise ValueError(f"model does not define derivatives for {missing}")
        exprs, params = [], []
        for target in targets:
            row = self.coefficients[self.target_names.index(target)]
            active = np.flatnonzero(row)
            exprs.append(term_sum([_factors(self.terms[i]) for i in active], len(params)))
            params.extend(row[active].tolist())
        p = np.array(params, dtype=np.float64)
        p.setflags(write=False)
        return SkeletonModel(make_skeleton("de", state_names, exprs), p)

    def to_json(self) -> dict:
        return {
            "format": "daedisc-sindy",
            "version": 1,
            "variant": self.variant,
            "threshold": self.threshold,
            "iters": self.iters,
            "target_names": list(self.target_names),
            "feature_names": list(self.feature_names),
            "terms": [t.name for t in self.terms],
            "term_powers": [[[var, power] for var, power in t.powers] for t in self.terms],
            "coefficients": [[float(v) for v in row] for row in self.coefficients],
            "degenerate": list(self.degenerate),
            "ridge_fallback": self.ridge_fallback,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SindyModel":
        if data.get("format") != "daedisc-sindy":
            raise ValueError("not a sparse-regression model document")
        terms = tuple(
            Term(name, tuple((var, int(power)) for var, power in powers))
            for name, powers in zip(data["terms"], data["term_powers"]))
        return cls(
            coefficients=np.array(data["coefficients"], dtype=np.float64),
            terms=terms,
            target_names=tuple(data["target_names"]),
            feature_names=tuple(data["feature_names"]),
            variant=data["variant"],
            threshold=float(data["threshold"]),
            iters=int(data["iters"]),
            degenerate=tuple(bool(v) for v in data["degenerate"]),
            ridge_fallback=bool(data["ridge_fallback"]),
        )


def fit_baseline(features: Mapping[str, np.ndarray], targets: Mapping[str, np.ndarray],
                 variant: str = "accurate", threshold: float = 0.05, iters: int = 10,
                 excluded: Sequence[str] = ()) -> SindyModel:
    """The STLSQ model of ``targets`` (state derivatives) over the ``variant``
    library of ``features``: ``threshold``/``iters`` drive STLSQ, and
    ``excluded`` names the variables the missing variant removes."""
    names = tuple(features)
    cfg = LibraryConfig(variant, excluded)
    theta, terms = build_library(cfg, names, features)
    target_names = tuple(targets)
    y = np.column_stack([targets[n] for n in target_names])
    xi, degenerate, ridge = stlsq(theta, y, threshold, iters)
    if any(degenerate):
        logger.warning("degenerate library: all terms thresholded out for %s",
                       [n for n, d in zip(target_names, degenerate) if d])
    return SindyModel(
        coefficients=xi, terms=terms, target_names=target_names,
        feature_names=tuple(n for n in names if n not in cfg.excluded),
        variant=variant, threshold=threshold, iters=iters,
        degenerate=tuple(degenerate), ridge_fallback=ridge)


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
        skeleton = parse(text, scope, list(targets), kind=kind)
        if len(params) != skeleton.n_params:
            raise ValueError(f"{kind.upper()} model: {len(params)} params for a "
                             f"skeleton with {skeleton.n_params}")
        p = np.array(params, dtype=np.float64)
        p.setflags(write=False)
        return cls(skeleton=skeleton, params=p)


@dataclass
class ReplayResult:
    time: np.ndarray
    states: dict[str, np.ndarray]
    diverged: bool
    n_valid: int  # samples with finite values
    # the domain fault that ended the replay, its sample_index the time-grid
    # index of the faulting RK4 step's start
    fault: FaultInfo | None = None


def _name_fault(model: SkeletonModel, values: list[float],
                position: Mapping[str, int]) -> FaultInfo:
    """The domain fault of a skeleton on the replay sample ``values``, named
    by the checking walk of one value-only ``evaluate``."""
    batch = SampleBatch({name: np.array((values[position[name]],))
                         for name in variables_in(model.skeleton)}, 1)
    return evaluate(model.skeleton, model.params, batch, gradients=False).domain_fault


def _stage_outputs(model: SkeletonModel, position: Mapping[str, int]):
    """The function from the replay's flat input list (each name at its
    ``position``) to one sample's outputs of ``model`` in its target order,
    as a list from its compiled one-sample walk, or None when it faults.
    Callers run it under ``np.errstate(all="ignore")``."""
    variables, walk = sample_walk(model.skeleton)
    places = [position[name] for name in variables]
    params = model.params.tolist()
    return lambda values: walk([values[i] for i in places], params)


def simulate_identified(model, record: FullRecord,
                        ae_model: SkeletonModel | None = None) -> ReplayResult:
    """RK4 replay of an identified model over a test record's time grid,
    starting from the record's first state row.

    Algebraic and input signals are interpolated from the record; given an
    ``ae_model``, its targets are predicted from the current state instead
    (inputs still come from the record), so the record need not hold them.
    A sparse-regression model is replayed as its skeleton (``as_skeleton``).
    """
    state_names = list(record.state_names)
    if isinstance(model, SindyModel):
        model = model.as_skeleton(state_names)
    if not isinstance(model, SkeletonModel):
        raise TypeError(f"cannot replay {type(model).__name__}")
    if tuple(model.skeleton.target_names) != tuple(state_names):
        raise ValueError("skeleton targets do not match the record's states")
    inputs = variables_in(model.skeleton)
    ae_targets: list[str] = []
    if ae_model is not None:
        ae_targets = list(ae_model.skeleton.target_names)
        if variables_in(ae_model.skeleton) & set(ae_targets):
            raise ValueError("the algebraic model reads its own targets")
        inputs = inputs | variables_in(ae_model.skeleton)
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

    # the right-hand side reads one flat list: states, recorded signals, then
    # the algebraic model's predictions, each at a fixed position
    position = {name: i for i, name in enumerate(state_names + signals + ae_targets)}
    values = [0.0] * len(position)
    n_recorded = len(state_names) + len(signals)
    de_outputs = _stage_outputs(model, position)
    ae_outputs = None if ae_model is None else _stage_outputs(ae_model, position)

    no_derivatives = [math.nan] * len(state_names)
    faulted = None  # (which model, its fault): at most one, as it ends the replay

    def fault(skeleton_model: SkeletonModel, which: str) -> list[float]:
        nonlocal faulted
        faulted = which, _name_fault(skeleton_model, values, position)
        return no_derivatives

    def rhs(state: list[float], signal_values: list[float]) -> list[float]:
        given = state + signal_values
        # a non-finite input or a faulting model gives NaN derivatives, so
        # every later stage stops here
        if not all(map(math.isfinite, given)):
            return no_derivatives
        values[:n_recorded] = given
        if ae_outputs is not None:
            predicted = ae_outputs(values)
            if predicted is None:
                return fault(ae_model, "AE")
            values[n_recorded:] = predicted
        derivatives = de_outputs(values)
        if derivatives is None:
            return fault(model, "DE")
        return derivatives

    x = [float(record.columns[s][0]) for s in state_names]
    n = len(time_grid)
    out = np.full((n, len(state_names)), np.nan)
    out[0] = x
    diverged = False
    n_valid = 1
    with np.errstate(all="ignore"):
        # each step's signals become lists once, not the whole record's at once
        for i, (step, stage_signals) in enumerate(zip(dt.tolist(), recorded)):
            x = rk4_step(rhs, x, step, *stage_signals.tolist())
            if not all(map(math.isfinite, x)):
                diverged = True
                break
            out[i + 1] = x
            n_valid += 1
    info = None
    if faulted is not None:
        which, info = faulted
        info = replace(info, sample_index=n_valid - 1)
        logger.warning("replay: the %s model faults in the RK4 step from t = %g s: %s",
                       which, time_grid[n_valid - 1], info.reason)
    states = {s: out[:, j] for j, s in enumerate(state_names)}
    return ReplayResult(time=time_grid.copy(), states=states,
                        diverged=diverged, n_valid=n_valid, fault=info)


def save_model(model: SindyModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_json(), indent=2, sort_keys=True))
