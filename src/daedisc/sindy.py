"""Sparse regression baseline and trajectory replay of identified models.

Sequential thresholded least squares (STLSQ) over a polynomial candidate
library, with the three prior-knowledge configurations used for comparison
runs: ``accurate`` (degree-1 library over the complete variable set),
``overcomplete`` (quadratic terms appended) and ``missing`` (a subset of
variables removed).  Least squares goes through the normal equations with a
Cholesky solve; ill-conditioned active sets fall back to a small ridge
penalty and are flagged.

``simulate_identified`` replays any identified model (a sparse-regression
model or a fitted skeleton) through the same RK4 integrator that produced
the benchmark data.  Exogenous inputs and recorded algebraic signals are fed
from the test record by linear interpolation; a discovered algebraic model
can substitute its own predictions instead.  An unstable identified model
yields a divergence flag and the finite prefix, never a crash.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .benchmarks import FullRecord, rk4_step
from .dsl import Skeleton, SymbolScope, parse, variables_in
from .evaluator import SampleBatch, evaluate

logger = logging.getLogger(__name__)

COND_LIMIT = 1e12
RIDGE = 1e-8


@dataclass(frozen=True)
class LibraryConfig:
    variant: str  # "accurate" | "overcomplete" | "missing"
    degree: int
    excluded: tuple[str, ...] = ()
    include_constant: bool = True

    def __post_init__(self):
        if self.variant not in ("accurate", "overcomplete", "missing"):
            raise ValueError(f"unknown library variant {self.variant!r}")
        if self.variant == "accurate" and (self.degree != 1 or self.excluded):
            raise ValueError("accurate variant: degree 1, nothing excluded")
        if self.variant == "overcomplete" and self.degree != 2:
            raise ValueError("overcomplete variant: degree 2")
        if self.variant == "missing" and not self.excluded:
            raise ValueError("missing variant needs excluded variables")
        if self.degree not in (1, 2):
            raise ValueError("degree must be 1 or 2")

    @classmethod
    def accurate(cls) -> "LibraryConfig":
        return cls(variant="accurate", degree=1)

    @classmethod
    def overcomplete(cls) -> "LibraryConfig":
        return cls(variant="overcomplete", degree=2)

    @classmethod
    def missing(cls, excluded: Sequence[str]) -> "LibraryConfig":
        return cls(variant="missing", degree=1, excluded=tuple(excluded))


@dataclass(frozen=True)
class Term:
    """One candidate function: a monomial over named columns."""

    name: str
    powers: tuple[tuple[str, int], ...]  # empty = constant term

    def evaluate(self, columns: Mapping[str, np.ndarray], n: int) -> np.ndarray:
        out = np.ones(n)
        for var, power in self.powers:
            out = out * columns[var] ** power
        return out


def _term_name(powers) -> str:
    if not powers:
        return "1"
    parts = []
    for var, power in powers:
        parts.extend([var] * power)
    return "*".join(parts)


def library_terms(cfg: LibraryConfig, names: Sequence[str]) -> tuple[Term, ...]:
    """Deterministic term order: constant, linear terms in declared order,
    then (degree 2) products x_a*x_b with a <= b."""
    active = [n for n in names if n not in cfg.excluded]
    terms: list[Term] = []
    if cfg.include_constant:
        terms.append(Term("1", ()))
    for n in active:
        terms.append(Term(n, ((n, 1),)))
    if cfg.degree >= 2:
        for a, b in combinations_with_replacement(active, 2):
            powers = ((a, 2),) if a == b else ((a, 1), (b, 1))
            terms.append(Term(_term_name(powers), powers))
    return tuple(terms)


def build_library(cfg: LibraryConfig, names: Sequence[str],
                  columns: Mapping[str, np.ndarray]) -> tuple[np.ndarray, tuple[Term, ...]]:
    terms = library_terms(cfg, names)
    n = len(next(iter(columns.values())))
    theta = np.column_stack([t.evaluate(columns, n) for t in terms])
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
    ridge_fallback used anywhere).
    """
    n_samples, n_terms = theta.shape
    targets = np.atleast_2d(targets.T).T  # ensure 2-D (n_samples, n_targets)
    n_targets = targets.shape[1]
    xi = np.zeros((n_targets, n_terms))
    degenerate = [False] * n_targets
    ridge_used = False
    for j in range(n_targets):
        mask = np.ones(n_terms, dtype=bool)
        coef = np.zeros(n_terms)
        for _ in range(max(1, iters)):
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

    def predict(self, columns: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        n = len(next(iter(columns.values())))
        theta = np.column_stack([t.evaluate(columns, n) for t in self.terms])
        values = theta @ self.coefficients.T
        return {name: values[:, j] for j, name in enumerate(self.target_names)}

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


class SindyBaseline:
    """Estimator-style wrapper: fit on (features, state-derivative targets).

    Parameters mirror the comparison configurations: ``variant`` picks the
    library shape, ``threshold``/``iters`` drive STLSQ, ``excluded`` names
    variables removed under missing-variable priors.
    """

    def __init__(self, variant: str = "accurate", threshold: float = 0.05,
                 iters: int = 10, excluded: Sequence[str] = ()):
        self.variant = variant
        self.threshold = threshold
        self.iters = iters
        self.excluded = tuple(excluded)

    def get_params(self, deep: bool = True) -> dict:
        return {"variant": self.variant, "threshold": self.threshold,
                "iters": self.iters, "excluded": self.excluded}

    def set_params(self, **params) -> "SindyBaseline":
        for key, value in params.items():
            if key not in self.get_params():
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, tuple(value) if key == "excluded" else value)
        return self

    def _library_config(self) -> LibraryConfig:
        if self.variant == "accurate":
            return LibraryConfig.accurate()
        if self.variant == "overcomplete":
            return LibraryConfig.overcomplete()
        return LibraryConfig.missing(self.excluded)

    def fit(self, features: Mapping[str, np.ndarray],
            targets: Mapping[str, np.ndarray]) -> "SindyBaseline":
        names = tuple(features)
        cfg = self._library_config()
        theta, terms = build_library(cfg, names, features)
        target_names = tuple(targets)
        y = np.column_stack([targets[n] for n in target_names])
        xi, degenerate, ridge = stlsq(theta, y, self.threshold, self.iters)
        if any(degenerate):
            logger.warning("degenerate library: all terms thresholded out for %s",
                           [n for n, d in zip(target_names, degenerate) if d])
        self.model_ = SindyModel(
            coefficients=xi, terms=terms, target_names=target_names,
            feature_names=tuple(n for n in names if n not in cfg.excluded),
            variant=self.variant, threshold=self.threshold, iters=self.iters,
            degenerate=tuple(degenerate), ridge_fallback=ridge)
        return self

    def predict(self, features: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        if not hasattr(self, "model_"):
            raise RuntimeError("call fit() first")
        return self.model_.predict(features)


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
        p = np.array(params, dtype=np.float64)
        p.setflags(write=False)
        return cls(skeleton=skeleton, params=p)


@dataclass
class ReplayResult:
    time: np.ndarray
    states: dict[str, np.ndarray]
    diverged: bool
    n_valid: int  # samples with finite values


def _deriv_to_state(name: str) -> str:
    if name.startswith("d") and name.endswith("_dt"):
        return name[1:-3]
    return name


def _model_interface(model, state_names):
    """Returns (needed signal names, derivative function f(x_dict, sig_dict))."""
    if isinstance(model, SindyModel):
        order = {_deriv_to_state(t): j for j, t in enumerate(model.target_names)}
        missing = [s for s in state_names if s not in order]
        if missing:
            raise ValueError(f"model does not define derivatives for {missing}")
        # every library feature: inactive terms still get evaluated by predict
        needed = sorted(set(model.feature_names) - set(state_names))

        def f(x: dict, sig: dict) -> np.ndarray:
            values = {**x, **sig}
            if not all(np.isfinite(v) for v in values.values()):
                return np.full(len(state_names), np.nan)
            columns = {k: np.array([v]) for k, v in values.items()}
            pred = model.predict(columns)
            return np.array([pred[model.target_names[order[s]]][0]
                             for s in state_names])

        return needed, f
    if isinstance(model, SkeletonModel):
        if tuple(model.skeleton.target_names) != tuple(state_names):
            raise ValueError("skeleton targets do not match the record's states")
        needed = sorted(variables_in(model.skeleton) - set(state_names))

        def f(x: dict, sig: dict) -> np.ndarray:
            values = {**x, **sig}
            if not all(np.isfinite(v) for v in values.values()):
                return np.full(len(state_names), np.nan)
            columns = {k: np.array([float(v)]) for k, v in values.items()}
            batch = SampleBatch.from_columns(columns)
            res = evaluate(model.skeleton, model.params, batch)
            if res.faulted:
                return np.full(len(state_names), np.nan)
            return res.outputs[:, 0]

        return needed, f
    raise TypeError(f"cannot replay {type(model).__name__}")


def simulate_identified(model, record: FullRecord, x0: Mapping[str, float] | None = None,
                        mode: str = "recorded",
                        ae_model: SkeletonModel | None = None) -> ReplayResult:
    """RK4 replay of an identified model over a test record's time grid.

    mode="recorded": algebraic/input signals interpolated from the record.
    mode="ae_model": algebraic signals predicted by ``ae_model`` from the
    current state (inputs still come from the record).
    """
    if mode not in ("recorded", "ae_model"):
        raise ValueError(f"unknown replay mode {mode!r}")
    if mode == "ae_model" and ae_model is None:
        raise ValueError("mode='ae_model' needs an ae_model")
    state_names = list(record.state_names)
    needed, f = _model_interface(model, state_names)
    ae_targets: tuple[str, ...] = ()
    ae_needed: list[str] = []
    if mode == "ae_model":
        ae_targets = tuple(ae_model.skeleton.target_names)
        ae_needed = sorted(variables_in(ae_model.skeleton) - set(state_names))
    for name in set(needed) | set(ae_needed):
        if name not in record.columns:
            raise ValueError(f"record has no column {name!r} required for replay")
    time_grid = record.time

    def signals_at(t: float, x: dict) -> dict:
        sig = {name: float(np.interp(t, time_grid, record.columns[name]))
               for name in set(needed) | set(ae_needed)}
        if mode == "ae_model":
            values = {k: float(v) for k, v in {**x, **sig}.items()
                      if k not in ae_targets}
            if not all(np.isfinite(v) for v in values.values()):
                for name in ae_targets:
                    sig[name] = float("nan")
                return sig
            columns = {k: np.array([v]) for k, v in values.items()}
            res = evaluate(ae_model.skeleton, ae_model.params,
                           SampleBatch.from_columns(columns))
            if res.faulted:
                for name in ae_targets:
                    sig[name] = float("nan")
            else:
                for j, name in enumerate(ae_targets):
                    sig[name] = float(res.outputs[j, 0])
        return sig

    if x0 is None:
        x = np.array([record.columns[s][0] for s in state_names])
    else:
        x = np.array([float(x0[s]) for s in state_names])
    n = len(time_grid)
    out = np.full((n, len(state_names)), np.nan)
    out[0] = x
    diverged = False
    n_valid = 1

    def rhs(t: float, state: np.ndarray) -> np.ndarray:
        x_dict = {s: state[i] for i, s in enumerate(state_names)}
        return f(x_dict, signals_at(t, x_dict))

    with np.errstate(all="ignore"):
        for i in range(n - 1):
            x = rk4_step(rhs, float(time_grid[i]), x, float(time_grid[i + 1] - time_grid[i]))
            if not np.all(np.isfinite(x)):
                diverged = True
                break
            out[i + 1] = x
            n_valid += 1
    states = {s: out[:, j] for j, s in enumerate(state_names)}
    return ReplayResult(time=time_grid.copy(), states=states,
                        diverged=diverged, n_valid=n_valid)


def save_model(model: SindyModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model.to_json(), indent=2, sort_keys=True))


def load_model(path: str | Path) -> SindyModel:
    return SindyModel.from_json(json.loads(Path(path).read_text()))
