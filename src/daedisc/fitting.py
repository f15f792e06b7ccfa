"""Parameter estimation and candidate scoring.

Each accepted skeleton is fitted by Adam with a cosine-annealed learning rate
against its target columns; the loss is the mean squared residual over
samples and targets, and the score is the negated loss.  Several restarts
from random initial points hedge against non-convex landscapes; they advance
in lockstep, one parameter row each on the skeleton's compiled tape, and the
best (lowest-loss) restart wins.  Each step takes the loss gradient from one
``evaluate`` with the targets, on the evaluator's compiled weighted walk: it
seeds each target's reverse sweep with its residual and sums over samples,
so no per-sample Jacobian is formed, and the loss is the residual sum of
squares that the walk returns with it, so a fit of s steps makes s + 1
calls.  A single restart is one parameter row, which the walk takes as
scalars.  Adam's moments and the parameter rows are updated in place, each
operation written into one of two scratch rows, in the order of the
textbook update.  A skeleton without parameter slots takes the same path as
one row of width 0 and no Adam step.  A domain fault anywhere during
fitting poisons the whole candidate: it keeps its metadata but gets the
sentinel worst score and is never used as an in-context example.
The fault is logged at debug level: its reason and sample index (a
"non-finite gradient" when only the residual-weighted gradient overflowed),
or "non-finite loss" when a restart's loss is not finite.

Fitting is pure given (inputs, seed): the same call produces bit-identical
parameters and score, so candidates can be fitted in parallel as long as the
caller derives a distinct seed per candidate.

A fitted skeleton has one on-disk form, the part ``{"text", "params"}`` that
model documents and archive snapshots hold: ``part_document`` writes it,
``part_value`` reads a part's key checked for its type, and ``read_fitted``
parses the text and checks the params against its slots.  ``read_json``
reads the JSON files the package takes in (model files, snapshots, mock
scripts, reports, run and scenario files), naming a file that is not JSON.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .dsl import Skeleton, SymbolScope, parse, serialize
from .evaluator import FaultInfo, SampleBatch, evaluate, release_fit_memo

logger = logging.getLogger(__name__)

SENTINEL_SCORE = -1.0e9
# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
# restarts start uniformly in [INIT_LOW, INIT_HIGH) per parameter
INIT_LOW = -1.0
INIT_HIGH = 1.0


@dataclass(frozen=True)
class FitConfig:
    steps: int = 2000
    learning_rate: float = 0.05
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.seed < 0:  # NumPy's seed sequences take no negative entropy
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Requirement:
    """A variable the generator asked for, to be matched against the catalog."""

    name: str
    justification: str = ""
    kind_hint: str = ""


@dataclass(frozen=True)
class ScoredSkeleton:
    skeleton: Skeleton
    params: np.ndarray
    score: float
    restart_losses: tuple[float, ...] = ()
    requirements: tuple[Requirement, ...] = ()

    @property
    def canonical(self) -> str:
        return serialize(self.skeleton)

    @property
    def poisoned(self) -> bool:
        return self.score <= SENTINEL_SCORE


def cosine_lr(step: int, lr0: float, total_steps: int) -> float:
    """lr(0) = lr0, lr(total_steps) = 0, half-cosine in between."""
    return lr0 * (1.0 + math.cos(math.pi * step / total_steps)) / 2.0


def score_of(loss: float) -> float:
    """Score is the negated loss; anything non-finite maps to the sentinel."""
    if not math.isfinite(loss):
        return SENTINEL_SCORE
    return -loss


class _PoisonedFit(Exception):
    """A restart faulted (the evaluator's ``info``) or reached a non-finite
    loss (``info`` None); either poisons the whole fit."""

    def __init__(self, info: FaultInfo | None):
        super().__init__(info)
        self.info = info


def _losses_and_grad(skeleton: Skeleton, params: np.ndarray, batch: SampleBatch,
                     targets: np.ndarray):
    """Per-restart losses and loss gradients (R, k) for parameter rows (R, k).

    The losses are the evaluator's residual sums of squares over the size,
    and the gradient is its residual-weighted sum, scaled by the loss's
    2/size.
    Raises _PoisonedFit if any restart faults or has a non-finite loss; a
    loss that overflows is named before the weighted gradient that overflows
    with it.
    """
    res = evaluate(skeleton, params, batch, targets=targets)
    if res.sum_squares is None:
        raise _PoisonedFit(res.domain_fault)
    losses = (res.sum_squares / targets.size).tolist()
    if not all(math.isfinite(loss) for loss in losses):
        raise _PoisonedFit(None)
    if res.faulted:  # the weighted gradient alone is not finite
        raise _PoisonedFit(res.domain_fault)
    return losses, (2.0 / targets.size) * res.gradients


def _poisoned(skeleton: Skeleton, requirements) -> ScoredSkeleton:
    params = np.zeros(skeleton.n_params)
    params.setflags(write=False)
    return ScoredSkeleton(skeleton=skeleton, params=params, score=SENTINEL_SCORE,
                          requirements=tuple(requirements))


def fit_and_score(skeleton: Skeleton, batch: SampleBatch, target_columns: Sequence[str],
                  cfg: FitConfig, requirements: Sequence[Requirement] = ()) -> ScoredSkeleton:
    """Fit parameter slots against the named target columns and score the fit.

    target_columns are ordered like skeleton.target_names: state-derivative
    columns for differential systems, recorded variable columns for algebraic
    ones.
    """
    if len(target_columns) != len(skeleton.target_names):
        raise ValueError("one target column per skeleton target required")
    targets = np.stack([batch.column(c) for c in target_columns])
    # all restarts advance in lockstep, one parameter row each; a skeleton
    # without slots is one row of width 0 that takes no step
    restarts, steps = (cfg.restarts, cfg.steps) if skeleton.n_params else (1, 0)
    p = np.stack([np.random.default_rng(seed).uniform(INIT_LOW, INIT_HIGH, skeleton.n_params)
                  for seed in np.random.SeedSequence(cfg.seed).spawn(restarts)])
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    a = np.empty_like(p)  # scratch rows: each Adam operation writes into one
    b = np.empty_like(p)
    try:
        # a loss or step that leaves the floats poisons the fit, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(steps):
                grad = _losses_and_grad(skeleton, p, batch, targets)[1]
                # m = BETA1*m + (1 - BETA1)*grad, v = BETA2*v + (1 - BETA2)*grad*grad,
                # p -= (m/(1 - BETA1^(t+1)))*lr / (sqrt(v/(1 - BETA2^(t+1))) + ADAM_EPS),
                # operation by operation
                m *= BETA1
                m += np.multiply(1.0 - BETA1, grad, out=a)
                v *= BETA2
                np.multiply(1.0 - BETA2, grad, out=b)
                v += np.multiply(b, grad, out=b)
                np.divide(m, 1.0 - BETA1 ** (t + 1), out=a)
                a *= cosine_lr(t, cfg.learning_rate, cfg.steps)
                np.divide(v, 1.0 - BETA2 ** (t + 1), out=b)
                np.sqrt(b, out=b)
                b += ADAM_EPS
                p -= np.divide(a, b, out=a)
            restart_losses = _losses_and_grad(skeleton, p, batch, targets)[0]
    except _PoisonedFit as exc:
        fault = exc.info
        logger.debug("fit of %r poisoned: %s", serialize(skeleton),
                     "non-finite loss" if fault is None
                     else f"domain fault at sample {fault.sample_index}: {fault.reason}")
        return _poisoned(skeleton, requirements)
    finally:
        release_fit_memo()  # the fit's batch and walks go with it
    best = restart_losses.index(min(restart_losses))
    best_params = p[best].copy()
    best_params.setflags(write=False)
    return ScoredSkeleton(skeleton=skeleton, params=best_params,
                          score=score_of(restart_losses[best]),
                          restart_losses=tuple(restart_losses),
                          requirements=tuple(requirements))


def derived_fit_config(cfg: FitConfig, *entropy: int) -> FitConfig:
    """Same settings, new deterministic seed from an entropy chain."""
    seed = int(np.random.SeedSequence((cfg.seed,) + entropy).generate_state(1)[0])
    return replace(cfg, seed=seed)


# ---------------------------------------------------------------------------
# JSON files, and the on-disk form of a fitted skeleton


def read_json(path: str | Path, error: type[Exception] = ValueError):
    """The JSON document at ``path``; one that is not JSON is refused with
    ``error`` naming the file."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # not JSON, or not text
        raise error(f"{path} is not valid JSON: {exc}") from exc


def part_document(skeleton: Skeleton, params: Sequence[float]) -> dict:
    """The part a model document or an archive snapshot keeps of a fitted
    skeleton: its canonical ``text`` and its ``params``."""
    return {"text": serialize(skeleton), "params": [float(v) for v in params]}


def _is_list_of(value, kind) -> bool:
    """A JSON list of ``kind`` values; a bool is no number."""
    return isinstance(value, list) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in value)


# what each typed key of a part holds, and the test of it
_PART_TYPES = {"targets": ("a list of names", lambda v: _is_list_of(v, str)),
               "text": ("a string", lambda v: isinstance(v, str)),
               "params": ("a list of numbers", lambda v: _is_list_of(v, (int, float)))}


def part_value(part, key: str, where: str):
    """``part[key]``, refused with a ``ValueError`` naming ``where`` and the
    key unless ``part`` is an object holding it, of its type for a part's
    ``targets``, ``text`` or ``params``."""
    if not isinstance(part, dict) or key not in part:
        raise ValueError(f"{where} has no {key!r}")
    value = part[key]
    if key in _PART_TYPES and not _PART_TYPES[key][1](value):
        raise ValueError(f"{where} has a {key!r} that is not {_PART_TYPES[key][0]}")
    return value


def read_fitted(text: str, params: Sequence[float], scope: SymbolScope,
                targets: Sequence[str], kind: str, where: str
                ) -> tuple[Skeleton, np.ndarray]:
    """(skeleton, read-only params) of a part: ``text`` parsed over ``scope``
    as the ``kind`` system of ``targets``, and ``params`` one finite number
    per slot, refused with a ``ValueError`` naming ``where`` otherwise."""
    skeleton = parse(text, scope, list(targets), kind=kind)
    if len(params) != skeleton.n_params:
        raise ValueError(f"{where}: {len(params)} params for a skeleton "
                         f"with {skeleton.n_params}")
    p = np.array(params, dtype=np.float64)
    if not np.isfinite(p).all():
        raise ValueError(f"{where}: params {p.tolist()} are not finite")
    p.setflags(write=False)
    return skeleton, p
