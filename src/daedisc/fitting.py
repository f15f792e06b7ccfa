"""Parameter estimation and candidate scoring.

Each accepted skeleton is fitted by Adam with a cosine-annealed learning rate
against its target columns; the loss is the mean squared residual over
samples and targets, and the score is the negated loss.  Several restarts
from random initial points hedge against non-convex landscapes; they advance
in lockstep, one parameter row each on the skeleton's compiled tape, and the
best (lowest-loss) restart wins.  A skeleton without parameter slots takes
the same path as one row of width 0 and no Adam step.  A domain fault
anywhere during fitting poisons the whole candidate: it keeps its metadata
but gets the sentinel worst score and is never used as an in-context example.
The fault is logged at debug level: its reason and sample index, or
"non-finite loss" when a restart's loss is not finite.

Fitting is pure given (inputs, seed): the same call produces bit-identical
parameters and score, so candidates can be fitted in parallel as long as the
caller derives a distinct seed per candidate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dsl import Skeleton, serialize
from .evaluator import FaultInfo, SampleBatch, evaluate

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

    Raises _PoisonedFit if any restart faults or has a non-finite loss.
    """
    res = evaluate(skeleton, params, batch)
    if res.faulted:
        raise _PoisonedFit(res.domain_fault)
    residual = res.outputs - targets
    squared = residual * residual
    # per restart, the same pairwise sum as np.mean over its contiguous block
    losses = (np.add.reduce(squared.reshape(len(squared), -1), axis=1) / targets.size).tolist()
    if not all(math.isfinite(loss) for loss in losses):
        raise _PoisonedFit(None)
    scale = 2.0 / targets.size
    return losses, scale * np.einsum("rts,rtsk->rk", residual, res.gradients)


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
    try:
        for t in range(steps):
            grad = _losses_and_grad(skeleton, p, batch, targets)[1]
            m = BETA1 * m + (1.0 - BETA1) * grad
            v = BETA2 * v + (1.0 - BETA2) * grad * grad
            m_hat = m / (1.0 - BETA1 ** (t + 1))
            v_hat = v / (1.0 - BETA2 ** (t + 1))
            p = p - cosine_lr(t, cfg.learning_rate, cfg.steps) * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        restart_losses = _losses_and_grad(skeleton, p, batch, targets)[0]
    except _PoisonedFit as exc:
        fault = exc.info
        logger.debug("fit of %r poisoned: %s", serialize(skeleton),
                     "non-finite loss" if fault is None
                     else f"domain fault at sample {fault.sample_index}: {fault.reason}")
        return _poisoned(skeleton, requirements)
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
