"""Two-loop discovery orchestration.

The differential loop searches for the state equations and, through the
stagnation-triggered variable-extension mechanism, decides which algebraic
and input signals belong in the model; the algebraic loop then expresses the
algebraic variables the best differential system actually uses as explicit
functions of states and inputs, reusing the same generate / filter / fit /
archive pipeline with algebraic prompts.

Progress is tracked by the running best score across all islands.  Before
each iteration the trigger is checked: if the last ``window`` gains are all
at most ``epsilon`` while the best score still sits at or below ``-gamma``,
requirements mined from the top candidates extend the variable library; once
the best score stays above ``-gamma`` for ``window`` consecutive iterations
the loop terminates.  The library, a tuple of catalog entries in admission
order, is the one record of what a loop has admitted: each loop fits on the
dataset's visible columns plus the hidden record's columns of its library
(and, in the algebraic loop, its targets), and the dataset itself never
changes.

Each loop's state is one ``LoopState``, plain data: its kind and targets
(which decide the label columns and the hidden-record signals it never
admits), its library and the scope built from it, its archive, its score
history and whether it has terminated or generated anything.  The engine
seeds the state, then runs every iteration through ``_iterate`` on it.  The
fit batch is not part of the state: ``_run_loop`` builds it, hands it to
each iteration and rebuilds it, with the scope, only when the library
grows, so it is dropped when the loop returns.  The state the loop ends in
is its result.

An engine is configured once, by its dataset, generator and run
configuration.  ``fit()`` is the one way to run the algebraic loop: it runs
both loops under one ``max_seconds`` budget; ``run_de_loop`` runs the
differential loop alone, with a budget of its own.

Runs are deterministic given the configuration seed and a scripted mock
generator: sampling uses one engine-owned generator, re-derived from the seed
at the start of every ``fit()`` together with an empty run log, and every
candidate fit receives a derived seed from its loop, iteration and completion
index.

A candidate whose canonical text the sampled island already holds is not
fitted: the island would drop it unchanged.  Skipping it keeps every other
completion's seed, the run log and both archives as they were; the same text
proposed to another island is still fitted there.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .archive import Archive, make_linear_seed
from .benchmarks import BenchmarkModel, CatalogEntry, get_model
from .config import RunConfig
from .dataset import TrajectoryDataset, deriv_name
from .dsl import ParseError, SymbolScope, parse, serialize, variables_in
from .evaluator import SampleBatch
from .fitting import ScoredSkeleton, derived_fit_config, fit_and_score, part_document
from .gateway import (
    BackendUnavailable,
    GenerationRequest,
    GeneratorBackend,
    build_prompt,
    generate,
)
from .sindy import model_document

logger = logging.getLogger(__name__)


class GenerationExhausted(RuntimeError):
    """The generator never produced a completion across a nonzero budget."""


class BudgetExceeded(RuntimeError):
    """Wall-clock guard tripped (config max_seconds)."""


class CatalogExhausted(RuntimeError):
    """Extension wanted a fallback variable but the catalog has none left."""


class Decision(Enum):
    CONTINUE = "continue"
    EXTEND = "extend"
    TERMINATE = "terminate"


def check_trigger(history: Sequence[float], window: int, epsilon: float,
                  gamma: float) -> Decision:
    """Stagnation/termination rule over the recorded best-score sequence.

    Termination needs the last ``window`` recorded scores above ``-gamma``;
    extension needs the last ``window`` increments at or below ``epsilon``
    with the current best still at or below ``-gamma``.  With too short a
    history the loop just continues.
    """
    n = len(history)
    if n >= window and all(s > -gamma for s in history[-window:]):
        return Decision.TERMINATE
    if n >= window + 1 and history[-1] <= -gamma:
        gains = [history[i] - history[i - 1] for i in range(n - window, n)]
        if all(g <= epsilon for g in gains):
            return Decision.EXTEND
    return Decision.CONTINUE


def extend_variables(archive: Archive, library: Sequence[CatalogEntry],
                     dataset: TrajectoryDataset, model: BenchmarkModel, top_k: int,
                     excluded: Sequence[str] = ()) -> tuple[list[CatalogEntry], list[str]]:
    """The requested catalog signals to admit next to ``library``, and the
    ignored requirement names.  Nothing is mutated; the dataset is only read,
    for its state names.

    Requirements come from the best ``top_k`` cluster members.  Names match
    the catalog exactly first, then case-insensitively against names and
    aliases.  If nothing new matches, the first unused catalog variable is
    admitted instead so the loop always makes progress; with no catalog
    variables left CatalogExhausted is raised.
    """
    requested = list(dict.fromkeys(
        req.name for cand in archive.top(top_k) for req in cand.requirements))
    matched = []
    ignored: list[str] = []
    for name in requested:
        entry = model.catalog_entry(name)
        if entry is None:
            ignored.append(name)
            logger.info("requirement %r not in the signal catalog; ignored", name)
        else:
            matched.append(entry)
    taken = {e.name for e in library} | set(excluded) | set(dataset.state_names)
    admitted = ([e for e in dict.fromkeys(matched) if e.name not in taken]
                or [e for e in model.catalog if e.name not in taken][:1])
    if not admitted:
        raise CatalogExhausted("no catalog variables left to admit")
    return admitted, ignored


def derive_ae_targets(de_best: ScoredSkeleton,
                      library: Sequence[CatalogEntry]) -> tuple[str, ...]:
    """Algebraic variables the best differential system references, in library
    order; declared exogenous inputs are excluded from discovery."""
    referenced = variables_in(de_best.skeleton)
    return tuple(e.name for e in library
                 if e.kind == "algebraic" and e.name in referenced)


@dataclass
class LoopState:
    """One loop, between iterations and after the last: what it fits to, what
    it has admitted and found, and ``history[t]``, the best score after
    iteration ``t`` (0 is the seed)."""

    kind: str
    target_names: tuple[str, ...]
    library: tuple[CatalogEntry, ...]  # admitted signals, in admission order
    scope: SymbolScope  # the states and the library's names
    archive: Archive
    history: list[float]
    terminated: bool = False
    generated_any: bool = False

    @property
    def signals(self) -> tuple[str, ...]:
        """Hidden-record columns fitted to but never admitted: the algebraic
        loop's targets."""
        return self.target_names if self.kind == "ae" else ()

    @property
    def labels(self) -> tuple[str, ...]:
        """The columns the targets are fitted to: each algebraic target's own
        column, or each state's derivative."""
        return self.signals or tuple(deriv_name(s) for s in self.target_names)

    @property
    def best(self) -> ScoredSkeleton:
        return self.archive.best()


class DiscoveryEngine:
    """Runs the differential loop then the algebraic loop over one dataset.

    Configured once, by the constructor's arguments: call ``fit()``, then read
    the fitted attributes (``de_result_``, ``ae_result_``, ``run_log_``).
    Every ``fit()`` starts from the seed, so calling it again with the same
    generator script gives the same attributes.
    """

    def __init__(self, dataset: TrajectoryDataset, backend: GeneratorBackend,
                 config: RunConfig | None = None):
        self.dataset = dataset
        self.backend = backend
        self.config = config or RunConfig()
        self.model: BenchmarkModel = get_model(dataset.metadata["model"])
        self._reset()

    # ------------------------------------------------------------------ loops

    def fit(self) -> "DiscoveryEngine":
        """Run both loops; algebraic loop is skipped with a report when the
        best differential system references no algebraic variables.  The
        ``max_seconds`` budget spans both loops."""
        self._reset()
        de = self.run_de_loop()
        ae, skip_reason = self._run_ae_loop(de)
        # set together, so that a fit raising in either loop leaves no results
        self.de_result_, self.ae_result_, self.ae_skip_reason_ = de, ae, skip_reason
        return self

    def run_de_loop(self) -> LoopState:
        """The differential loop alone, with its own ``max_seconds`` budget."""
        self._start_time = time.monotonic()
        return self._run_loop("de", tuple(self.dataset.state_names), (),
                              self.config.de_max_iterations)

    def _run_ae_loop(self, de: LoopState) -> tuple[LoopState | None, str | None]:
        """The algebraic loop's state, or None and why the loop was skipped."""
        targets = derive_ae_targets(de.best, de.library)
        if not targets:
            reason = ("best differential system references no algebraic variables "
                      f"(referenced: {sorted(variables_in(de.best.skeleton)) or 'states only'})")
            self.run_log_.append({"loop": "ae", "event": "skipped", "reason": reason})
            logger.info("algebraic loop skipped: %s", reason)
            return None, reason
        library = tuple(e for e in de.library if e.name not in targets)
        return self._run_loop("ae", targets, library, self.config.ae_max_iterations), None

    # ---------------------------------------------------------------- shared

    def _reset(self) -> None:
        for name in ("de_result_", "ae_result_", "ae_skip_reason_"):
            self.__dict__.pop(name, None)
        self.run_log_: list[dict] = []
        self._rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed & 0x7FFFFFFF, 101]))

    def _scope(self, library: tuple[CatalogEntry, ...]) -> SymbolScope:
        """The symbols a loop's candidates may use: the states and the
        library's names."""
        return SymbolScope(states=tuple(self.dataset.state_names),
                           variables=tuple(e.name for e in library))

    def _batch(self, state: LoopState) -> SampleBatch:
        """The columns a loop fits on: the visible ones plus its library's and
        signals' from the hidden record."""
        return self.dataset.to_batch(state.scope.variables + state.signals)

    def _check_wallclock(self) -> None:
        limit = self.config.max_seconds
        if limit is not None and time.monotonic() - self._start_time > limit:
            raise BudgetExceeded(f"run exceeded {limit} s")

    def _log(self, **record) -> None:
        self.run_log_.append(record)
        logger.debug("run log: %s", record)

    def _run_loop(self, kind: str, targets: tuple[str, ...],
                  library: tuple[CatalogEntry, ...], max_iterations: int) -> LoopState:
        """Seed a loop's state, then iterate on it until the trigger terminates
        the loop or ``max_iterations`` iterations have run.  The fit batch
        lives here, not in the state."""
        state = LoopState(kind, targets, library, self._scope(library),
                          Archive(self.config.islands), [])
        batch = self._batch(state)
        seed_scored = fit_and_score(
            make_linear_seed(state.scope, targets, kind), batch, state.labels,
            derived_fit_config(self.config.fit, int(kind == "ae"), 0, 0))
        for island in state.archive.islands:
            island.register(seed_scored)
        state.history.append(state.archive.best_score())
        self._log(loop=kind, iteration=0, event="seed",
                  best_score=state.history[0], best_skeleton=seed_scored.canonical,
                  added_variables=[], library=list(state.scope.variables))
        while len(state.history) <= max_iterations and not state.terminated:
            self._check_wallclock()
            batch = self._iterate(state, batch)
        if max_iterations > 0 and not state.generated_any and not state.terminated:
            raise GenerationExhausted(
                f"{kind} loop: generator produced nothing in {max_iterations} iterations")
        return state

    def _iterate(self, state: LoopState, batch: SampleBatch) -> SampleBatch:
        """Iteration ``len(state.history)``: check the trigger, admit variables
        if it says extend, then fit one prompt's completions on ``batch`` into
        one island.  Returns the batch to fit on next, rebuilt on admission."""
        cfg, kind, archive = self.config, state.kind, state.archive
        t = len(state.history)
        decision = check_trigger(state.history, cfg.window, cfg.epsilon, cfg.gamma)
        if decision is Decision.TERMINATE:
            state.terminated = True
            self._log(loop=kind, iteration=t - 1, event="terminate",
                      best_score=state.history[-1], best_skeleton=state.best.canonical)
            return batch
        added: list[CatalogEntry] = []
        ignored: list[str] = []
        if decision is Decision.EXTEND:
            try:
                added, ignored = extend_variables(
                    archive, state.library, self.dataset, self.model,
                    cfg.top_k, excluded=state.signals)
                state.library += tuple(added)
                state.scope = self._scope(state.library)
                batch = self._batch(state)
            except CatalogExhausted as exc:
                self._log(loop=kind, iteration=t, event="catalog_exhausted",
                          reason=str(exc))
                logger.info("%s loop: %s", kind, exc)
        island_id, examples = archive.sample_examples(cfg.sampler, self._rng)
        prompt = build_prompt(kind, tuple(self.dataset.state_names),
                              state.library, examples, state.target_names)
        request = GenerationRequest(prompt=prompt, n_b=cfg.n_b,
                                    temperature=cfg.temperature)
        try:
            completions = generate(request, self.backend)
            state.generated_any = True
        except BackendUnavailable as exc:
            completions = []
            logger.info("%s loop iteration %d: generator unavailable (%s)",
                        kind, t, exc)
        rejected = 0
        for j, completion in enumerate(completions):
            try:
                skeleton = parse(completion.skeleton_text, state.scope,
                                 state.target_names, kind)
            except ParseError as exc:
                rejected += 1
                logger.debug("candidate rejected: %s", exc)
                continue
            if archive.island(island_id).holds(skeleton):
                logger.debug("%s loop iteration %d island %d completion %d: "
                             "duplicate not fitted: %r", kind, t, island_id, j,
                             serialize(skeleton))
                continue
            scored = fit_and_score(
                skeleton, batch, state.labels,
                derived_fit_config(cfg.fit, int(kind == "ae"), t, j),
                requirements=completion.requirements)
            archive.register(island_id, scored)
        state.history.append(max(state.history[-1], archive.best_score()))
        self._log(loop=kind, iteration=t, event="iteration",
                  best_score=state.history[-1], island=island_id,
                  candidates=len(completions), rejected=rejected,
                  added_variables=[e.name for e in added], ignored_requirements=ignored,
                  best_skeleton=state.best.canonical,
                  library=list(state.scope.variables))
        return batch

    # ---------------------------------------------------------------- output

    def result_dict(self) -> dict:
        """Final model document (written by the CLI next to the run log), its
        record the run's configuration."""
        if not hasattr(self, "de_result_"):
            raise RuntimeError("call fit() first")
        de = self.de_result_

        def dump(state: LoopState) -> dict:
            best = state.best
            return {
                "targets": list(state.target_names),
                **part_document(best.skeleton, best.params),
                "score": float(best.score),
                "terminated": state.terminated,
                "iterations": len(state.history) - 1,
            }

        ae: dict
        if self.ae_result_ is not None:
            ae = dump(self.ae_result_)
        else:
            ae = {"skipped": self.ae_skip_reason_}
        return model_document(self.model.model_id, dump(de), ae, de.library,
                              config=self.config.to_dict())
