"""Island-based experience store for scored skeletons.

Scored candidates are registered into one of ``m`` islands; within an island
they group into clusters, each a member list under its score key, the score
rounded to three decimals.
In-context examples are drawn in two softmax stages: an island is chosen
uniformly, then a cluster proportional to ``exp(mean_score / tau_cluster)``,
then skeletons within the cluster without replacement proportional to
``exp(-code_length / tau_length)``, spilling into another cluster of the same
island if the first runs out.  Each stage is a method of its own, drawing from
the caller's generator in a fixed order.  Returned examples are ordered
worst-first so a prompt reads as an improvement sequence.

Worst-sentinel (poisoned) candidates are quarantined: they stay inspectable
but never join a cluster and are never sampled.  Duplicate canonical text
within an island registers as a no-op, and ``Island.holds`` answers that
question before a fit, so the engine never fits a candidate its island
would drop.

The archive is a single mutation domain; callers serialize registrations and
sampling, and supply their own random generator so runs stay reproducible.

A snapshot holds the archive's islands, clusters and members with the scope,
kind and targets its texts parse under.  Loading one refuses, with a
``ValueError`` naming the key, a frame or member key that is missing or of
the wrong type, as well as members that do not fit their skeleton.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dsl import Skeleton, SymbolScope, code_length, make_skeleton, serialize, term_sum
from .fitting import Requirement, ScoredSkeleton, part_document, part_value, read_fitted, read_json

SCORE_KEY_DECIMALS = 3


@dataclass(frozen=True)
class SamplerConfig:
    tau_cluster: float = 0.2
    tau_length: float = 0.2
    examples_per_prompt: int = 2

    def __post_init__(self):
        if self.tau_cluster <= 0 or self.tau_length <= 0:
            raise ValueError("temperatures must be positive")
        if self.examples_per_prompt < 1:
            raise ValueError("examples_per_prompt must be >= 1")


def cluster_key(score: float) -> float:
    return round(float(score), SCORE_KEY_DECIMALS)


@dataclass
class Island:
    island_id: int
    # score key -> the members with that key, in registration order
    clusters: dict[float, list[ScoredSkeleton]] = field(default_factory=dict)
    quarantine: list[ScoredSkeleton] = field(default_factory=list)
    _texts: set[str] = field(default_factory=set)

    def member_count(self) -> int:
        return sum(len(members) for members in self.clusters.values())

    def holds(self, skeleton: Skeleton) -> bool:
        """Whether this island already holds the skeleton's canonical text,
        as a member or in quarantine."""
        return serialize(skeleton) in self._texts

    def register(self, cand: ScoredSkeleton) -> bool:
        text = cand.canonical
        if text in self._texts:
            return False
        self._texts.add(text)
        if cand.poisoned:
            self.quarantine.append(cand)
            return True
        self.clusters.setdefault(cluster_key(cand.score), []).append(cand)
        return True


# what each key of a snapshot's frame, islands and members holds, beyond a
# member's text and params, and the test of it; a bool is no number
_SNAPSHOT_TYPES = {
    "scope": ("an object", lambda v: isinstance(v, dict)),
    "kind": ("a string", lambda v: isinstance(v, str)),
    "score": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    **dict.fromkeys(("m", "id"), (
        "an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))),
    **dict.fromkeys(("states", "variables", "target_names"), (
        "a list of names", lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v))),
    **dict.fromkeys(("islands", "clusters", "quarantine", "members", "requirements"), (
        "a list", lambda v: isinstance(v, list))),
}


def _snapshot_value(part, key: str, where: str):
    """``part[key]`` read through ``fitting.part_value``, refused with a
    ``ValueError`` naming ``where`` and the key unless of its snapshot type."""
    value = part_value(part, key, where)
    description, test = _SNAPSHOT_TYPES[key]
    if not test(value):
        raise ValueError(f"{where} has a {key!r} that is not {description}")
    return value


def _ordering(cand: ScoredSkeleton) -> tuple:
    """Total order: higher score, then shorter, then lexicographic text."""
    return (-cand.score, code_length(cand.skeleton), cand.canonical)


def _softmax(values: np.ndarray, tau: float) -> np.ndarray:
    scaled = values / tau
    scaled = scaled - scaled.max()
    weights = np.exp(scaled)
    return weights / weights.sum()


class Archive:
    def __init__(self, m: int):
        if m < 1:
            raise ValueError("need at least one island")
        self.islands: list[Island] = [Island(island_id=k) for k in range(1, m + 1)]

    @property
    def m(self) -> int:
        return len(self.islands)

    def island(self, island_id: int) -> Island:
        return self.islands[island_id - 1]

    @classmethod
    def seeded(cls, m: int, scored_seed: ScoredSkeleton) -> "Archive":
        archive = cls(m)
        for island in archive.islands:
            island.register(scored_seed)
        return archive

    def register(self, island_id: int, cand: ScoredSkeleton) -> bool:
        return self.island(island_id).register(cand)

    def all_members(self):
        for island in self.islands:
            for members in island.clusters.values():
                yield from members

    def best(self) -> ScoredSkeleton:
        members = list(self.all_members())
        if not members:
            raise ValueError("archive holds no scored skeletons")
        return min(members, key=_ordering)

    def best_score(self) -> float:
        return self.best().score

    def top(self, k: int) -> list[ScoredSkeleton]:
        """Best k cluster members across islands, distinct canonical texts."""
        ranked = sorted(self.all_members(), key=_ordering)
        out: list[ScoredSkeleton] = []
        seen: set[str] = set()
        for cand in ranked:
            text = cand.canonical
            if text in seen:
                continue
            seen.add(text)
            out.append(cand)
            if len(out) == k:
                break
        return out

    # -- two-stage sampling --------------------------------------------------

    def sample_island(self, rng: np.random.Generator) -> int:
        return int(rng.integers(1, self.m + 1))

    def sample_cluster(self, island: Island, tau: float, rng: np.random.Generator,
                       exclude: set[float] | None = None) -> float | None:
        """The score key of a cluster drawn by softmax over mean score, or
        None when every cluster is excluded."""
        keys = sorted(k for k in island.clusters
                      if not exclude or k not in exclude)
        if not keys:
            return None
        means = np.array([np.mean([m.score for m in island.clusters[k]]) for k in keys])
        probs = _softmax(means, tau)
        return keys[int(rng.choice(len(keys), p=probs))]

    def sample_members(self, members: list[ScoredSkeleton], count: int, tau: float,
                       rng: np.random.Generator) -> list[ScoredSkeleton]:
        """Sequential softmax over code length, without replacement."""
        remaining = list(members)
        drawn: list[ScoredSkeleton] = []
        while remaining and len(drawn) < count:
            lengths = np.array([float(code_length(c.skeleton)) for c in remaining])
            probs = _softmax(-lengths, tau)
            idx = int(rng.choice(len(remaining), p=probs))
            drawn.append(remaining.pop(idx))
        return drawn

    def sample_examples(self, cfg: SamplerConfig,
                        rng: np.random.Generator) -> tuple[int, list[ScoredSkeleton]]:
        """(island id, examples ordered ascending by score)."""
        island_id = self.sample_island(rng)
        island = self.island(island_id)
        drawn: list[ScoredSkeleton] = []
        tried: set[float] = set()
        while len(drawn) < cfg.examples_per_prompt:
            key = self.sample_cluster(island, cfg.tau_cluster, rng, exclude=tried)
            if key is None:
                break
            tried.add(key)
            drawn.extend(self.sample_members(
                island.clusters[key], cfg.examples_per_prompt - len(drawn),
                cfg.tau_length, rng))
        drawn.sort(key=lambda c: c.score)
        return island_id, drawn

    # -- persistence -----------------------------------------------------------

    def to_snapshot(self, kind: str, target_names, scope: SymbolScope) -> dict:
        def dump(cand: ScoredSkeleton) -> dict:
            return {
                **part_document(cand.skeleton, cand.params),
                "score": float(cand.score),
                "requirements": [asdict(r) for r in cand.requirements],
            }

        return {
            "format": "daedisc-archive",
            "version": 1,
            "kind": kind,
            "target_names": list(target_names),
            "scope": {"states": list(scope.states), "variables": list(scope.variables)},
            "m": self.m,
            "islands": [
                {
                    "id": island.island_id,
                    "clusters": [
                        {"key": key, "members": [dump(c) for c in members]}
                        for key, members in sorted(island.clusters.items())
                    ],
                    "quarantine": [dump(c) for c in island.quarantine],
                }
                for island in self.islands
            ],
        }

    @classmethod
    def from_snapshot(cls, snap: dict) -> tuple["Archive", SymbolScope]:
        if not isinstance(snap, dict) or snap.get("format") != "daedisc-archive":
            raise ValueError("not an archive snapshot")
        frame = "archive snapshot"
        held = _snapshot_value(snap, "scope", frame)
        states, variables = (tuple(_snapshot_value(held, key, f"{frame}: scope"))
                             for key in ("states", "variables"))
        scope = SymbolScope(states=states, variables=variables)
        kind = _snapshot_value(snap, "kind", frame)
        targets = _snapshot_value(snap, "target_names", frame)

        def load(island_id: int, item: dict) -> ScoredSkeleton:
            text = part_value(item, "text", f"{frame}: island {island_id}, a member")
            where = f"{frame}: island {island_id}, {text!r}"
            skeleton, params = read_fitted(text, part_value(item, "params", where), scope,
                                           targets, kind, where)
            score = float(_snapshot_value(item, "score", where))
            # poisoned members carry the finite sentinel score and zero params
            if not np.isfinite(score):
                raise ValueError(f"{where}: score {score} is not finite")
            requirements = []
            for r in _snapshot_value(item, "requirements", where):
                try:
                    requirement = Requirement(**r)
                except TypeError as exc:  # an unknown or missing key
                    raise ValueError(f"{where}: requirement {r!r}: {exc}") from None
                for key, value in asdict(requirement).items():
                    if not isinstance(value, str):
                        raise ValueError(f"{where}: requirement {r!r} has a {key!r} "
                                         f"that is not a string")
                requirements.append(requirement)
            return ScoredSkeleton(skeleton=skeleton, params=params, score=score,
                                  requirements=tuple(requirements))

        archive = cls(_snapshot_value(snap, "m", frame))
        seen: set[int] = set()
        for island_snap in _snapshot_value(snap, "islands", frame):
            island_id = _snapshot_value(island_snap, "id", f"{frame}: an island")
            if island_id in seen:
                raise ValueError(f"{frame}: island id {island_id} is repeated")
            if not 1 <= island_id <= archive.m:
                raise ValueError(f"{frame}: island id {island_id} is not in 1..{archive.m}")
            seen.add(island_id)
            where = f"{frame}: island {island_id}"
            members = [item for c in _snapshot_value(island_snap, "clusters", where)
                       for item in _snapshot_value(c, "members", f"{where}, a cluster")]
            for item in members + _snapshot_value(island_snap, "quarantine", where):
                archive.island(island_id).register(load(island_id, item))
        return archive, scope

    def save(self, path: str | Path, kind: str, target_names, scope: SymbolScope) -> None:
        Path(path).write_text(json.dumps(
            self.to_snapshot(kind, target_names, scope), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> tuple["Archive", SymbolScope]:
        return cls.from_snapshot(read_json(path))


def make_linear_seed(scope: SymbolScope, target_names, kind: str) -> Skeleton:
    """One line per target: a parameter-weighted sum of every scope symbol
    plus a bias slot, with distinct slots per target."""
    products = [(name,) for name in scope.symbols] + [()]
    return make_skeleton(kind, list(target_names),
                         [term_sum(products, t * len(products))
                          for t in range(len(target_names))])
