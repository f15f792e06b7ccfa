import numpy as np
import pytest

from daedisc.archive import (
    Archive,
    SamplerConfig,
    cluster_key,
    make_linear_seed,
)
from daedisc.dsl import SymbolScope, parse, serialize
from daedisc.fitting import SENTINEL_SCORE, ScoredSkeleton

SCOPE = SymbolScope(states=("delta", "omega"))


def scored(text, score, targets=("delta",), scope=SCOPE, kind="de"):
    sk = parse(text, scope, list(targets), kind=kind)
    params = np.zeros(sk.n_params)
    params.setflags(write=False)
    return ScoredSkeleton(skeleton=sk, params=params, score=score)


SEED = scored("ddelta/dt = p0*delta + p1*omega + p2", -1.0)


def test_seed_structure_m10():
    seed = make_linear_seed(SCOPE, ["delta", "omega"], "de")
    text = serialize(seed)
    assert text.splitlines() == [
        "ddelta/dt = p0*delta + p1*omega + p2",
        "domega/dt = p3*delta + p4*omega + p5",
    ]
    assert seed.n_params == 6
    admitted = SymbolScope(states=("delta", "omega"), variables=("P_e", "V_t"))
    assert serialize(make_linear_seed(admitted, ["delta", "omega"], "de")).splitlines() == [
        "ddelta/dt = p0*delta + p1*omega + p2*P_e + p3*V_t + p4",
        "domega/dt = p5*delta + p6*omega + p7*P_e + p8*V_t + p9",
    ]
    archive = Archive.seeded(10, SEED)
    assert archive.m == 10
    assert all(island.member_count() == 1 for island in archive.islands)


def test_seed_single_island_and_empty_scope():
    assert Archive.seeded(1, SEED).m == 1
    empty = SymbolScope(states=())
    seed = make_linear_seed(empty, ["y1"], "ae")
    assert serialize(seed) == "y1 = p0"


def test_register_rounding_rule():
    archive = Archive.seeded(1, SEED)
    archive.register(1, scored("ddelta/dt = p0*omega", -1.2341))
    archive.register(1, scored("ddelta/dt = p0*delta", -1.2339))
    island = archive.island(1)
    assert cluster_key(-1.2341) == cluster_key(-1.2339) == -1.234
    assert len(island.clusters[-1.234].members) == 2


def test_sentinel_goes_to_quarantine():
    archive = Archive.seeded(1, SEED)
    n_clusters = len(archive.island(1).clusters)
    archive.register(1, scored("ddelta/dt = p0/delta", SENTINEL_SCORE))
    assert len(archive.island(1).clusters) == n_clusters
    assert len(archive.island(1).quarantine) == 1


def test_duplicate_canonical_text_is_noop():
    archive = Archive.seeded(1, SEED)
    archive.register(1, scored("ddelta/dt = p0*omega", -2.0))
    before = archive.island(1).member_count()
    assert not archive.register(1, scored("ddelta/dt = p0 * omega", -2.5))
    assert archive.island(1).member_count() == before


def test_holds_members_quarantine_and_seed_by_canonical_text():
    archive = Archive.seeded(2, SEED)
    archive.register(1, scored("ddelta/dt = p0*omega", -2.0))
    archive.register(1, scored("ddelta/dt = p0/delta", SENTINEL_SCORE))

    def sk(text):
        return parse(text, SCOPE, ["delta"], kind="de")

    island, other = archive.island(1), archive.island(2)
    assert island.holds(sk("ddelta/dt = p0*omega"))
    assert island.holds(sk("ddelta/dt  =  p0 * omega"))  # spacing only
    assert island.holds(sk("ddelta/dt = p0/delta"))  # quarantined
    assert island.holds(sk(SEED.canonical))
    assert other.holds(sk(SEED.canonical))
    assert not other.holds(sk("ddelta/dt = p0*omega"))  # per island
    assert not island.holds(sk("ddelta/dt = p0*delta"))
    # what holds answers is what register would drop
    assert not archive.register(1, scored("ddelta/dt=p0*omega", -0.5))
    assert archive.register(2, scored("ddelta/dt=p0*omega", -0.5))
    assert other.holds(sk("ddelta/dt = p0*omega"))


def test_single_member_sampled_with_probability_one():
    archive = Archive.seeded(1, SEED)
    rng = np.random.default_rng(0)
    island_id, examples = archive.sample_examples(SamplerConfig(), rng)
    assert island_id == 1
    assert [e.canonical for e in examples] == [SEED.canonical]


def test_cluster_softmax_analytic_two_clusters():
    # mean scores -1 and -2 at tau 0.2: P(first) = 1/(1+e^-5)
    archive = Archive.seeded(1, scored("ddelta/dt = p0*delta", -1.0))
    archive.register(1, scored("ddelta/dt = p0*omega", -2.0))
    island = archive.island(1)
    rng = np.random.default_rng(7)
    n = 100_000
    hits = sum(archive.sample_cluster(island, 0.2, rng).key == -1.0 for _ in range(n))
    p_expected = 1.0 / (1.0 + np.exp(-5.0))
    se = np.sqrt(p_expected * (1 - p_expected) / n)
    assert abs(hits / n - p_expected) < 4 * se


def test_member_softmax_prefers_shorter():
    # lengths 26 vs 37 at tau 0.2: longer one is ~e^-55 unlikely
    a = scored("ddelta/dt = p0*(omega - 1)", -1.0)
    b = scored("ddelta/dt = p0*(omega - 1) + p1*delta", -1.0002)
    archive = Archive.seeded(1, a)
    archive.register(1, b)
    island = archive.island(1)
    cluster = island.clusters[cluster_key(-1.0)]
    assert len(cluster.members) == 2
    rng = np.random.default_rng(3)
    first = [archive.sample_members(cluster, 1, 0.2, rng)[0].canonical
             for _ in range(2000)]
    assert all(text == a.canonical for text in first)


def test_examples_ordered_ascending_and_same_island():
    archive = Archive.seeded(3, SEED)
    for island_id in (1, 2, 3):
        archive.register(island_id, scored("ddelta/dt = p0*omega", -0.5))
        archive.register(island_id, scored("ddelta/dt = p0*delta", -0.25))
    rng = np.random.default_rng(1)
    for _ in range(50):
        island_id, examples = archive.sample_examples(
            SamplerConfig(examples_per_prompt=2), rng)
        assert 1 <= island_id <= 3
        scores = [e.score for e in examples]
        assert scores == sorted(scores)
        assert len(examples) == 2


def test_cluster_spillover_on_exhaustion():
    archive = Archive.seeded(1, SEED)
    archive.register(1, scored("ddelta/dt = p0*omega", -0.5))
    rng = np.random.default_rng(5)
    _, examples = archive.sample_examples(SamplerConfig(examples_per_prompt=2), rng)
    assert len(examples) == 2  # two singleton clusters, second drawn on spillover
    texts = {e.canonical for e in examples}
    assert len(texts) == 2


def test_island_marginal_uniform():
    archive = Archive.seeded(10, SEED)
    rng = np.random.default_rng(11)
    n = 10_000
    counts = np.zeros(10)
    for _ in range(n):
        island_id, _ = archive.sample_examples(SamplerConfig(examples_per_prompt=1), rng)
        counts[island_id - 1] += 1
    p = 1.0 / 10.0
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3 * sigma)


def test_best_and_tie_breaks():
    archive = Archive.seeded(1, scored("ddelta/dt = p0*delta + p1*omega + p2", -3.0))
    archive.register(1, scored("ddelta/dt = p0*omega - p1*delta", -2.0))
    archive.register(1, scored("ddelta/dt = p0*omega", -1.0))
    assert archive.best().canonical == "ddelta/dt = p0*omega"
    # tie on score: shorter canonical text wins
    archive.register(1, scored("ddelta/dt = p0*omega + p1*delta*delta", -1.0))
    assert archive.best().canonical == "ddelta/dt = p0*omega"
    # fresh archive returns the seed
    fresh = Archive.seeded(4, SEED)
    assert fresh.best().canonical == SEED.canonical


def test_best_monotone_under_registration():
    rng = np.random.default_rng(2)
    archive = Archive.seeded(2, SEED)
    best = archive.best_score()
    pool = ["p0*delta", "p0*omega", "p0*delta + p1", "p0*sin(delta)",
            "p0*omega + p1*delta", "p0", "p0*cos(omega)"]
    for i in range(40):
        text = f"ddelta/dt = {pool[rng.integers(len(pool))]} + {i}"
        archive.register(int(rng.integers(1, 3)), scored(text, float(rng.uniform(-5, 0))))
        new_best = archive.best_score()
        assert new_best >= best
        best = new_best


def test_top_k_distinct():
    archive = Archive.seeded(2, SEED)
    archive.register(1, scored("ddelta/dt = p0*omega", -0.5))
    archive.register(2, scored("ddelta/dt = p0*omega", -0.5))
    archive.register(2, scored("ddelta/dt = p0*delta", -0.7))
    top = archive.top(3)
    texts = [c.canonical for c in top]
    assert len(texts) == len(set(texts)) == 3
    assert top[0].canonical == "ddelta/dt = p0*omega"


def test_snapshot_roundtrip(tmp_path):
    archive = Archive.seeded(3, SEED)
    archive.register(1, scored("ddelta/dt = p0*omega", -0.5))
    archive.register(2, scored("ddelta/dt = p0/delta", SENTINEL_SCORE))
    path = tmp_path / "arch.json"
    archive.save(path, "de", ["delta"], SCOPE)
    loaded, scope = Archive.load(path)
    assert scope == SCOPE
    assert loaded.m == 3
    assert loaded.best().canonical == archive.best().canonical
    assert loaded.best().score == archive.best().score
    assert len(loaded.island(2).quarantine) == 1
    # snapshots are stable through a save/load cycle
    snap_a = archive.to_snapshot("de", ["delta"], SCOPE)
    snap_b = loaded.to_snapshot("de", ["delta"], SCOPE)
    assert snap_a == snap_b


def test_snapshot_refuses_island_ids_outside_the_archive_or_repeated():
    # island k is islands[k - 1]: id 0 would load into the last island, an id
    # above m would raise a bare IndexError and a repeated id would merge two
    snap = Archive.seeded(3, SEED).to_snapshot("de", ["delta"], SCOPE)
    for ids, message in (((0, 2, 3), "island id 0 is not in 1..3"),
                         ((1, 2, 4), "island id 4 is not in 1..3"),
                         ((1, 2, 2), "island id 2 is repeated")):
        bad = {**snap, "islands": [{**island, "id": i}
                                   for island, i in zip(snap["islands"], ids)]}
        with pytest.raises(ValueError, match=message):
            Archive.from_snapshot(bad)
    # a snapshot may list its islands in any order
    reordered = {**snap, "islands": snap["islands"][::-1]}
    assert Archive.from_snapshot(reordered)[0].to_snapshot("de", ["delta"], SCOPE) == snap


@pytest.mark.parametrize("params, score, message", [
    ([0.0, 0.0, 0.0, 0.0], -0.5, "4 params for a skeleton with 2"),
    ([0.0], -0.5, "1 params for a skeleton with 2"),
    ([0.0, 0.0], "nan", "score nan is not finite"),
    ([0.0, 0.0], "inf", "score inf is not finite"),
    ([0.0, 0.0], float("-inf"), "score -inf is not finite"),
    ([float("nan"), 0.0], -0.5, r"params \[nan, 0.0\] are not finite"),
    ([0.0, float("-inf")], -0.5, r"params \[0.0, -inf\] are not finite"),
])
def test_snapshot_refuses_members_that_do_not_fit_their_skeleton(params, score, message):
    archive = Archive.seeded(2, SEED)
    archive.register(2, scored("ddelta/dt = p0*omega + p1", -0.5))
    snap = archive.to_snapshot("de", ["delta"], SCOPE)
    [member] = [m for c in snap["islands"][1]["clusters"] for m in c["members"]
                if m["text"] == "ddelta/dt = p0*omega + p1"]
    member.update(params=params, score=score)
    with pytest.raises(ValueError, match=r"island 2, 'ddelta/dt = p0\*omega \+ p1': "
                                         + message):
        Archive.from_snapshot(snap)


@pytest.mark.parametrize("requirement, message", [
    ({"name": "P_e", "extra": 1}, "unexpected keyword argument 'extra'"),
    ({"justification": "load"}, "missing 1 required positional argument: 'name'"),
])
def test_snapshot_refuses_requirements_with_unknown_or_missing_keys(requirement, message):
    archive = Archive.seeded(2, SEED)
    archive.register(2, scored("ddelta/dt = p0*omega + p1", -0.5))
    snap = archive.to_snapshot("de", ["delta"], SCOPE)
    [member] = [m for c in snap["islands"][1]["clusters"] for m in c["members"]
                if m["text"] == "ddelta/dt = p0*omega + p1"]
    member["requirements"] = [requirement]
    with pytest.raises(ValueError, match=r"island 2, 'ddelta/dt = p0\*omega \+ p1': "
                                         r"requirement .*" + message):
        Archive.from_snapshot(snap)
