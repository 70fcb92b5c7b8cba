import numpy as np
import pytest

from invkge.core import AS_HEAD, AS_TAIL, Neighbor, Triplet, TripleStore, Vocabulary


def test_empty_store():
    store = TripleStore([])
    assert len(store) == 0
    assert store.degree(0) == 0
    assert store.neighbors(3) == []


def test_single_edge_indices():
    store = TripleStore([Triplet(0, 0, 1)])
    assert store.triplets.tolist() == [[0, 0, 1]]
    assert store.triplets.dtype == np.int64
    assert store.degrees.tolist() == [1, 1]
    assert store.degree(0) == 1
    assert store.degree(1) == 1


def test_duplicates_deduplicated():
    # hand count after dedup: {(0,0,1), (1,1,0)}, first-insertion order kept
    store = TripleStore([Triplet(1, 1, 0), Triplet(0, 0, 1), Triplet(1, 1, 0)])
    assert len(store) == 2
    assert list(store) == [Triplet(1, 1, 0), Triplet(0, 0, 1)]
    assert store.degree(0) == 2
    assert store.degree(1) == 2


def test_contains():
    store = TripleStore([Triplet(0, 0, 1)])
    assert store.contains(0, 0, 1)
    assert not store.contains(1, 0, 0)
    assert Triplet(0, 0, 1) in store
    assert (1, 0, 0) not in store
    assert (0, 0, 5) not in store  # ids beyond the store's range are never members
    assert store.contains(0, 0, np.arange(-1, 4)).tolist() == [False, False, True, False, False]


def test_neighbors_direction_tags():
    store = TripleStore([Triplet(0, 0, 1)])
    assert store.neighbors(0) == [Neighbor(entity=1, relation=0, direction=AS_HEAD)]
    assert store.neighbors(1) == [Neighbor(entity=0, relation=0, direction=AS_TAIL)]


def test_neighbors_both_directions():
    store = TripleStore([Triplet(0, 0, 1), Triplet(2, 1, 0)])
    got = store.neighbors(0)
    assert Neighbor(entity=1, relation=0, direction=AS_HEAD) in got
    assert Neighbor(entity=2, relation=1, direction=AS_TAIL) in got
    assert len(got) == 2


def test_self_loop_counts_twice():
    store = TripleStore([Triplet(3, 0, 3)])
    assert store.degree(3) == 2
    assert len(store.neighbors(3)) == 2


def test_id_range_checked():
    with pytest.raises(ValueError):
        TripleStore([Triplet(0, 0, 5)], num_entities=3)
    with pytest.raises(ValueError):
        TripleStore([Triplet(0, 7, 1)], num_entities=3, num_relations=2)
    with pytest.raises(ValueError):
        TripleStore([Triplet(-1, 0, 1)])


def _brute_force_neighbors(triplets, e):
    out = [Neighbor(t, r, AS_HEAD) for h, r, t in triplets if h == e]
    inc = [Neighbor(h, r, AS_TAIL) for h, r, t in triplets if t == e]
    return out + inc


def test_neighbors_match_brute_force_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n_ent = int(rng.integers(2, 20))
        n_rel = int(rng.integers(1, 5))
        triplets = [Triplet(int(rng.integers(n_ent)), int(rng.integers(n_rel)),
                            int(rng.integers(n_ent)))
                    for _ in range(int(rng.integers(1, 100)))]
        store = TripleStore(triplets)
        deduped = list(dict.fromkeys(triplets))
        for e in range(n_ent):
            expected = _brute_force_neighbors(deduped, e)
            got = store.neighbors(e)
            assert got == expected
            assert len(got) == store.degree(e)
        members = {tuple(t) for t in deduped}
        for h in range(n_ent + 1):
            for r in range(n_rel):
                got = store.contains(h, r, np.arange(n_ent + 1))
                assert got.tolist() == [(h, r, t) in members for t in range(n_ent + 1)]


def test_rebuild_from_dump_is_identical():
    rng = np.random.default_rng(3)
    triplets = [Triplet(int(rng.integers(10)), int(rng.integers(3)), int(rng.integers(10)))
                for _ in range(60)]
    store = TripleStore(triplets)
    assert TripleStore(list(store)) == store


def test_vocabulary_bijection_and_order():
    vocab = Vocabulary()
    assert vocab.add_entity("a") == 0
    assert vocab.add_entity("b") == 1
    assert vocab.add_entity("a") == 0  # idempotent
    assert vocab.add_relation("r") == 0
    assert vocab.entity_names == ["a", "b"]
    assert vocab.entity_id("b") == 1
    assert vocab.entity_name(1) == "b"
    assert vocab.num_entities == 2
    assert vocab.num_relations == 1
    other = Vocabulary()
    other.add_entity("a")
    other.add_entity("b")
    other.add_relation("r")
    assert vocab == other
