import logging

import numpy as np
import pytest

from invkge.core import TripleStore
from invkge.estimation import cap_neighbors, estimate_candidates
from invkge.models import ROTATE, TRANSE, EmbeddingTables, init_tables, translation_distance
from invkge.seeding import substream


def _init_float64(*args, **kwargs):
    """``init_tables`` widened to float64, the dtype these oracles compute in."""
    tables = init_tables(*args, **kwargs)
    tables.entity = tables.entity.astype(np.float64)
    tables.relation = tables.relation.astype(np.float64)
    return tables


def _distance(tables, h, rel, t):
    return float(translation_distance(tables.model, tables.norm_order, h,
                                      tables.relation_vec(rel), t))


def _transe_fixture():
    # entity 0 is the out-of-graph one; 1 and 2 are pretrained
    entity = np.array([[0.0, 0.0], [1.5, 1.0], [1.0, 1.0]])
    relation = np.array([[0.5, -1.0], [2.0, 0.0]])
    return EmbeddingTables(TRANSE, 2, 1, entity, relation)


def test_invtranse_head_case():
    tables = _transe_fixture()
    aux = TripleStore([(0, 0, 1)], num_entities=3, num_relations=2)
    cset = estimate_candidates(tables, aux, [0], ikg_entities=[1, 2])
    assert len(cset) == 1
    assert cset.entities.tolist() == [0] and cset.offsets.tolist() == [0, 1]
    assert np.array_equal(cset.vectors[0], np.array([1.0, 2.0]))  # t - r
    assert cset.as_head[0]
    assert cset.source_entity[0] == 1
    assert cset.source_relation[0] == 0


def test_invtranse_tail_case():
    tables = _transe_fixture()
    aux = TripleStore([(2, 1, 0)], num_entities=3, num_relations=2)
    cset = estimate_candidates(tables, aux, [0], ikg_entities=[1, 2])
    assert np.array_equal(cset.vectors[0], np.array([3.0, 1.0]))  # h + r
    assert not cset.as_head[0]


def test_invrotate_quarter_turn_inverse():
    entity = np.zeros((2, 2))
    entity[1] = [0.0, 1.0]  # complex 0+1j interleaved
    relation = np.array([[np.pi / 2]])
    tables = EmbeddingTables(ROTATE, 1, 1, entity, relation)
    aux = TripleStore([(0, 0, 1)], num_entities=2, num_relations=1)
    cset = estimate_candidates(tables, aux, [0], ikg_entities=[1])
    assert np.allclose(cset.vectors[0], np.array([1.0 + 0.0j]), atol=1e-12)


def test_invrotate_tail_case_applies_rotation():
    rng = np.random.default_rng(0)
    tables = init_tables(1, ROTATE, 4, 5, 3)
    aux = TripleStore([(2, 1, 0)], num_entities=5, num_relations=3)
    cset = estimate_candidates(tables, aux, [0], ikg_entities=[1, 2, 3, 4])
    expected = tables.entity_matrix()[2] * np.exp(1j * tables.relation[1])
    assert np.allclose(cset.vectors[0], expected, atol=1e-15)


def test_candidates_follow_aux_store_order():
    tables = init_tables(2, TRANSE, 4, 6, 3)
    aux = TripleStore([(0, 1, 3), (0, 0, 2), (4, 2, 0)],
                      num_entities=6, num_relations=3)
    cset = estimate_candidates(tables, aux, [0], ikg_entities=[1, 2, 3, 4, 5])
    got = list(zip(cset.source_entity.tolist(), cset.source_relation.tolist(),
                   cset.as_head.tolist()))
    assert got == [(3, 1, True), (2, 0, True), (4, 2, False)]


def test_no_usable_neighbor_leaves_the_entity_out():
    tables = init_tables(0, TRANSE, 4, 4, 2)
    aux = TripleStore([(1, 0, 2)], num_entities=4, num_relations=2)
    cset = estimate_candidates(tables, aux, [3, 0], ikg_entities=[1, 2])
    assert cset.entities.size == 0 and cset.offsets.tolist() == [0] and len(cset) == 0


def test_ookg_neighbor_skipped_with_warning(caplog):
    tables = init_tables(0, TRANSE, 4, 5, 2)
    # neighbor 4 is itself out-of-graph: skipped, not fatal
    aux = TripleStore([(0, 0, 1), (0, 1, 4)], num_entities=5, num_relations=2)
    with caplog.at_level(logging.WARNING):
        cset = estimate_candidates(tables, aux, [0], ikg_entities=[1, 2, 3])
    assert len(cset) == 1
    assert "skipped" in caplog.text


def test_skipped_neighbors_warn_once_per_call(caplog):
    tables = init_tables(0, TRANSE, 4, 12, 2)
    # entities 0..4 each have one clean and one dirty neighbor (10 is out of graph)
    aux = TripleStore([t for e in range(5) for t in ((e, 0, 5 + e), (10, 1, e))],
                      num_entities=12, num_relations=2)
    with caplog.at_level(logging.WARNING):
        cset = estimate_candidates(tables, aux, range(5), ikg_entities=range(5, 10))
    assert cset.counts.tolist() == [1] * 5
    skipped = [r for r in caplog.records if "skipped" in r.getMessage()]
    assert len(skipped) == 1
    assert "skipped 5 aux neighbors of 5 entities" in skipped[0].getMessage()


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_candidates_zero_their_generating_triplet(model):
    rng = np.random.default_rng(5)
    for trial in range(30):
        n_ent = 8
        tables = init_tables(int(rng.integers(1 << 30)), model, int(rng.integers(2, 10)),
                             n_ent, 4, margin=float(rng.uniform(0.5, 8.0)))
        e = 0
        other = int(rng.integers(1, n_ent))
        rel = int(rng.integers(4))
        as_head = bool(rng.random() < 0.5)
        trip = (e, rel, other) if as_head else (other, rel, e)
        aux = TripleStore([trip], num_entities=n_ent, num_relations=4)
        cset = estimate_candidates(tables, aux, [e], ikg_entities=range(1, n_ent))
        vec = cset.vectors[0]
        if as_head:
            assert _distance(tables, vec, rel, tables.entity_matrix()[other]) < 1e-6
        else:
            assert _distance(tables, tables.entity_matrix()[other], rel, vec) < 1e-6


def test_invrotate_preserves_source_moduli():
    tables = init_tables(3, ROTATE, 6, 5, 3)
    aux = TripleStore([(0, 0, 1), (2, 1, 0)], num_entities=5, num_relations=3)
    cset = estimate_candidates(tables, aux, [0], ikg_entities=[1, 2, 3, 4])
    assert len(cset) == 2
    for vec, source in zip(cset.vectors, cset.source_entity):
        source_mod = np.abs(tables.entity_matrix()[source])
        assert np.allclose(np.abs(vec), source_mod, atol=1e-12)


def test_invtranse_forward_reproduces_source_exactly():
    # integer-valued embeddings keep float arithmetic exact
    entity = np.array([[0.0, 0.0], [3.0, -2.0]])
    relation = np.array([[5.0, 7.0]])
    tables = EmbeddingTables(TRANSE, 2, 1, entity, relation)
    aux = TripleStore([(0, 0, 1)], num_entities=2, num_relations=1)
    vec = estimate_candidates(tables, aux, [0], [1]).vectors[0]
    assert np.array_equal(vec + relation[0], entity[1])


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_any_other_vector_has_positive_residual(model):
    rng = np.random.default_rng(9)
    tables = init_tables(4, model, 5, 6, 2, margin=3.0)
    aux = TripleStore([(0, 1, 3)], num_entities=6, num_relations=2)
    cand = estimate_candidates(tables, aux, [0], range(1, 6)).vectors[0]
    for _ in range(20):
        if model == ROTATE:
            noise = rng.normal(size=5) + 1j * rng.normal(size=5)
        else:
            noise = rng.normal(size=5)
        other_vec = cand + noise * 0.1
        assert _distance(tables, other_vec, 1, tables.entity_matrix()[3]) > 0


def test_cap_noop_when_k_exceeds_count():
    tables = init_tables(0, TRANSE, 4, 8, 2)
    aux = TripleStore([(0, 0, i) for i in range(1, 6)], num_entities=8, num_relations=2)
    cset = estimate_candidates(tables, aux, [0], range(1, 8))
    capped = cap_neighbors(cset, 8, seed=0)
    assert len(capped) == 5
    assert capped.source_entity.tolist() == cset.source_entity.tolist()


def test_cap_selects_exactly_k():
    tables = init_tables(0, TRANSE, 4, 8, 2)
    aux = TripleStore([(0, 0, i) for i in range(1, 6)], num_entities=8, num_relations=2)
    cset = estimate_candidates(tables, aux, [0], range(1, 8))
    capped = cap_neighbors(cset, 1, seed=0)
    assert len(capped) == 1
    with pytest.raises(ValueError):
        cap_neighbors(cset, 0, seed=0)


def test_cap_deterministic_and_order_preserving():
    tables = init_tables(1, TRANSE, 4, 50, 2)
    aux = TripleStore([(0, 0, i) for i in range(1, 41)], num_entities=50, num_relations=2)
    cset = estimate_candidates(tables, aux, [0], range(1, 50))
    a = cap_neighbors(cset, 32, seed=7)
    b = cap_neighbors(cset, 32, seed=7)
    assert a.source_entity.tolist() == b.source_entity.tolist()
    order = a.source_entity.tolist()
    full_order = cset.source_entity.tolist()
    assert order == [e for e in full_order if e in set(order)]


def _random_aux(rng, n_ent, n_rel, ookg):
    """Aux triplets around the ``ookg`` entities, with duplicates and dirty neighbors."""
    triplets = []
    for _ in range(int(rng.integers(1, 60))):
        e = int(rng.choice(ookg))
        other = int(rng.integers(n_ent))  # may itself be out of graph: dirty
        rel = int(rng.integers(n_rel))
        triplets.append((e, rel, other) if rng.random() < 0.5 else (other, rel, e))
    return triplets


def _scalar_candidates(tables, triplets, entity, ikg):
    """Per-entity oracle: head-role neighbors, then tail-role ones, in aux order."""
    rows = []
    deduped = list(dict.fromkeys(triplets))
    for as_head in (True, False):
        for h, r, t in deduped:
            if (h if as_head else t) != entity:
                continue
            other = t if as_head else h
            if other not in ikg:
                continue
            src = tables.entity_matrix()[other]
            if tables.model == ROTATE:
                rot = np.exp(1j * tables.relation[r])
                vec = src * np.conj(rot) if as_head else src * rot
            else:
                vec = src - tables.relation[r] if as_head else src + tables.relation[r]
            rows.append((vec, other, r, as_head))
    return rows


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_batched_candidates_match_scalar_oracle(model):
    rng = np.random.default_rng(61)
    for _ in range(40):
        n_ent, n_rel = int(rng.integers(4, 30)), int(rng.integers(1, 5))
        tables = _init_float64(int(rng.integers(1 << 30)), model, int(rng.integers(1, 6)),
                               n_ent, n_rel)
        ookg = rng.choice(n_ent, size=int(rng.integers(1, n_ent // 2 + 1)), replace=False)
        ikg = np.setdiff1d(np.arange(n_ent), ookg)
        triplets = _random_aux(rng, n_ent, n_rel, ookg)
        aux = TripleStore(triplets, num_entities=n_ent, num_relations=n_rel)
        requested = rng.permutation(ookg)
        cset = estimate_candidates(tables, aux, requested, ikg)
        expected = {int(e): _scalar_candidates(tables, triplets, int(e), set(ikg.tolist()))
                    for e in requested}
        assert cset.entities.tolist() == [int(e) for e in requested if expected[int(e)]]
        for i, e in enumerate(cset.entities.tolist()):
            seg = slice(cset.offsets[i], cset.offsets[i + 1])
            rows = expected[e]
            assert cset.source_entity[seg].tolist() == [row[1] for row in rows]
            assert cset.source_relation[seg].tolist() == [row[2] for row in rows]
            assert cset.as_head[seg].tolist() == [row[3] for row in rows]
            vectors = np.array([row[0] for row in rows])
            if model == TRANSE:
                assert np.array_equal(cset.vectors[seg], vectors)
            else:  # a complex product may round differently inside and outside SIMD loops
                assert np.allclose(cset.vectors[seg], vectors, rtol=0.0, atol=1e-15)


def test_cap_draws_each_entity_from_its_own_substream():
    rng = np.random.default_rng(67)
    tables = init_tables(2, TRANSE, 3, 60, 3)
    ookg = np.arange(10)
    triplets = [(int(e), int(rng.integers(3)), int(rng.integers(10, 60)))
                for e in ookg for _ in range(int(rng.integers(1, 12)))]
    aux = TripleStore(triplets, num_entities=60, num_relations=3)
    cset = estimate_candidates(tables, aux, ookg, range(10, 60))
    for seed in (0, 5):
        for k in (1, 2, 4):
            capped = cap_neighbors(cset, k, seed)
            assert capped.entities.tolist() == cset.entities.tolist()
            for i, e in enumerate(cset.entities.tolist()):
                n = int(cset.counts[i])
                full = cset.source_entity[cset.offsets[i]:cset.offsets[i + 1]]
                kept = capped.source_entity[capped.offsets[i]:capped.offsets[i + 1]]
                if n <= k:
                    assert kept.tolist() == full.tolist()
                else:
                    idx = np.sort(substream(seed, "capping", e).choice(n, k, replace=False))
                    assert kept.tolist() == full[idx].tolist()


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_candidates_equal_the_per_side_formula_bit_for_bit(model):
    # both sides and every relation; the reference gathers one relation row per
    # candidate and picks the inverse or forward form per row, and multiplies with the
    # relation operand first, as the candidates do at any size
    rng = np.random.default_rng(8)
    n_ent, n_rel = 40, 5
    tables = _init_float64(9, model, 12, n_ent, n_rel)
    triplets = [(e, int(rng.integers(n_rel)), int(rng.integers(10, n_ent)))
                if rng.random() < 0.5 else (int(rng.integers(10, n_ent)), int(rng.integers(n_rel)), e)
                for e in range(10) for _ in range(int(rng.integers(1, 6)))]
    aux = TripleStore(triplets, num_entities=n_ent, num_relations=n_rel)
    cset = estimate_candidates(tables, aux, np.arange(10), ikg_entities=range(10, n_ent))
    source = tables.entity_matrix()[cset.source_entity]
    side = cset.as_head[:, None]
    if model == ROTATE:
        rot = np.exp(1j * tables.relation)[cset.source_relation]
        expected = np.where(side, np.conj(rot), rot) * source
    else:
        rel = tables.relation[cset.source_relation]
        expected = source + np.where(side, -rel, rel)
    assert len(cset) == len(triplets) and cset.as_head.any() and not cset.as_head.all()
    assert np.array_equal(cset.vectors[:], expected)


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_an_estimate_alone_equals_its_row_in_a_large_batch(model):
    # desk-shaped graph, d300 float32 tables: the batch's candidate rows pass NumPy's
    # 256 KB temporary-elision threshold, so a product's operand order must not depend on size
    from invkge.datasets import generate_trainable_splits
    from invkge.evaluation import embed_ookg
    splits, _ = generate_trainable_splits(1)
    n_ent, n_rel = splits.vocab.num_entities, splits.vocab.num_relations
    tables = init_tables(8, model, 300, n_ent, n_rel)
    aux = TripleStore(splits.aux, num_entities=n_ent, num_relations=n_rel)
    ookg = splits.ookg_entities
    cset = estimate_candidates(tables, aux, ookg, splits.ikg_entities)
    assert cset.vectors.shape[0] * 300 * cset.vectors.dtype.itemsize > 256 * 1024
    batch, found = embed_ookg(tables, splits, "degree", ookg, None)
    composed = cset.vectors[:]
    assert found.any()
    for i, entity in enumerate(ookg.tolist()):
        alone, one_found = embed_ookg(tables, splits, "degree", [entity], None)
        assert one_found[0] == found[i] and np.array_equal(alone[0], batch[i])
    for i, entity in enumerate(cset.entities.tolist()):
        rows = estimate_candidates(tables, aux, [entity], splits.ikg_entities).vectors[:]
        assert np.array_equal(rows, composed[cset.offsets[i]:cset.offsets[i + 1]])
