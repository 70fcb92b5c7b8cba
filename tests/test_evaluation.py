from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from invkge import evaluation
from invkge.core import TripleStore
from invkge.datasets import (BenchmarkSplits, generate_planted_splits,
                             generate_trainable_splits)
from invkge.estimation import cap_neighbors, estimate_candidates
from invkge.evaluation import (FilterIndex, Thresholds, embed_ookg, filtered_rank,
                               format_report, link_prediction, triplet_classification,
                               tune_thresholds, write_report_csv)
from invkge.models import ROTATE, TRANSE, EmbeddingTables, init_tables, translation_distance
from invkge.reduction import reduce_candidates
from invkge.training import TrainConfig, train


def _line_tables(values, relation=0.0):
    """1-D TransE tables: entity i at values[i], a single relation offset."""
    entity = np.asarray(values, dtype=float).reshape(-1, 1)
    return EmbeddingTables(TRANSE, 1, 1, entity, np.array([[relation]]))


# ---------------------------------------------------------------------------
# filtered ranking
# ---------------------------------------------------------------------------

def _keep(findex, n, cids, known_entity, relation, tail_missing):
    """The filtered protocol's mask: the candidates ``cids`` less the query's partners."""
    keep = np.zeros(n, dtype=bool)
    keep[cids] = True
    partners, _ = findex.partners([known_entity], [relation], [tail_missing])
    keep[partners] = False
    return keep


def test_partners_match_a_per_query_scan():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n, n_rel = int(rng.integers(1, 12)), int(rng.integers(1, 4))
        triplets = rng.integers(0, [n, n_rel, n], size=(int(rng.integers(0, 60)), 3))
        loops = rng.random(len(triplets)) < 0.2
        triplets[loops, 2] = triplets[loops, 0]  # self-loops
        triplets = np.concatenate([triplets, triplets[:len(triplets) // 3]])  # repeats
        findex = FilterIndex(triplets, n, n_rel)
        m = int(rng.integers(0, 30))
        known, relations = rng.integers(n, size=m), rng.integers(n_rel, size=m)
        tail_missing = rng.random(m) < 0.5
        ids, offsets = findex.partners(known, relations, tail_missing)
        assert len(offsets) == m + 1 and offsets[-1] == len(ids)
        rows = set(map(tuple, triplets.tolist()))
        for i, (k, r, tail) in enumerate(zip(known.tolist(), relations.tolist(),
                                             tail_missing.tolist())):
            expected = sorted(t if tail else h for h, rr, t in rows
                              if rr == r and (h if tail else t) == k)
            assert sorted(ids[offsets[i]:offsets[i + 1]].tolist()) == expected


def test_rank_one_when_answer_strictly_best():
    tables = _line_tables([0.0, 5.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0])
    # query: known head at 0, relation 0, answer entity 0 (distance 0)
    rank = filtered_rank(tables, np.array([0.0]), 0, True, 0, np.ones(10, dtype=bool))
    assert rank == 1.0


def test_tie_rank_uses_mean_of_positions():
    # three candidates (including the answer) tied at the top
    tables = _line_tables([0.0, 0.0, 0.0, 5.0, 6.0])
    keep = np.ones(5, dtype=bool)
    rank = filtered_rank(tables, np.array([0.0]), 0, True, 1, keep)
    assert rank == 2.0  # (1 + 3) / 2
    assert keep.all()  # the caller's mask is left as it was
    keep[1] = False  # the answer is ranked whatever its own entry says
    assert filtered_rank(tables, np.array([0.0]), 0, True, 1, keep) == 2.0


def test_filtering_removes_known_true_candidates():
    tables = _line_tables([0.0, 0.1, 0.2, 5.0])
    unfiltered = filtered_rank(tables, np.array([0.0]), 0, True, 2, np.ones(4, dtype=bool))
    assert unfiltered == 3.0
    keep = _keep(FilterIndex([(3, 0, 0), (3, 0, 1)]), 4, np.arange(4), 3, 0, True)
    assert filtered_rank(tables, np.array([0.0]), 0, True, 2, keep) == 1.0


def test_missing_head_direction():
    tables = _line_tables([0.0, 1.0, 2.0, 3.0], relation=2.0)
    # rank heads h such that h + 2 ~ known tail 3 -> best head is entity 1
    assert filtered_rank(tables, np.array([3.0]), 0, False, 1, np.ones(4, dtype=bool)) == 1.0


def _oracle_distance(tables, h, r, t):
    """One triplet's distance from raw vectors: L1 or L2 over element moduli."""
    u = h * np.exp(1j * r) - t if tables.model == ROTATE else h + r - t
    a = np.abs(u)
    return float(a.sum()) if tables.norm_order == 1 else float(np.sqrt((a * a).sum()))


def _oracle_rank(tables, query, filter_triplets, candidate_ids):
    """Exhaustive-sort oracle with best/worst tie positions averaged.

    ``query`` is ``(known_entity, known_vec, relation, tail_missing, answer)``.
    """
    known_entity, known_vec, relation, tail_missing, answer = query
    known = set()
    for h, r, t in filter_triplets:
        if tail_missing and (h, r) == (known_entity, relation):
            known.add(t)
        if not tail_missing and (r, t) == (relation, known_entity):
            known.add(h)
    scored = []
    rel = tables.relation[relation]
    for cid in candidate_ids:
        if cid != answer and cid in known:
            continue
        cand = tables.entity_matrix()[cid]
        if tail_missing:
            d = _oracle_distance(tables, known_vec, rel, cand)
        else:
            d = _oracle_distance(tables, cand, rel, known_vec)
        scored.append((d, int(cid)))
    scored.sort(key=lambda x: x[0])
    d_answer = next(d for d, cid in scored if cid == answer)
    best = 1 + sum(1 for d, _ in scored if d < d_answer)
    worst = sum(1 for d, _ in scored if d <= d_answer)
    return (best + worst) / 2.0


def test_filtered_rank_matches_oracle_on_random_instances(monkeypatch):
    rng = np.random.default_rng(17)
    n = 20
    in_last_partial_block = 0
    for i, (model, norm, _) in enumerate(product((TRANSE, ROTATE), (1, 2), range(60))):
        dim = int(rng.integers(1, 4))
        width = 2 * dim if model == ROTATE else dim
        entity = np.round(rng.normal(size=(n, width)) * 2) / 2  # coarse grid forces ties
        relation = np.round(rng.normal(size=(2, dim)) * 2) / 2
        tables = EmbeddingTables(model, dim, norm, entity, relation)
        ent = tables.entity_matrix()
        filter_triplets = [(int(rng.integers(n)), int(rng.integers(2)),
                            int(rng.integers(n))) for _ in range(30)]
        # a random strict subset holding the answer: rows outside it must be ignored
        cids = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        answer = int(rng.choice(cids))
        query = (int(rng.integers(n)), ent[int(rng.integers(n))], int(rng.integers(2)),
                 bool(rng.random() < 0.5), answer)
        # one row per block, then blocks of 3 and 7 rows that leave a partial last block
        step = (1, 3, 7)[i % 3]
        monkeypatch.setattr(evaluation, "_RANK_BLOCK_BYTES", step * ent.shape[1] * ent.itemsize)
        in_last_partial_block += step > 1 and answer >= n - n % step
        keep = _keep(FilterIndex(filter_triplets), n, cids, query[0], query[2], query[3])
        got = filtered_rank(tables, *query[1:], keep)
        expected = _oracle_rank(tables, query, filter_triplets, cids)
        assert got == expected
    assert in_last_partial_block > 0


@pytest.mark.parametrize("norm", [1, 2])
@pytest.mark.parametrize("model", [TRANSE, ROTATE])
@pytest.mark.parametrize("tail_missing", [True, False], ids=["tail", "head"])
def test_blocked_distances_equal_whole_table_call(monkeypatch, model, norm, tail_missing):
    rng = np.random.default_rng(23)
    dim = 5
    probe = init_tables(0, model, dim, 1, 1, norm_order=norm).entity_matrix()
    step = evaluation._RANK_BLOCK_BYTES // (probe.shape[1] * probe.itemsize)
    low = np.complex64 if model == ROTATE else np.float32
    blocks = []

    def recording_distance(*args):
        out = translation_distance(*args)
        blocks.append(out)
        return out

    def rank_and_screen(tables, known):
        blocks.clear()
        n = tables.num_entities
        rank = filtered_rank(tables, known, 1, tail_missing, n - 1, np.ones(n, dtype=bool))
        assert max(len(b) for b in blocks) <= step  # no table-sized temporaries
        return rank, [b for b in blocks if b.dtype == np.float32]

    def ends(known, ent):
        return (known, ent) if tail_missing else (ent, known)

    monkeypatch.setattr(evaluation, "translation_distance", recording_distance)
    for n in (1, step - 1, step, step + 1, 3 * step + 2):
        tables = init_tables(int(rng.integers(1 << 30)), model, dim, n, 2, norm_order=norm)
        ent = tables.entity_matrix()
        known = ent[0] * 1.5
        rank, screen = rank_and_screen(tables, known)
        rel = tables.relation_vec(1)
        assert len(screen) == -(-n // step)
        h32, t32 = ends(known.astype(low), ent.astype(low))
        whole32 = translation_distance(model, norm, h32, rel.astype(low), t32)
        assert np.array_equal(np.concatenate(screen), whole32)  # the screen's blocks
        h, t = ends(known, ent)
        whole = translation_distance(model, norm, h, rel, t)  # the float64 ranking
        better = np.count_nonzero(whole < whole[-1])
        assert rank == better + (1 + np.count_nonzero(whole == whole[-1])) / 2.0

    # every row ties with the answer, so every row is re-computed, still block by block
    tables.entity[:] = tables.entity[0]
    rank, _ = rank_and_screen(tables, known)
    assert rank == (1 + tables.num_entities) / 2.0
    assert sum(len(b) for b in blocks if b.dtype == np.float64) > tables.num_entities


_BIG = 3.45e38  # beyond float32's largest finite value, so the screen overflows


def _screen_case(rng, model, norm, kind):
    """(tables, known vector) for one ranking case of the given kind."""
    dim = int(rng.integers(1, 6))
    width = 2 * dim if model == ROTATE else dim
    n = int(rng.integers(2, 40))
    scale = 10.0 ** rng.uniform(-3, 3)
    relation = rng.normal(size=(2, dim)) * (1.0 if model == ROTATE else scale)
    dtype = np.float32 if rng.random() < 0.5 else np.float64
    known = rng.normal(size=width) * scale
    if kind == "grid":  # exact ties: coarse half-grid values, a power-of-two scale
        pow2 = 2.0 ** int(rng.integers(-10, 11))
        entity = np.round(rng.normal(size=(n, width)) * 2) / 2 * pow2
        relation = np.round(relation * 2) / 2 * (1.0 if model == ROTATE else pow2 / scale)
        known = entity[int(rng.integers(n))] * rng.choice([1.0, 1.5])
    elif kind == "wide":  # float64 values that float32 cannot represent
        entity, dtype = rng.normal(size=(n, width)) * scale, np.float64
    elif kind == "tiny":  # float32 underflows: its squares of 1e-30 are 0
        known, dtype = known / scale * 1e-30, np.float64
        entity = rng.normal(size=(n, width)) * 1e-30
        relation = relation / scale * (1.0 if model == ROTATE else 1e-30)
    elif kind in ("tie", "near"):  # one row repeated; "near" moves copies by a few float32 ulps
        entity = np.tile(rng.normal(size=width) * scale, (n, 1)).astype(dtype)
        if kind == "near":
            col = rng.integers(width, size=n)
            moved = entity[np.arange(n), col]
            ulp = np.spacing(moved.astype(np.float32)).astype(dtype)
            shift = rng.integers(-3, 4, size=n) * (ulp if dtype == np.float32 else ulp / 97.0)
            entity[np.arange(n), col] = moved + shift
    else:  # "overflow": entries beyond float32, half the rows near the known vector
        known = rng.choice([-_BIG, _BIG], size=width) * rng.uniform(0.98, 1.0, size=width)
        entity, dtype = rng.normal(size=(n, width)), np.float64
        entity[rng.random(n) < 0.5] += known
    tables = EmbeddingTables(model, dim, norm, entity.astype(dtype), relation.astype(dtype))
    return tables, known.view(np.complex128) if model == ROTATE else known


@pytest.mark.parametrize("norm", [1, 2])
@pytest.mark.parametrize("model", [TRANSE, ROTATE])
@pytest.mark.parametrize("tail_missing", [True, False], ids=["tail", "head"])
def test_screened_rank_equals_float64_whole_table_rank(monkeypatch, model, norm, tail_missing):
    """The float32 screen with its float64 re-check ranks exactly as float64 distances do:
    on exact ties, near-ties a few float32 ulps apart, values float32 cannot hold,
    entries whose float32 screen overflows to inf or NaN, and entries it underflows."""
    rng = np.random.default_rng(31)
    kinds = ("grid", "wide", "tie", "near", "overflow", "tiny")
    for i, (kind, step) in enumerate(product(kinds * 12, (1, 3, 7))):
        tables, known = _screen_case(rng, model, norm, kind)
        ent = tables.entity_matrix()
        n = len(ent)
        monkeypatch.setattr(evaluation, "_RANK_BLOCK_BYTES", step * ent.shape[1] * ent.itemsize)
        filter_triplets = [(int(rng.integers(n)), int(rng.integers(2)),
                            int(rng.integers(n))) for _ in range(n // 3)]
        cids = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        known_entity, relation = int(rng.integers(n)), int(rng.integers(2))
        answer = int(rng.choice(cids))
        keep = _keep(FilterIndex(filter_triplets), n, cids, known_entity, relation, tail_missing)
        got = filtered_rank(tables, known, relation, tail_missing, answer, keep)

        rel = tables.relation_vec(relation)
        h, t = (known, ent) if tail_missing else (ent, known)
        whole = translation_distance(model, norm, h, rel, t)
        keep[answer] = True  # the answer ranks, and ties, with itself
        kept = whole[keep]
        gt = whole[answer]
        assert got == np.count_nonzero(kept < gt) + (1 + np.count_nonzero(kept == gt)) / 2.0, \
            (i, kind, step)


def test_filtered_rank_never_worse_than_raw():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = 15
        entity = rng.normal(size=(n, 2))
        tables = EmbeddingTables(TRANSE, 2, 1, entity, rng.normal(size=(1, 2)))
        filter_triplets = [(int(rng.integers(n)), 0, int(rng.integers(n)))
                           for _ in range(25)]
        known_entity, known_vec = int(rng.integers(n)), entity[int(rng.integers(n))]
        answer = int(rng.integers(n))
        keep = _keep(FilterIndex(filter_triplets), n, np.arange(n), known_entity, 0, True)
        filtered = filtered_rank(tables, known_vec, 0, True, answer, keep)
        raw = filtered_rank(tables, known_vec, 0, True, answer, np.ones(n, dtype=bool))
        assert filtered <= raw


# ---------------------------------------------------------------------------
# threshold tuning
# ---------------------------------------------------------------------------

def _threshold_fixture(distances, labels):
    """Validation triplets with controlled distances: h=0, r=+0, tails at distances."""
    entity = np.concatenate([[0.0], np.asarray(distances, dtype=float)]).reshape(-1, 1)
    tables = EmbeddingTables(TRANSE, 1, 1, entity, np.zeros((1, 1)))
    valid = [(0, 0, i + 1) for i in range(len(distances))]
    return tables, valid, list(labels)


def test_thresholds_separable_midpoint():
    tables, valid, labels = _threshold_fixture([1, 2, 4, 5], [1, 1, -1, -1])
    th = tune_thresholds(tables, valid, labels)
    assert th.per_relation[0] == 3.0
    assert th.default == 3.0


def test_thresholds_all_positive_is_plus_infinity():
    tables, valid, labels = _threshold_fixture([1, 2, 3], [1, 1, 1])
    th = tune_thresholds(tables, valid, labels)
    assert th.per_relation[0] == np.inf


def test_thresholds_all_negative_is_minus_infinity():
    tables, valid, labels = _threshold_fixture([1, 2, 3], [-1, -1, -1])
    th = tune_thresholds(tables, valid, labels)
    assert th.per_relation[0] == -np.inf


def test_thresholds_prefer_smallest_on_ties():
    # {1:+, 2:-, 4:+, 5:-}: cuts at 1.5 and 4.5 both give accuracy 3/4; pick 1.5
    tables, valid, labels = _threshold_fixture([1, 2, 4, 5], [1, -1, 1, -1])
    th = tune_thresholds(tables, valid, labels)
    assert th.per_relation[0] == 1.5


def test_thresholds_empty_or_unlabeled_rejected():
    tables, valid, labels = _threshold_fixture([1], [1])
    with pytest.raises(ValueError):
        tune_thresholds(tables, [], [])
    with pytest.raises(ValueError):
        tune_thresholds(tables, valid, None)


def _oracle_threshold(dists, labels):
    uniq = np.unique(dists)
    cands = [-np.inf] + [(a + b) / 2.0 for a, b in zip(uniq[:-1], uniq[1:])] + [np.inf]
    best_cut, best_correct = None, -1
    for c in cands:
        correct = sum(1 for d, y in zip(dists, labels)
                      if (d <= c and y == 1) or (d > c and y == -1))
        if correct > best_correct:
            best_correct, best_cut = correct, c
    return best_cut, best_correct / len(dists)


def test_threshold_tuning_matches_exhaustive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        dists = np.round(rng.uniform(0, 5, size=n), 1)  # duplicates likely
        labels = [1 if rng.random() < 0.6 else -1 for _ in range(n)]
        tables, valid, _ = _threshold_fixture(dists, labels)
        th = tune_thresholds(tables, valid, labels)
        cut, acc = _oracle_threshold(dists, labels)
        assert th.per_relation[0] == cut
        # accuracy achieved at the returned threshold equals the oracle maximum
        got_acc = np.mean([(d <= th.per_relation[0]) == (y == 1)
                           for d, y in zip(dists, labels)])
        assert got_acc == acc


def test_validation_accuracy_beats_label_prior():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = 30
        dists = rng.uniform(0, 5, size=n)
        labels = [1 if rng.random() < 0.3 else -1 for _ in range(n)]
        tables, valid, _ = _threshold_fixture(dists, labels)
        th = tune_thresholds(tables, valid, labels)
        acc = np.mean([(d <= th.per_relation[0]) == (y == 1) for d, y in zip(dists, labels)])
        prior = np.mean([y == 1 for y in labels])
        assert acc >= max(prior, 1 - prior)


def test_unseen_relation_uses_global_default():
    tables, valid, labels = _threshold_fixture([1, 2, 4, 5], [1, 1, -1, -1])
    th = tune_thresholds(tables, valid, labels)
    assert th.for_relation(17) == th.default


# ---------------------------------------------------------------------------
# end-to-end evaluation on planted structure
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def planted_lp():
    return generate_planted_splits(31, 200, 8, 600, 0.12, task="lp")


@pytest.fixture(scope="module")
def planted_tc():
    return generate_planted_splits(37, 200, 8, 600, 0.12, task="classification")


@pytest.mark.parametrize("scheme", ["correlation", "degree", "uniform"])
def test_planted_link_prediction_is_perfect(planted_lp, scheme):
    splits, tables = planted_lp
    report = link_prediction(tables, splits, scheme)
    assert report.mrr == 1.0
    assert report.hits1 == 1.0
    assert report.hits10 == 1.0
    assert report.task == "lp"
    assert report.num_queries == len(splits.test)


def test_planted_classification_is_perfect(planted_tc):
    splits, tables = planted_tc
    report = triplet_classification(tables, splits, "degree")
    assert report.accuracy == 1.0
    assert report.num_queries == len(splits.test)


def test_report_metric_ranges(planted_lp):
    splits, tables = planted_lp
    report = link_prediction(tables, splits, "degree")
    assert 0.0 < report.mrr <= 1.0
    assert 0.0 <= report.hits1 <= report.hits10 <= 1.0


def _touching(triplets, entity):
    """Mask of the triplets whose head or tail is ``entity``."""
    return (triplets[:, [0, 2]] == entity).any(axis=1)


def test_lp_counts_dangling_and_assigns_worst_rank():
    splits, tables = generate_planted_splits(41, 150, 6, 420, 0.1, task="lp")
    # strip one OOKG entity's aux edges to make it dangling
    victim = int(splits.ookg_entities[0])
    aux = splits.aux[~_touching(splits.aux, victim)]
    crippled = BenchmarkSplits(vocab=splits.vocab, train=splits.train,
                               valid=splits.valid, aux=aux, test=splits.test,
                               valid_labels=None, test_labels=None,
                               ikg_entities=splits.ikg_entities,
                               ookg_entities=splits.ookg_entities,
                               dangling_ookg=[victim])
    report = link_prediction(tables, crippled, "uniform")
    n_victim_queries = np.count_nonzero(_touching(splits.test, victim))
    assert report.counts.get("dangling") == n_victim_queries
    assert report.mrr < 1.0


def test_classification_dangling_predicts_negative():
    splits, tables = generate_planted_splits(43, 150, 6, 420, 0.1, task="classification")
    victim = int(splits.ookg_entities[0])
    aux = splits.aux[~_touching(splits.aux, victim)]
    crippled = BenchmarkSplits(vocab=splits.vocab, train=splits.train,
                               valid=splits.valid, aux=aux, test=splits.test,
                               valid_labels=splits.valid_labels, test_labels=splits.test_labels,
                               ikg_entities=splits.ikg_entities,
                               ookg_entities=splits.ookg_entities,
                               dangling_ookg=[victim])
    report = triplet_classification(tables, crippled, "degree")
    assert report.counts.get("dangling", 0) > 0
    # dangling positives are classified negative, so accuracy dips below 1
    assert report.accuracy < 1.0


def test_correlation_weights_without_query_relations_name_them(planted_lp):
    splits, tables = planted_lp
    with pytest.raises(ValueError, match="query relations"):
        embed_ookg(tables, splits, "correlation", splits.ookg_entities, None)


@pytest.mark.parametrize("scheme, stores", [("uniform", 1), ("degree", 2), ("correlation", 2)])
def test_only_weights_that_read_the_training_store_build_it(monkeypatch, planted_lp, scheme,
                                                            stores):
    splits, tables = planted_lp
    built = []

    class Spy(evaluation.TripleStore):
        def __init__(self, triplets, *args, **kwargs):
            built.append(np.asarray(triplets))
            super().__init__(triplets, *args, **kwargs)

    monkeypatch.setattr(evaluation, "TripleStore", Spy)
    entities = splits.ookg_entities
    embed_ookg(tables, splits, scheme, entities, np.zeros_like(entities))
    assert len(built) == stores and np.array_equal(built[0], splits.aux)


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_repeated_entities_embed_as_in_per_entity_calls_bit_for_bit(model):
    splits, _ = generate_planted_splits(43, 150, 6, 420, 0.1, task="lp")
    victim = int(splits.ookg_entities[0])  # made dangling: its aux edges are dropped
    splits = replace(splits, aux=splits.aux[~_touching(splits.aux, victim)])
    tables = init_tables(5, model, 8, splits.vocab.num_entities, splits.vocab.num_relations)
    rng = np.random.default_rng(3)
    entities = rng.choice(splits.ookg_entities[:6], size=30)
    relations = rng.integers(splits.vocab.num_relations, size=30)
    assert victim in entities
    for scheme, cap in product(("correlation", "degree", "uniform"), (None, 1, 2)):
        options = dict(neighbor_cap=cap, seed=4)
        vectors, found = embed_ookg(tables, splits, scheme, entities, relations, **options)
        assert not found.all() and found.any()
        for i, (entity, relation) in enumerate(zip(entities, relations)):
            alone, one = embed_ookg(tables, splits, scheme, [entity], [relation], **options)
            assert one[0] == found[i] and alone[0].tobytes() == vectors[i].tobytes()


def test_a_capped_entity_reduces_the_same_subset_for_every_query_relation(monkeypatch,
                                                                         planted_lp):
    splits, tables = planted_lp
    n_rel = splits.vocab.num_relations
    aux = TripleStore(splits.aux, num_entities=splits.vocab.num_entities, num_relations=n_rel)
    full = estimate_candidates(tables, aux, splits.ookg_entities, splits.ikg_entities)
    busy = full.entities[full.counts > 2][:2]
    assert len(busy) == 2
    sets = []

    def spy(tables, cset, weights):
        sets.append(cset)
        return reduce_candidates(tables, cset, weights)

    monkeypatch.setattr(evaluation, "reduce_candidates", spy)
    entities = np.repeat(busy, n_rel)
    vectors, found = embed_ookg(tables, splits, "correlation", entities,
                                np.tile(np.arange(n_rel), 2), neighbor_cap=2, seed=9)
    (cset,) = sets
    assert found.all() and cset.entities.tolist() == entities.tolist()
    for i, entity in enumerate(entities.tolist()):
        alone = cap_neighbors(estimate_candidates(tables, aux, [entity], splits.ikg_entities),
                              2, seed=9)
        rows = slice(cset.offsets[i], cset.offsets[i + 1])
        for field in ("source_entity", "source_relation", "as_head"):
            assert getattr(cset, field)[rows].tolist() == getattr(alone, field).tolist()


def _per_triplet_predictions(tables, splits, scheme, thresholds, neighbor_cap):
    """Per-triplet reference for triplet_classification: one distance call per test triplet."""
    ookg = set(splits.ookg_entities.tolist())
    test = splits.test.tolist()
    sides = [(entity, r) for h, r, t in test for entity in (h, t) if entity in ookg]
    vectors, found = embed_ookg(tables, splits, scheme, [e for e, _ in sides],
                                [r for _, r in sides], neighbor_cap=neighbor_cap)
    embedded = {side: vec if ok else None for side, vec, ok in zip(sides, vectors, found)}

    def resolve(entity, relation):
        return embedded[(entity, relation)] if entity in ookg else tables.entity_matrix()[entity]

    predictions = []
    for h, r, t in test:
        hv, tv = resolve(h, r), resolve(t, r)
        if hv is None or tv is None:
            predictions.append(-1)
            continue
        d = float(translation_distance(tables.model, tables.norm_order, hv,
                                       tables.relation_vec(r), tv))
        predictions.append(1 if d <= thresholds.for_relation(r) else -1)
    return predictions


@pytest.mark.parametrize("norm", [1, 2])
@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_batched_classification_matches_per_triplet_loop(model, norm):
    splits, _ = generate_planted_splits(43, 150, 6, 420, 0.1, task="classification")
    victim = int(splits.ookg_entities[0])  # made dangling: its aux edges are dropped
    splits = replace(splits, aux=splits.aux[~_touching(splits.aux, victim)])
    n_rel = splits.vocab.num_relations
    tables = init_tables(5, model, 8, splits.vocab.num_entities, n_rel, norm_order=norm)
    tuned = tune_thresholds(tables, splits.valid, splits.valid_labels)
    # relation 0 falls back to the default cutoff
    shuffled = Thresholds({r: tuned.per_relation.get((r + 1) % n_rel, tuned.default)
                           for r in range(1, n_rel)}, tuned.default)
    for thresholds in (tuned, shuffled):
        for scheme, cap in (("degree", None), ("correlation", None), ("uniform", 1)):
            expected = _per_triplet_predictions(tables, splits, scheme, thresholds, cap)
            assert 0 < expected.count(1) < len(expected)
            report = triplet_classification(tables, splits, scheme, thresholds=thresholds,
                                            neighbor_cap=cap)
            n_dangling = np.count_nonzero(_touching(splits.test, victim))
            assert report.counts == {"dangling": n_dangling}
            assert report.accuracy == float(np.mean(np.array(expected) == splits.test_labels))
            for i, (trip, label) in enumerate(zip(splits.test, splits.test_labels)):
                one = replace(splits, test=[trip], test_labels=[label])
                single = triplet_classification(tables, one, scheme, thresholds=thresholds,
                                                neighbor_cap=cap)
                assert single.accuracy == float(expected[i] == label)


@pytest.mark.parametrize("norm", [1, 2])
@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_blocked_triplet_distances_equal_the_whole_array_formula(monkeypatch, model, norm):
    # the distances behind threshold tuning and classification, in blocks of 1, 4 and all rows
    rng = np.random.default_rng(29)
    n, dim = 23, 6
    tables = init_tables(5, model, dim, 40, 5, norm_order=norm)
    triplets = rng.integers(0, [40, 5, 40], size=(n, 3))
    ent, rel = tables.entity_matrix(), tables.relation_vec(triplets[:, 1])
    estimated = rng.random((n, 2)) < 0.4
    estimates = rng.normal(size=(np.count_nonzero(estimated), dim)).astype(rel.dtype)
    if model == ROTATE:
        estimates += 1j * rng.normal(size=estimates.shape)
    rows = ent[triplets[:, [0, 2]]].astype(rel.dtype)
    rows[estimated] = estimates
    plain = translation_distance(model, norm, ent[triplets[:, 0]], rel, ent[triplets[:, 2]])
    mixed = translation_distance(model, norm, rows[:, 0], rel, rows[:, 1])
    for block_rows in (1, 4, n):
        monkeypatch.setattr(evaluation, "_RANK_BLOCK_BYTES", block_rows * 2 * dim * rel.itemsize)
        assert evaluation._triplet_distances(tables, triplets).tobytes() == plain.tobytes()
        got = evaluation._triplet_distances(tables, triplets, estimated, estimates)
        assert got.tobytes() == mixed.tobytes()


@pytest.mark.parametrize("norm", [1, 2])
@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_classification_is_independent_of_the_block_sizes(monkeypatch, model, norm):
    from invkge import reduction
    splits, _ = generate_planted_splits(43, 150, 6, 420, 0.1, task="classification")
    tables = init_tables(5, model, 8, splits.vocab.num_entities, splits.vocab.num_relations,
                         norm_order=norm)
    runs = [("degree", None), ("correlation", None), ("uniform", None), ("correlation", 2)]
    whole = [triplet_classification(tables, splits, scheme, neighbor_cap=cap)
             for scheme, cap in runs]
    monkeypatch.setattr(evaluation, "_RANK_BLOCK_BYTES", 1)    # one triplet per block
    monkeypatch.setattr(reduction, "_REDUCE_BLOCK_BYTES", 1)   # one segment per block
    assert [triplet_classification(tables, splits, scheme, neighbor_cap=cap)
            for scheme, cap in runs] == whole


def test_lp_requires_positive_labels_only(planted_tc):
    splits, tables = planted_tc
    report = link_prediction(tables, splits, "uniform")
    assert report.counts.get("negatives_skipped") == np.count_nonzero(splits.test_labels == -1)
    assert report.num_queries == np.count_nonzero(splits.test_labels == 1)



def _per_triplet_lp(tables, splits, scheme):
    """Per-triplet reference for link_prediction's query table: its counts and, per
    query in test order, the known entity and (known vector bytes, relation,
    tail_missing, answer, kept in-graph rows, rank)."""
    labels, ookg = splits.test_labels, set(splits.ookg_entities.tolist())
    test = splits.test.tolist()
    positives = [t for i, t in enumerate(test) if labels is None or labels[i] == 1]
    known_true = set(map(tuple, splits.aux.tolist() + positives))
    cids = sorted(splits.ikg_entities.tolist())
    counts, queries = {}, []
    for i, (h, r, t) in enumerate(test):
        if labels is not None and labels[i] != 1:
            counts["negatives_skipped"] = counts.get("negatives_skipped", 0) + 1
        elif h in ookg and t in ookg:
            counts["skipped_both_ookg"] = counts.get("skipped_both_ookg", 0) + 1
        elif h in ookg:
            queries.append((h, r, True, t))
        else:
            queries.append((t, r, False, h))
    known, relations, _, _ = zip(*queries)
    vectors, found = embed_ookg(tables, splits, scheme, known, relations)
    if not found.all():
        counts["dangling"] = int(np.count_nonzero(~found))
    ranked = []
    for i, (entity, relation, tail_missing, answer) in enumerate(queries):
        kept = tuple(c for c in cids if ((entity, relation, c) if tail_missing
                                         else (c, relation, entity)) not in known_true)
        keep = np.zeros(splits.vocab.num_entities, dtype=bool)
        keep[list(kept)] = True
        rank = (filtered_rank(tables, vectors[i], relation, tail_missing, answer, keep)
                if found[i] else len(kept) + 1)  # the answer, known-true, is not in kept
        ranked.append((entity, (vectors[i].tobytes(), relation, tail_missing, answer, kept,
                                float(rank))))
    return counts, ranked


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_lp_query_table_matches_per_triplet_loop(monkeypatch, model):
    splits, _ = generate_planted_splits(43, 150, 6, 420, 0.1, task="classification")
    victim, x, y = splits.ookg_entities[:3].tolist()  # victim dangles; (x, 0, y) is both-OOKG
    labeled = replace(splits, aux=splits.aux[~_touching(splits.aux, victim)],
                      test=np.concatenate([splits.test, [[x, 0, y]]]),
                      test_labels=np.append(splits.test_labels, 1), dangling_ookg=[victim])
    unlabeled = replace(labeled, test=splits.test[splits.test_labels == 1],
                        valid_labels=None, test_labels=None)
    tables = init_tables(5, model, 8, splits.vocab.num_entities, splits.vocab.num_relations)
    seen = []

    def spy(tables, known_vec, relation, tail_missing, answer, keep):
        rank = filtered_rank(tables, known_vec, relation, tail_missing, answer, keep)
        seen.append((known_vec.tobytes(), relation, tail_missing, answer,
                     tuple(np.flatnonzero(keep).tolist()), rank))
        return rank

    for splits, scheme in product((labeled, unlabeled), ("correlation", "degree", "uniform")):
        counts, ranked = _per_triplet_lp(tables, splits, scheme)
        if splits is labeled:
            assert counts["negatives_skipped"] > 0 and counts["skipped_both_ookg"] == 1
        else:
            assert set(counts) == {"dangling"}
        positive = True if splits.test_labels is None else splits.test_labels == 1
        assert counts["dangling"] == np.count_nonzero(_touching(splits.test, victim) & positive)
        seen.clear()
        with monkeypatch.context() as patch:
            patch.setattr(evaluation, "filtered_rank", spy)
            report = link_prediction(tables, splits, scheme)
        assert report.counts == counts and report.num_queries == len(ranked)
        assert seen == [q for entity, q in ranked if entity != victim]  # dangling: not ranked
        ranks = np.array([q[-1] for _, q in ranked])
        assert report.mrr == float(np.mean(1.0 / ranks))
        assert report.hits1 == float(np.mean(ranks <= 1))
        assert report.hits10 == float(np.mean(ranks <= 10))

# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------

def test_inactive_cap_reproduces_full_run(planted_lp):
    splits, tables = planted_lp
    full = link_prediction(tables, splits, "degree")
    capped = link_prediction(tables, splits, "degree", neighbor_cap=10_000, seed=3)
    assert capped.mrr == full.mrr
    assert capped.hits1 == full.hits1
    assert capped.hits10 == full.hits10


def test_both_sides_ookg_estimated_independently():
    # a test triplet may join two OOKG entities; each is estimated from its
    # own aux neighborhood (classification), while ranking skips such queries
    entity = np.array([[0.0], [1.0], [9.0], [9.0]])  # a=0, b=1; x, y unseen
    relation = np.array([[1.0]])
    tables = EmbeddingTables(TRANSE, 1, 1, entity, relation)
    from invkge.core import Vocabulary
    vocab = Vocabulary()
    vocab.add_entities(["a", "b", "x", "y"])
    vocab.add_relations(["r"])
    a, b, x, y = range(4)
    splits = BenchmarkSplits(
        vocab=vocab,
        train=[(a, 0, b)],
        # positive at distance |0+1-1| = 0, negative at |0+1-0| = 1: cutoff 0.5
        valid=[(a, 0, b), (a, 0, a)],
        aux=[(a, 0, x), (y, 0, b)],  # x estimated as a+r=1, y as b-r=0
        test=[(y, 0, x), (x, 0, y)],
        valid_labels=[1, -1],
        # d(y,r,x) = |0+1-1| = 0 <= 0.5 (true positive)
        # d(x,r,y) = |1+1-0| = 2 > 0.5 (true negative)
        test_labels=[1, -1],
        ikg_entities=[a, b], ookg_entities=[x, y], dangling_ookg=[])
    report = triplet_classification(tables, splits, "uniform")
    assert report.accuracy == 1.0

    lp = BenchmarkSplits(vocab=vocab, train=splits.train, valid=[splits.valid[0]],
                         aux=splits.aux, test=[(x, 0, y), (x, 0, b)],
                         valid_labels=None, test_labels=None,
                         ikg_entities=splits.ikg_entities, ookg_entities=splits.ookg_entities,
                         dangling_ookg=[])
    report = link_prediction(tables, lp, "uniform")
    assert report.counts.get("skipped_both_ookg") == 1
    assert report.num_queries == 1


def test_rotate_pipeline_end_to_end():
    # complex estimation -> complex reduction -> ranking over the complex table
    from invkge.models import ROTATE
    from invkge.training import TrainConfig, train
    splits, _ = generate_trainable_splits(2, 150, 6, 1200, 0.1)
    cfg = TrainConfig(model=ROTATE, dim=16, margin=2.0, num_negatives=8,
                      batch_size=128, steps=2000, seed=2, log_every=2000)
    tables, _ = train(splits, cfg)
    baseline = float(np.mean(1.0 / np.arange(1, len(splits.ikg_entities) + 1)))
    for scheme in ("correlation", "degree", "uniform"):
        rep = link_prediction(tables, splits, scheme, seed=2)
        assert rep.mrr > 3.0 * baseline

    tc, _ = generate_trainable_splits(3, 150, 6, 1200, 0.1, task="classification")
    tct, _ = train(tc, replace(cfg, seed=3))
    rep = triplet_classification(tct, tc, "degree")
    assert rep.accuracy > 0.55  # labels are balanced, so 0.5 is chance


def test_ablation_orderings_on_noisy_benchmark():
    # small edition of the desk benchmark: capping and uniform weights cannot win
    mrr = {}
    for seed in (0, 1, 2):
        splits, _ = generate_trainable_splits(seed, 120, 6, 900, 0.12)
        from invkge.training import TrainConfig, train
        tables, _ = train(splits, TrainConfig(dim=16, margin=2.0, num_negatives=8,
                                              batch_size=128, steps=1500, seed=seed,
                                              log_every=1500))
        for name, scheme, cap in [("full", "degree", None), ("cap1", "degree", 1),
                                  ("uniform", "uniform", None)]:
            rep = link_prediction(tables, splits, scheme, neighbor_cap=cap, seed=seed)
            mrr.setdefault(name, []).append(rep.mrr)
    means = {k: float(np.mean(v)) for k, v in mrr.items()}
    assert means["cap1"] <= means["full"]
    assert means["uniform"] <= means["full"]


@pytest.mark.parametrize("norm", [1, 2])
@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_float32_tables_evaluate_like_their_float64_copy(monkeypatch, model, norm):
    """Trained float32 tables give the estimates, distances, thresholds and reports
    of the same values in float64 bit for bit, so no float32 operand rounds."""
    splits, _ = generate_trainable_splits(4, 60, 4, 400, 0.15, task="classification")
    cfg = TrainConfig(model=model, dim=8, margin=2.0, num_negatives=4, batch_size=32,
                      steps=20, seed=3, norm_order=norm)
    narrow, _ = train(splits, cfg)
    assert narrow.entity.dtype == narrow.relation.dtype == np.float32
    wide = EmbeddingTables(model, 8, norm, narrow.entity.astype(np.float64),
                           narrow.relation.astype(np.float64))
    distances = []   # every distance array evaluation computes, in order

    def spy(*args):
        distances.append(translation_distance(*args))
        return distances[-1]

    monkeypatch.setattr(evaluation, "translation_distance", spy)
    runs = []
    for tables in (narrow, wide):
        distances.clear()
        vectors, found = embed_ookg(tables, splits, "degree", splits.ookg_entities, None)
        thresholds = tune_thresholds(tables, splits.valid, splits.valid_labels)
        reports = [triplet_classification(tables, splits, thresholds=thresholds),
                   link_prediction(tables, splits)]
        runs.append((vectors, found, repr(thresholds), repr(reports), list(distances)))
    (v32, f32, t32, r32, d32), (v64, f64, t64, r64, d64) = runs
    assert v32.dtype == v64.dtype and np.array_equal(v32, v64)
    assert np.array_equal(f32, f64) and f32.any()
    assert t32 == t64 and r32 == r64
    assert len(d32) == len(d64) > 0
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(d32, d64))


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_report_csv_and_text(tmp_path, planted_lp):
    splits, tables = planted_lp
    report = link_prediction(tables, splits, "degree")
    path = tmp_path / "report.csv"
    write_report_csv(path, [("lp-degree", report)])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("label,task,num_queries,mrr")
    assert lines[1].startswith("lp-degree,lp,")
    text = format_report("lp-degree", report)
    assert "MRR" in text and "1.0000" in text
