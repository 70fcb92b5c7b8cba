"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines. Criterion 8 needs the real WN11-Both-5000 benchmark files and several
CPU-hours; point INVKGE_WN11_BOTH_5000_DIR at a directory containing
train.txt / valid.txt / aux.txt / test.txt to enable it.
"""

import os
import time

import numpy as np
import pytest

from invkge.core import TripleStore
from invkge.datasets import (generate_planted_splits, generate_trainable_splits,
                             load_split_dir)
from invkge.estimation import CandidateSet, estimate_candidates
from invkge.evaluation import (FilterIndex, filtered_rank, link_prediction,
                               triplet_classification, tune_thresholds)
from invkge.models import (ROTATE, TRANSE, EmbeddingTables, init_tables, translation_distance)
from invkge.reduction import (build_correlation, candidate_weights, reduce_candidates)
from invkge.training import (REFERENCE_CONFIGS, TrainConfig, _batch_loss_grads,
                             _sample_negative_batch, train)

def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


# ---------------------------------------------------------------------------
# 1. estimator optimality
# ---------------------------------------------------------------------------

def test_criterion_1_estimator_optimality():
    budget_s = 5.0
    tol = 1e-6
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for model in (TRANSE, ROTATE):
        for _ in range(1000):
            dim = int(rng.integers(2, 11))
            n_ent = int(rng.integers(3, 12))
            tables = init_tables(int(rng.integers(1 << 30)), model, dim, n_ent, 3,
                                 margin=float(rng.uniform(0.5, 10.0)))
            other = int(rng.integers(1, n_ent))
            rel = int(rng.integers(3))
            as_head = bool(rng.random() < 0.5)
            trip = (0, rel, other) if as_head else (other, rel, 0)
            aux = TripleStore([trip], num_entities=n_ent, num_relations=3)
            vec = estimate_candidates(tables, aux, [0], range(1, n_ent)).vectors[0]
            source = tables.entity_matrix()[other]
            h, t = (vec, source) if as_head else (source, vec)
            resid = float(translation_distance(model, tables.norm_order, h,
                                               tables.relation_vec(rel), t))
            worst = max(worst, resid)
            assert resid <= tol
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s"
    _report("1 estimator optimality", f"2000 instances, worst residual {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. gradient correctness
# ---------------------------------------------------------------------------

def _micro_instance(rng, model, norm):
    """Random one-positive batch with residual elements away from the |.| kinks."""
    dim = int(rng.integers(2, 9))
    n_neg = int(rng.integers(1, 5))
    n_ent = 6
    while True:
        width = 2 * dim if model == ROTATE else dim
        entity = rng.normal(0.0, 1.0, (n_ent, width))
        if model == ROTATE:
            relation = rng.uniform(-np.pi, np.pi, (3, dim))
        else:
            relation = rng.normal(0.0, 1.0, (3, dim))
        tables = EmbeddingTables(model, dim, norm, entity, relation)
        pos = np.array([[rng.integers(n_ent), rng.integers(3), rng.integers(n_ent)]])
        neg_entity, neg_is_head = _sample_negative_batch(rng, pos, n_neg, n_ent)
        heads = np.concatenate([pos[:, 0], np.where(neg_is_head[0], neg_entity[0], pos[0, 0])])
        tails = np.concatenate([pos[:, 2], np.where(neg_is_head[0], pos[0, 2], neg_entity[0])])
        h, t = tables.entity_matrix()[heads], tables.entity_matrix()[tails]
        r = tables.relation_vec(pos[0, 1])
        u = h * r - t if model == ROTATE else h + r - t
        if np.abs(u).min() > 1e-2:
            return tables, pos, neg_entity, neg_is_head


def test_criterion_2_gradient_correctness():
    budget_s = 30.0
    tol = 1e-4
    eps = 1e-5
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(100):
        model = TRANSE if i % 2 == 0 else ROTATE
        norm = 1 if (i // 2) % 2 == 0 else 2
        tables, pos, neg_entity, neg_is_head = _micro_instance(rng, model, norm)
        margin = float(rng.uniform(0.5, 3.0))
        alpha = float(rng.uniform(0.0, 2.0))
        _, ent_ids, ent_grads, rel_ids, rel_grads, weights = _batch_loss_grads(
            tables, pos, neg_entity, neg_is_head, margin, alpha)
        fd_all, an_all = [], []
        for table, ids, grads in ((tables.entity, ent_ids, ent_grads),
                                  (tables.relation, rel_ids, rel_grads)):
            for idx, grad in zip(ids, grads):
                for k in range(table.shape[1]):
                    orig = table[idx, k]
                    table[idx, k] = orig + eps
                    up = _batch_loss_grads(tables, pos, neg_entity, neg_is_head, margin, alpha,
                                           weights)[0]
                    table[idx, k] = orig - eps
                    down = _batch_loss_grads(tables, pos, neg_entity, neg_is_head, margin,
                                             alpha, weights)[0]
                    table[idx, k] = orig
                    fd_all.append((up - down) / (2.0 * eps))
                    an_all.append(grad[k])
        fd = np.array(fd_all)
        an = np.array(an_all)
        err = float(np.linalg.norm(fd - an) / max(np.linalg.norm(fd), np.linalg.norm(an), 1e-12))
        worst = max(worst, err)
        assert err < tol, f"instance {i} ({model}, L{norm}): relative error {err}"
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s"
    _report("2 gradient correctness", f"100 instances, worst relative error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. oracle equivalence on random graphs
# ---------------------------------------------------------------------------

def _oracle_rank(tables, query, filter_triplets, candidate_ids):
    known_entity, known_vec, relation, tail_missing, answer = query
    known = set()
    for h, r, t in filter_triplets:
        if tail_missing and (h, r) == (known_entity, relation):
            known.add(t)
        if not tail_missing and (r, t) == (relation, known_entity):
            known.add(h)
    scored = []
    for cid in candidate_ids:
        if cid != answer and cid in known:
            continue
        cand = tables.entity[cid]
        rel = tables.relation[relation]
        if tail_missing:
            d = float(np.abs(known_vec + rel - cand).sum())
        else:
            d = float(np.abs(cand + rel - known_vec).sum())
        scored.append((d, int(cid)))
    d_answer = next(d for d, cid in scored if cid == answer)
    best = 1 + sum(1 for d, _ in scored if d < d_answer)
    worst = sum(1 for d, _ in scored if d <= d_answer)
    return (best + worst) / 2.0


def _oracle_correlation(triplets, n_ent, n_rel):
    rels = [set() for _ in range(n_ent)]
    for h, r, t in set(triplets):
        rels[h].add(r)
        rels[t].add(r)
    p = np.zeros((n_rel, n_rel))
    for r1 in range(n_rel):
        denom = sum(1 for s in rels if r1 in s)
        if denom == 0:
            continue
        for r2 in range(n_rel):
            p[r1, r2] = sum(1 for s in rels if r1 in s and r2 in s) / denom
    return p


def _oracle_threshold(dists, labels):
    uniq = np.unique(dists)
    cands = [-np.inf] + [(a + b) / 2.0 for a, b in zip(uniq[:-1], uniq[1:])] + [np.inf]
    best_cut, best_correct = None, -1
    for c in cands:
        correct = sum(1 for d, y in zip(dists, labels)
                      if (d <= c and y == 1) or (d > c and y == -1))
        if correct > best_correct:
            best_correct, best_cut = correct, c
    return best_cut


def test_criterion_3_oracle_equivalence():
    budget_s = 60.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    n_rank_checks = n_corr_checks = n_thresh_checks = 0
    for graph in range(50):
        n_ent = int(rng.integers(5, 51))
        n_rel = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 4))
        # coarse grid to force score ties
        entity = np.round(rng.normal(size=(n_ent, dim)) * 2) / 2
        relation = np.round(rng.normal(size=(n_rel, dim)) * 2) / 2
        tables = EmbeddingTables(TRANSE, dim, 1, entity, relation)
        triplets = [(int(rng.integers(n_ent)), int(rng.integers(n_rel)),
                     int(rng.integers(n_ent)))
                    for _ in range(int(rng.integers(5, 120)))]

        # filtered ranks
        findex = FilterIndex(triplets)
        cids = np.arange(n_ent)
        for _ in range(10):
            query = (int(rng.integers(n_ent)), entity[int(rng.integers(n_ent))],
                     int(rng.integers(n_rel)), bool(rng.random() < 0.5),
                     int(rng.integers(n_ent)))
            keep = np.ones(n_ent, dtype=bool)
            keep[findex.partners([query[0]], [query[2]], [query[3]])[0]] = False
            got = filtered_rank(tables, *query[1:], keep)
            assert got == _oracle_rank(tables, query, triplets, cids)
            n_rank_checks += 1

        # correlation matrix
        store = TripleStore(triplets, num_entities=n_ent, num_relations=n_rel)
        assert np.array_equal(build_correlation(store),
                              _oracle_correlation(triplets, n_ent, n_rel))
        n_corr_checks += 1

        # threshold tuning (single-relation fixture with controlled distances)
        n_val = int(rng.integers(1, 40))
        dists = np.round(rng.uniform(0, 5, size=n_val), 1)
        labels = [1 if rng.random() < 0.5 else -1 for _ in range(n_val)]
        ent = np.concatenate([[0.0], dists]).reshape(-1, 1)
        th_tables = EmbeddingTables(TRANSE, 1, 1, ent, np.zeros((1, 1)))
        valid = [(0, 0, i + 1) for i in range(n_val)]
        got_th = tune_thresholds(th_tables, valid, labels)
        assert got_th.per_relation[0] == _oracle_threshold(dists, labels)
        n_thresh_checks += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s"
    _report("3 oracle equivalence",
            f"{n_rank_checks} ranks, {n_corr_checks} correlation matrices, "
            f"{n_thresh_checks} threshold scans matched exactly, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. weight contracts
# ---------------------------------------------------------------------------

def test_criterion_4_weight_contracts():
    rng = np.random.default_rng(404)
    triplets = [(int(rng.integers(30)), int(rng.integers(5)), int(rng.integers(30)))
                for _ in range(150)]
    store = TripleStore(triplets, num_entities=30, num_relations=5)
    corr = build_correlation(store)
    n_sets, dim = 1000, 5
    counts = rng.integers(1, 12, size=n_sets)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    rows = int(offsets[-1])
    cands = CandidateSet(np.arange(n_sets), offsets, rng.normal(size=(rows, dim)),
                         rng.integers(30, size=rows), rng.integers(5, size=rows),
                         np.ones(rows, dtype=bool))
    worst_sum = 0.0
    worst_reduce = 0.0
    for scheme, kwargs in [("uniform", {}),
                           ("degree", {"train_store": store}),
                           ("correlation", {"correlation": corr,
                                            "query_relation": rng.integers(5, size=n_sets)})]:
        w = candidate_weights(scheme, cands, **kwargs)
        assert np.all(w >= 0.0)
        out = reduce_candidates(cands, w)
        assert out.shape == (n_sets, dim)
        for s in range(n_sets):
            seg = range(offsets[s], offsets[s + 1])
            gap = abs(float(w[seg].sum()) - 1.0)
            worst_sum = max(worst_sum, gap)
            assert gap <= 1e-9
            oracle = np.zeros(dim)
            for i in seg:
                for k in range(dim):
                    oracle[k] += w[i] * cands.vectors[i, k]
            err = float(np.max(np.abs(out[s] - oracle)))
            worst_reduce = max(worst_reduce, err)
            assert err <= 1e-12
    _report("4 weight contracts",
            f"one batched set of {n_sets} segments x 3 schemes, worst sum gap "
            f"{worst_sum:.1e}, worst reduce deviation {worst_reduce:.1e}")


# ---------------------------------------------------------------------------
# 5. planted-structure end-to-end with ground-truth tables
# ---------------------------------------------------------------------------

def test_criterion_5_planted_structure_end_to_end():
    lp_splits, lp_tables = generate_planted_splits(505, 240, 8, 700, 0.1, task="lp")
    report = link_prediction(lp_tables, lp_splits, "correlation")
    assert report.mrr == 1.0
    assert report.hits1 == 1.0

    tc_splits, tc_tables = generate_planted_splits(506, 240, 8, 700, 0.1,
                                                   task="classification")
    tc_report = triplet_classification(tc_tables, tc_splits, "degree")
    assert tc_report.accuracy == 1.0
    _report("5 planted end-to-end",
            f"MRR={report.mrr} over {report.num_queries} queries, "
            f"accuracy={tc_report.accuracy} over {tc_report.num_queries} triplets")


# ---------------------------------------------------------------------------
# 6 + 7. desk-scale training and ablation ordering
# ---------------------------------------------------------------------------

DESK_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def desk_benchmark():
    """Train the criterion-6 benchmark once for three seeds; reused by 6 and 7."""
    t0 = time.perf_counter()
    mrr: dict[str, list[float]] = {}
    n_candidates = None
    for seed in DESK_SEEDS:
        splits, _ = generate_trainable_splits(seed, 500, 10, 5000, 0.1)
        config = TrainConfig(model=TRANSE, dim=32, margin=2.0, num_negatives=8,
                             batch_size=256, steps=5000, seed=seed, log_every=1000)
        tables, _ = train(splits, config)
        n_candidates = len(splits.ikg_entities)
        for name, scheme, cap in [("degree", "degree", None), ("cap8", "degree", 8),
                                  ("cap1", "degree", 1), ("uniform", "uniform", None)]:
            rep = link_prediction(tables, splits, scheme, neighbor_cap=cap, seed=seed)
            mrr.setdefault(name, []).append(rep.mrr)
    elapsed = time.perf_counter() - t0
    means = {name: float(np.mean(vals)) for name, vals in mrr.items()}
    return means, n_candidates, elapsed


def test_criterion_6_desk_scale_training(desk_benchmark):
    means, n_candidates, elapsed = desk_benchmark
    baseline = float(np.mean(1.0 / np.arange(1, n_candidates + 1)))
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 min"
    assert means["degree"] >= 5.0 * baseline, (
        f"mean MRR {means['degree']:.4f} below 5x random baseline {baseline:.4f}")
    _report("6 desk-scale training",
            f"mean MRR {means['degree']:.4f} = {means['degree'] / baseline:.1f}x the "
            f"random baseline {baseline:.4f}, {elapsed:.0f}s for {len(DESK_SEEDS)} seeds")


def test_criterion_7_ablation_ordering(desk_benchmark):
    means, _, _ = desk_benchmark
    assert means["cap1"] <= means["cap8"] <= means["degree"], means
    assert means["uniform"] <= means["degree"], means
    _report("7 ablation ordering",
            f"cap1 {means['cap1']:.4f} <= cap8 {means['cap8']:.4f} <= "
            f"full {means['degree']:.4f}; uniform {means['uniform']:.4f} <= degree")


# ---------------------------------------------------------------------------
# 8. extended full-scale reproduction (optional, hours)
# ---------------------------------------------------------------------------

WN11_DIR = os.environ.get("INVKGE_WN11_BOTH_5000_DIR")


@pytest.mark.skipif(WN11_DIR is None,
                    reason="set INVKGE_WN11_BOTH_5000_DIR to the WN11-Both-5000 files "
                           "to run the extended (hours-long) reproduction")
def test_criterion_8_wn11_both_5000_reproduction():
    splits = load_split_dir(WN11_DIR, task="classification")
    # published statistics for this benchmark
    assert len(splits.train) == 58_923
    assert len(splits.aux) == 16_660
    assert len(splits.test) == 3_218
    assert splits.vocab.num_relations == 11
    config = TrainConfig(model=TRANSE, seed=0, norm_order=1, **REFERENCE_CONFIGS["wn11"])
    tables, _ = train(splits, config)
    report = triplet_classification(tables, splits, "degree", smoothing=0.1)
    assert report.accuracy >= 0.70, f"accuracy {report.accuracy:.3f} below 0.70"
    _report("8 extended WN11-Both-5000", f"accuracy {report.accuracy:.3f} >= 0.70")
