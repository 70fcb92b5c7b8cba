import logging

import numpy as np
import pytest

from invkge import reduction
from invkge.core import TripleStore
from invkge.estimation import (CandidateSet, _composer, candidate_vectors, cap_neighbors,
                               estimate_candidates)
from invkge.models import ROTATE, TRANSE, EmbeddingTables, init_tables
from invkge.reduction import (CORRELATION, DEGREE, UNIFORM, build_correlation,
                              candidate_weights, reduce_candidates, save_correlation_csv)


def _cands(vectors, sources=None, relations=None):
    """Float64 tables and one entity's candidate set (a single segment) of the given ``vectors``.

    Candidate i is the tail-side ``h + r`` of TransE (``h∘r`` of RotatE for complex vectors)
    with entity ``sources[i]`` holding ``vectors[i]`` and a zero relation (phase 0), which
    composes exactly.
    """
    vectors = np.array(vectors, dtype=complex if np.iscomplexobj(vectors) else float)
    n, dim = vectors.shape
    sources = sources or list(range(n))
    relations = relations or [0] * n
    entity = np.zeros((max(sources) + 1, dim), vectors.dtype)
    entity[sources] = vectors
    model = ROTATE if np.iscomplexobj(vectors) else TRANSE
    tables = EmbeddingTables(model, dim, 1, entity.view(np.float64),
                             np.zeros((max(relations) + 1, dim)))
    return tables, CandidateSet(np.array([99]), np.array([0, n]), np.array(sources),
                                np.array(relations), np.zeros(n, dtype=bool))


# ---------------------------------------------------------------------------
# correlation matrix
# ---------------------------------------------------------------------------

def test_self_conditional_is_one():
    store = TripleStore([(0, 0, 1)], num_entities=2, num_relations=1)
    corr = build_correlation(store)
    assert corr.shape == (1, 1) and corr[0, 0] == 1.0  # both endpoints carry r0


def test_two_relation_hand_enumeration():
    # neighbor sets: e0 {r0, r1}, e1 {r0}, e2 {r1}
    store = TripleStore([(0, 0, 1), (0, 1, 2)], num_entities=3, num_relations=2)
    corr = build_correlation(store)
    assert corr[0, 1] == 0.5  # P(r1 | r0): of {e0, e1} only e0 has r1
    assert corr[1, 0] == 0.5  # P(r0 | r1): of {e0, e2} only e0 has r0
    assert corr[0, 0] == 1.0
    assert corr[1, 1] == 1.0


def test_unused_relation_rows_and_columns_zero():
    # the store's relation count sizes the matrix; r1 and r2 are carried by no entity
    store = TripleStore([(0, 0, 1)], num_entities=2, num_relations=3)
    corr = build_correlation(store)
    assert corr.shape == (3, 3)
    for r in (1, 2):
        assert np.all(corr[r] == 0.0) and np.all(corr[:, r] == 0.0)
    assert corr[0, 0] == 1.0  # a carried relation has diagonal 1


def test_correlation_requires_triplets():
    with pytest.raises(ValueError):
        build_correlation(TripleStore([], num_entities=2, num_relations=2))


def _brute_force_correlation(triplets, n_ent, n_rel):
    neighbor_rels = [set() for _ in range(n_ent)]
    for h, r, t in set(triplets):
        neighbor_rels[h].add(r)
        neighbor_rels[t].add(r)
    p = np.zeros((n_rel, n_rel))
    for r1 in range(n_rel):
        denom = sum(1 for rels in neighbor_rels if r1 in rels)
        if denom == 0:
            continue
        for r2 in range(n_rel):
            num = sum(1 for rels in neighbor_rels if r1 in rels and r2 in rels)
            p[r1, r2] = num / denom
    return p


def test_correlation_matches_brute_force_on_random_graphs():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n_ent = int(rng.integers(3, 50))
        n_rel = int(rng.integers(1, 8))
        triplets = [(int(rng.integers(n_ent)), int(rng.integers(n_rel)),
                     int(rng.integers(n_ent)))
                    for _ in range(int(rng.integers(1, 120)))]
        store = TripleStore(triplets, num_entities=n_ent, num_relations=n_rel)
        got = build_correlation(store)
        expected = _brute_force_correlation(triplets, n_ent, n_rel)
        assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# weighting schemes
# ---------------------------------------------------------------------------

def test_uniform_weights():
    _, cset = _cands([[1, 0], [0, 1], [2, 2], [3, 3]])
    w = candidate_weights(UNIFORM, cset)
    assert np.array_equal(w, np.full(4, 0.25))


def test_degree_weights_hand_arithmetic():
    # degrees: entity 0 -> 1, entity 1 -> 2; delta = 0.1
    store = TripleStore([(0, 0, 1), (2, 0, 1)], num_entities=3, num_relations=1)
    _, cset = _cands([[1.0], [2.0]], sources=[0, 1])
    w = candidate_weights(DEGREE, cset, train_store=store, smoothing=0.1)
    raw = np.array([np.log(1.1), np.log(2.1)])
    assert np.allclose(w, raw / raw.sum(), atol=1e-15)


def test_degree_weights_reject_bad_smoothing():
    store = TripleStore([(0, 0, 1)], num_entities=2, num_relations=1)
    with pytest.raises(ValueError):
        candidate_weights(DEGREE, _cands([[1.0]])[1], train_store=store, smoothing=0.0)


def test_correlation_weights_all_mass_on_correlated_candidate():
    p = np.zeros((3, 3))
    p[1, 2] = 0.4
    p[2, 1] = 0.6  # sum 1.0 for candidate with relation 2 under query 1
    _, cset = _cands([[1.0], [5.0]], relations=[2, 0])
    w = candidate_weights(CORRELATION, cset, correlation=p, query_relation=1)
    assert np.array_equal(w, np.array([1.0, 0.0]))


def test_correlation_weights_formula():
    rng = np.random.default_rng(0)
    p = rng.uniform(0, 1, (4, 4))
    _, cset = _cands([[1.0], [2.0], [3.0]], relations=[0, 2, 3])
    w = candidate_weights(CORRELATION, cset, correlation=p, query_relation=1)
    raw = np.array([p[1, 0] + p[0, 1], p[1, 2] + p[2, 1], p[1, 3] + p[3, 1]])
    assert np.allclose(w, raw / raw.sum(), atol=1e-15)


def test_degenerate_weights_fall_back_to_uniform(caplog):
    _, cset = _cands([[1.0], [2.0]], relations=[0, 0])
    with caplog.at_level(logging.WARNING):
        w = candidate_weights(CORRELATION, cset, correlation=np.zeros((2, 2)), query_relation=1)
    assert np.array_equal(w, np.array([0.5, 0.5]))
    assert "falling back to uniform" in caplog.text


def test_weights_dispatcher():
    store = TripleStore([(0, 0, 1)], num_entities=2, num_relations=1)
    corr = build_correlation(store)
    _, cset = _cands([[1.0], [2.0]], sources=[0, 1], relations=[0, 0])
    for scheme, kwargs in [(UNIFORM, {}),
                           (DEGREE, {"train_store": store}),
                           (CORRELATION, {"correlation": corr, "query_relation": 0})]:
        w = candidate_weights(scheme, cset, **kwargs)
        assert w.shape == (2,)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        candidate_weights("attention", cset)
    with pytest.raises(ValueError):
        candidate_weights(DEGREE, cset)  # missing train store
    with pytest.raises(ValueError):
        candidate_weights(CORRELATION, cset, correlation=corr)  # missing query relation


def test_weight_properties_random_candidate_sets():
    rng = np.random.default_rng(31)
    triplets = [(int(rng.integers(20)), int(rng.integers(4)), int(rng.integers(20)))
                for _ in range(80)]
    store = TripleStore(triplets, num_entities=20, num_relations=4)
    corr = build_correlation(store)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        _, cset = _cands(rng.normal(size=(n, 3)).tolist(),
                         sources=[int(rng.integers(20)) for _ in range(n)],
                         relations=[int(rng.integers(4)) for _ in range(n)])
        for scheme, kwargs in [(UNIFORM, {}),
                               (DEGREE, {"train_store": store}),
                               (CORRELATION, {"correlation": corr,
                                              "query_relation": int(rng.integers(4))})]:
            w = candidate_weights(scheme, cset, **kwargs)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-9


def test_degree_weights_permutation_invariant():
    rng = np.random.default_rng(5)
    triplets = [(int(rng.integers(10)), 0, int(rng.integers(10))) for _ in range(40)]
    store = TripleStore(triplets, num_entities=10, num_relations=1)
    sources = [1, 4, 7, 2, 9]
    _, cset = _cands([[float(i)] for i in range(5)], sources=sources)
    w = candidate_weights(DEGREE, cset, train_store=store)
    perm = [3, 0, 4, 1, 2]
    _, permuted = _cands([[float(i)] for i in perm], sources=[sources[i] for i in perm])
    w_perm = candidate_weights(DEGREE, permuted, train_store=store)
    assert np.allclose(w_perm, w[perm], atol=1e-15)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_identity():
    tables, cset = _cands([[2.0, -1.0]])
    assert np.array_equal(reduce_candidates(tables, cset, np.array([1.0])),
                          np.array([[2.0, -1.0]]))


def test_reduce_midpoint():
    tables, cset = _cands([[1.0, 0.0], [0.0, 1.0]])
    out = reduce_candidates(tables, cset, np.array([0.5, 0.5]))
    assert np.array_equal(out, np.array([[0.5, 0.5]]))


def test_reduce_matches_scalar_loop_oracle():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n, d = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        vectors = rng.normal(size=(n, d))
        w = rng.uniform(0.1, 1.0, size=n)
        w /= w.sum()
        out = reduce_candidates(*_cands(vectors.tolist()), w)[0]
        oracle = np.zeros(d)
        for i in range(n):
            for k in range(d):
                oracle[k] += w[i] * vectors[i, k]
        assert np.allclose(out, oracle, atol=1e-12)


def test_reduce_complex_candidates():
    vecs = [np.array([1.0 + 1.0j, 0.0j]), np.array([0.0j, 2.0 - 2.0j])]
    out = reduce_candidates(*_cands(vecs), np.array([0.25, 0.75]))[0]
    assert np.allclose(out, 0.25 * vecs[0] + 0.75 * vecs[1], atol=1e-15)


def test_reduce_output_in_convex_hull():
    rng = np.random.default_rng(43)
    for _ in range(20):
        n, d = int(rng.integers(1, 6)), 4
        vectors = rng.normal(size=(n, d))
        w = rng.dirichlet(np.ones(n))
        out = reduce_candidates(*_cands(vectors.tolist()), w)[0]
        assert np.all(out >= vectors.min(axis=0) - 1e-12)
        assert np.all(out <= vectors.max(axis=0) + 1e-12)


def test_reduce_validates_weights():
    tables, cset = _cands([[1.0], [2.0]])
    with pytest.raises(ValueError):
        reduce_candidates(tables, cset, np.array([1.0]))            # count mismatch
    with pytest.raises(ValueError):
        reduce_candidates(tables, cset, np.array([0.7, 0.7]))       # does not sum to 1
    two = CandidateSet(np.array([5, 6]), np.array([0, 1, 2]), cset.source_entity,
                       cset.source_relation, cset.as_head)
    with pytest.raises(ValueError):
        reduce_candidates(tables, two, np.array([0.5, 0.5]))        # each segment must sum to 1


@pytest.mark.parametrize("weights", [[np.nan, np.nan], [0.5, np.nan], [np.inf, -np.inf],
                                     [np.inf, 1.0]])
def test_reduce_rejects_non_finite_weights(weights):
    with pytest.raises(ValueError, match="finite"):
        reduce_candidates(*_cands([[1.0], [2.0]]), np.array(weights))


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
@pytest.mark.parametrize("cap", [None, 2])
def test_blocked_reduction_equals_the_whole_array_formula(monkeypatch, model, cap):
    # blocks of 3 rows: segments straddle the block bounds and some hold more than a block
    rng = np.random.default_rng(17)
    n_ent, n_rel, dim = 60, 4, 5
    tables = init_tables(3, model, dim, n_ent, n_rel)
    ookg = np.arange(12)
    triplets = []
    for e in ookg.tolist():
        for _ in range(int(rng.integers(1, 9))):
            other, rel = int(rng.integers(12, n_ent)), int(rng.integers(n_rel))
            triplets.append((e, rel, other) if rng.random() < 0.5 else (other, rel, e))
    aux = TripleStore(triplets, num_entities=n_ent, num_relations=n_rel)
    train = TripleStore(rng.integers(0, [n_ent, n_rel, n_ent], size=(200, 3)),
                        num_entities=n_ent, num_relations=n_rel)
    cset = estimate_candidates(tables, aux, ookg, range(12, n_ent))
    if cap is not None:
        cset = cap_neighbors(cset, cap, seed=1)
    width = 2 * dim if model == ROTATE else dim
    monkeypatch.setattr(reduction, "_REDUCE_BLOCK_BYTES", 3 * width * 8)
    assert cap is not None or cset.counts.max() > 3
    whole = candidate_vectors(tables, cset)
    for scheme, kwargs in [(UNIFORM, {}), (DEGREE, {"train_store": train}),
                           (CORRELATION, {"correlation": build_correlation(train),
                                          "query_relation": rng.integers(n_rel, size=len(ookg))})]:
        w = candidate_weights(scheme, cset, **kwargs)
        expected = np.add.reduceat(w[:, None] * whole, cset.offsets[:-1], axis=0)
        got = reduce_candidates(tables, cset, w)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    for lo, hi in [(0, 1), (2, 7), (5, len(cset))]:
        assert _composer(tables)(cset, slice(lo, hi)).tobytes() == whole[lo:hi].tobytes()
    empty = estimate_candidates(tables, aux, [], range(12, n_ent))
    got = reduce_candidates(tables, empty, np.zeros(0))
    assert got.shape == (0, dim) and got.dtype == whole.dtype


def test_correlation_csv_dump(tmp_path):
    from invkge.core import Vocabulary
    store = TripleStore([(0, 0, 1), (1, 1, 2)], num_entities=3, num_relations=2)
    vocab = Vocabulary()
    vocab.add_entities(["a", "b", "c"])
    vocab.add_relations(["r0", "r1"])
    corr = build_correlation(store)
    path = tmp_path / "correlation.csv"
    save_correlation_csv(corr, vocab, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "relation,r0,r1"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "r0"
    assert float(first[1]) == corr[0, 0]
