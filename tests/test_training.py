import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from invkge import core, training
from invkge.core import TripleStore, Vocabulary
from invkge.datasets import BenchmarkSplits, generate_trainable_splits
from invkge.models import (ROTATE, TRANSE, EmbeddingTables, init_tables, load_checkpoint,
                           save_checkpoint, translation_distance)
from invkge.training import (REFERENCE_CONFIGS, Adam, TrainConfig, TrainingDivergedError,
                             _add_l2_grad, _batch_loss_grads, _resample_true_negatives,
                             _sample_negative_batch, train)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(model="transr")
    with pytest.raises(ValueError):
        TrainConfig(num_negatives=0)
    with pytest.raises(ValueError):
        TrainConfig(margin=0.0)
    with pytest.raises(ValueError):
        TrainConfig(norm_order=3)


def test_reference_configs_for_benchmark_families():
    fb = REFERENCE_CONFIGS["fb15k"]
    assert (fb["dim"], fb["margin"], fb["temperature"], fb["num_negatives"]) == (1000, 24.0, 1.0, 256)
    assert fb["l2"] == 0.0 and fb["steps"] == 100_000
    wn = REFERENCE_CONFIGS["wn11"]
    assert (wn["dim"], wn["margin"], wn["temperature"], wn["num_negatives"]) == (300, 0.5, 1.0, 128)
    assert wn["l2"] == 1e-5 and wn["steps"] == 20_000
    for cfg in (fb, wn):
        assert cfg["batch_size"] == 1024 and cfg["learning_rate"] == 1e-3


# ---------------------------------------------------------------------------
# negative sampling
# ---------------------------------------------------------------------------

def _corrupted(pos, neg_entity, neg_is_head):
    """The (B, n, 3) negative triplets a sampled batch stands for."""
    heads = np.where(neg_is_head, neg_entity, pos[:, 0:1])
    tails = np.where(neg_is_head, pos[:, 2:3], neg_entity)
    return np.stack([heads, np.broadcast_to(pos[:, 1:2], heads.shape), tails], axis=2)


def test_negatives_two_entity_outcome_set():
    rng = np.random.default_rng(0)
    pos = np.array([[0, 0, 1]])
    negs = _corrupted(pos, *_sample_negative_batch(rng, pos, 40, num_entities=2))
    assert negs.shape == (1, 40, 3)
    assert {tuple(t) for t in negs[0].tolist()} <= {(1, 0, 1), (0, 0, 0)}


def test_negatives_differ_in_exactly_one_slot():
    rng = np.random.default_rng(1)
    pos = np.array([[3, 2, 7], [5, 0, 5], [0, 1, 9]])
    neg_entity, neg_is_head = _sample_negative_batch(rng, pos, 256, num_entities=10)
    assert neg_entity.shape == neg_is_head.shape == (3, 256)
    assert neg_is_head.any() and not neg_is_head.all()
    negs = _corrupted(pos, neg_entity, neg_is_head)
    differs = negs != pos[:, None, :]
    assert not differs[:, :, 1].any()
    assert (differs[:, :, 0] != differs[:, :, 2]).all()    # never the original id
    assert ((neg_entity >= 0) & (neg_entity < 10)).all()


def test_negatives_reproducible():
    pos = np.array([[0, 1, 2], [4, 0, 3]])
    a = _sample_negative_batch(np.random.default_rng(42), pos, 16, 5)
    b = _sample_negative_batch(np.random.default_rng(42), pos, 16, 5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_negatives_validation():
    vocab = Vocabulary()
    vocab.add_entities(["a"])
    vocab.add_relations(["r"])
    splits = BenchmarkSplits(vocab, train=[(0, 0, 0)], valid=[], aux=[], test=[],
                             valid_labels=None, test_labels=None, ikg_entities=[0],
                             ookg_entities=[], dangling_ookg=[])
    with pytest.raises(ValueError, match="corruption needs at least two entities"):
        train(splits, TrainConfig(dim=4, steps=1))


# ---------------------------------------------------------------------------
# self-adversarial loss
# ---------------------------------------------------------------------------

def _micro_tables(model, norm, rng, dim=4, n_ent=6, n_rel=3):
    width = 2 * dim if model == ROTATE else dim
    entity = rng.normal(0.0, 1.0, (n_ent, width))
    if model == ROTATE:
        relation = rng.uniform(-np.pi, np.pi, (n_rel, dim))
    else:
        relation = rng.normal(0.0, 1.0, (n_rel, dim))
    return EmbeddingTables(model, dim, norm, entity, relation)


def test_zero_temperature_gives_uniform_weights():
    rng = np.random.default_rng(2)
    tables = _micro_tables(TRANSE, 1, rng)
    pos = np.array([[0, 0, 1]])
    neg_entity, neg_is_head = _sample_negative_batch(rng, pos, 5, 6)
    *_, weights = _batch_loss_grads(tables, pos, neg_entity, neg_is_head, margin=1.0,
                                    temperature=0.0)
    assert weights.shape == (1, 5)
    assert np.allclose(weights, 0.2)


def test_loss_at_margin_is_two_log_two():
    # positive and single negative both sit exactly at distance == margin
    margin = 1.5
    entity = np.array([[0.0], [2.0 * margin]])
    relation = np.array([[margin]])
    tables = EmbeddingTables(TRANSE, 1, 1, entity, relation)
    pos = np.array([[0, 0, 0]])      # |0 + margin - 0| = margin
    neg_entity = np.array([[1]])     # tail replaced: |0 + margin - 2*margin| = margin
    loss, *_ = _batch_loss_grads(tables, pos, neg_entity, np.array([[False]]), margin,
                                 temperature=1.0)
    assert loss == pytest.approx(2.0 * np.log(2.0), rel=1e-12)


def _negative_distances(tables, pos, neg_entity, neg_is_head):
    rel = int(pos[0, 1])
    return np.array([translation_distance(TRANSE, 1, tables.entity[h], tables.relation[rel],
                                          tables.entity[t])
                     for h, _, t in _corrupted(pos, neg_entity, neg_is_head)[0].tolist()])


def test_zero_temperature_equals_uniform_weight_loss():
    rng = np.random.default_rng(3)
    tables = _micro_tables(TRANSE, 1, rng)
    pos = np.array([[1, 0, 2]])
    neg_entity, neg_is_head = _sample_negative_batch(rng, pos, 4, 6)
    loss, *_ = _batch_loss_grads(tables, pos, neg_entity, neg_is_head, 1.0, temperature=0.0)

    def logsig(x):
        return -np.logaddexp(0.0, -x)

    d_pos = translation_distance(TRANSE, 1, tables.entity[1], tables.relation[0],
                                 tables.entity[2])
    d_negs = _negative_distances(tables, pos, neg_entity, neg_is_head)
    expected = -logsig(1.0 - d_pos) - np.mean([logsig(d - 1.0) for d in d_negs])
    assert loss == pytest.approx(float(expected), rel=1e-12)


def test_adversarial_weights_match_softmax_of_scores():
    rng = np.random.default_rng(4)
    tables = _micro_tables(TRANSE, 1, rng)
    pos = np.array([[0, 1, 3]])
    neg_entity, neg_is_head = _sample_negative_batch(rng, pos, 6, 6)
    alpha = 0.8
    *_, weights = _batch_loss_grads(tables, pos, neg_entity, neg_is_head, 1.0, alpha)
    d = _negative_distances(tables, pos, neg_entity, neg_is_head)
    expected = np.exp(-alpha * d)
    expected /= expected.sum()
    assert np.allclose(weights[0], expected, atol=1e-12)


def test_adversarial_weights_survive_extreme_scores():
    # log-sum-exp guard: huge score gaps must not overflow
    entity = np.array([[0.0], [1e6], [5.0]])
    relation = np.array([[0.0]])
    tables = EmbeddingTables(TRANSE, 1, 1, entity, relation)
    pos = np.array([[0, 0, 0]])
    neg_entity, neg_is_head = np.array([[1, 2]]), np.array([[False, False]])
    loss, *_, weights = _batch_loss_grads(tables, pos, neg_entity, neg_is_head, 1.0,
                                          temperature=1.0)
    weights = weights[0]
    assert np.isfinite(loss)
    assert np.all(np.isfinite(weights))
    assert weights.sum() == pytest.approx(1.0)
    assert weights[1] > weights[0]  # the closer negative dominates


def _kink_free_instance(model, norm, rng, dim, n_neg):
    """Random one-positive batch whose residual elements sit away from the |.| kinks."""
    n_ent = 6
    while True:
        tables = _micro_tables(model, norm, rng, dim=dim, n_ent=n_ent)
        pos = np.array([[rng.integers(n_ent), rng.integers(3), rng.integers(n_ent)]])
        neg_entity, neg_is_head = _sample_negative_batch(rng, pos, n_neg, n_ent)
        trips = np.concatenate([pos, _corrupted(pos, neg_entity, neg_is_head)[0]])
        ent = tables.entity_matrix()
        h, r, t = ent[trips[:, 0]], tables.relation_vec(trips[:, 1]), ent[trips[:, 2]]
        u = h * r - t if model == ROTATE else h + r - t
        if np.abs(u).min() > 1e-2:
            return tables, pos, neg_entity, neg_is_head


def _fd_relative_error(tables, pos, neg_entity, neg_is_head, margin, alpha, eps=1e-5):
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
                down = _batch_loss_grads(tables, pos, neg_entity, neg_is_head, margin, alpha,
                                         weights)[0]
                table[idx, k] = orig
                fd_all.append((up - down) / (2.0 * eps))
                an_all.append(grad[k])
    fd = np.array(fd_all)
    an = np.array(an_all)
    return float(np.linalg.norm(fd - an) / max(np.linalg.norm(fd), np.linalg.norm(an), 1e-12))


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
@pytest.mark.parametrize("norm", [1, 2])
def test_gradients_match_finite_differences(model, norm):
    rng = np.random.default_rng(30 * norm + (model == ROTATE))
    for trial in range(5):
        dim = int(rng.integers(2, 9))
        n_neg = int(rng.integers(1, 5))
        instance = _kink_free_instance(model, norm, rng, dim, n_neg)
        err = _fd_relative_error(*instance, margin=1.5, alpha=0.7)
        assert err < 1e-4, f"trial {trial}: relative gradient error {err}"


def _interleaved(z):
    return np.ascontiguousarray(z).view(np.float64) if np.iscomplexobj(z) else z


def _reference_loss_grads(tables, pos, neg_entity, neg_is_head, margin, temperature):
    """Loss and dense gradients with every triplet's head and tail written out.

    Column 0 is the positive, columns 1..n its negatives; each triplet's
    gradient goes to its own head, relation and tail rows.
    """
    bsz, n = neg_entity.shape
    heads, rels, tails = pos[:, 0:1], pos[:, 1], pos[:, 2:3]
    h_ids = np.concatenate([heads, np.where(neg_is_head, neg_entity, heads)], axis=1)
    t_ids = np.concatenate([tails, np.where(neg_is_head, tails, neg_entity)], axis=1)
    ent = tables.entity_matrix()
    h, t = ent[h_ids], ent[t_ids]                                      # (B, n + 1, d)
    if tables.model == ROTATE:
        r = np.exp(1j * tables.relation[rels])[:, None, :]
        z = h * r - t
    else:
        r = tables.relation[rels][:, None, :]
        z = h + r - t
    a = np.abs(z)
    if tables.norm_order == 1:
        dist = a.sum(axis=2)
        g = np.where(a > 0, z / np.where(a > 0, a, 1.0), 0.0)
    else:
        dist = np.sqrt((a * a).sum(axis=2))
        g = z / np.where(dist > 0, dist, 1.0)[:, :, None]
    d_pos, d_neg = dist[:, 0], dist[:, 1:]
    weights = np.exp(-temperature * (d_neg - d_neg.min(axis=1, keepdims=True)))
    weights /= weights.sum(axis=1, keepdims=True)
    log_sig = lambda x: -np.logaddexp(0.0, -x)
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    loss = float(np.mean(-log_sig(margin - d_pos) - (weights * log_sig(d_neg - margin)).sum(axis=1)))
    coef = np.concatenate([sig(d_pos - margin)[:, None], -weights * sig(margin - d_neg)], axis=1)
    coef = (coef / bsz)[:, :, None]
    if tables.model == ROTATE:
        dh, dt, dr = g * r.conj(), -g, np.imag(g * np.conj(h * r))
    else:
        dh, dt, dr = g, -g, g
    width = tables.entity.shape[1]
    ent_grad = np.zeros_like(tables.entity)
    np.add.at(ent_grad, h_ids.ravel(), _interleaved(coef * dh).reshape(-1, width))
    np.add.at(ent_grad, t_ids.ravel(), _interleaved(coef * dt).reshape(-1, width))
    rel_grad = np.zeros_like(tables.relation)
    np.add.at(rel_grad, rels, (coef * dr).sum(axis=1))
    return loss, ent_grad, rel_grad, weights


def _kernel_dense(tables, pos, neg_entity, neg_is_head, margin, temperature):
    loss, ent_ids, ent_rows, rel_ids, rel_rows, weights = _batch_loss_grads(
        tables, pos, neg_entity, neg_is_head, margin, temperature)
    assert len(np.unique(ent_ids)) == len(ent_ids) and len(np.unique(rel_ids)) == len(rel_ids)
    ent_grad = np.zeros(tables.entity.shape)
    ent_grad[ent_ids] = ent_rows
    rel_grad = np.zeros(tables.relation.shape)
    rel_grad[rel_ids] = rel_rows
    return loss, ent_grad, rel_grad, weights


def _relative_gap(x, ref):
    return float(np.max(np.abs(np.asarray(x) - ref)) / max(np.max(np.abs(ref)), 1e-300))


def _kernel_instance(model, norm, rng):
    """Small batch over few entities: repeated ids, both sides, some exact zero residuals."""
    dim, n_ent, bsz, n = 4, 7, 24, 6
    width = 2 * dim if model == ROTATE else dim
    entity = rng.integers(-1, 2, size=(n_ent, width)).astype(np.float64)
    entity[::2] = rng.normal(size=(len(entity[::2]), width))
    relation = (rng.uniform(-np.pi, np.pi, (3, dim)) if model == ROTATE
                else rng.normal(size=(3, dim)))
    relation[0] = 0.0                         # identity relation: e' = t or h gives w = 0
    tables = EmbeddingTables(model, dim, norm, entity, relation)
    pos = np.stack([rng.integers(n_ent, size=bsz), rng.integers(3, size=bsz),
                    rng.integers(n_ent, size=bsz)], axis=1)
    pos[:4, 1] = 0
    pos[:4, 0] = pos[:4, 2]                   # zero positive residual
    neg_entity, neg_is_head = _sample_negative_batch(rng, pos, n, n_ent)
    neg_entity[4:8, 0] = np.where(neg_is_head[4:8, 0], pos[4:8, 2], pos[4:8, 0])
    pos[4:8, 1] = 0                           # zero negative residuals
    keep = neg_entity != np.where(neg_is_head, pos[:, 0:1], pos[:, 2:3])
    neg_entity = np.where(keep, neg_entity, (neg_entity + 1) % n_ent)
    return tables, pos, neg_entity, neg_is_head


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
@pytest.mark.parametrize("norm", [1, 2])
def test_batch_kernel_matches_per_triplet_reference(model, norm):
    rng = np.random.default_rng(10 * norm + (model == ROTATE))
    for _ in range(5):
        tables, pos, neg_entity, neg_is_head = _kernel_instance(model, norm, rng)
        assert neg_is_head.any() and not neg_is_head.all()
        got = _kernel_dense(tables, pos, neg_entity, neg_is_head, 1.5, 0.7)
        ref = _reference_loss_grads(tables, pos, neg_entity, neg_is_head, 1.5, 0.7)
        for g, r in zip(got, ref):
            assert _relative_gap(g, r) <= 1e-12


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
@pytest.mark.parametrize("norm", [1, 2])
def test_float32_kernel_agrees_with_float64(model, norm):
    rng = np.random.default_rng(20 * norm + (model == ROTATE))
    tables = _micro_tables(model, norm, rng, dim=16, n_ent=40, n_rel=3)
    tables.entity = tables.entity.astype(np.float32)
    tables.relation = tables.relation.astype(np.float32)
    wide = EmbeddingTables(model, 16, norm, tables.entity.astype(np.float64),
                           tables.relation.astype(np.float64))
    pos = np.stack([rng.integers(40, size=64), rng.integers(3, size=64),
                    rng.integers(40, size=64)], axis=1)
    neg_entity, neg_is_head = _sample_negative_batch(rng, pos, 8, 40)
    single = _kernel_dense(tables, pos, neg_entity, neg_is_head, 2.0, 1.0)
    double = _kernel_dense(wide, pos, neg_entity, neg_is_head, 2.0, 1.0)
    for g, r in zip(single, double):
        assert _relative_gap(g, r) <= 1e-4


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
@pytest.mark.parametrize("norm", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("frozen", [False, True])
def test_chunked_kernel_equals_whole_batch_call(monkeypatch, model, norm, dtype, frozen):
    rng = np.random.default_rng(40 * norm + (model == ROTATE))
    tables, pos, neg_entity, neg_is_head = _kernel_instance(model, norm, rng)
    tables.entity = tables.entity.astype(dtype)
    tables.relation = tables.relation.astype(dtype)
    bsz, n = neg_entity.shape
    weights = rng.dirichlet(np.ones(n), size=bsz) if frozen else None
    monkeypatch.setattr(training, "_LOSS_BLOCK_BYTES", 1 << 40)
    whole = _batch_loss_grads(tables, pos, neg_entity, neg_is_head, 1.5, 0.7, weights)
    positive_bytes = (n + 1) * tables.entity.shape[1] * tables.entity.itemsize
    # one positive (a 1-byte budget still takes one), five (a partial last chunk), all
    for budget in (1, 5 * positive_bytes, bsz * positive_bytes):
        monkeypatch.setattr(training, "_LOSS_BLOCK_BYTES", budget)
        got = _batch_loss_grads(tables, pos, neg_entity, neg_is_head, 1.5, 0.7, weights)
        assert got[0] == whole[0]
        for g, w in zip(got[1:], whole[1:]):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_l1_kernel_makes_no_batch_sized_temporary(monkeypatch):
    # all ids distinct, so _scatter_sum adds nothing; what remains is the rows
    # buffer, the gathered gradient rows and (B, d)-sized arrays
    monkeypatch.setattr(training, "_LOSS_BLOCK_BYTES", 1)
    rng = np.random.default_rng(6)
    dim, bsz, n = 256, 64, 128
    n_ent = bsz * (n + 2)
    tables = EmbeddingTables(TRANSE, dim, 1, rng.normal(size=(n_ent, dim)),
                             rng.normal(size=(3, dim)))
    ids = rng.permutation(n_ent)
    pos = np.stack([ids[:bsz], rng.integers(3, size=bsz), ids[bsz:2 * bsz]], axis=1)
    neg_entity = ids[2 * bsz:].reshape(bsz, n)
    neg_is_head = rng.random((bsz, n)) < 0.5
    tracemalloc.start()
    try:
        _, _, ent_grads, _, rel_grads, _ = _batch_loss_grads(tables, pos, neg_entity,
                                                             neg_is_head, 1.5, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows_bytes = bsz * (n + 3) * dim * 8
    assert peak < 1.1 * (rows_bytes + ent_grads.nbytes + rel_grads.nbytes)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_is_identity():
    opt = Adam(lr=0.1)
    opt.register("w", (4, 3))
    params = {"w": np.arange(12, dtype=np.float64).reshape(4, 3)}
    before = params["w"].copy()
    opt.step(params, {"w": (np.array([0, 2]), np.zeros((2, 3)))})
    assert np.array_equal(params["w"], before)
    opt.step(params, {"w": (np.array([], dtype=np.int64), np.zeros((0, 3)))})
    assert np.array_equal(params["w"], before)


def test_adam_descends_and_leaves_untouched_rows_alone():
    opt = Adam(lr=0.5)
    opt.register("w", (3, 2))
    params = {"w": np.zeros((3, 2))}
    grad = np.array([[1.0, -1.0]])
    for _ in range(5):
        opt.step(params, {"w": (np.array([1]), grad)})
    assert params["w"][1, 0] < 0 and params["w"][1, 1] > 0
    assert np.array_equal(params["w"][0], np.zeros(2))
    assert np.array_equal(params["w"][2], np.zeros(2))


class _UnblockedAdam(Adam):
    """The lazy update as one whole-array pass per table: the blocked step's oracle."""

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, (ids, g) in grads.items():
            if len(ids) == 0:
                continue
            m, v = self.m[name][ids], self.v[name][ids]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            self.m[name][ids] = m
            self.v[name][ids] = v
            m /= bc1
            m *= self.lr
            v /= bc2
            np.sqrt(v, out=v)
            v += self.eps
            m /= v
            params[name][ids] -= m


class _RowWrites(np.ndarray):
    """Parameter table that logs the number of rows of every fancy-index write."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __setitem__(self, key, value):
        if self.log is not None:
            self.log.append(len(key))
        super().__setitem__(key, value)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [3, 600])
@pytest.mark.parametrize("block_rows", [1, 3, 7])
def test_blocked_adam_equals_unblocked_update(monkeypatch, dtype, width, block_rows):
    monkeypatch.setattr(core, "_BLOCK_BYTES",
                        block_rows * width * np.dtype(dtype).itemsize)
    rng = np.random.default_rng(width + block_rows)
    n_rows = 40
    start = {name: rng.normal(size=(n_rows, width)).astype(dtype)
             for name in ("w", "empty", "idle")}
    blocked, unblocked = Adam(lr=0.05), _UnblockedAdam(lr=0.05)
    for opt in (blocked, unblocked):
        for name, table in start.items():
            opt.register(name, table.shape, dtype)
    got = {name: table.copy() for name, table in start.items()}
    got["w"] = got["w"].view(_RowWrites)
    got["w"].log = []
    want = {name: table.copy() for name, table in start.items()}
    partial = 0
    for _ in range(5):
        ids = np.sort(rng.choice(n_rows, size=int(rng.integers(1, n_rows + 1)), replace=False))
        g = rng.normal(size=(len(ids), width)).astype(dtype)
        empty = (np.array([], dtype=np.int64), np.zeros((0, width), dtype))
        got["w"].log.clear()
        blocked.step(got, {"w": (ids, g.copy()), "empty": empty})
        unblocked.step(want, {"w": (ids, g.copy()), "empty": empty})
        full, rest = divmod(len(ids), block_rows)
        assert got["w"].log == [block_rows] * full + ([rest] if rest else [])
        partial += rest > 0
    assert (partial > 0) == (block_rows > 1)    # a 1-row block is never partial
    for name in start:
        assert np.array_equal(got[name], want[name])
        assert np.array_equal(blocked.m[name], unblocked.m[name])
        assert np.array_equal(blocked.v[name], unblocked.v[name])
    assert not np.array_equal(got["w"], start["w"])
    assert np.array_equal(got["empty"], start["empty"])
    assert np.array_equal(got["idle"], start["idle"])
    assert not blocked.m["idle"].any() and not blocked.v["empty"].any()


@pytest.mark.parametrize("ids", [[0, 2, 2], [2, 0], [1, 1]])
def test_adam_rejects_row_ids_that_are_not_strictly_increasing(ids):
    opt = Adam(lr=0.1)
    opt.register("w", (3, 2))
    params = {"w": np.zeros((3, 2))}
    with pytest.raises(ValueError, match="strictly increasing"):
        opt.step(params, {"w": (np.array(ids), np.ones((len(ids), 2)))})
    assert opt.t == 0
    assert not params["w"].any() and not opt.m["w"].any() and not opt.v["w"].any()


def test_l2_penalty_equals_the_whole_array_expression():
    rng = np.random.default_rng(9)
    table = rng.normal(size=(50, 7)).astype(np.float32)
    ids = np.sort(rng.choice(50, size=20, replace=False))
    grads = rng.normal(size=(20, 7)).astype(np.float32)
    rows = table[ids]
    want_penalty, want_grads = float((rows * rows).sum()), grads + 2.0 * 1e-3 * rows
    assert _add_l2_grad(table, ids, grads, 1e-3) == want_penalty
    assert grads.dtype == np.float32 and np.array_equal(grads, want_grads)


# ---------------------------------------------------------------------------
# end-to-end training
# ---------------------------------------------------------------------------

def test_zero_steps_returns_initialization():
    splits, _ = generate_trainable_splits(1, 30, 3, 100, 0.1)
    cfg = TrainConfig(dim=8, margin=2.0, num_negatives=4, batch_size=16, steps=0, seed=5)
    tables, trace = train(splits, cfg)
    init = init_tables(5, TRANSE, 8, splits.vocab.num_entities,
                       splits.vocab.num_relations, norm_order=1, margin=2.0)
    assert trace == []
    assert np.array_equal(tables.entity, init.entity)
    assert np.array_equal(tables.relation, init.relation)


def test_training_deterministic_per_seed():
    splits, _ = generate_trainable_splits(2, 30, 3, 100, 0.1)
    cfg = TrainConfig(dim=8, margin=2.0, num_negatives=4, batch_size=16, steps=50,
                      seed=7, log_every=10)
    t1, trace1 = train(splits, cfg)
    t2, trace2 = train(splits, cfg)
    assert np.array_equal(t1.entity, t2.entity)
    assert np.array_equal(t1.relation, t2.relation)
    assert trace1 == trace2


def test_loss_trace_is_finite_and_decreasing_overall():
    splits, _ = generate_trainable_splits(3, 60, 4, 400, 0.1)
    cfg = TrainConfig(dim=16, margin=2.0, num_negatives=8, batch_size=64, steps=400,
                      seed=0, log_every=50)
    _, trace = train(splits, cfg)
    losses = [loss for _, loss in trace]
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_training_separates_train_triplets_from_random(model):
    # mean distance of trained triplets must drop below mean random-triplet distance
    splits, _ = generate_trainable_splits(4, 50, 4, 300, 0.1)
    cfg = TrainConfig(model=model, dim=16, margin=2.0, num_negatives=8, batch_size=64,
                      steps=2000, seed=1, log_every=500)
    tables, _ = train(splits, cfg)
    ent = tables.entity_matrix()

    def mean_distance(triplets):
        data = np.array(triplets, dtype=np.int64)
        h = ent[data[:, 0]]
        t = ent[data[:, 2]]
        if model == ROTATE:
            r = np.exp(1j * tables.relation[data[:, 1]])
        else:
            r = tables.relation[data[:, 1]]
        return float(translation_distance(model, 1, h, r, t).mean())

    rng = np.random.default_rng(0)
    n_ent = splits.vocab.num_entities
    random_triplets = [(int(rng.integers(n_ent)), int(rng.integers(4)),
                        int(rng.integers(n_ent))) for _ in range(500)]
    assert mean_distance(splits.train) < mean_distance(random_triplets)


def test_empty_train_split_rejected():
    splits, _ = generate_trainable_splits(1, 30, 3, 100, 0.1)
    with pytest.raises(ValueError):
        train(replace(splits, train=[]), TrainConfig(dim=4, steps=1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_step_number():
    splits, _ = generate_trainable_splits(1, 20, 3, 80, 0.15)
    cfg = TrainConfig(dim=4, margin=1.0, num_negatives=2, batch_size=8, steps=20,
                      learning_rate=1e200, norm_order=2, log_every=1)
    with pytest.raises(TrainingDivergedError) as err:
        train(splits, cfg)
    assert "step" in str(err.value)


def test_batch_larger_than_training_set_wraps_epochs():
    splits, _ = generate_trainable_splits(4, 20, 3, 80, 0.15)
    cfg = TrainConfig(dim=4, margin=1.0, num_negatives=2, batch_size=128, steps=15,
                      seed=1, log_every=5)
    tables, trace = train(splits, cfg)
    assert np.isfinite(trace[-1][1])
    assert tables.num_entities == splits.vocab.num_entities


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        TrainConfig(seed=-1)


def test_filter_false_negatives_flag_runs(caplog):
    splits, _ = generate_trainable_splits(6, 20, 3, 80, 0.15)
    cfg = TrainConfig(dim=8, margin=1.0, num_negatives=4, batch_size=16, steps=20,
                      seed=3, filter_false_negatives=True, log_every=10)
    with caplog.at_level(logging.INFO, logger="invkge.training"):
        tables, trace = train(splits, cfg)
    assert np.isfinite(trace[-1][1])
    assert "false-negative filter: 0 true training triplets kept" in caplog.text


def _resample_loop(rng, batch, neg_entity, neg_is_head, num_entities, train_set):
    """Scalar reference: one membership test and one draw per negative slot."""
    for _ in range(10):
        dirty = []
        for b in range(batch.shape[0]):
            h, r, t = batch[b]
            for j in range(neg_entity.shape[1]):
                e = neg_entity[b, j]
                trip = (e, r, t) if neg_is_head[b, j] else (h, r, e)
                if tuple(map(int, trip)) in train_set:
                    dirty.append((b, j))
        if not dirty:
            return
        for b, j in dirty:
            original = batch[b, 0] if neg_is_head[b, j] else batch[b, 2]
            repl = int(rng.integers(num_entities - 1))
            if repl >= original:
                repl += 1
            neg_entity[b, j] = repl


def _true_negatives(store, batch, neg_entity, neg_is_head):
    return store.contains(np.where(neg_is_head, neg_entity, batch[:, 0:1]), batch[:, 1:2],
                          np.where(neg_is_head, batch[:, 2:3], neg_entity))


@pytest.mark.parametrize("num_entities,num_train", [(20, 80), (10, 150)])
def test_vectorized_false_negative_filter_matches_loop(num_entities, num_train):
    # uniform random graphs; (10, 150) is dense enough that some true triplets
    # survive all passes, which no generated benchmark of that size is
    n_ent = num_entities
    keys = np.random.default_rng(6).choice(n_ent * 3 * n_ent, size=num_train, replace=False)
    data = np.stack(np.unravel_index(keys, (n_ent, 3, n_ent)), axis=1).astype(np.int64)
    store = TripleStore(data, n_ent, 3)
    survived = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        batch = data[rng.integers(len(data), size=32)]
        neg_entity, neg_is_head = _sample_negative_batch(rng, batch, 16, n_ent)
        expected = neg_entity.copy()
        rng_loop, rng_vec = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
        _resample_loop(rng_loop, batch, expected, neg_is_head, n_ent, frozenset(map(tuple, store.triplets.tolist())))
        count = _resample_true_negatives(rng_vec, batch, neg_entity, neg_is_head, n_ent, store)
        assert np.array_equal(neg_entity, expected)
        assert rng_loop.integers(1 << 30) == rng_vec.integers(1 << 30)
        assert count == int(_true_negatives(store, batch, neg_entity, neg_is_head).sum())
        survived += count
    assert (survived > 0) == (num_entities == 10)


def test_false_negative_filter_leaves_no_true_triplet():
    splits, _ = generate_trainable_splits(6, 20, 3, 80, 0.15)
    n_ent = splits.vocab.num_entities
    store = TripleStore(splits.train, n_ent, splits.vocab.num_relations)
    data = np.array(splits.train, dtype=np.int64)
    rng = np.random.default_rng(0)
    # every training triplet, each corrupted 64 times
    neg_entity, neg_is_head = _sample_negative_batch(rng, data, 64, n_ent)
    assert _true_negatives(store, data, neg_entity, neg_is_head).any()
    assert _resample_true_negatives(rng, data, neg_entity, neg_is_head, n_ent, store) == 0
    assert not _true_negatives(store, data, neg_entity, neg_is_head).any()
    assert (neg_entity != np.where(neg_is_head, data[:, 0:1], data[:, 2:3])).all()


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
@pytest.mark.parametrize("norm", [1, 2])
def test_training_is_the_same_at_any_adam_block_size(monkeypatch, model, norm):
    splits, _ = generate_trainable_splits(2, 30, 3, 100, 0.1)
    cfg = TrainConfig(model=model, dim=8, margin=2.0, num_negatives=4, batch_size=16,
                      steps=30, seed=7, l2=1e-3, norm_order=norm, log_every=5)
    default, trace = train(splits, cfg)
    monkeypatch.setattr(core, "_BLOCK_BYTES", 1)   # one row per block
    one_row, one_row_trace = train(splits, cfg)
    assert np.array_equal(default.entity, one_row.entity)
    assert np.array_equal(default.relation, one_row.relation)
    assert trace == one_row_trace


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_trained_tables_equal_their_checkpoint(model, tmp_path):
    splits, _ = generate_trainable_splits(2, 30, 3, 100, 0.1)
    cfg = TrainConfig(model=model, dim=8, margin=2.0, num_negatives=4, batch_size=16,
                      steps=30, seed=7, l2=1e-3)
    tables, _ = train(splits, cfg)
    save_checkpoint(tables, tmp_path / "checkpoint.bin")
    loaded, _ = load_checkpoint(tmp_path / "checkpoint.bin")
    assert tables.entity.dtype == tables.relation.dtype == np.float32
    assert loaded.entity.dtype == loaded.relation.dtype == np.float32
    assert np.array_equal(tables.entity, loaded.entity)
    assert np.array_equal(tables.relation, loaded.relation)
