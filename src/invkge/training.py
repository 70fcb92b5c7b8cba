"""Pretraining with self-adversarial negative sampling and Adam.

The per-positive loss is

    L = -log sig(margin - D(h, r, t))
        - sum_i p_i * log sig(D(h'_i, r, t'_i) - margin)

where the p_i soft-weight the n negatives by their current score,
p_i proportional to exp(temperature * -D_i), normalized over the n negatives
of the same positive. The p_i are treated as constants: no gradient flows
through them. Batches are averaged; gradients are accumulated sparsely per
touched embedding row and applied with a lazy Adam update (moments of
untouched rows are left alone). The update walks the touched rows in blocks
of about 256 KB of moment rows, so each block's gather, arithmetic and
scatter stay in cache; the result is bit-identical to one whole-array update.

Both models score every triplet, positive or corrupted, as the norm of one
residual e - q (see ``_batch_loss_grads``). The kernel streams the batch in
chunks of positives holding about 1 MB of residual rows, so each chunk's
residuals, moduli and scaled rows stay in cache and no batch-sized
temporary beside the shared row buffer is made; the result is bit-identical
to one whole-batch pass. The L2 penalty reuses one buffer of the touched
rows for its sum and its gradient.

Dtype policy: the kernel computes in the dtype of the tables it is given,
with float64 distances, adversarial weights and loss; ``init_tables`` draws
float32 tables, the checkpoint's dtype, and ``train`` keeps parameters and
Adam moments in float32 and returns the float32 tables without widening them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import TripleStore, _block_rows
from .datasets import BenchmarkSplits
from .models import MODELS, ROTATE, TRANSE, EmbeddingTables, init_tables
from .seeding import _check_seed, substream

logger = logging.getLogger(__name__)

_LOSS_BLOCK_BYTES = 1024 * 1024  # residual-row bytes per chunk of positives in _batch_loss_grads

# Pretraining hyper-parameters used for the two benchmark families.
REFERENCE_CONFIGS = {
    "fb15k": dict(dim=1000, margin=24.0, temperature=1.0, num_negatives=256,
                  l2=0.0, batch_size=1024, learning_rate=1e-3, steps=100_000),
    "wn11": dict(dim=300, margin=0.5, temperature=1.0, num_negatives=128,
                 l2=1e-5, batch_size=1024, learning_rate=1e-3, steps=20_000),
}


class TrainingDivergedError(RuntimeError):
    """Raised when the loss becomes non-finite; message carries the step."""


@dataclass
class TrainConfig:
    model: str = TRANSE
    dim: int = 200
    margin: float = 12.0
    temperature: float = 1.0
    num_negatives: int = 64
    l2: float = 0.0
    batch_size: int = 1024
    learning_rate: float = 1e-3
    steps: int = 10_000
    seed: int = 0
    norm_order: int = 1
    filter_false_negatives: bool = False
    log_every: int = 100

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        for name in ("margin", "temperature", "l2", "learning_rate"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dim <= 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise ValueError("dim, batch_size and learning_rate must be positive")
        if self.num_negatives < 1:
            raise ValueError("need at least one negative sample")
        if self.steps < 0 or self.l2 < 0 or self.temperature < 0 or self.margin <= 0:
            raise ValueError("steps/l2/temperature must be nonnegative, margin positive")
        if self.norm_order not in (1, 2):
            raise ValueError("norm_order must be 1 or 2")
        _check_seed(self.seed)
        if self.log_every < 1:
            raise ValueError("log_every must be at least 1")


class Adam:
    """Adam with lazy sparse row updates.

    Moment estimates exist per parameter table and are only decayed/updated
    for rows that received a gradient this step, the usual treatment for
    embedding tables. A step with an all-zero gradient on fresh state leaves
    the parameters bit-identical.

    A step walks each table's row ids in contiguous blocks of about
    ``core._BLOCK_BYTES`` of moment rows: it gathers a block's ``m`` and
    ``v`` rows, updates them in place, scatters them back and updates the
    block's parameter rows. The arithmetic is elementwise and no two blocks
    share a row, so the result is bit-identical to one pass over all the
    rows, while the block's temporaries stay in cache.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def register(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> None:
        self.m[name] = np.zeros(shape, dtype=dtype)
        self.v[name] = np.zeros(shape, dtype=dtype)

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, tuple[np.ndarray, np.ndarray]]) -> None:
        """Apply one update; ``grads[name]`` is (row_ids, row_gradients).

        Each table's row ids must be strictly increasing, as ``_scatter_sum``
        returns them; anything else raises ValueError before any state
        changes (a repeated id would keep only one of its updates).
        """
        for name, (ids, _) in grads.items():
            ids = np.asarray(ids)
            if (ids[1:] <= ids[:-1]).any():
                raise ValueError(f"row ids of {name!r} must be strictly increasing")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, (ids, g) in grads.items():
            m_table, v_table, table = self.m[name], self.v[name], params[name]
            rows = _block_rows(m_table.shape[1] * m_table.itemsize)
            for lo in range(0, len(ids), rows):
                block = ids[lo:lo + rows]
                m, v = m_table[block], v_table[block]    # copies, updated in place
                g_block = g[lo:lo + rows]
                m *= self.beta1
                m += (1.0 - self.beta1) * g_block
                v *= self.beta2
                v += (1.0 - self.beta2) * (g_block * g_block)
                m_table[block] = m
                v_table[block] = v
                m /= bc1
                m *= self.lr
                v /= bc2
                np.sqrt(v, out=v)
                v += self.eps
                m /= v
                table[block] -= m


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def _scatter_sum(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the rows of equal ids; returns the sorted unique ids and their sums.

    ``rows`` is overwritten: the rows of each id are added pairwise in place,
    one vectorized level per doubling of the largest count. On wide rows this
    is many times faster than np.add.reduceat or np.add.at.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    first = np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    starts = np.flatnonzero(first)
    rank = np.arange(len(ids)) - starts[np.cumsum(first) - 1]   # position within its id
    span, top = 1, rank.max()
    while span <= top:
        at = np.flatnonzero(rank % (2 * span) == span)
        rows[order[at - span]] += rows[order[at]]
        span *= 2
    return sorted_ids[starts], rows[order[starts]]


def _sample_negative_batch(rng: np.random.Generator, batch: np.ndarray, n: int,
                           num_entities: int) -> tuple[np.ndarray, np.ndarray]:
    """n corruptions per row of ``batch``: (replacement ids, head-corrupted mask), both (B, n).

    Head or tail, with equal odds, becomes one of the other entities, drawn uniformly.
    """
    bsz = batch.shape[0]
    is_head = rng.random((bsz, n)) < 0.5
    original = np.where(is_head, batch[:, 0:1], batch[:, 2:3])
    repl = rng.integers(0, num_entities - 1, size=(bsz, n))
    repl = repl + (repl >= original)
    return repl, is_head


def _batch_loss_grads(tables: EmbeddingTables, pos: np.ndarray, neg_entity: np.ndarray,
                      neg_is_head: np.ndarray, margin: float, temperature: float,
                      weights: np.ndarray | None = None):
    """Mean self-adversarial loss of a batch plus sparse gradients.

    Returns (loss, ent_ids, ent_grads, rel_ids, rel_grads, weights). Passing
    ``weights`` freezes the adversarial weights instead of recomputing them
    from the current scores, which is also how the gradient treats them.

    Every distance is the norm of a residual ``w = e - q``: a negative's
    replacement entity e against the query q of the side it corrupts, and the
    positive's head against the head-side query (column 0 below). TransE has
    q = t - r (head side) and h + r (tail side); RotatE, because |r| = 1,
    q = t o conj(r) and h o r. The normalized residual is the gradient w.r.t.
    e for both models, and the gradients w.r.t. the shared entity and the
    relation are linear in it, so they are summed per (positive, side) before
    the chain rule through q.

    The batch is streamed in chunks of positives holding about
    ``_LOSS_BLOCK_BYTES`` of residual rows (at least one positive). Each chunk
    runs gather, residual, distances, adversarial weights (normalized per
    positive), coefficients, scaling and side sums while its rows are in
    cache; only the float64 distances and weights are kept whole, and the
    loss is computed from them after the loop. Every step reduces within one
    positive's rows, so the result is bit-identical at any chunk size.
    """
    bsz, n = neg_entity.shape
    heads, rels, tails = pos[:, 0], pos[:, 1], pos[:, 2]
    ent = tables.entity_matrix()
    h, t = ent[heads], ent[tails]
    if tables.model == ROTATE:
        r = np.exp(1j * tables.relation[rels])
        q = np.stack([t * r.conj(), h * r], axis=1)                 # (B, 2, d)
    else:
        r = tables.relation[rels]
        q = np.stack([t - r, h + r], axis=1)
    ids = np.concatenate([heads[:, None], neg_entity], axis=1)        # (B, n + 1)
    head_side = np.concatenate([np.ones((bsz, 1), dtype=bool), neg_is_head], axis=1)
    tail_side = ~head_side
    real = tables.entity.dtype
    sides = np.stack([head_side, tail_side], axis=1).astype(real)    # (B, 2, n + 1)

    # corrupted-entity rows, then the shared tails (head side) and heads (tail side)
    rows = np.empty((bsz * (n + 3), ent.shape[1]), dtype=ent.dtype)
    w = rows[:bsz * (n + 1)].reshape(bsz, n + 1, -1)
    if neg_entity.min() < 0 or neg_entity.max() >= len(ent):
        raise IndexError("negative entity id out of range")
    d_pos, d_neg = np.empty(bsz), np.empty((bsz, n))
    frozen = weights is not None
    if not frozen:
        weights = np.empty((bsz, n))
    side_sums = np.empty((bsz, 2, tables.entity.shape[1]), dtype=real)
    chunk = _block_rows((n + 1) * ent.shape[1] * ent.itemsize, _LOSS_BLOCK_BYTES)
    for lo in range(0, bsz, chunk):
        part = slice(lo, lo + chunk)
        wc = w[part]
        np.take(ent, ids[part], axis=0, out=wc, mode="clip")          # unbuffered, ids checked
        np.subtract(wc, q[part, None, 0], out=wc, where=head_side[part, :, None])
        np.subtract(wc, q[part, None, 1], out=wc, where=tail_side[part, :, None])
        if tables.norm_order == 1:
            scale = np.abs(wc)                                        # element moduli
            dist = scale.sum(axis=2)
        else:
            wc_real = wc.view(real)
            dist = np.sqrt(np.einsum("bjk,bjk->bj", wc_real, wc_real))
            scale = dist[:, :, None]
        dp, dn, wt = d_pos[part], d_neg[part], weights[part]
        dp[:] = dist[:, 0]
        dn[:] = dist[:, 1:]
        if not frozen:
            logits = -temperature * dn
            logits -= logits.max(axis=1, keepdims=True)
            np.exp(logits, out=logits)
            np.divide(logits, logits.sum(axis=1, keepdims=True), out=wt)
        coef = np.empty((len(dp), n + 1, 1), dtype=real)
        coef[:, 0, 0] = _sigmoid(dp - margin) / bsz
        coef[:, 1:, 0] = -(wt * _sigmoid(margin - dn)) / bsz
        np.divide(coef, scale, out=scale, where=scale > 0)          # 0 where w = 0
        wc *= scale                                                   # coef * w / |w|
        np.matmul(sides[part], wc.view(real), out=side_sums[part])

    loss = float(np.mean(-_log_sigmoid(margin - d_pos)
                         - (weights * _log_sigmoid(d_neg - margin)).sum(axis=1)))

    s_head, s_tail = np.moveaxis(side_sums.view(ent.dtype), 1, 0)
    if tables.model == ROTATE:
        to_tail, to_head = r * s_head, r.conj() * s_tail
        rel_rows = (q[:, 0].conj() * s_head).imag - (q[:, 1].conj() * s_tail).imag
    else:
        to_tail, to_head = s_head, s_tail
        rel_rows = s_head - s_tail
    np.negative(to_tail, out=rows[bsz * (n + 1):bsz * (n + 2)])
    np.negative(to_head, out=rows[bsz * (n + 2):])

    ent_ids, ent_grads = _scatter_sum(np.concatenate([ids.ravel(), tails, heads]),
                                      rows.view(real))
    rel_ids, rel_grads = _scatter_sum(rels, rel_rows)
    return loss, ent_ids, ent_grads, rel_ids, rel_grads, weights


def train(splits: BenchmarkSplits, config: TrainConfig) -> tuple[EmbeddingTables, list[tuple[int, float]]]:
    """Pretrain tables on the training split; returns tables and a loss trace.

    Minibatches are drawn by repeated shuffled passes over the training set;
    ``config.steps`` counts minibatch updates, not epochs. Deterministic for
    a fixed seed (serial execution). Raises TrainingDivergedError if the loss
    leaves the finite range. Parameters and Adam moments are float32, the
    checkpoint's dtype, and the trained tables are returned as float32, so
    they equal their checkpoint round trip; with zero steps the
    initialization is returned as drawn.
    """
    if not len(splits.train):
        raise ValueError("training split is empty")
    num_entities = splits.vocab.num_entities
    if num_entities < 2:
        raise ValueError("corruption needs at least two entities")
    num_relations = splits.vocab.num_relations
    tables = init_tables(config.seed, config.model, config.dim, num_entities, num_relations,
                         norm_order=config.norm_order, margin=config.margin)
    trace: list[tuple[int, float]] = []
    if config.steps == 0:
        return tables, trace

    rng_shuffle = substream(config.seed, "shuffle")
    rng_neg = substream(config.seed, "negatives")
    data = splits.train
    train_store = (TripleStore(data, num_entities, num_relations)
                   if config.filter_false_negatives else None)
    surviving = 0

    params = {"entity": tables.entity, "relation": tables.relation}
    opt = Adam(lr=config.learning_rate)
    for name, table in params.items():
        opt.register(name, table.shape, table.dtype)

    order = rng_shuffle.permutation(len(data))
    ptr = 0

    def next_batch() -> np.ndarray:
        nonlocal order, ptr
        take = []
        need = config.batch_size
        while need > 0:
            if ptr >= len(order):
                order = rng_shuffle.permutation(len(data))
                ptr = 0
            k = min(need, len(order) - ptr)
            take.append(order[ptr:ptr + k])
            ptr += k
            need -= k
        return data[np.concatenate(take)] if len(take) > 1 else data[take[0]]

    for step in range(1, config.steps + 1):
        batch = next_batch()
        neg_entity, neg_is_head = _sample_negative_batch(
            rng_neg, batch, config.num_negatives, num_entities)
        if train_store is not None:
            surviving += _resample_true_negatives(rng_neg, batch, neg_entity, neg_is_head,
                                                  num_entities, train_store)
        loss, ent_ids, ent_grads, rel_ids, rel_grads, _ = _batch_loss_grads(
            tables, batch, neg_entity, neg_is_head, config.margin, config.temperature)
        if config.l2 > 0.0:
            loss += config.l2 * (_add_l2_grad(tables.entity, ent_ids, ent_grads, config.l2)
                                 + _add_l2_grad(tables.relation, rel_ids, rel_grads, config.l2))
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss at step {step}")
        opt.step(params, {"entity": (ent_ids, ent_grads), "relation": (rel_ids, rel_grads)})
        if step == 1 or step % config.log_every == 0 or step == config.steps:
            trace.append((step, loss))
    if train_store is not None:
        logger.info("false-negative filter: %d true training triplets kept as negatives",
                    surviving)
    logger.info("training finished: %d steps, final loss %.6f", config.steps, trace[-1][1])
    return tables, trace


def _add_l2_grad(table: np.ndarray, ids: np.ndarray, grads: np.ndarray, l2: float) -> float:
    """Add the gradient of ``l2 * |table[ids]|^2`` to ``grads``; returns the squared norm.

    One buffer of the touched rows serves both: squared in place and summed,
    then refilled by an unbuffered gather (``ids`` come from ``_scatter_sum``,
    so they are in range) and scaled in place.
    """
    rows = table[ids]
    np.square(rows, out=rows)
    penalty = float(rows.sum())
    np.take(table, ids, axis=0, out=rows, mode="clip")
    rows *= 2.0 * l2
    grads += rows
    return penalty


def _resample_true_negatives(rng, batch, neg_entity, neg_is_head, num_entities,
                             train_store) -> int:
    """Redraw negatives that are true training triplets, in up to 10 passes.

    Each pass redraws the dirty slots in row-major order, one draw per slot,
    the same stream as one scalar draw per slot. Returns how many negatives
    are still true triplets after the last pass.
    """
    original = np.where(neg_is_head, batch[:, 0:1], batch[:, 2:3])
    for remaining in range(10, -1, -1):
        dirty = train_store.contains(np.where(neg_is_head, neg_entity, batch[:, 0:1]),
                                     batch[:, 1:2],
                                     np.where(neg_is_head, batch[:, 2:3], neg_entity))
        count = int(dirty.sum())
        if count == 0 or remaining == 0:
            return count
        repl = rng.integers(num_entities - 1, size=count)
        neg_entity[dirty] = repl + (repl >= original[dirty])
