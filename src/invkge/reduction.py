"""Reduce a candidate set to one embedding per entity by weighted average, in blocks of rows.

Three weighting schemes: correlation-based (query-aware, from relation co-occurrence
conditionals), degree-based (favors candidates produced via well-connected training
entities), and uniform (the ablation baseline).
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from .core import TripleStore, Vocabulary
from .estimation import CandidateSet, _composer
from .models import EmbeddingTables, _write_csv

logger = logging.getLogger(__name__)

CORRELATION = "correlation"
DEGREE = "degree"
UNIFORM = "uniform"
SCHEMES = (CORRELATION, DEGREE, UNIFORM)

DEFAULT_SMOOTHING = 0.1
_REDUCE_BLOCK_BYTES = 256 * 1024  # candidate-row bytes composed and summed per block


def build_correlation(train_store: TripleStore) -> np.ndarray:
    """Dense conditional co-occurrence matrix over the store's relations.

    Entry ``[r1, r2]`` is P(r2 | r1): among entities whose training neighbor
    set contains r1, the fraction that also contains r2. An entity counts once
    per relation regardless of multiplicity. A relation that no entity carries
    has an all-zero row and column.
    """
    if len(train_store) == 0:
        raise ValueError("correlation requires a nonempty training store")
    h, r, t = train_store.triplets.T
    incidence = np.zeros((train_store.num_entities, train_store.num_relations))  # entity carries relation
    incidence[h, r] = 1.0
    incidence[t, r] = 1.0
    count = incidence.T @ incidence
    support = np.diag(count)[:, None]  # entities carrying r1
    return np.divide(count, support, out=np.zeros_like(count), where=support > 0)


def candidate_weights(scheme: str, candidate_set: CandidateSet, *,
                      correlation: np.ndarray | None = None,
                      query_relation: int | np.ndarray | None = None,
                      train_store: TripleStore | None = None,
                      smoothing: float = DEFAULT_SMOOTHING) -> np.ndarray:
    """Weights of every candidate; within each entity's segment they are >= 0 and sum to 1.

    * uniform: equal weights;
    * degree: proportional to log(training degree of the source entity + smoothing);
    * correlation (query-aware): proportional to P(source relation | query) +
      P(query | source relation). ``query_relation`` holds one relation per
      segment, or one for all.

    A segment whose raw weights are all zero falls back to uniform weights.
    """
    if not (np.isfinite(smoothing) and smoothing > 0):  # checked whether or not it is read
        raise ValueError(f"smoothing must be finite and positive, got {smoothing}")
    counts = candidate_set.counts
    if scheme == UNIFORM:
        raw = np.ones(len(candidate_set))
    elif scheme == DEGREE:
        if train_store is None:
            raise ValueError("degree weights need the training store")
        raw = np.log(train_store.degrees[candidate_set.source_entity] + smoothing)
    elif scheme == CORRELATION:
        if correlation is None or query_relation is None:
            raise ValueError("correlation weights need the correlation matrix and a query relation")
        query = np.repeat(np.broadcast_to(query_relation, counts.shape), counts)
        source = candidate_set.source_relation
        raw = correlation[query, source] + correlation[source, query]
    else:
        raise ValueError(f"unknown weighting scheme {scheme!r}")
    raw = np.clip(raw, 0.0, None)
    total = np.add.reduceat(raw, candidate_set.offsets[:-1])
    degenerate = total <= 0.0
    if degenerate.any():
        logger.warning("all %s weights are zero for %d entities; falling back to uniform",
                       scheme, np.count_nonzero(degenerate))
        raw[np.repeat(degenerate, counts)] = 1.0
        total[degenerate] = counts[degenerate]
    return raw / np.repeat(total, counts)


def reduce_candidates(tables: EmbeddingTables, candidate_set: CandidateSet,
                      weights: np.ndarray) -> np.ndarray:
    """Weighted sum of each entity's candidate vectors, one row per segment (complex for RotatE).

    Computed in blocks of the segments that start within one ``_REDUCE_BLOCK_BYTES`` of rows;
    each block's candidate rows are composed from ``tables`` only while it is summed.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(candidate_set),):
        raise ValueError(f"expected {len(candidate_set)} weights, got shape {w.shape}")
    starts = candidate_set.offsets[:-1]
    if not (np.isfinite(w).all() and np.all(np.abs(np.add.reduceat(w, starts) - 1.0) <= 1e-9)):
        raise ValueError("weights must be finite and sum to 1 per entity")
    compose = _composer(tables)
    empty = compose(candidate_set, slice(0, 0))  # no rows: the candidates' width and dtype
    out = np.empty((len(starts), empty.shape[1]), np.result_type(w, empty))
    step = max(1, _REDUCE_BLOCK_BYTES // max(1, out.shape[1] * out.itemsize))
    bounds = [*np.flatnonzero(np.diff(starts // step, prepend=-1)).tolist(), len(starts)]
    for first, last in zip(bounds[:-1], bounds[1:]):
        lo, hi = candidate_set.offsets[first], candidate_set.offsets[last]
        rows = compose(candidate_set, slice(lo, hi))
        block = np.multiply(w[lo:hi, None], rows)  # a call: never elided, w first
        out[first:last] = np.add.reduceat(block, starts[first:last] - lo, axis=0)
    return out


def save_correlation_csv(correlation: np.ndarray, vocab: Vocabulary,
                         path: str | Path) -> None:
    """Inspection dump: one row per r1 with P(r2|r1) columns."""
    names = vocab.relation_names
    rows = [[name, *(f"{v:.6g}" for v in correlation[i])] for i, name in enumerate(names)]
    _write_csv(path, [["relation", *names], *rows])
