"""Closed-form candidate embeddings for out-of-knowledge-graph entities.

Each auxiliary neighbor of an OOKG entity yields one candidate by inverting the translational
assumption of the pretrained model. With the entity as head of (e, r, t): e = t - r for TransE
and e = t o r^{-1} for RotatE; as tail of (h, r, e): e = h + r and e = h o r. RotatE inversion
negates the relation phases (complex conjugation), which is exact for unit-modulus rotations
and never divides. A candidate set holds only which neighbor, relation and side yield each
row; the rows are composed from the tables where they are used, so no candidate table is built.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import TripleStore
from .models import ROTATE, EmbeddingTables
from .seeding import substream

logger = logging.getLogger(__name__)


@dataclass
class CandidateSet:
    """Candidates of several entities, one row per usable auxiliary neighbor.

    The rows of ``entities[i]`` form the segment ``offsets[i]:offsets[i + 1]``,
    which is never empty. Row j is the candidate that the neighbor
    ``source_entity[j]`` yields through relation ``source_relation[j]``, with
    the entity as the head (``as_head[j]``) or the tail of the generating
    triplet; :func:`candidate_vectors` composes it from the tables.
    """

    entities: np.ndarray
    offsets: np.ndarray
    source_entity: np.ndarray
    source_relation: np.ndarray
    as_head: np.ndarray

    def __len__(self) -> int:
        return len(self.source_entity)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)


def _composer(tables: EmbeddingTables):
    """``compose(cset, rows)``: the candidate rows ``rows`` (a slice) of ``cset`` in float64.

    A row is ``combine(operand[side, relation], ent[source])``, relation operand first, so its
    bits are the same in any slice; ``operand`` holds the (2, R, d) forward (tail-side) and
    inverse (head-side) relations, realized once per composer.
    """
    rel, rotate = tables.relation_vec(np.arange(tables.num_relations)), tables.model == ROTATE
    combine, ent = np.multiply if rotate else np.add, tables.entity_matrix()
    operand = np.stack([rel, np.conj(rel) if rotate else -rel])
    return lambda cset, rows: combine(operand[cset.as_head[rows].astype(np.intp),
                                              cset.source_relation[rows]],
                                      ent[cset.source_entity[rows]])


def candidate_vectors(tables: EmbeddingTables, candidate_set: CandidateSet) -> np.ndarray:
    """Every candidate row of the set, (len, d) float64 (complex128 for RotatE)."""
    return _composer(tables)(candidate_set, slice(None))


def estimate_candidates(tables: EmbeddingTables, aux_store: TripleStore,
                        entities: np.ndarray | Sequence[int],
                        ikg_entities: np.ndarray | Sequence[int]) -> CandidateSet:
    """Candidates of every entity in ``entities``, in aux-store neighbor order.

    Within an entity's segment, the neighbors where it is the head come
    first, then those where it is the tail, each in aux order. Neighbors whose
    other endpoint is not an in-graph entity (dirty aux data) are skipped,
    with one summary warning per call. Entities left with no candidate are
    left out of the set; an entity listed twice gets two equal segments.
    """
    entities = np.asarray(entities, dtype=np.int64)
    other, relation, as_head, offsets = aux_store.incident(entities)
    ikg_ids = np.asarray(ikg_entities, dtype=np.int64)
    ikg = np.zeros(aux_store.num_entities, dtype=bool)
    ikg[ikg_ids[ikg_ids < aux_store.num_entities]] = True
    usable = ikg[other] & (other < tables.num_entities)
    segment = np.repeat(np.arange(len(entities)), np.diff(offsets))
    counts = np.bincount(segment[usable], minlength=len(entities))
    if not usable.all():  # a repeated entity is counted once, at its first segment
        dirty = ~usable & np.isin(segment, np.unique(entities, return_index=True)[1])
        logger.warning("skipped %d aux neighbors of %d entities with out-of-graph endpoints",
                       np.count_nonzero(dirty), len(np.unique(segment[dirty])))
    keep = counts > 0
    return CandidateSet(entities[keep], np.concatenate([[0], np.cumsum(counts[keep])]),
                        other[usable], relation[usable], as_head[usable])


def cap_neighbors(candidate_set: CandidateSet, k: int, seed: int) -> CandidateSet:
    """Uniform subset of at most k candidates per entity, without replacement.

    Entity e draws from its own ``substream(seed, "capping", e)``, so a cap
    does not depend on which other entities are in the set. It draws once, and
    every segment of a repeated entity keeps that subset. Original candidate
    order is preserved; segments that already fit are unchanged.
    """
    if k < 1:
        raise ValueError(f"neighbor cap must be >= 1, got {k}")
    counts = candidate_set.counts
    keep = np.ones(len(candidate_set), dtype=bool)
    draws = {}  # (entity, segment length) -> kept positions
    for i in np.flatnonzero(counts > k):
        start, n, e = candidate_set.offsets[i], int(counts[i]), int(candidate_set.entities[i])
        if (e, n) not in draws:
            draws[e, n] = substream(seed, "capping", e).choice(n, size=k, replace=False)
        keep[start:start + n] = False
        keep[start + draws[e, n]] = True
    offsets = np.concatenate([[0], np.cumsum(np.minimum(counts, k))])
    return CandidateSet(candidate_set.entities, offsets, candidate_set.source_entity[keep],
                        candidate_set.source_relation[keep], candidate_set.as_head[keep])
