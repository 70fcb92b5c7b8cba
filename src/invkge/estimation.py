"""Closed-form candidate embeddings for out-of-knowledge-graph entities.

Each auxiliary neighbor of an OOKG entity yields one candidate by inverting the translational
assumption of the pretrained model. With the entity as head of (e, r, t): e = t - r for TransE
and e = t o r^{-1} for RotatE; as tail of (h, r, e): e = h + r and e = h o r. RotatE inversion
negates the relation phases (complex conjugation), which is exact for unit-modulus rotations
and never divides. A candidate set holds only which neighbor, relation and side yield each
row: its ``vectors`` compose rows from the tables when sliced, so no candidate table is built.
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


class CandidateRows:
    """Candidate vectors, composed from the tables only for the rows they are sliced for.

    Row j is ``combine(rel[side, relation], ent[source])`` in float64, with ``index[:, j]`` =
    (source, relation, side), relation operand first: its bits are the same in any slice.
    """

    def __init__(self, tables: EmbeddingTables, index: np.ndarray):
        rel, rotate = tables.relation_vec(np.arange(tables.num_relations)), tables.model == ROTATE
        self.tables, self.index, self.ent = tables, index, tables.entity_matrix()
        self.combine = np.multiply if rotate else np.add
        self.rel = np.stack([rel, np.conj(rel) if rotate else -rel])
        self.dtype, self.shape = self.rel.dtype, (index.shape[1], self.ent.shape[1])

    def __getitem__(self, key) -> np.ndarray:
        source, relation, side = self.index[:, key]
        return self.combine(self.rel[side, relation], self.ent[source])

    def take(self, rows: np.ndarray, axis: int = 0) -> CandidateRows:
        return CandidateRows(self.tables, self.index[:, rows])


@dataclass
class CandidateSet:
    """Candidates of several entities, one row per usable auxiliary neighbor.

    The rows of ``entities[i]`` form the segment ``offsets[i]:offsets[i + 1]``,
    which is never empty. Row j holds the candidate ``vectors[j]`` (complex
    for RotatE), the neighbor ``source_entity[j]`` and relation
    ``source_relation[j]`` that produced it, and whether the entity is the
    head (``as_head[j]``) or the tail of the generating triplet.
    """

    entities: np.ndarray
    offsets: np.ndarray
    vectors: CandidateRows | np.ndarray
    source_entity: np.ndarray
    source_relation: np.ndarray
    as_head: np.ndarray

    def __len__(self) -> int:
        return len(self.source_entity)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def take(self, segments: np.ndarray, rows: np.ndarray, counts: np.ndarray) -> CandidateSet:
        """The given rows, regrouped into one segment per entry of ``segments``.

        ``counts[i]`` consecutive rows form the new segment of ``entities[segments[i]]``.
        """
        return CandidateSet(self.entities[segments], np.concatenate([[0], np.cumsum(counts)]),
                            self.vectors.take(rows, axis=0), self.source_entity[rows],
                            self.source_relation[rows], self.as_head[rows])


def estimate_candidates(tables: EmbeddingTables, aux_store: TripleStore,
                        entities: np.ndarray | Sequence[int],
                        ikg_entities: np.ndarray | Sequence[int]) -> CandidateSet:
    """Candidates of every entity in ``entities``, in aux-store neighbor order.

    Within an entity's segment, the neighbors where it is the head come
    first, then those where it is the tail, each in aux order. Neighbors whose
    other endpoint is not an in-graph entity (dirty aux data) are skipped,
    with one summary warning per call. Entities left with no candidate are
    left out of the set.
    """
    entities = np.asarray(entities, dtype=np.int64)
    other, relation, as_head, offsets = aux_store.incident(entities)
    ikg_ids = np.asarray(ikg_entities, dtype=np.int64)
    ikg = np.zeros(aux_store.num_entities, dtype=bool)
    ikg[ikg_ids[ikg_ids < aux_store.num_entities]] = True
    usable = ikg[other] & (other < tables.num_entities)
    segment = np.repeat(np.arange(len(entities)), np.diff(offsets))
    counts = np.bincount(segment[usable], minlength=len(entities))
    if not usable.all():
        logger.warning("skipped %d aux neighbors of %d entities with out-of-graph endpoints",
                       np.count_nonzero(~usable), len(np.unique(segment[~usable])))
    other, relation, as_head = other[usable], relation[usable], as_head[usable]
    keep = counts > 0
    return CandidateSet(entities[keep], np.concatenate([[0], np.cumsum(counts[keep])]),
                        CandidateRows(tables, np.stack([other, relation, as_head])),
                        other, relation, as_head)


def cap_neighbors(candidate_set: CandidateSet, k: int, seed: int) -> CandidateSet:
    """Uniform subset of at most k candidates per entity, without replacement.

    Entity e draws from its own ``substream(seed, "capping", e)``, so a cap
    does not depend on which other entities are in the set. Original
    candidate order is preserved; segments that already fit are unchanged.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = candidate_set.counts
    keep = np.ones(len(candidate_set), dtype=bool)
    for i in np.flatnonzero(counts > k):
        start, n = candidate_set.offsets[i], int(counts[i])
        rng = substream(seed, "capping", int(candidate_set.entities[i]))
        keep[start:start + n] = False
        keep[start + rng.choice(n, size=k, replace=False)] = True
    return candidate_set.take(np.arange(len(counts)), np.flatnonzero(keep),
                              np.minimum(counts, k))
