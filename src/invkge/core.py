"""Vocabulary and the indexed triple store shared by every stage."""

from __future__ import annotations

from collections import defaultdict
from itertools import count, islice

import numpy as np


class Vocabulary:
    """Bijection between names and dense integer ids, assigned in first-seen order."""

    def __init__(self) -> None:
        self.entity_names: list[str] = []
        self.relation_names: list[str] = []
        self._entity_ids: defaultdict[str, int] = defaultdict(None)  # factory set only in _add_names
        self._relation_ids: defaultdict[str, int] = defaultdict(None)

    def add_entities(self, names: list[str]) -> np.ndarray:
        """Ids of ``names``; names not seen before get the next ids, in first-seen order."""
        return _add_names(self._entity_ids, self.entity_names, names)

    def add_relations(self, names: list[str]) -> np.ndarray:
        return _add_names(self._relation_ids, self.relation_names, names)

    def entity_id(self, name: str) -> int:
        return self._entity_ids[name]

    def relation_id(self, name: str) -> int:
        return self._relation_ids[name]

    def entity_name(self, eid: int) -> str:
        return self.entity_names[eid]

    def relation_name(self, rid: int) -> str:
        return self.relation_names[rid]

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return (self.entity_names == other.entity_names
                and self.relation_names == other.relation_names)

    def __repr__(self) -> str:
        return f"Vocabulary({self.num_entities} entities, {self.num_relations} relations)"


def _add_names(ids: defaultdict[str, int], ordered: list[str], names: list[str]) -> np.ndarray:
    ids.default_factory = count(len(ordered)).__next__  # numbers a new name at its first lookup
    try:
        found = np.fromiter(map(ids.__getitem__, names), dtype=np.int64, count=len(names))
    finally:  # names looked up before a failure stay added, in first-seen order
        ids.default_factory = None
        ordered += islice(ids, len(ordered), None)
    return found


class TripleStore:
    """Immutable, deduplicated triplet set held as arrays.

    ``triplets`` is an (n, 3) int64 array of (head, relation, tail) rows in
    first-insertion order; duplicates are stored once. ``degrees`` counts the
    incident triplets of every entity id; a self-loop counts twice (once as
    head, once as tail). Membership is answered by binary search over the
    sorted int64 keys of the triplets.
    """

    def __init__(self, triplets: np.ndarray, num_entities: int | None = None,
                 num_relations: int | None = None) -> None:
        arr = np.asarray(triplets, dtype=np.int64).reshape(-1, 3)
        ends = arr[:, [0, 2]]
        self.num_entities = int(ends.max(initial=-1)) + 1 if num_entities is None else num_entities
        self.num_relations = (int(arr[:, 1].max(initial=-1)) + 1 if num_relations is None
                              else num_relations)
        bad = (arr < 0).any(axis=1) | (ends >= self.num_entities).any(axis=1) \
            | (arr[:, 1] >= self.num_relations)
        if bad.any():
            raise ValueError(f"id out of range in triplet {tuple(arr[np.argmax(bad)].tolist())} "
                             f"(num_entities={self.num_entities}, "
                             f"num_relations={self.num_relations})")
        self._keys, first = np.unique(self._encode(*arr.T), return_index=True)
        self.triplets = arr[np.sort(first)]
        self.degrees = (np.bincount(self.triplets[:, 0], minlength=self.num_entities)
                        + np.bincount(self.triplets[:, 2], minlength=self.num_entities))

    def _encode(self, head, relation, tail):
        return (head * self.num_relations + relation) * self.num_entities + tail

    def contains(self, head, relation, tail) -> np.ndarray:
        """Membership of (head, relation, tail); the arguments broadcast against each other.

        Ids outside the store's entity or relation range are never members.
        """
        h, r, t = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64)
                                        for x in (head, relation, tail)))
        keys = self._encode(h, r, t)
        pos = np.searchsorted(self._keys, keys)
        ok = ((h >= 0) & (h < self.num_entities) & (t >= 0) & (t < self.num_entities)
              & (r >= 0) & (r < self.num_relations) & (pos < len(self._keys)))
        hit = np.zeros(keys.shape, dtype=bool)
        hit[ok] = self._keys[pos[ok]] == keys[ok]
        return hit

    def incident(self, entities) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Incident triplets of each of ``entities``, grouped per entity.

        Returns ``(other, relation, as_head, offsets)``: the edges of
        ``entities[i]`` are rows ``offsets[i]:offsets[i + 1]``, those where it
        is the head first, then those where it is the tail, each in
        first-insertion order. ``other`` is the other endpoint.
        """
        h, r, t = self.triplets.T
        focal = np.concatenate([h, t])
        order = np.argsort(focal, kind="stable")
        sorted_focal = focal[order]
        entities = np.asarray(entities, dtype=np.int64)
        starts = np.searchsorted(sorted_focal, entities, side="left")
        counts = np.searchsorted(sorted_focal, entities, side="right") - starts
        rows = order[segment_rows(starts, counts)]
        n = len(h)
        return (np.concatenate([t, h])[rows], np.concatenate([r, r])[rows], rows < n,
                np.concatenate([[0], np.cumsum(counts)]))

    def __len__(self) -> int:
        return len(self.triplets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleStore):
            return NotImplemented
        return np.array_equal(self.triplets, other.triplets)

    def __repr__(self) -> str:
        return f"TripleStore({len(self)} triplets, {self.num_entities} entities, {self.num_relations} relations)"


def segment_rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], starts[i] + counts[i])`` over i."""
    firsts = np.cumsum(counts) - counts  # where each run starts in the output
    return np.arange(counts.sum()) + np.repeat(starts - firsts, counts)
