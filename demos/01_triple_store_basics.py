"""Build a tiny knowledge graph and poke at its indices.

The TripleStore is the substrate everything else stands on: a deduplicated
triplet array with per-entity degrees and sorted keys for membership.
``incident`` returns the edges of many entities at once, grouped per entity:
the other endpoint, the relation and whether the focal entity is the head,
which is exactly what the unseen-entity estimator needs later.
"""

import numpy as np

from invkge import TripleStore, Vocabulary

# a small movie-ish graph, built by name
vocab = Vocabulary()
triples_by_name = [
    ("tenet", "directed_by", "nolan"),
    ("tenet", "genre", "action"),
    ("tenet", "starring", "washington"),
    ("inception", "directed_by", "nolan"),
    ("inception", "genre", "action"),
    ("tenet", "directed_by", "nolan"),  # duplicate: stored once
]
# names get ids in first-seen order, head before tail, in one bulk call per kind
names = np.array(triples_by_name)
ends = vocab.add_entities(names[:, [0, 2]].ravel().tolist()).reshape(-1, 2)
triplets = np.column_stack([ends[:, 0], vocab.add_relations(names[:, 1].tolist()), ends[:, 1]])

store = TripleStore(triplets, num_entities=vocab.num_entities,
                    num_relations=vocab.num_relations)
print(store)
print(f"duplicates collapsed: {len(triples_by_name)} lines -> {len(store)} triplets")

nolan = vocab.entity_id("nolan")
tenet = vocab.entity_id("tenet")
other, relation, as_head, offsets = store.incident([nolan, tenet])
print(f"\ndegree('nolan') = {store.degrees[nolan]}")
for i in range(offsets[0], offsets[1]):
    rel = vocab.relation_name(relation[i])
    print(f"  ({vocab.entity_name(other[i])}, {rel}, nolan)" if not as_head[i]
          else f"  (nolan, {rel}, {vocab.entity_name(other[i])})")

print(f"\nneighbors of 'tenet' (head-side edges first, each in insertion order):")
for i in range(offsets[1], offsets[2]):
    print(f"  direction={'head' if as_head[i] else 'tail':5s} "
          f"relation={vocab.relation_name(relation[i]):12s} other={vocab.entity_name(other[i])}")

print(f"\ncontains (tenet, genre, action)?  {store.contains(tenet, vocab.relation_id('genre'), vocab.entity_id('action'))}")
print(f"contains (action, genre, tenet)?  {store.contains(vocab.entity_id('action'), vocab.relation_id('genre'), tenet)}")
