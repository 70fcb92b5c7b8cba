"""Build a tiny knowledge graph and poke at its indices.

The TripleStore is the substrate everything else stands on: a deduplicated
triplet array with per-entity degrees and sorted keys for membership.
Neighbor queries return the other endpoint plus the direction the focal
entity plays, which is exactly what the unseen-entity estimator needs later.
"""

from invkge import Triplet, TripleStore, Vocabulary

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
triplets = [Triplet(vocab.add_entity(h), vocab.add_relation(r), vocab.add_entity(t))
            for h, r, t in triples_by_name]

store = TripleStore(triplets, num_entities=vocab.num_entities,
                    num_relations=vocab.num_relations)
print(store)
print(f"duplicates collapsed: {len(triples_by_name)} lines -> {len(store)} triplets")

nolan = vocab.entity_id("nolan")
print(f"\ndegree('nolan') = {store.degree(nolan)}")
for nb in store.neighbors(nolan):
    rel = vocab.relation_name(nb.relation)
    other = vocab.entity_name(nb.entity)
    print(f"  nolan is the {nb.direction}-side partner of ({other}, {rel})"
          if nb.direction == "tail" else f"  ({other}, {rel}) with nolan as head")

tenet = vocab.entity_id("tenet")
print(f"\nneighbors of 'tenet' (in insertion order):")
for nb in store.neighbors(tenet):
    print(f"  direction={nb.direction:5s} relation={vocab.relation_name(nb.relation):12s} "
          f"other={vocab.entity_name(nb.entity)}")

print(f"\ncontains (tenet, genre, action)?  {store.contains(tenet, vocab.relation_id('genre'), vocab.entity_id('action'))}")
print(f"contains (action, genre, tenet)?  {store.contains(vocab.entity_id('action'), vocab.relation_id('genre'), tenet)}")
