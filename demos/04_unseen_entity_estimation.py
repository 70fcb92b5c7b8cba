"""Represent an out-of-knowledge-graph entity without retraining.

Each auxiliary neighbor yields one closed-form candidate: with the unseen
entity as head of (e, r, t) the candidate is t - r (TransE) or t rotated
backwards (RotatE); as tail of (h, r, e) it is h + r or h rotated forwards.
A weighted average then collapses the candidates. On the exactly-planted
lattice every candidate coincides, so the reduced embedding is perfect no
matter the weights; on noisy data the weighting starts to matter. Residuals
are read with ``translation_distance``, the package's one distance function,
on raw vectors: a candidate and its source's ``entity_matrix()`` row.
"""

import numpy as np

from invkge import (TripleStore, build_correlation, candidate_weights, cap_neighbors,
                    estimate_candidates, generate_planted_splits, reduce_candidates,
                    translation_distance)
from invkge.estimation import candidate_vectors

splits, tables = generate_planted_splits(seed=3, num_entities=240, num_relations=8,
                                         num_train=700, ookg_fraction=0.1)
vocab = splits.vocab
aux_store = TripleStore(splits.aux, num_entities=vocab.num_entities,
                        num_relations=vocab.num_relations)
train_store = TripleStore(splits.train, num_entities=vocab.num_entities,
                          num_relations=vocab.num_relations)

entity = int(splits.ookg_entities[0])
true_point = tables.entity[entity]
print(f"unseen entity {vocab.entity_name(entity)} sits at {true_point} "
      f"(hidden from the estimator)")

cset = estimate_candidates(tables, aux_store, [entity], splits.ikg_entities)
print(f"\n{len(cset)} candidates, one per auxiliary neighbor:")
vectors = candidate_vectors(tables, cset)  # the set holds indices; rows come from the tables
for vec, source, rel, as_head in zip(vectors, cset.source_entity, cset.source_relation,
                                     cset.as_head):
    print(f"  via ({vocab.entity_name(source)}, {vocab.relation_name(rel)}) as "
          f"{'head' if as_head else 'tail'}: {vec}  train-degree={train_store.degrees[source]}")

correlation = build_correlation(train_store)
for scheme, kwargs in [("uniform", {}),
                       ("degree", {"train_store": train_store}),
                       ("correlation", {"correlation": correlation,
                                        "query_relation": cset.source_relation[0]})]:
    weights = candidate_weights(scheme, cset, **kwargs)
    reduced = reduce_candidates(tables, cset, weights)[0]
    print(f"\n{scheme:11s} weights {np.round(weights, 3)} -> {reduced} "
          f"(error {np.abs(reduced - true_point).sum():.2e})")

capped = cap_neighbors(cset, 1, seed=0)
print(f"\ncapped to 1 neighbor: candidate via "
      f"{vocab.entity_name(capped.source_entity[0])} only")

# the candidate exactly inverts its generating triplet
vec, source, rel = vectors[0], cset.source_entity[0], cset.source_relation[0]
source_vec = tables.entity_matrix()[source]
h, t = (vec, source_vec) if cset.as_head[0] else (source_vec, vec)
resid = translation_distance(tables.model, tables.norm_order, h, tables.relation_vec(rel), t)
print(f"residual of the generating triplet at the candidate: {resid}")

# every unseen entity at once: the reduction composes the candidate rows from the tables
# block by block, so no candidate table is built
everyone = estimate_candidates(tables, aux_store, splits.ookg_entities, splits.ikg_entities)
reduced = reduce_candidates(tables, everyone, candidate_weights("degree", everyone,
                                                                train_store=train_store))
worst = np.abs(reduced - tables.entity[everyone.entities]).sum(axis=1).max()
print(f"\nall {len(everyone.entities)} unseen entities from {len(everyone)} candidates "
      f"in one batch: worst error {worst:.2e}")
