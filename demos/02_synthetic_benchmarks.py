"""The two synthetic benchmark generators and the split file format.

Every benchmark is four TSV files. Training and validation triplets use only
in-graph entities; the auxiliary set connects each out-of-knowledge-graph
(OOKG) entity to in-graph ones and is only available at inference time; test
triplets involve at least one OOKG entity.

  * generate_planted_splits    - entities on an integer lattice, relations as
    offsets; ground-truth embeddings fit every triplet exactly.
  * generate_trainable_splits  - noisy latent geometry with skewed degrees;
    learnable but never exactly satisfiable, the desk-scale training bench.

Both return the splits together with the generating geometry packed as TransE
tables, so the distances of their triplets can be read off directly.
"""

import tempfile
from pathlib import Path

import numpy as np

from invkge import (generate_planted_splits, generate_trainable_splits, load_split_dir,
                    translation_distance, write_splits)


def distances(tables, triplets):
    """Distances of many triplets in one call: rows gathered by id."""
    data = np.array(triplets, dtype=np.int64)
    ent = tables.entity_matrix()
    return translation_distance(tables.model, tables.norm_order, ent[data[:, 0]],
                                tables.relation_vec(data[:, 1]), ent[data[:, 2]])


planted, truth = generate_planted_splits(seed=7, num_entities=240, num_relations=8,
                                         num_train=700, ookg_fraction=0.1)
print("planted lattice:",
      f"train={len(planted.train)} valid={len(planted.valid)} aux={len(planted.aux)}",
      f"test={len(planted.test)} ookg={len(planted.ookg_entities)}")
print(f"worst ground-truth train distance = {distances(truth, planted.train).max()} "
      f"(exactly translational)")

with tempfile.TemporaryDirectory() as tmp:
    paths = write_splits(planted, tmp)
    print("wrote:", ", ".join(p.name for p in paths.values()))
    head = Path(paths["aux"]).read_text().splitlines()[0]
    print("first aux line:", head.replace("\t", " <TAB> "))
    reloaded = load_split_dir(tmp)
    print("round trip equal:", reloaded == planted)

noisy, latent = generate_trainable_splits(seed=7, num_entities=200, num_relations=8,
                                          num_train=1500, ookg_fraction=0.1)
sample = distances(latent, noisy.train[:500])
print(f"\nnoisy benchmark: mean latent residual over 500 train triplets = "
      f"{sample.mean():.3f} (structured but not exact)")
print("dangling OOKG entities:", len(noisy.dangling_ookg))
