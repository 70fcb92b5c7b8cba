"""Pretrain TransE and RotatE with the self-adversarial loss.

Minibatch updates over shuffled passes of the training split, negatives drawn
by corrupting one entity slot, and the soft adversarial weighting that pushes
hardest on the most plausible negatives. Everything is deterministic for a
fixed seed, and the final tables round-trip through the binary checkpoint.
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from invkge import (ROTATE, TRANSE, TrainConfig, generate_trainable_splits,
                    load_checkpoint, save_checkpoint, train, translation_distance)


def distances(tables, data):
    """Distances of (n, 3) id triplets; relation_vec widens before the arithmetic."""
    ent = tables.entity_matrix()
    return translation_distance(tables.model, tables.norm_order, ent[data[:, 0]],
                                tables.relation_vec(data[:, 1]), ent[data[:, 2]])


splits, _ = generate_trainable_splits(seed=0, num_entities=150, num_relations=6,
                                      num_train=1200, ookg_fraction=0.1)

for model in (TRANSE, ROTATE):
    config = TrainConfig(model=model, dim=16, margin=2.0, temperature=1.0,
                         num_negatives=8, batch_size=128, steps=1500, seed=0,
                         log_every=300)
    t0 = time.time()
    tables, trace = train(splits, config)
    print(f"\n{model}: {config.steps} steps in {time.time() - t0:.1f}s")
    for step, loss in trace:
        print(f"  step {step:5d}  loss {loss:.4f}")

    # trained triplets should sit much closer than random ones
    data = splits.train
    rng = np.random.default_rng(0)
    rand = data.copy()
    rand[:, 2] = rng.integers(splits.vocab.num_entities, size=len(rand))
    trained, random_d = (float(distances(tables, d).mean()) for d in (data, rand))
    print(f"  mean distance: train {trained:.3f} vs random {random_d:.3f}")

    # the float32 tables are exactly what the checkpoint stores
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        save_checkpoint(tables, path, seed=0)
        loaded, _ = load_checkpoint(path)
        same = (np.array_equal(loaded.entity, tables.entity)
                and np.array_equal(loaded.relation, tables.relation))
        print(f"  checkpoint round trip: {path.stat().st_size} bytes, "
              f"{tables.entity.dtype} tables identical: {same}")
