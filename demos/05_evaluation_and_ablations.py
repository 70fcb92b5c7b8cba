"""End to end: pretrain, estimate unseen entities, evaluate, ablate.

Link prediction ranks the missing in-graph entity of each test triplet under
the filtered protocol (known-true competitors removed, ties averaged) and
reports MRR / Hits@1 / Hits@10. Triplet classification tunes a per-relation
distance threshold on validation accuracy and applies it to the test split.
The ablations re-run evaluation with capped neighborhoods and with uniform
weights, averaged over a few seeds: with dozens of test queries per run a
single seed is noisy, but the means show the expected degradation, since this
benchmark's sparsely-observed entities produce genuinely unreliable
candidates that degree weighting learns to discount.
"""

import time

import numpy as np

from invkge import (TrainConfig, format_report, generate_trainable_splits, link_prediction,
                    train, triplet_classification, tune_thresholds)

SEED = 1
t0 = time.time()
splits, _ = generate_trainable_splits(SEED, num_entities=200, num_relations=8,
                                      num_train=1800, ookg_fraction=0.1)
tables, _ = train(splits, TrainConfig(dim=24, margin=2.0, num_negatives=8,
                                      batch_size=128, steps=3000, seed=SEED,
                                      log_every=3000))
print(f"trained in {time.time() - t0:.1f}s "
      f"({len(splits.ikg_entities)} in-graph, {len(splits.ookg_entities)} unseen)")

report = link_prediction(tables, splits, "degree", seed=SEED)
print()
print(format_report("link prediction, degree weights", report))

baseline = float(np.mean(1.0 / np.arange(1, len(splits.ikg_entities) + 1)))
print(f"random-ranking baseline MRR would be {baseline:.4f}; "
      f"we are at {report.mrr / baseline:.1f}x that\n")


def ablations(tb, s, seed):
    """MRR of the variants `invkge ablate --variants cap1,cap8,uniform` runs."""
    return {"cap1": link_prediction(tb, s, "degree", neighbor_cap=1, seed=seed).mrr,
            "cap8": link_prediction(tb, s, "degree", neighbor_cap=8, seed=seed).mrr,
            "uniform": link_prediction(tb, s, "uniform", seed=seed).mrr}


mrr = {"full": [report.mrr]}
for seed in (2, 3):
    s, _ = generate_trainable_splits(seed, num_entities=200, num_relations=8,
                                     num_train=1800, ookg_fraction=0.1)
    tb, _ = train(s, TrainConfig(dim=24, margin=2.0, num_negatives=8, batch_size=128,
                                 steps=3000, seed=seed, log_every=3000))
    mrr["full"].append(link_prediction(tb, s, "degree", seed=seed).mrr)
    for name, value in ablations(tb, s, seed).items():
        mrr.setdefault(name, []).append(value)
for name, value in ablations(tables, splits, SEED).items():
    mrr.setdefault(name, []).append(value)

print(f"mean MRR over {len(mrr['full'])} seeds:")
for name in ("full", "cap8", "cap1", "uniform"):
    print(f"  {name:10s} {np.mean(mrr[name]):.3f}")

# classification needs labeled splits
tc_splits, _ = generate_trainable_splits(SEED, num_entities=200, num_relations=8,
                                         num_train=1800, ookg_fraction=0.1,
                                         task="classification")
tc_tables, _ = train(tc_splits, TrainConfig(dim=24, margin=2.0, num_negatives=8,
                                            batch_size=128, steps=3000, seed=SEED,
                                            log_every=3000))
thresholds = tune_thresholds(tc_tables, tc_splits.valid, tc_splits.valid_labels)
some = dict(list(sorted(thresholds.per_relation.items()))[:4])
print(f"\ntuned thresholds (first few relations): "
      f"{{{', '.join(f'{r}: {v:.2f}' for r, v in some.items())}}}")
tc_report = triplet_classification(tc_tables, tc_splits, "degree",
                                   thresholds=thresholds, seed=SEED)
print(format_report("triplet classification, degree weights", tc_report))
