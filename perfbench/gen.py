"""Generate a workload's inputs from its seed: split files and checkpoints.

    python3 perfbench/gen.py --workload wn11 --seed 3 --out perfbench/inputs/wn11-s3

Every file is a function of (workload, seed). The classification split files
(``tc/``) feed pretrain, estimate and ``eval --task tc``; ``lp/`` holds the
same train and aux files, the positive validation triplets and the positive
test triplets that ``eval --task lp`` ranks, unlabeled. Both directories give
the same vocabulary. ``manifest.json`` records the make-up of the inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import lattice  # noqa: E402
import reference  # noqa: E402

# desk: acceptance criterion 6's graph, several instances per run so that the
# quality figures average over graphs; 4-6 test edges per OOKG entity give
# ~250 ranking queries per instance.
DESK_INSTANCES = 3
DESK_SHAPE = dict(num_entities=500, num_relations=10, num_train=5000, ookg_fraction=0.1,
                  test_min=4, test_max=6)
# WN11-shaped planted lattice: ~38k entities, 11 relations, 59k train triplets;
# the OOKG fraction gives ~850 OOKG entities, ~16.7k aux and ~3.4k labeled
# test triplets, close to WN11-Both-5000 (16,660 aux, 3,218 test).
WN11_SHAPE = dict(num_entities=38_000, num_relations=11, num_train=59_000,
                  ookg_fraction=0.0224)
WN11_DIM = 300
# ranking one query costs ~0.15-0.3 s over ~36k candidates at d300, so link
# prediction runs on a seeded subset of the positive test triplets
WN11_LP_QUERIES = 8
WORKLOADS = ("desk", "wn11")


def _write_lp_dir(tc_dir: Path, lp_dir: Path, test_rows: list[int] | None) -> None:
    """Unlabeled copy of ``tc_dir`` keeping positives (and only ``test_rows`` of test).

    Both generators draw negatives from entities that appear earlier in the
    files, and every OOKG entity has an aux edge, so both directories give the
    same vocabulary (tests/test_reference.py checks it; a mismatch would also
    fail the run's checks, because the checkpoints are indexed by it).
    """
    lp_dir.mkdir(parents=True, exist_ok=True)
    for name in reference.SPLITS:
        lines = (tc_dir / f"{name}.txt").read_text(encoding="utf-8").splitlines()
        if name in ("valid", "test"):
            lines = [ln.rsplit("\t", 1)[0] for ln in lines if ln.rsplit("\t", 1)[1] == "1"]
        if name == "test" and test_rows is not None:
            lines = [lines[i] for i in test_rows]
        (lp_dir / f"{name}.txt").write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")


def _counts(splits) -> dict:
    return {"entities": splits.vocab.num_entities, "relations": splits.vocab.num_relations,
            "train": len(splits.train), "valid": len(splits.valid), "aux": len(splits.aux),
            "test": len(splits.test), "ookg_entities": len(splits.ookg_entities),
            "ikg_entities": len(splits.ikg_entities)}


def generate_desk(seed: int, out: Path) -> dict:
    from invkge import generate_trainable_splits, write_splits
    instances = []
    for i in range(DESK_INSTANCES):
        inst_seed = DESK_INSTANCES * seed + i
        splits, _ = generate_trainable_splits(inst_seed, task="classification", **DESK_SHAPE)
        d = out / f"i{i}"
        write_splits(splits, d / "tc")
        _write_lp_dir(d / "tc", d / "lp", None)
        lp_queries = sum(1 for lab in splits.test_labels if lab == 1)
        instances.append({"dir": f"i{i}", "seed": inst_seed, "lp_queries": lp_queries,
                          **_counts(splits)})
    return {"instances": instances}


def generate_wn11(seed: int, out: Path) -> dict:
    from invkge import EmbeddingTables, generate_planted_splits, save_checkpoint, write_splits
    splits, truth = generate_planted_splits(seed, task="classification", **WN11_SHAPE)
    write_splits(splits, out / "tc")
    positives = [i for i, lab in enumerate(splits.test_labels) if lab == 1]
    rng = np.random.default_rng([seed, 0x4C50])
    picked = np.sort(rng.choice(len(positives), size=WN11_LP_QUERIES, replace=False))
    _write_lp_dir(out / "tc", out / "lp", [int(i) for i in picked])

    points, offsets = truth.entity, truth.relation
    ent, rel = lattice.lift_transe(points, offsets, WN11_DIM)
    save_checkpoint(EmbeddingTables("transe", WN11_DIM, 1, ent, rel), out / "truth-transe.bin", seed)
    freq_a, freq_b = lattice.rotate_frequencies(seed, WN11_DIM)
    ent, rel = lattice.lift_rotate(points, offsets, freq_a, freq_b)
    save_checkpoint(EmbeddingTables("rotate", WN11_DIM, 1, ent, rel), out / "truth-rotate.bin", seed)
    inst = {"dir": ".", "seed": seed, "lp_queries": WN11_LP_QUERIES, **_counts(splits)}
    return {"instances": [inst], "dim": WN11_DIM,
            "truth": {"transe": "truth-transe.bin", "rotate": "truth-rotate.bin"}}


def generate(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    manifest = generate_desk(seed, out) if workload == "desk" else generate_wn11(seed, out)
    manifest.update(workload=workload, seed=seed)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
