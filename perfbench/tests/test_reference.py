"""The benchmark's own re-computation agrees with the program on shared inputs."""

import numpy as np
import pytest

import gen
import reference
from invkge import (generate_trainable_splits, init_tables, link_prediction, load_checkpoint,
                    load_split_dir, save_checkpoint, triplet_classification, write_splits)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ref")
    splits, _ = generate_trainable_splits(4, 200, 6, 1500, 0.1, task="classification",
                                          test_min=2, test_max=4)
    write_splits(splits, root / "tc")
    gen._write_lp_dir(root / "tc", root / "lp", None)
    return root, splits


@pytest.mark.parametrize("model,norm", [("transe", 1), ("transe", 2), ("rotate", 1)])
def test_mrr_and_accuracy_match_the_program(dataset, tmp_path, model, norm):
    root, splits = dataset
    tables = init_tables(5, model, 16, splits.vocab.num_entities, splits.vocab.num_relations,
                         norm_order=norm, margin=4.0)
    save_checkpoint(tables, tmp_path / "ck.bin")
    tables, _ = load_checkpoint(tmp_path / "ck.bin")
    ck = reference.read_checkpoint(tmp_path / "ck.bin")

    lp = link_prediction(tables, load_split_dir(root / "lp"), "correlation")
    mrr, n = reference.link_prediction_mrr(ck, reference.read_splits(root / "lp", labeled=False))
    assert n == lp.num_queries
    assert mrr == pytest.approx(lp.mrr, abs=1e-12)

    tc = triplet_classification(tables, splits, "degree")
    acc, n = reference.classification_accuracy(ck, reference.read_splits(root / "tc", labeled=True))
    assert n == tc.num_queries
    assert acc == pytest.approx(tc.accuracy, abs=1e-12)


def test_lp_files_keep_the_vocabulary_and_only_positives(dataset):
    root, splits = dataset
    tc = reference.read_splits(root / "tc", labeled=True)
    lp = reference.read_splits(root / "lp", labeled=False)
    assert (lp.entities, lp.relations) == (tc.entities, tc.relations)
    assert np.array_equal(lp.test, tc.test[tc.test_labels == 1])
    assert np.array_equal(lp.valid, tc.valid[tc.valid_labels == 1])


def test_random_mrr_is_the_harmonic_mean_rank():
    assert reference.random_mrr(1) == 1.0
    assert reference.random_mrr(4) == pytest.approx((1 + 1 / 2 + 1 / 3 + 1 / 4) / 4)
