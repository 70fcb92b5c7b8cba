import os
from dataclasses import replace

import numpy as np
import pytest

from invkge.core import TripleStore, Vocabulary
from invkge.datasets import (BenchmarkSplits, DatasetFormatError, DatasetValidationError,
                             generate_planted_splits, generate_trainable_splits,
                             load_split_dir, load_splits, write_splits)
from invkge.evaluation import embed_ookg, link_prediction
from invkge.models import TRANSE, EmbeddingTables, translation_distance


def _distances(tables, triplets):
    data = np.array(triplets, dtype=np.int64)
    ent = tables.entity_matrix()
    return translation_distance(tables.model, tables.norm_order, ent[data[:, 0]],
                                tables.relation_vec(data[:, 1]), ent[data[:, 2]])


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_benchmark(tmp_path, train, valid, aux, test):
    files = {}
    for name, lines in [("train", train), ("valid", valid), ("aux", aux), ("test", test)]:
        files[name] = tmp_path / f"{name}.txt"
        _write(files[name], lines)
    return files


def test_load_minimal_lp(tmp_path):
    f = _write_benchmark(
        tmp_path,
        train=["a\tr\tb", "b\tr\tc"],
        valid=["a\tr\tc"],
        aux=["x\tr\ta"],
        test=["x\tr\tb"],
    )
    splits = load_splits(f["train"], f["valid"], f["aux"], f["test"])
    assert splits.vocab.num_entities == 4
    assert splits.ikg_entities.tolist() == sorted(splits.vocab.entity_id(n) for n in "abc")
    assert splits.ookg_entities.tolist() == [splits.vocab.entity_id("x")]
    assert splits.dangling_ookg.tolist() == []
    assert splits.valid_labels is None


def test_malformed_line_reports_position(tmp_path):
    f = _write_benchmark(tmp_path, ["a\tr\tb", "broken line"], ["a\tr\tb"],
                         ["x\tr\ta"], ["x\tr\tb"])
    with pytest.raises(DatasetFormatError) as err:
        load_splits(f["train"], f["valid"], f["aux"], f["test"])
    assert "train.txt:2" in str(err.value)


def test_lp_rejects_label_column(tmp_path):
    f = _write_benchmark(tmp_path, ["a\tr\tb"], ["a\tr\tb\t1"], ["x\tr\ta"], ["x\tr\tb"])
    with pytest.raises(DatasetFormatError) as err:
        load_splits(f["train"], f["valid"], f["aux"], f["test"], task="lp")
    assert "label column unexpected" in str(err.value)


def test_classification_labels_parsed(tmp_path):
    f = _write_benchmark(tmp_path, ["a\tr\tb"], ["a\tr\tb\t1", "b\tr\ta\t-1", "a\tr\ta\t0"],
                         ["x\tr\ta"], ["x\tr\tb\t1"])
    splits = load_splits(f["train"], f["valid"], f["aux"], f["test"], task="classification")
    assert splits.valid_labels.tolist() == [1, -1, -1]  # 0 normalizes to -1
    assert splits.test_labels.tolist() == [1]


def test_classification_requires_labels(tmp_path):
    f = _write_benchmark(tmp_path, ["a\tr\tb"], ["a\tr\tb"], ["x\tr\ta"], ["x\tr\tb\t1"])
    with pytest.raises(DatasetFormatError):
        load_splits(f["train"], f["valid"], f["aux"], f["test"], task="classification")


def test_bad_label_value(tmp_path):
    f = _write_benchmark(tmp_path, ["a\tr\tb"], ["a\tr\tb\t2"], ["x\tr\ta"], ["x\tr\tb\t1"])
    with pytest.raises(DatasetFormatError) as err:
        load_splits(f["train"], f["valid"], f["aux"], f["test"], task="classification")
    assert "valid.txt:1" in str(err.value)


def test_empty_aux_with_test_is_invalid(tmp_path):
    f = _write_benchmark(tmp_path, ["a\tr\tb"], ["a\tr\tb"], [], ["x\tr\tb"])
    with pytest.raises(DatasetValidationError) as err:
        load_splits(f["train"], f["valid"], f["aux"], f["test"])
    assert "aux split is empty" in str(err.value)


def test_aux_must_join_exactly_one_ookg(tmp_path):
    # both endpoints in-graph
    f = _write_benchmark(tmp_path, ["a\tr\tb"], ["a\tr\tb"], ["a\tr\tb"], ["x\tr\ta", "x\tr\tb"])
    with pytest.raises(DatasetValidationError):
        load_splits(f["train"], f["valid"], f["aux"], f["test"])
    # both endpoints out-of-graph
    f = _write_benchmark(tmp_path, ["a\tr\tb"], ["a\tr\tb"], ["x\tr\ty"], ["x\tr\ta"])
    with pytest.raises(DatasetValidationError):
        load_splits(f["train"], f["valid"], f["aux"], f["test"])


def test_valid_must_be_in_graph(tmp_path):
    f = _write_benchmark(tmp_path, ["a\tr\tb"], ["a\tr\tz"], ["x\tr\ta"], ["x\tr\tb"])
    with pytest.raises(DatasetValidationError) as err:
        load_splits(f["train"], f["valid"], f["aux"], f["test"])
    assert "valid triplet" in str(err.value)


def test_test_needs_an_ookg_entity(tmp_path):
    f = _write_benchmark(tmp_path, ["a\tr\tb"], ["a\tr\tb"], ["x\tr\ta"], ["a\tr\tb"])
    with pytest.raises(DatasetValidationError) as err:
        load_splits(f["train"], f["valid"], f["aux"], f["test"])
    assert "no out-of-graph entity" in str(err.value)


def test_dangling_ookg_flagged_not_fatal(tmp_path):
    # y appears only in test: retained, flagged
    f = _write_benchmark(tmp_path, ["a\tr\tb"], ["a\tr\tb"], ["x\tr\ta"],
                         ["x\tr\tb", "y\tr\ta"])
    splits = load_splits(f["train"], f["valid"], f["aux"], f["test"])
    assert splits.dangling_ookg.tolist() == [splits.vocab.entity_id("y")]


# The filter of known-true triplets is built by link_prediction from train, aux
# and the positive valid and test triplets. Train and valid hold only in-graph
# entities, so only the aux and test parts can ever match a query, whose known
# side is out-of-graph: the tests below observe the filter through ranks.

def _line_benchmark(test, test_labels=None):
    """1-D TransE benchmark: a, b, c, d (ids 0-3) at 0, 1, 2, 3 and one unseen x (id 4).

    The relation offset is 0 and x's only aux edge (x, r, a) places it at 0,
    so a tail query (x, r, ?) ranks a, b, c, d in that order before filtering.
    """
    vocab = Vocabulary()
    vocab.add_entities(list("abcdx"))
    vocab.add_relations(["r"])
    labeled = test_labels is not None
    splits = BenchmarkSplits(
        vocab=vocab,
        train=[(0, 0, 1), (1, 0, 2), (2, 0, 3)],
        valid=[(0, 0, 1), (0, 0, 3)], aux=[(4, 0, 0)],
        test=[tuple(t) for t in test],
        valid_labels=[1, -1] if labeled else None, test_labels=test_labels,
        ikg_entities=list(range(4)), ookg_entities=[4], dangling_ookg=[])
    tables = EmbeddingTables(TRANSE, 1, 1, np.arange(5.0).reshape(-1, 1), np.zeros((1, 1)))
    return tables, splits


def test_splits_hold_read_only_int64_arrays():
    _, splits = _line_benchmark([(4, 0, 3), (4, 0, 1)], [1, -1])
    rows = np.array([[0, 0, 1], [1, 0, 2]], dtype=np.int64)
    splits = replace(splits, train=rows)
    for name in ("train", "valid", "aux", "test"):
        arr = getattr(splits, name)
        assert arr.dtype == np.int64 and arr.shape == (len(arr), 3) and not arr.flags.writeable
    assert np.shares_memory(splits.train, rows)  # converted without a copy
    rows[0, 0] = 3  # the caller's array stays writable
    assert splits.train[0].tolist() == [3, 0, 1]
    with pytest.raises(ValueError):
        splits.test[0, 0] = 0
    assert splits.test_labels.dtype == np.int64 and splits.test_labels.tolist() == [1, -1]
    for name in ("valid_labels", "test_labels", "ikg_entities", "ookg_entities", "dangling_ookg"):
        assert getattr(splits, name).dtype == np.int64 and not getattr(splits, name).flags.writeable
    assert replace(splits, aux=[]).aux.shape == (0, 3)
    # equality is field-wise: it neither raises on the arrays nor falls back to identity
    assert replace(splits) == splits and replace(splits) is not splits
    assert replace(splits, aux=[]) != splits and replace(splits, test_labels=None) != splits
    assert replace(splits, test_labels=None) == replace(splits, test_labels=None)
    assert splits != "splits"
    assert TripleStore(splits.test) == TripleStore(splits.test.tolist())


def test_splits_reject_triplet_arrays_not_n_by_3_and_unsorted_partitions():
    _, splits = _line_benchmark([(4, 0, 3)])
    for bad in (np.arange(12).reshape(3, 4), np.arange(6), [[0, 0], [1, 1]]):
        with pytest.raises(ValueError, match=r"aux triplets must form an \(n, 3\) array"):
            replace(splits, aux=bad)
    for bad in ([1, 0, 2, 3], [0, 1, 1, 2, 3], [[0, 1], [2, 3]]):
        with pytest.raises(ValueError, match="ikg_entities must be a sorted array of distinct"):
            replace(splits, ikg_entities=bad)


def test_plus_joins_whole_splits_and_adds_elementwise_on_indexed_arrays():
    # as on the lists splits once were, + joins a split with a split or a list of triplets
    _, splits = _line_benchmark([(4, 0, 3), (4, 0, 1)], [1, -1])
    train, aux, test = (getattr(splits, name).tolist() for name in ("train", "aux", "test"))
    joined = splits.train + splits.aux
    assert np.array_equal(joined, np.concatenate([splits.train, splits.aux]))
    joined += [t for t, lab in zip(splits.test, splits.test_labels) if lab == 1]
    joined += [(0, 0, 1)]
    assert joined.dtype == np.int64 and joined.tolist() == train + aux + test[:1] + [[0, 0, 1]]
    assert (splits.aux + []).tolist() == aux and splits.aux.tolist() == aux
    # anything else adds elementwise: a scalar, and any rows or columns taken by indexing
    assert (splits.train + 1).tolist() == [[x + 1 for x in row] for row in train]
    assert type(splits.train[:, 0]) is np.ndarray and type(splits.train[0]) is np.ndarray
    assert (splits.train[:, 0] + splits.train[:, 2]).tolist() == [h + t for h, _, t in train]
    assert (splits.train[:1] + splits.train[:1]).tolist() == [[2 * x for x in train[0]]]


def test_filter_set_disjoint_union():
    # (x, r, a) is filtered as an aux triplet and (x, r, b) as a test triplet:
    # the answer d ranks behind c only (rank 2), and b behind nothing (rank 1)
    tables, splits = _line_benchmark([(4, 0, 3), (4, 0, 1)])
    report = link_prediction(tables, splits, "uniform")
    assert report.mrr == (1 / 2 + 1 / 1) / 2
    assert report.hits1 == 0.5


def test_filter_set_dedups_across_splits():
    # a triplet listed in train and valid, and another twice in test, filters as once
    tables, splits = _line_benchmark([(4, 0, 3), (4, 0, 1), (4, 0, 3)])
    report = link_prediction(tables, splits, "uniform")
    assert report.num_queries == 3
    assert report.mrr == (1 / 2 + 1 / 1 + 1 / 2) / 3


def test_filter_set_excludes_negative_labels():
    # the negative (x, r, b) stays a competitor; the positive (x, r, c) is filtered
    tables, splits = _line_benchmark([(4, 0, 3), (4, 0, 1), (4, 0, 2)], [1, -1, 1])
    report = link_prediction(tables, splits, "uniform")
    assert report.counts["negatives_skipped"] == 1
    assert report.mrr == 1 / 2  # both positive queries rank behind b only


def test_filter_set_matches_linear_scan_oracle():
    splits, tables = generate_trainable_splits(5, 40, 3, 200, 0.15, task="classification")
    scan = set(map(tuple, splits.train.tolist())) | set(map(tuple, splits.aux.tolist()))
    scan |= {tuple(t) for t, lab in zip(splits.valid.tolist(), splits.valid_labels) if lab == 1}
    scan |= {tuple(t) for t, lab in zip(splits.test.tolist(), splits.test_labels) if lab == 1}
    ookg = set(splits.ookg_entities.tolist())
    ent = tables.entity
    ranks = []
    for (h, r, t), lab in zip(splits.test.tolist(), splits.test_labels):
        if lab != 1 or (h in ookg and t in ookg):
            continue
        known, answer = (h, t) if h in ookg else (t, h)
        vec = embed_ookg(tables, splits, "uniform", [known], None)[0][0]
        dists = {}
        for c in splits.ikg_entities.tolist():
            trip = (known, r, c) if known == h else (c, r, known)
            if c != answer and trip in scan:
                continue
            h_vec, t_vec = (vec, ent[c]) if known == h else (ent[c], vec)
            dists[c] = float(np.abs(h_vec + tables.relation[r] - t_vec).sum())
        d = dists[answer]
        ranks.append(sum(x < d for x in dists.values())
                     + (1 + sum(x == d for x in dists.values())) / 2)
    report = link_prediction(tables, splits, "uniform")
    assert report.num_queries == len(ranks) > 0
    assert report.mrr == pytest.approx(float(np.mean(1.0 / np.array(ranks))), abs=1e-12)


def test_filter_set_contains_every_positive_test_triplet():
    # every answer forms a filtered test triplet with its query, yet stays ranked:
    # on planted tables a dropped answer would rank 0.5 and lift MRR above 1
    for task in ("lp", "classification"):
        splits, tables = generate_planted_splits(4, 150, 6, 420, 0.1, task=task)
        report = link_prediction(tables, splits, "uniform")
        assert report.mrr == 1.0 and report.hits1 == 1.0


def test_synthetic_round_trip(tmp_path):
    splits, _ = generate_trainable_splits(1, 40, 3, 200, 0.1)
    write_splits(splits, tmp_path / "trainable")
    assert load_split_dir(tmp_path / "trainable") == splits
    planted, _ = generate_planted_splits(1, 150, 6, 420, 0.1)
    write_splits(planted, tmp_path / "planted")
    assert load_split_dir(tmp_path / "planted") == planted


def test_synthetic_classification_round_trip(tmp_path):
    splits, _ = generate_trainable_splits(2, 30, 3, 100, 0.2, task="classification")
    write_splits(splits, tmp_path)
    assert load_split_dir(tmp_path, task="classification") == splits


def test_synthetic_deterministic_and_byte_identical(tmp_path):
    a, _ = generate_trainable_splits(9, 40, 3, 200, 0.1)
    b, _ = generate_trainable_splits(9, 40, 3, 200, 0.1)
    assert a == b
    write_splits(a, tmp_path / "a")
    write_splits(b, tmp_path / "b")
    for name in ("train.txt", "valid.txt", "aux.txt", "test.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synthetic_parameter_validation():
    for generate in (generate_trainable_splits, generate_planted_splits):
        with pytest.raises(ValueError):
            generate(0, 50, 5, 300, 0.0)
        with pytest.raises(ValueError):
            generate(0, 50, 5, 300, 1.0)
    with pytest.raises(ValueError):
        generate_trainable_splits(0, 2, 5, 300, 0.5)
    # an infeasible shape fails every attempt; the error names the generator and the last reason
    for generate, label, reason in ((generate_trainable_splits, "trainable", "seed every in-graph"),
                                    (generate_planted_splits, "planted", "cover the in-graph")):
        with pytest.raises(ValueError, match=f"^could not generate feasible {label} splits: "
                                             f"num_train too small to {reason} entit"):
            generate(0, 50, 5, 10, 0.1)


def test_synthetic_no_dangling_by_construction():
    for splits, _ in (generate_trainable_splits(3, 40, 3, 200, 0.2),
                      generate_planted_splits(3, 150, 6, 420, 0.2)):
        assert splits.dangling_ookg.size == 0
        assert set(splits.ookg_entities.tolist()) <= set(splits.aux[:, [0, 2]].ravel().tolist())


def test_planted_splits_are_exactly_translational():
    splits, tables = generate_planted_splits(13, 200, 8, 600, 0.1)
    assert (_distances(tables, np.concatenate([splits.train[:200], splits.aux[:100]])) == 0.0).all()
    assert (_distances(tables, splits.valid[:50]) == 0.0).all()


def test_planted_classification_negatives_at_unit_distance():
    splits, tables = generate_planted_splits(13, 200, 8, 600, 0.1, task="classification")
    for d, label in zip(_distances(tables, splits.test), splits.test_labels):
        if label == 1:
            assert d == 0.0
        else:
            assert d >= 1.0


def test_planted_deterministic():
    a, ta = generate_planted_splits(4, 150, 6, 400, 0.1)
    b, tb = generate_planted_splits(4, 150, 6, 400, 0.1)
    assert a == b
    assert np.array_equal(ta.entity, tb.entity)


def test_trainable_splits_valid_and_deterministic(tmp_path):
    a, _ = generate_trainable_splits(2, 120, 5, 800, 0.1)
    b, _ = generate_trainable_splits(2, 120, 5, 800, 0.1)
    assert a == b
    assert len(a.train) == 800
    write_splits(a, tmp_path)
    assert load_split_dir(tmp_path) == a


def test_trainable_classification_has_balanced_labels():
    splits, _ = generate_trainable_splits(8, 100, 5, 600, 0.15, task="classification")
    assert np.count_nonzero(splits.test_labels == 1) > 0
    assert np.count_nonzero(splits.test_labels == -1) > 0
    assert np.count_nonzero(splits.valid_labels == -1) > 0


FB15K_HEAD_10_DIR = os.environ.get("INVKGE_FB15K_HEAD_10_DIR")


@pytest.mark.skipif(FB15K_HEAD_10_DIR is None,
                    reason="set INVKGE_FB15K_HEAD_10_DIR to the FB15k-Head-10 files")
def test_fb15k_head_10_statistics():
    splits = load_split_dir(FB15K_HEAD_10_DIR, task="lp")
    assert len(splits.train) == 108_854
    assert len(splits.valid) == 11_339
    assert len(splits.aux) == 249_798
    assert len(splits.test) == 2_811
    assert len(splits.ookg_entities) == 2_082
