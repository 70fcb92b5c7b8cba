import json
import os
import tracemalloc

import numpy as np
import pytest

from invkge import core, models
from invkge.core import Vocabulary
from invkge.models import (ROTATE, TRANSE, EmbeddingTables, init_tables, load_checkpoint,
                           load_vocabulary, save_checkpoint, save_vocabulary,
                           translation_distance)
from invkge.seeding import substream


def _init_float64(*args, **kwargs):
    """``init_tables`` widened to float64, the dtype these oracles compute in."""
    tables = init_tables(*args, **kwargs)
    tables.entity = tables.entity.astype(np.float64)
    tables.relation = tables.relation.astype(np.float64)
    return tables


def test_init_deterministic():
    a = init_tables(5, TRANSE, 8, 10, 4)
    b = init_tables(5, TRANSE, 8, 10, 4)
    assert np.array_equal(a.entity, b.entity)
    assert np.array_equal(a.relation, b.relation)
    c = init_tables(6, TRANSE, 8, 10, 4)
    assert not np.array_equal(a.entity, c.entity)


def test_init_shapes():
    t = init_tables(0, TRANSE, 2, 3, 2)
    assert t.entity.shape == (3, 2)
    assert t.relation.shape == (2, 2)
    r = init_tables(0, ROTATE, 2, 3, 2)
    assert r.entity.shape == (3, 4)  # interleaved re/im
    assert r.relation.shape == (2, 2)
    assert r.entity_matrix().shape == (3, 2)
    assert t.entity.dtype == t.relation.dtype == r.entity.dtype == r.relation.dtype == np.float32
    assert r.entity_matrix().dtype == np.complex64


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
@pytest.mark.parametrize("block_rows", [1, 3, 7, 1000])
def test_init_equals_one_float64_draw_rounded(monkeypatch, model, block_rows):
    # block_rows counts rows of dim float64 draws: RotatE entity blocks hold half as many
    dim, n_ent, n_rel, margin = 5, 11, 4, 2.0
    monkeypatch.setattr(core, "_BLOCK_BYTES", block_rows * dim * 8)
    tables = init_tables(3, model, dim, n_ent, n_rel, margin=margin)
    rng = substream(3, "init")
    bound = margin / dim
    entity = rng.uniform(-bound, bound, size=(n_ent, 2 * dim if model == ROTATE else dim))
    relation = rng.uniform(-np.pi, np.pi, size=(n_rel, dim)) if model == ROTATE else \
        rng.uniform(-bound, bound, size=(n_rel, dim))
    assert tables.entity.dtype == tables.relation.dtype == np.float32
    assert np.array_equal(tables.entity, entity.astype(np.float32))
    assert np.array_equal(tables.relation, relation.astype(np.float32))


def test_init_range():
    t = init_tables(1, TRANSE, 10, 50, 5, margin=4.0)
    bound = 4.0 / 10
    assert np.all(np.abs(t.entity) <= bound)
    assert np.all(np.abs(t.relation) <= bound)
    r = init_tables(1, ROTATE, 10, 50, 5)
    assert np.all(r.relation >= -np.pi) and np.all(r.relation < np.pi)


def test_rotate_relations_unit_modulus():
    r = init_tables(2, ROTATE, 16, 5, 7)
    for rid in range(7):
        assert np.max(np.abs(np.abs(r.relation_vec(rid)) - 1.0)) < 1e-12


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_relation_vec_of_an_id_array_equals_per_row_calls(model):
    tables = _init_float64(4, model, 24, 5, 6)
    rids = np.array([4, 1, 4, 4, 0, 5, 1, 2, 4, 0])  # repeated and unsorted
    rows = tables.relation_vec(rids)
    assert rows.shape == (len(rids), 24)
    per_row = np.stack([tables.relation_vec(int(r)) for r in rids])
    assert np.array_equal(rows, per_row)
    assert tables.relation_vec(4).shape == tables.relation_vec(np.int64(4)).shape == (24,)
    assert np.array_equal(tables.relation_vec(np.int64(4)), per_row[0])
    if model == ROTATE:
        assert np.array_equal(per_row, np.exp(1j * tables.relation[rids]))
        assert np.array_equal(tables.relation_vec(rids.reshape(2, 5)), per_row.reshape(2, 5, 24))


def test_init_validation():
    with pytest.raises(ValueError):
        init_tables(0, "transh", 4, 3, 2)
    with pytest.raises(ValueError):
        init_tables(0, TRANSE, 0, 3, 2)
    with pytest.raises(ValueError):
        init_tables(0, TRANSE, 4, 3, 2, norm_order=3)


def _distance(model, norm, h, r, t):
    return float(translation_distance(model, norm, np.asarray(h), np.asarray(r), np.asarray(t)))


def test_transe_distance_examples():
    assert _distance(TRANSE, 1, [1.0, 2.0], [0.5, -1.0], [1.5, 1.0]) == 0.0
    assert _distance(TRANSE, 1, [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]) == 2.0


def test_rotate_quarter_turn():
    h = np.array([1.0 + 0.0j])
    r = np.exp(1j * np.array([np.pi / 2]))
    tail = np.array([0.0 + 1.0j])
    assert _distance(ROTATE, 1, h, r, tail) < 1e-12


def test_distance_by_id_matches_raw_vectors():
    # table rows picked by id give the distance of the raw parameter vectors
    tables = _init_float64(3, TRANSE, 6, 8, 3)
    ent = tables.entity_matrix()
    d_ids = _distance(TRANSE, 1, ent[2], tables.relation_vec(1), ent[5])
    d_raw = float(np.abs(tables.entity[2] + tables.relation[1] - tables.entity[5]).sum())
    assert d_ids == d_raw
    rt = _init_float64(3, ROTATE, 6, 8, 3)
    ent = rt.entity_matrix()
    h = rt.entity[2, 0::2] + 1j * rt.entity[2, 1::2]
    t = rt.entity[5, 0::2] + 1j * rt.entity[5, 1::2]
    raw = float(np.abs(h * np.exp(1j * rt.relation[1]) - t).sum())
    assert _distance(ROTATE, 1, ent[2], rt.relation_vec(1), ent[5]) == pytest.approx(raw,
                                                                                      abs=1e-15)


def test_rotate_accepts_interleaved_floats():
    # the complex entity matrix is a view of the interleaved (re, im) float rows
    rt = _init_float64(4, ROTATE, 3, 4, 2)
    head_complex = rt.entity_matrix()[1]
    assert np.shares_memory(head_complex, rt.entity)
    assert np.array_equal(head_complex, rt.entity[1, 0::2] + 1j * rt.entity[1, 1::2])
    d1 = _distance(ROTATE, 1, rt.entity[1].view(np.complex128), rt.relation_vec(0),
                   rt.entity_matrix()[2])
    d2 = _distance(ROTATE, 1, head_complex, rt.relation_vec(0), rt.entity_matrix()[2])
    assert d1 == d2


def test_distance_nonnegative_zero_iff_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        h = rng.normal(size=2)
        r = rng.normal(size=2)
        exact = h + r
        for norm in (1, 2):
            assert _distance(TRANSE, norm, h, r, exact) < 1e-12
            perturbed = exact + rng.normal(size=2) * 0.1 + 0.01
            assert _distance(TRANSE, norm, h, r, perturbed) > 0


def test_permutation_invariance():
    rng = np.random.default_rng(13)
    h, r, tl = rng.normal(size=5), rng.normal(size=5), rng.normal(size=5)
    perm = rng.permutation(5)
    assert _distance(TRANSE, 1, h, r, tl) == pytest.approx(
        _distance(TRANSE, 1, h[perm], r[perm], tl[perm]), abs=1e-12)


def test_rotate_rotation_preserves_modulus():
    rng = np.random.default_rng(17)
    h = rng.normal(size=4) + 1j * rng.normal(size=4)
    theta = rng.uniform(-np.pi, np.pi, size=4)
    rotated = h * np.exp(1j * theta)
    assert np.allclose(np.abs(rotated), np.abs(h), atol=1e-12)


def test_l2_norm_order():
    assert _distance(TRANSE, 2, [0.0, 0.0], [3.0, 4.0], [0.0, 0.0]) == pytest.approx(5.0)


def test_translation_distance_broadcasts():
    h = np.zeros((4, 3))
    r = np.ones(3)
    t = np.zeros(3)
    d = translation_distance(TRANSE, 1, h, r, t)
    assert d.shape == (4,)
    assert np.all(d == 3.0)


def test_non_finite_rejected(tmp_path):
    # non-finite parameters enter through checkpoints, which refuse them
    tables = init_tables(0, TRANSE, 2, 3, 1)
    tables.entity[1, 0] = np.inf
    save_checkpoint(tables, tmp_path / "inf.bin")
    with pytest.raises(ValueError, match="non-finite"):
        load_checkpoint(tmp_path / "inf.bin")


def test_checkpoint_round_trip(tmp_path):
    for model in (TRANSE, ROTATE):
        tables = init_tables(9, model, 5, 7, 3, norm_order=2, margin=2.0)
        path = tmp_path / f"{model}.bin"
        save_checkpoint(tables, path, seed=9)
        loaded, seed = load_checkpoint(path)
        assert seed == 9
        assert loaded.model == model
        assert loaded.dim == 5
        assert loaded.norm_order == 2
        assert loaded.num_entities == 7
        assert loaded.num_relations == 3
        # float32 storage: exact at float32 resolution
        assert np.array_equal(loaded.entity, tables.entity.astype("<f4").astype(np.float64))
        assert np.array_equal(loaded.relation, tables.relation.astype("<f4").astype(np.float64))


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_loaded_tables_are_writable_float32(tmp_path, model):
    save_checkpoint(init_tables(9, model, 5, 7, 3), tmp_path / "c.bin")
    loaded, _ = load_checkpoint(tmp_path / "c.bin")
    assert loaded.entity.dtype == loaded.relation.dtype == np.float32
    relation = loaded.relation.copy()
    loaded.entity[-1] = 1.0     # in place, without a copy of the table first
    loaded.relation[0] = 2.0
    assert (loaded.entity[-1] == 1.0).all() and (loaded.relation[0] == 2.0).all()
    assert np.array_equal(loaded.relation[1:], relation[1:])


def test_loading_copies_no_table(tmp_path):
    path = tmp_path / "c.bin"
    save_checkpoint(init_tables(0, ROTATE, 64, 2000, 3), path)
    tracemalloc.start()
    try:
        loaded, _ = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # neither a buffer of the file nor a table-sized temporary for the finiteness check
    assert peak < loaded.entity.nbytes / 8


@pytest.mark.parametrize("model", [TRANSE, ROTATE])
def test_writes_into_loaded_tables_never_reach_the_file(tmp_path, model):
    path = tmp_path / "c.bin"
    save_checkpoint(init_tables(9, model, 5, 7, 3), path)
    before = path.read_bytes()
    loaded, _ = load_checkpoint(path)
    loaded.entity[:] = 1.0
    loaded.relation[:] = 2.0
    assert path.read_bytes() == before


def test_saving_over_a_loaded_checkpoint_keeps_the_loaded_tables(tmp_path):
    path = tmp_path / "c.bin"
    old = init_tables(1, ROTATE, 4, 6, 2)
    save_checkpoint(old, path, seed=1)
    loaded, _ = load_checkpoint(path)
    new = init_tables(2, ROTATE, 4, 6, 2)
    save_checkpoint(new, path, seed=2)
    assert np.array_equal(loaded.entity, old.entity.astype(np.float32))
    assert np.array_equal(loaded.relation, old.relation.astype(np.float32))
    reloaded, seed = load_checkpoint(path)
    assert seed == 2
    assert np.array_equal(reloaded.entity, new.entity.astype(np.float32))
    assert np.array_equal(reloaded.relation, new.relation.astype(np.float32))


@pytest.mark.parametrize("where", ["relation nan", "last entity row -inf",
                                   "rotate imaginary part +inf"])
def test_non_finite_values_anywhere_rejected(tmp_path, where):
    tables = init_tables(3, ROTATE if "rotate" in where else TRANSE, 6, 50, 4)
    if where == "relation nan":
        tables.relation[2, 3] = np.nan
    elif where == "last entity row -inf":
        tables.entity[-1, -1] = -np.inf
    else:
        tables.entity[20, 2 * 4 + 1] = np.inf   # interleaved re/im: element 4's imaginary part
    save_checkpoint(tables, tmp_path / "c.bin")
    with pytest.raises(ValueError, match="non-finite"):
        load_checkpoint(tmp_path / "c.bin")


@pytest.mark.parametrize("row", [0, 2, 3, 5, 6, 9])
def test_nan_in_a_block_boundary_row_rejected(tmp_path, monkeypatch, row):
    tables = init_tables(4, TRANSE, 5, 10, 2)
    # blocks of 3 rows: 0-2, 3-5, 6-8 and 9 alone
    monkeypatch.setattr(core, "_BLOCK_BYTES", 3 * 5 * 4)
    save_checkpoint(tables, tmp_path / "ok.bin")
    load_checkpoint(tmp_path / "ok.bin")
    tables.entity[row, 4 if row % 2 else 0] = np.nan
    save_checkpoint(tables, tmp_path / "c.bin")
    with pytest.raises(ValueError, match="non-finite"):
        load_checkpoint(tmp_path / "c.bin")


def test_zero_row_tables_load(tmp_path):
    save_checkpoint(EmbeddingTables(ROTATE, 3, 1, np.zeros((0, 6)), np.zeros((0, 3))),
                    tmp_path / "c.bin")
    loaded, _ = load_checkpoint(tmp_path / "c.bin")
    assert loaded.entity.shape == (0, 6) and loaded.relation.shape == (0, 3)


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        load_checkpoint(p)
    tables = init_tables(0, TRANSE, 2, 2, 1)
    good = tmp_path / "good.bin"
    save_checkpoint(tables, good)
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(good.read_bytes()[:-5])
    with pytest.raises(ValueError):
        load_checkpoint(truncated)


def test_failed_checkpoint_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(init_tables(0, TRANSE, 2, 3, 1), path, seed=4)
    before = path.read_bytes()
    # the header and the entity table are written before the relation table fails
    broken = EmbeddingTables(TRANSE, 2, 1, np.zeros((3, 2)), np.array([["x", "y"]], dtype=object))
    with pytest.raises(ValueError):
        save_checkpoint(broken, path, seed=5)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]


def test_vocabulary_sidecar_round_trip(tmp_path):
    vocab = Vocabulary()
    vocab.add_entities(["alpha", "beta", "gamma"])
    vocab.add_relations(["likes"])
    path = tmp_path / "vocab.json"
    save_vocabulary(vocab, path)
    assert load_vocabulary(path) == vocab


def test_vocabulary_sidecar_bytes_match_json_dump(tmp_path):
    vocab = Vocabulary()
    vocab.add_entities(["alpha", "Łódź", "naïve café", 'quote " and \\ back', "\u2028"])
    vocab.add_relations(["likes", "日本語"])
    path = tmp_path / "vocab.json"
    save_vocabulary(vocab, path)
    payload = {"entities": vocab.entity_names, "relations": vocab.relation_names}
    with open(tmp_path / "reference.json", "w", encoding="utf-8") as f:
        json.dump(payload, f, ensure_ascii=False)
        f.write("\n")
    assert path.read_bytes() == (tmp_path / "reference.json").read_bytes()


def test_failed_vocabulary_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "vocab.json"
    old = Vocabulary()
    old.add_entities(["a", "b"])
    old.add_relations(["r"])
    save_vocabulary(old, path)
    before = path.read_bytes()
    new = Vocabulary()
    new.add_entities(["c" * 10_000])
    new.add_relations(["s"])

    def fail(fd):   # the temporary file is written in full before the sync fails
        raise OSError("disk went away")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk went away"):
        save_vocabulary(new, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["vocab.json"]


@pytest.mark.parametrize("payload", ['{"entities": []}', '{"relations": []}',
                                     '{"entities": ["a", 3], "relations": []}',
                                     '{"entities": "ab", "relations": []}', '["a"]'])
def test_malformed_vocabulary_sidecar_rejected(tmp_path, payload):
    path = tmp_path / "vocab.json"
    path.write_text(payload, encoding="utf-8")
    with pytest.raises(ValueError, match="vocab.json"):
        load_vocabulary(path)
