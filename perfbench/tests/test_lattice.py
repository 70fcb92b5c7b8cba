"""The lifted planted tables keep every answer known after a float32 checkpoint."""

import numpy as np
import pytest

import lattice
from invkge import EmbeddingTables, generate_planted_splits, load_checkpoint, save_checkpoint
from invkge.models import translation_distance

DIM = 300
ROTATE_TOL = 1e-4   # L1 distance of a positive after float32 rounding (300 coordinates)


@pytest.fixture(scope="module")
def planted():
    splits, truth = generate_planted_splits(7, 400, 8, 1200, 0.1, task="classification")
    positives = splits.train + splits.aux
    positives += [t for t, lab in zip(splits.valid, splits.valid_labels) if lab == 1]
    positives += [t for t, lab in zip(splits.test, splits.test_labels) if lab == 1]
    span = int(np.abs(truth.entity[:, None, :] - truth.entity[None, :, :]).max())
    return splits, truth, np.array(positives), span


def _round_trip(tmp_path, model, entity, relation, norm):
    path = tmp_path / f"{model}-{norm}.bin"
    save_checkpoint(EmbeddingTables(model, DIM, norm, entity, relation), path)
    tables, _ = load_checkpoint(path)
    return tables


def _all_distances(tables, pos):
    """(positive distances, distances of every tail corruption, of every head corruption)."""
    ent = tables.entity_matrix()
    rel = tables.relation[pos[:, 1]]
    rel = np.exp(1j * rel) if tables.model == "rotate" else rel
    h, t = ent[pos[:, 0]], ent[pos[:, 2]]
    d_pos = translation_distance(tables.model, tables.norm_order, h, rel, t)
    d_tail = translation_distance(tables.model, tables.norm_order, h[:, None], rel[:, None],
                                  ent[None, :])
    d_head = translation_distance(tables.model, tables.norm_order, ent[None, :], rel[:, None],
                                  t[:, None])
    n = len(ent)
    d_tail[np.arange(len(pos)), pos[:, 2]] = np.inf   # the positive itself
    d_head[np.arange(len(pos)), pos[:, 0]] = np.inf
    assert d_tail.shape == d_head.shape == (len(pos), n)
    return d_pos, d_tail, d_head


@pytest.mark.parametrize("norm", [1, 2])
def test_transe_positives_exact_and_corruptions_a_gap_away(planted, tmp_path, norm):
    _, truth, pos, _ = planted
    ent, rel = lattice.lift_transe(truth.entity, truth.relation, DIM)
    tables = _round_trip(tmp_path, "transe", ent, rel, norm)
    d_pos, d_tail, d_head = _all_distances(tables, pos)
    gap = lattice.transe_gap(DIM, norm)
    assert np.all(d_pos == 0.0)
    assert d_tail.min() >= gap and d_head.min() >= gap


@pytest.mark.parametrize("norm", [1, 2])
def test_rotate_positives_within_rounding_and_corruptions_a_gap_away(planted, tmp_path, norm):
    _, truth, pos, span = planted
    freq_a, freq_b = lattice.rotate_frequencies(7, DIM)
    ent, rel = lattice.lift_rotate(truth.entity, truth.relation, freq_a, freq_b)
    tables = _round_trip(tmp_path, "rotate", ent, rel, norm)
    d_pos, d_tail, d_head = _all_distances(tables, pos)
    gap = lattice.rotate_gap(freq_a, freq_b, span, norm)
    assert d_pos.max() <= ROTATE_TOL
    assert min(d_tail.min(), d_head.min()) >= gap - ROTATE_TOL
    assert gap > 1e4 * ROTATE_TOL


def test_rotate_gap_is_wide_at_wn11_scale():
    # 38,000 entities fill a 195 x 195 lattice: steps up to 194 in each axis
    for seed in range(3):
        freq_a, freq_b = lattice.rotate_frequencies(seed, DIM)
        assert lattice.rotate_gap(freq_a, freq_b, 194) > DIM / 2


def test_rotate_gap_matches_brute_force_on_small_span():
    freq_a, freq_b = lattice.rotate_frequencies(3, 16)
    steps = lattice.lattice_steps(3)
    brute = min(np.abs(np.exp(1j * (dx * freq_a + dy * freq_b)) - 1.0).sum() for dx, dy in steps)
    assert lattice.rotate_gap(freq_a, freq_b, 3) == pytest.approx(brute, rel=1e-12)
    assert len(steps) == 7 * 7 - 1
