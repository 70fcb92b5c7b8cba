"""Benchmark split loading, validation, and synthetic split generation.

A benchmark is four TSV files (train / valid / aux / test). Training and
validation triplets use only in-graph (IKG) entities; the auxiliary set joins
each out-of-knowledge-graph (OOKG) entity to IKG entities and is available
only at inference time; test triplets involve at least one OOKG entity.
Classification-task valid/test files carry a trailing label column.

Each file is read whole and split in bulk. Names get ids in first-seen order
(train, valid, aux, test; head before tail) from one dictionary pass, and from
then on every split is a read-only (n, 3) int64 id array. Format checks
and split invariants run over whole columns; only a malformed file is scanned
line by line, for the line to report.
"""

from __future__ import annotations

import codecs
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, fields
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .core import Vocabulary
from .models import TRANSE, EmbeddingTables
from .seeding import substream

logger = logging.getLogger(__name__)

TASK_LP = "lp"
TASK_CLASSIFICATION = "classification"

SPLIT_FILENAMES = {"train": "train.txt", "valid": "valid.txt", "aux": "aux.txt", "test": "test.txt"}

_MAX_LISTED_VIOLATIONS = 10
_LABELS = {"1": 1, "-1": -1, "0": -1}


class DatasetFormatError(ValueError):
    """A split file could not be parsed (message carries file and line number)."""


class DatasetValidationError(ValueError):
    """Loaded splits violate the benchmark structure."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        listed = "; ".join(violations[:_MAX_LISTED_VIOLATIONS])
        suffix = "" if len(violations) <= _MAX_LISTED_VIOLATIONS else f" (+{len(violations) - _MAX_LISTED_VIOLATIONS} more)"
        super().__init__(f"{len(violations)} split invariant violation(s): {listed}{suffix}")


class _Infeasible(Exception):
    """Internal: one generation attempt could not satisfy the split invariants."""


class SplitRows(np.ndarray):
    """A split's (n, 3) triplet array; ``+`` with another split or a list of triplets joins rows.

    Splits were lists of triplets before they were arrays, and code written for
    them (the benchmark's lattice test) joins them with ``+``. Indexing gives
    plain arrays, so a column or a subset of rows adds elementwise as usual.
    """

    def __add__(self, other):
        if not isinstance(other, (SplitRows, list)):
            return super().__add__(other)
        return np.concatenate([self, np.asarray(other, dtype=np.int64).reshape(-1, 3)]).view(SplitRows)

    __iadd__ = __add__

    def __getitem__(self, key):
        item = super().__getitem__(key)
        return item.view(np.ndarray) if isinstance(item, np.ndarray) else item


@dataclass
class BenchmarkSplits:
    """The four splits of one benchmark and its entity partitions, as read-only int64 arrays.

    ``train``, ``valid``, ``aux`` and ``test`` are (n, 3) (head, relation, tail)
    id arrays (``SplitRows``); the labels are (n,) arrays of +1/-1, or None for
    link prediction; the partitions are sorted arrays of distinct entity ids.
    Lists are converted.
    """

    task: str
    vocab: Vocabulary
    train: SplitRows
    valid: SplitRows
    aux: SplitRows
    test: SplitRows
    valid_labels: np.ndarray | None
    test_labels: np.ndarray | None
    ikg_entities: np.ndarray
    ookg_entities: np.ndarray
    dangling_ookg: np.ndarray

    def __post_init__(self) -> None:
        for name in ("train", "valid", "aux", "test"):
            rows = np.asarray(getattr(self, name), dtype=np.int64)
            if rows.size and (rows.ndim != 2 or rows.shape[1] != 3):
                raise ValueError(f"{name} triplets must form an (n, 3) array, got shape {rows.shape}")
            setattr(self, name, _read_only(rows.reshape(-1, 3)).view(SplitRows))
        for name in ("valid_labels", "test_labels"):
            if getattr(self, name) is not None:
                setattr(self, name, _read_only(np.asarray(getattr(self, name), dtype=np.int64)))
        for name in ("ikg_entities", "ookg_entities", "dangling_ookg"):
            ids = np.asarray(getattr(self, name), dtype=np.int64)
            if ids.ndim != 1 or np.any(ids[1:] <= ids[:-1]):
                raise ValueError(f"{name} must be a sorted array of distinct entity ids")
            setattr(self, name, _read_only(ids))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BenchmarkSplits):
            return NotImplemented
        # array_equal also compares the task, the vocabulary and None, as 0-d object arrays
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()  # a caller's own array stays writable
    view.flags.writeable = False
    return view


def _normalize_task(task: str) -> str:
    if task in (TASK_LP,):
        return TASK_LP
    if task in (TASK_CLASSIFICATION, "tc"):
        return TASK_CLASSIFICATION
    raise ValueError(f"unknown task {task!r}, expected 'lp' or 'classification'")


def _parse_file(path: str | Path, labeled: bool) -> tuple[list[str], list[str], list[str], list[int] | None]:
    """Head, relation and tail columns of a UTF-8 split file (BOM dropped), and its labels if ``labeled``."""
    raw = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        lines = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    except UnicodeDecodeError as exc:
        lineno = len((raw[:exc.start] + b"?").splitlines())  # the line holding the bad byte
        raise DatasetFormatError(f"{path}:{lineno}: byte 0x{raw[exc.start]:02x} is not UTF-8") from None
    width = 4 if labeled else 3
    rows = list(filter(None, lines))
    if set(map(str.count, rows, repeat("\t"))) <= {width - 1}:
        fields = "\t".join(rows).split("\t") if rows else []
        cols = [fields[i::width] for i in range(width)]
        labels = cols[3] if labeled else []
        if not any("" in col for col in cols[:3]) and set(labels) <= _LABELS.keys():
            return cols[0], cols[1], cols[2], list(map(_LABELS.__getitem__, labels)) if labeled else None
    for lineno, line in enumerate(lines, start=1):  # some line is malformed: raise for the first
        cols = line.split("\t")
        if line and (len(cols) != width or "" in cols[:3] or labeled and cols[3] not in _LABELS):
            detail = ("label column unexpected for this task" if len(cols) == 4 and not labeled
                      else f"expected {width} tab-separated columns, got {len(cols)}" if len(cols) != width
                      else "empty entity or relation field" if "" in cols[:3]
                      else f"bad label {cols[3]!r} (expected 1, -1 or 0)")
            raise DatasetFormatError(f"{path}:{lineno}: {detail}")


def _touched(num_entities: int, triplets: np.ndarray) -> np.ndarray:
    """Mask of the entities that are the head or tail of some triplet."""
    mask = np.zeros(num_entities, dtype=bool)
    mask[triplets[:, [0, 2]]] = True
    return mask


def _assemble(task: str, *parts: tuple[list[str], list[str], list[str], list[int] | None]) -> BenchmarkSplits:
    """Build vocabulary (first-seen order: train, valid, aux, test), id arrays, and validate.

    ``parts`` are the (heads, relations, tails, labels) columns of the train,
    valid, aux and test splits, each a sequence of names (labels: of ints).
    """
    ends = list(chain.from_iterable(chain.from_iterable(zip(p[0], p[2])) for p in parts))  # h, t, h, ...
    vocab = Vocabulary()
    end_ids = vocab.add_entities(ends)
    rel_ids = vocab.add_relations(list(chain.from_iterable(p[1] for p in parts)))
    rows = np.column_stack([end_ids[0::2], rel_ids, end_ids[1::2]])
    train, valid, aux, test = np.split(rows, np.cumsum([len(p[0]) for p in parts])[:3])

    ikg, in_aux, in_test = (_touched(vocab.num_entities, split) for split in (train, aux, test))
    ookg = (in_aux | in_test) & ~ikg
    violations = [f"valid triplet {_names(vocab, t)} uses an entity absent from train"
                  for t in valid[~(ikg[valid[:, 0]] & ikg[valid[:, 2]])]]
    n_ookg = ookg[aux[:, 0]].astype(np.int64) + ookg[aux[:, 2]]
    for t, k in zip(aux[n_ookg != 1], n_ookg[n_ookg != 1]):
        kind = "no out-of-graph entity" if k == 0 else "two out-of-graph entities"
        violations.append(f"aux triplet {_names(vocab, t)} has {kind}")
    violations += [f"test triplet {_names(vocab, t)} has no out-of-graph entity"
                   for t in test[~(ookg[test[:, 0]] | ookg[test[:, 2]])]]
    if not len(aux) and len(test):
        violations.append("aux split is empty but test is not: test entities cannot be estimated")
    if violations:
        raise DatasetValidationError(violations)

    dangling = np.flatnonzero(ookg & in_test & ~in_aux)
    if len(dangling):
        logger.warning("%d out-of-graph test entities have no aux neighbors and will be "
                       "scored pessimistically", len(dangling))

    labeled = task == TASK_CLASSIFICATION
    return BenchmarkSplits(
        task=task, vocab=vocab, train=train, valid=valid, aux=aux, test=test,
        valid_labels=parts[1][3] if labeled else None,
        test_labels=parts[3][3] if labeled else None,
        ikg_entities=np.flatnonzero(ikg), ookg_entities=np.flatnonzero(ookg), dangling_ookg=dangling)


def _names(vocab: Vocabulary, t) -> str:
    return f"({vocab.entity_name(t[0])}, {vocab.relation_name(t[1])}, {vocab.entity_name(t[2])})"


def load_splits(train_path, valid_path, aux_path, test_path, task: str = TASK_LP) -> BenchmarkSplits:
    """Load and validate the four split files.

    For the classification task valid/test must carry a fourth 0/1-or-±1 label
    column; for link prediction a label column anywhere is a format error.
    Raises DatasetFormatError on malformed lines and DatasetValidationError
    (listing offending triplets) on structural violations.
    """
    task = _normalize_task(task)
    labeled = task == TASK_CLASSIFICATION
    return _assemble(task, _parse_file(train_path, labeled=False),
                     _parse_file(valid_path, labeled=labeled),
                     _parse_file(aux_path, labeled=False),
                     _parse_file(test_path, labeled=labeled))


def load_split_dir(directory: str | Path, task: str = TASK_LP) -> BenchmarkSplits:
    """Load a benchmark from a directory with the conventional file names."""
    d = Path(directory)
    return load_splits(d / SPLIT_FILENAMES["train"], d / SPLIT_FILENAMES["valid"],
                       d / SPLIT_FILENAMES["aux"], d / SPLIT_FILENAMES["test"], task=task)


def write_splits(splits: BenchmarkSplits, directory: str | Path) -> dict[str, Path]:
    """Write the four TSV files; byte-deterministic for identical splits."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    paths = {name: d / fname for name, fname in SPLIT_FILENAMES.items()}
    _write_file(paths["train"], splits.vocab, splits.train, None)
    _write_file(paths["valid"], splits.vocab, splits.valid, splits.valid_labels)
    _write_file(paths["aux"], splits.vocab, splits.aux, None)
    _write_file(paths["test"], splits.vocab, splits.test, splits.test_labels)
    return paths


def _write_file(path: Path, vocab: Vocabulary, triplets: np.ndarray,
                labels: np.ndarray | None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for i, (h, r, t) in enumerate(triplets.tolist()):
            line = f"{vocab.entity_name(h)}\t{vocab.relation_name(r)}\t{vocab.entity_name(t)}"
            if labels is not None:
                line += f"\t{labels[i]}"
            f.write(line + "\n")


# ---------------------------------------------------------------------------
# Synthetic split generators
# ---------------------------------------------------------------------------

def generate_planted_splits(seed: int, num_entities: int = 240, num_relations: int = 8,
                            num_train: int = 700, ookg_fraction: float = 0.1,
                            *, task: str = TASK_LP, valid_fraction: float = 0.1,
                            max_offset: int = 2) -> tuple[BenchmarkSplits, EmbeddingTables]:
    """Splits whose ground-truth TransE embeddings fit every triplet exactly.

    Entities sit on a 2-D integer lattice and relations are distinct nonzero
    integer offsets; a triplet (h, r, t) exists only when point(h) + offset(r)
    == point(t), so the returned ground-truth tables give distance exactly 0
    to every positive and at least 1 (L1) to every corrupted triplet. For the
    classification task, negatives are lattice corruptions and therefore
    linearly separable from positives by a distance threshold.

    Returns the splits together with the ground-truth tables (dim 2, L1),
    indexed by the split vocabulary. OOKG entities keep their true points in
    the returned table, which evaluation never reads for estimation.
    """
    task = _normalize_task(task)
    if not 0.0 < ookg_fraction < 1.0:
        raise ValueError("ookg_fraction must be strictly between 0 and 1")
    side = math.ceil(math.sqrt(num_entities))
    offset_pool = [(a, b) for a in range(-max_offset, max_offset + 1)
                   for b in range(-max_offset, max_offset + 1) if (a, b) != (0, 0)]
    if num_relations > len(offset_pool):
        raise ValueError(f"at most {len(offset_pool)} relations with max_offset={max_offset}")
    last: Exception | None = None
    for attempt in range(3):
        rng = substream(seed, "planted", attempt)
        try:
            return _planted_once(rng, num_entities, num_relations, num_train,
                                 ookg_fraction, task, valid_fraction, side, offset_pool)
        except _Infeasible as exc:
            last = exc
    raise ValueError(f"could not generate feasible planted splits: {last}")


def _planted_once(rng, num_entities, num_relations, num_train, ookg_fraction,
                  task, valid_fraction, side, offset_pool):
    points = [(x, y) for x in range(side) for y in range(side)][:num_entities]
    perm = rng.permutation(num_entities)
    point_of = [points[perm[i]] for i in range(num_entities)]
    point_index = {p: i for i, p in enumerate(point_of)}
    chosen = rng.choice(len(offset_pool), size=num_relations, replace=False)
    offsets = [offset_pool[i] for i in chosen]

    all_triplets: list[tuple[int, int, int]] = []
    incident: dict[int, list[int]] = defaultdict(list)
    for e in range(num_entities):
        px, py = point_of[e]
        for j, (ox, oy) in enumerate(offsets):
            q = (px + ox, py + oy)
            other = point_index.get(q)
            if other is not None:
                idx = len(all_triplets)
                all_triplets.append((e, j, other))
                incident[e].append(idx)
                incident[other].append(idx)

    n_ookg = max(1, int(round(ookg_fraction * num_entities)))
    ookg: set[int] = set()
    locked: set[int] = set()
    for e in rng.permutation(num_entities):
        e = int(e)
        if len(ookg) == n_ookg:
            break
        if e in locked:
            continue
        partners = []
        for idx in incident[e]:
            h, _, t = all_triplets[idx]
            other = t if h == e else h
            if other not in ookg and other != e:
                partners.append(other)
        if len(partners) >= 2:
            ookg.add(e)
            locked.update(partners)
    if len(ookg) < n_ookg:
        raise _Infeasible("could not isolate enough out-of-graph entities")

    ikg_pool = [i for i, (h, _, t) in enumerate(all_triplets)
                if h not in ookg and t not in ookg]
    cross: dict[int, list[int]] = {e: [] for e in ookg}
    for idx, (h, _, t) in enumerate(all_triplets):
        if (h in ookg) != (t in ookg):
            cross[h if h in ookg else t].append(idx)

    # cover-first: keep every in-graph entity reachable from train
    rng.shuffle(ikg_pool)
    covered: set[int] = set()
    train_idx: list[int] = []
    remaining: list[int] = []
    for idx in ikg_pool:
        h, _, t = all_triplets[idx]
        if h not in covered or t not in covered:
            train_idx.append(idx)
            covered.add(h)
            covered.add(t)
        else:
            remaining.append(idx)
    if len(train_idx) > num_train:
        raise _Infeasible("num_train too small to cover the in-graph entities")
    fill = num_train - len(train_idx)
    if fill > len(remaining):
        raise _Infeasible("num_train exceeds the exact-triplet pool")
    train_idx += remaining[:fill]
    leftover = remaining[fill:]

    n_valid = max(1, int(round(valid_fraction * num_train)))
    if len(leftover) < n_valid:
        raise _Infeasible("no exact triplets left for validation")
    valid_idx = leftover[:n_valid]

    labeled = task == TASK_CLASSIFICATION
    covered_at = {point_of[e]: e for e in covered}

    def _adjacent_entity(target: tuple[int, int]) -> int | None:
        """Covered entity at L1 distance exactly 1 from ``target``.

        Keeps every negative at distance exactly 1 while positives sit at 0,
        so accuracy-maximizing thresholds land at 0.5 for every relation and
        classification is perfectly separable by construction.
        """
        tx, ty = target
        options = [covered_at.get(q) for q in
                   ((tx + 1, ty), (tx - 1, ty), (tx, ty + 1), (tx, ty - 1))]
        options = [e for e in options if e is not None]
        if not options:
            return None
        return options[int(rng.integers(len(options)))]

    def corrupt_tail(h: int, j: int) -> int | None:
        px, py = point_of[h]
        ox, oy = offsets[j]
        return _adjacent_entity((px + ox, py + oy))

    def corrupt_head(j: int, t: int) -> int | None:
        tx, ty = point_of[t]
        ox, oy = offsets[j]
        return _adjacent_entity((tx - ox, ty - oy))

    name = [f"e{i}" for i in range(num_entities)]
    rname = [f"r{j}" for j in range(num_relations)]

    def row(idx: int, label: int | None = None):
        h, j, t = all_triplets[idx]
        return (name[h], rname[j], name[t], label)

    train_rows = [row(i) for i in train_idx]
    valid_rows = []
    n_valid_neg = 0
    for i in valid_idx:
        h, j, t = all_triplets[i]
        valid_rows.append(row(i, 1 if labeled else None))
        if labeled:
            neg = corrupt_tail(h, j)
            if neg is not None:
                valid_rows.append((name[h], rname[j], name[neg], -1))
                n_valid_neg += 1
    if labeled and n_valid_neg == 0:
        raise _Infeasible("no validation negatives could be planted")

    aux_rows: list[tuple[str, str, str, int | None]] = []
    test_rows: list[tuple[str, str, str, int | None]] = []
    for e in sorted(ookg):
        usable = [i for i in cross[e]
                  if (all_triplets[i][0] if all_triplets[i][2] == e else all_triplets[i][2]) in covered]
        if len(usable) < 2:
            raise _Infeasible(f"out-of-graph entity {e} has too few usable edges")
        rng.shuffle(usable)
        n_test = 1 if len(usable) < 4 else 2
        for i in usable[:n_test]:
            h, j, t = all_triplets[i]
            test_rows.append(row(i, 1 if labeled else None))
            if labeled:
                if h == e:  # corrupt the in-graph tail, keep the OOKG head
                    neg = corrupt_tail(h, j)
                    if neg is not None:
                        test_rows.append((name[h], rname[j], name[neg], -1))
                else:
                    neg = corrupt_head(j, t)
                    if neg is not None:
                        test_rows.append((name[neg], rname[j], name[t], -1))
        for i in usable[n_test:]:
            aux_rows.append(row(i))

    splits = _assemble(task, *(tuple(zip(*r)) for r in (train_rows, valid_rows, aux_rows, test_rows)))
    entity_table = np.array([point_of[int(n[1:])] for n in splits.vocab.entity_names], dtype=np.float64)
    relation_table = np.array([offsets[int(n[1:])] for n in splits.vocab.relation_names], dtype=np.float64)
    tables = EmbeddingTables(TRANSE, 2, 1, entity_table, relation_table)
    return splits, tables


def generate_trainable_splits(seed: int, num_entities: int = 500, num_relations: int = 10,
                              num_train: int = 5000, ookg_fraction: float = 0.1,
                              *, task: str = TASK_LP, latent_dim: int = 4,
                              near_decay: float = 0.35, corrupt_fraction: float = 0.05,
                              skew: float = 0.8, cold_fraction: float = 0.35,
                              cold_degree: int = 2, cold_noise: float = 0.5,
                              aux_min: int = 3, aux_max: int = 8,
                              test_min: int = 1, test_max: int = 2,
                              valid_fraction: float = 0.1) -> tuple[BenchmarkSplits, EmbeddingTables]:
    """Noisy translational benchmark for end-to-end training experiments.

    Entities get latent points, relations latent offsets, and a triplet's
    missing side is drawn near point +- offset: among the nearest entities of
    the allowed pool with geometrically decaying rank probabilities (ratio
    ``near_decay``), plus a uniformly random entity with probability
    ``corrupt_fraction``. The structure is learnable by a translational model
    but never exactly satisfiable.

    A ``cold_fraction`` of the in-graph entities receives only ``cold_degree``
    training edges, drawn with an elevated corruption rate ``cold_noise``: a
    sparsely observed entity whose few edges are partly wrong ends up badly
    placed, while well-connected entities average their noise away. Auxiliary
    neighborhoods draw from the full entity pool (cold included) but test
    answers stay warm, so candidates produced via cold sources are genuinely
    unreliable, which is the signal degree-based weighting uses.
    Well-connected heads are additionally sampled with a Zipf-like ``skew``.

    Returns the splits plus the generating latent geometry packed as TransE
    tables (useful for demos; training normally starts from random tables).
    """
    task = _normalize_task(task)
    if not 0.0 < ookg_fraction < 1.0:
        raise ValueError("ookg_fraction must be strictly between 0 and 1")
    if not 0.0 < near_decay < 1.0:
        raise ValueError("near_decay must be strictly between 0 and 1")
    if not 0.0 <= cold_fraction < 1.0 or cold_degree < 1 or not 0.0 <= cold_noise <= 1.0:
        raise ValueError("cold_fraction in [0, 1), cold_degree >= 1, cold_noise in [0, 1]")
    last: Exception | None = None
    for attempt in range(3):
        rng = substream(seed, "trainable", attempt)
        try:
            return _trainable_once(rng, num_entities, num_relations, num_train, ookg_fraction,
                                   task, latent_dim, near_decay, corrupt_fraction, skew,
                                   cold_fraction, cold_degree, cold_noise,
                                   aux_min, aux_max, test_min, test_max, valid_fraction)
        except _Infeasible as exc:
            last = exc
    raise ValueError(f"could not generate feasible trainable splits: {last}")


def _trainable_once(rng, num_entities, num_relations, num_train, ookg_fraction, task,
                    latent_dim, near_decay, corrupt_fraction, skew, cold_fraction,
                    cold_degree, cold_noise, aux_min, aux_max, test_min, test_max,
                    valid_fraction):
    points = rng.uniform(0.0, 1.0, size=(num_entities, latent_dim))
    offsets = rng.uniform(-0.4, 0.4, size=(num_relations, latent_dim))

    n_ookg = max(1, int(round(ookg_fraction * num_entities)))
    if num_entities - n_ookg < 4:
        raise _Infeasible("fewer than four in-graph entities")
    perm = rng.permutation(num_entities)
    ookg = sorted(int(e) for e in perm[:n_ookg])
    ikg = sorted(int(e) for e in perm[n_ookg:])
    ikg_perm = rng.permutation(len(ikg))
    n_cold = int(round(cold_fraction * len(ikg)))
    cold = sorted(ikg[i] for i in ikg_perm[:n_cold])
    warm = sorted(ikg[i] for i in ikg_perm[n_cold:])
    if len(warm) < 4:
        raise _Infeasible("fewer than four well-connected entities")
    cold_set = set(cold)

    top_k = 8

    def build_topk(pool: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Nearest pool entities per (entity, relation, direction), computed once."""
        pool_arr = np.array(pool)
        pool_pts = points[pool_arr]
        kk = min(top_k, len(pool))
        tail = np.empty((num_entities, num_relations, kk), dtype=np.int64)
        head = np.empty((num_entities, num_relations, kk), dtype=np.int64)
        rows = np.arange(num_entities)[:, None]
        for rel in range(num_relations):
            for table, sign in ((tail, 1.0), (head, -1.0)):
                targets = points + sign * offsets[rel]
                dists = np.abs(targets[:, None, :] - pool_pts[None, :, :]).sum(axis=2)
                if kk < len(pool):
                    part = np.argpartition(dists, kk, axis=1)[:, :kk]
                else:
                    part = np.broadcast_to(np.arange(kk), (num_entities, kk))
                order = np.argsort(dists[rows, part], axis=1)
                table[:, rel, :] = pool_arr[part[rows, order]]
        return tail, head

    tail_warm, head_warm = build_topk(warm)
    tail_all, head_all = build_topk(ikg)

    # rank-decay over the top-k keeps the structure strong but the pool wide
    decay = np.cumsum([(1.0 - near_decay) * near_decay ** k for k in range(top_k)])
    decay /= decay[-1]

    def draw(cands_row: np.ndarray, pool_list: list[int], self_id: int) -> int | None:
        if rng.random() < corrupt_fraction:
            c = pool_list[int(rng.integers(len(pool_list)))]
            return None if c == self_id else c
        walk = [int(c) for c in cands_row if c != self_id]
        if not walk:
            return None
        k = int(np.searchsorted(decay, rng.random(), side="right"))
        return walk[min(k, len(walk) - 1)]

    def draw_uniform(pool_list: list[int]) -> int:
        return pool_list[int(rng.integers(len(pool_list)))]

    def incident(e: int, tail_tab: np.ndarray, head_tab: np.ndarray,
                 pool_list: list[int]) -> tuple[int, int, int] | None:
        rel = int(rng.integers(num_relations))
        if rng.random() < 0.5:
            other = draw(tail_tab[e, rel], pool_list, e)
            return None if other is None else (e, rel, other)
        other = draw(head_tab[e, rel], pool_list, e)
        return None if other is None else (other, rel, e)

    train: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()

    def add_train(trip) -> bool:
        if trip is None or trip[0] == trip[2] or trip in seen:
            return False
        seen.add(trip)
        train.append(trip)
        return True

    # seeding: every in-graph entity appears; cold ones get only cold_degree
    # edges, and those edges are wrong with probability cold_noise
    for e in ikg:
        is_cold = e in cold_set
        want = cold_degree if is_cold else 1
        made = 0
        for _ in range(60):
            if made >= want:
                break
            if is_cold and rng.random() < cold_noise:
                rel = int(rng.integers(num_relations))
                other = draw_uniform(warm)
                trip = (e, rel, other) if rng.random() < 0.5 else (other, rel, e)
            else:
                trip = incident(e, tail_warm, head_warm, warm)
            if add_train(trip):
                made += 1
        if made == 0:
            raise _Infeasible(f"could not seed entity {e}")
    if len(train) > num_train:
        raise _Infeasible("num_train too small to seed every in-graph entity")

    # fill: warm-to-warm edges with Zipf-skewed head sampling
    rank = rng.permutation(len(warm)).astype(np.float64)
    head_w = (rank + 1.0) ** (-skew)
    head_w /= head_w.sum()
    warm_arr = np.array(warm)
    head_stream = warm_arr[rng.choice(len(warm), size=6 * num_train, p=head_w)]
    for h in head_stream:
        if len(train) >= num_train:
            break
        h = int(h)
        rel = int(rng.integers(num_relations))
        add_train(None if (t := draw(tail_warm[h, rel], warm, h)) is None else (h, rel, t))
    if len(train) < num_train:
        raise _Infeasible("distinct-triplet pool exhausted")

    labeled = task == TASK_CLASSIFICATION
    positive = set(seen)

    valid: list[tuple[int, int, int, int | None]] = []
    n_valid = max(1, int(round(valid_fraction * num_train)))
    budget = 60 * n_valid
    got = 0
    while got < n_valid and budget > 0:
        budget -= 1
        h = draw_uniform(warm)
        rel = int(rng.integers(num_relations))
        t = draw(tail_warm[h, rel], warm, h)
        trip = (h, rel, t)
        if t is None or trip in positive:
            continue
        positive.add(trip)
        valid.append((*trip, 1 if labeled else None))
        got += 1
        if labeled:
            for _ in range(30):
                t2 = draw_uniform(ikg)
                if (h, rel, t2) not in positive and t2 != h:
                    valid.append((h, rel, t2, -1))
                    break
    if got == 0:
        raise _Infeasible("no validation triplets could be drawn")

    aux: list[tuple[int, int, int, None]] = []
    test: list[tuple[int, int, int, int | None]] = []
    for e in ookg:
        used: set[tuple[int, int, int]] = set()
        want_aux = int(rng.integers(aux_min, aux_max + 1))
        budget = 60 * want_aux
        while len(used) < want_aux and budget > 0:
            budget -= 1
            trip = incident(e, tail_all, head_all, ikg)  # cold sources allowed
            if trip is not None and trip not in used:
                used.add(trip)
                aux.append((*trip, None))
        if not used:
            raise _Infeasible(f"no aux edge for out-of-graph entity {e}")
        positive |= used

        want_test = int(rng.integers(test_min, test_max + 1))
        got = 0
        budget = 60 * want_test
        while got < want_test and budget > 0:
            budget -= 1
            trip = incident(e, tail_warm, head_warm, warm)  # answers stay warm
            if trip is None or trip in positive:
                continue
            positive.add(trip)
            test.append((*trip, 1 if labeled else None))
            got += 1
            if labeled:
                h, rel, t = trip
                for _ in range(30):
                    sub = draw_uniform(ikg)
                    neg = (h, rel, sub) if h == e else (sub, rel, t)
                    if neg not in positive and neg[0] != neg[2]:
                        test.append((*neg, -1))
                        break
        if got == 0:
            raise _Infeasible(f"no test edge for out-of-graph entity {e}")

    name = [f"e{i}" for i in range(num_entities)]
    rname = [f"r{j}" for j in range(num_relations)]

    def rows(items):
        return [(name[h], rname[r], name[t], lab) for h, r, t, lab in items]

    splits = _assemble(task, *(tuple(zip(*r)) for r in (rows([(h, r, t, None) for h, r, t in train]),
                                                        rows(valid), rows(aux), rows(test))))
    entity_table = points[[int(n[1:]) for n in splits.vocab.entity_names]]
    relation_table = offsets[[int(n[1:]) for n in splits.vocab.relation_names]]
    tables = EmbeddingTables(TRANSE, latent_dim, 1, entity_table, relation_table)
    return splits, tables
