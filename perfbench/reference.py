"""Independent re-computation of the pipeline's outputs from the files it wrote.

Nothing here imports the program: split files and checkpoints are parsed from
their documented formats, and candidates, correlation and degree weights,
filtered ranking with mean tie rank and the per-relation threshold sweep are
written out again from their definitions. The benchmark compares these figures
with what ``invkge eval`` reports.
"""

from __future__ import annotations

import csv
import math
import struct
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLITS = ("train", "valid", "aux", "test")
_HEADER = struct.Struct("<4sHBBIIIQ")
_MODELS = ("transe", "rotate")


@dataclass
class Splits:
    entities: list[str]
    relations: list[str]
    train: np.ndarray          # (n, 3) ids
    valid: np.ndarray
    aux: np.ndarray
    test: np.ndarray
    valid_labels: np.ndarray | None
    test_labels: np.ndarray | None


def read_splits(directory: str | Path, labeled: bool) -> Splits:
    """Parse the four TSV files, assigning ids in first-seen order."""
    ent: dict[str, int] = {}
    rel: dict[str, int] = {}
    arrays, labels = {}, {}
    for name in SPLITS:
        rows, labs = [], []
        with open(Path(directory) / f"{name}.txt", encoding="utf-8") as f:
            for line in f:
                cols = line.rstrip("\n").split("\t")
                if cols == [""]:
                    continue
                h = ent.setdefault(cols[0], len(ent))
                r = rel.setdefault(cols[1], len(rel))
                t = ent.setdefault(cols[2], len(ent))
                rows.append((h, r, t))
                if labeled and name in ("valid", "test"):
                    labs.append(1 if cols[3] == "1" else -1)
        arrays[name] = np.array(rows, dtype=np.int64).reshape(-1, 3)
        labels[name] = np.array(labs, dtype=np.int64) if labs else None
    return Splits(list(ent), list(rel), arrays["train"], arrays["valid"], arrays["aux"],
                  arrays["test"], labels["valid"], labels["test"])


@dataclass
class Checkpoint:
    model: str
    norm_order: int
    dim: int
    entity: np.ndarray      # (n, d) real for TransE, complex for RotatE
    relation: np.ndarray    # (n_rel, d) real vectors, or unit complex for RotatE


def read_checkpoint(path: str | Path) -> Checkpoint:
    raw = Path(path).read_bytes()
    magic, _, model_code, norm, dim, n_ent, n_rel, _ = _HEADER.unpack_from(raw)
    if magic != b"IKGE" or model_code >= len(_MODELS):
        raise ValueError(f"{path}: not a checkpoint this benchmark can read")
    model = _MODELS[model_code]
    width = 2 * dim if model == "rotate" else dim
    body = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).astype(np.float64)
    if body.size != n_ent * width + n_rel * dim:
        raise ValueError(f"{path}: size does not match its header")
    entity = body[:n_ent * width].reshape(n_ent, width)
    relation = body[n_ent * width:].reshape(n_rel, dim)
    if model == "rotate":
        entity = np.ascontiguousarray(entity).view(np.complex128)
        relation = np.exp(1j * relation)
    return Checkpoint(model, norm, dim, entity, relation)


def distances(ck: Checkpoint, h, r, t) -> np.ndarray:
    """Broadcast distance of raw head / relation / tail vectors."""
    u = h * r - t if ck.model == "rotate" else h + r - t
    a = np.abs(u)
    return a.sum(axis=-1) if ck.norm_order == 1 else np.sqrt((a * a).sum(axis=-1))


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)]


class Estimator:
    """Closed-form OOKG embeddings with correlation, degree or uniform weights."""

    def __init__(self, ck: Checkpoint, sp: Splits, smoothing: float = 0.1):
        self.ck = ck
        self.smoothing = smoothing
        train = _unique_rows(sp.train)
        self.ikg = set(train[:, [0, 2]].ravel().tolist())
        self.degree = np.bincount(train[:, [0, 2]].ravel(), minlength=len(sp.entities))
        rel_sets: dict[int, set[int]] = defaultdict(set)
        for h, r, t in train.tolist():
            rel_sets[h].add(r)
            rel_sets[t].add(r)
        n_rel = len(sp.relations)
        count = np.zeros((n_rel, n_rel))
        for rels in rel_sets.values():
            idx = np.array(sorted(rels))
            count[np.ix_(idx, idx)] += 1.0
        support = np.diag(count).copy()
        self.cond = np.divide(count, support[:, None], out=np.zeros_like(count),
                              where=support[:, None] > 0)
        # (source entity, relation, role of the OOKG entity) per aux edge,
        # head-role edges first, each group in file order
        out_edges: dict[int, list] = defaultdict(list)
        in_edges: dict[int, list] = defaultdict(list)
        for h, r, t in _unique_rows(sp.aux).tolist():
            out_edges[h].append((t, r, "head"))
            in_edges[t].append((h, r, "tail"))
        self.edges = {e: out_edges.get(e, []) + in_edges.get(e, [])
                      for e in set(out_edges) | set(in_edges)}
        self._cands: dict[int, tuple | None] = {}

    def candidates(self, entity: int):
        if entity not in self._cands:
            rows = [(src, r, role) for src, r, role in self.edges.get(entity, [])
                    if src in self.ikg]
            if not rows:
                self._cands[entity] = None
            else:
                src = np.array([s for s, _, _ in rows])
                rel = np.array([r for _, r, _ in rows])
                as_head = np.array([role == "head" for _, _, role in rows])
                other = self.ck.entity[src]
                rv = self.ck.relation[rel]
                if self.ck.model == "rotate":
                    vec = np.where(as_head[:, None], other * np.conj(rv), other * rv)
                else:
                    vec = np.where(as_head[:, None], other - rv, other + rv)
                self._cands[entity] = (src, rel, vec)
        return self._cands[entity]

    def embed(self, entity: int, scheme: str, query_relation: int | None = None):
        cands = self.candidates(entity)
        if cands is None:
            return None
        src, rel, vec = cands
        if scheme == "degree":
            raw = np.log(self.degree[src] + self.smoothing)
        elif scheme == "correlation":
            raw = self.cond[query_relation, rel] + self.cond[rel, query_relation]
        else:
            raw = np.ones(len(src))
        raw = np.clip(raw, 0.0, None)
        w = raw / raw.sum() if raw.sum() > 0 else np.full(len(src), 1.0 / len(src))
        return w @ vec


def _positives(rows: np.ndarray, labels: np.ndarray | None) -> np.ndarray:
    return rows if labels is None else rows[labels == 1]


def link_prediction_mrr(ck: Checkpoint, sp: Splits, scheme: str = "correlation") -> tuple[float, int]:
    """Filtered MRR over the test positives with one OOKG side, and the query count."""
    est = Estimator(ck, sp)
    cids = np.array(sorted(est.ikg))
    known_true = {tuple(x) for part in (sp.train, sp.aux, _positives(sp.valid, sp.valid_labels),
                                        _positives(sp.test, sp.test_labels))
                  for x in part.tolist()}
    tails_of: dict[tuple, set] = defaultdict(set)
    heads_of: dict[tuple, set] = defaultdict(set)
    for h, r, t in known_true:
        tails_of[(h, r)].add(t)
        heads_of[(r, t)].add(h)
    recip = []
    for h, r, t in _positives(sp.test, sp.test_labels).tolist():
        h_out, t_out = h not in est.ikg, t not in est.ikg
        if h_out and t_out:
            continue
        if h_out:
            known, answer, filt = h, t, tails_of[(h, r)]
        else:
            known, answer, filt = t, h, heads_of[(r, t)]
        keep = ~np.isin(cids, [e for e in filt if e != answer])
        vec = est.embed(known, scheme, r)
        if vec is None:
            recip.append(1.0 / np.count_nonzero(keep))
            continue
        if h_out:
            d = distances(ck, vec, ck.relation[r], ck.entity[cids])
        else:
            d = distances(ck, ck.entity[cids], ck.relation[r], vec)
        gt = d[cids == answer][0]
        kept = d[keep]
        rank = np.count_nonzero(kept < gt) + (1 + np.count_nonzero(kept == gt)) / 2.0
        recip.append(1.0 / rank)
    return float(np.mean(recip)), len(recip)


def best_threshold(d: np.ndarray, positive: np.ndarray) -> float:
    """Smallest cutoff c maximizing #(pos with d <= c) + #(neg with d > c)."""
    uniq = np.unique(d)
    cuts = np.concatenate([[-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]])
    best, best_correct = -np.inf, -1
    for c in cuts:
        correct = np.count_nonzero(positive & (d <= c)) + np.count_nonzero(~positive & (d > c))
        if correct > best_correct:
            best, best_correct = float(c), correct
    return best


def classification_accuracy(ck: Checkpoint, sp: Splits, scheme: str = "degree") -> tuple[float, int]:
    """Accuracy over the labeled test split with thresholds swept on validation."""
    v = sp.valid
    dv = distances(ck, ck.entity[v[:, 0]], ck.relation[v[:, 1]], ck.entity[v[:, 2]])
    pos = sp.valid_labels == 1
    per_rel = {int(r): best_threshold(dv[v[:, 1] == r], pos[v[:, 1] == r])
               for r in np.unique(v[:, 1])}
    default = best_threshold(dv, pos)
    est = Estimator(ck, sp)

    def vec(e: int):
        return ck.entity[e] if e in est.ikg else est.embed(e, scheme)

    correct = 0
    for (h, r, t), label in zip(sp.test.tolist(), sp.test_labels.tolist()):
        hv, tv = vec(h), vec(t)
        if hv is None or tv is None:
            pred = -1
        else:
            pred = 1 if distances(ck, hv, ck.relation[r], tv) <= per_rel.get(r, default) else -1
        correct += pred == label
    return correct / len(sp.test), len(sp.test)


def random_mrr(num_candidates: int) -> float:
    """MRR of a uniformly random ranking over ``num_candidates`` entities."""
    return float(np.mean(1.0 / np.arange(1, num_candidates + 1)))


def read_report(path: str | Path) -> dict[str, str]:
    with open(path, encoding="utf-8", newline="") as f:
        return next(csv.DictReader(f))


def read_losses(path: str | Path) -> list[float]:
    with open(path, encoding="utf-8", newline="") as f:
        return [float(row["loss"]) for row in csv.DictReader(f)]


def losses_ok(losses: list[float]) -> bool:
    return bool(losses) and all(math.isfinite(x) and x >= 0.0 for x in losses)
