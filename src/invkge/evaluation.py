"""Filtered link-prediction ranking, triplet classification, and ablations.

Ranking is over the in-graph entity set with the filtered protocol: every
candidate that forms a known-true triplet with the query (other than the
ground truth itself) is removed before the rank is computed. Ties are broken
by the mean of the best and worst tied positions. Classification applies
relation-specific distance thresholds tuned for accuracy on the labeled
validation split.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import AS_HEAD, AS_TAIL, Triplet, TripleStore, segment_rows
from .datasets import BenchmarkSplits
from .estimation import cap_neighbors, estimate_candidates
from .models import EmbeddingTables, translation_distance
from .reduction import (CORRELATION, DEGREE, DEFAULT_SMOOTHING, build_correlation,
                        candidate_weights, reduce_candidates)

logger = logging.getLogger(__name__)

ABLATION_VARIANTS = ("cap1", "cap8", "cap32", "uniform", "ratio")

_RANK_BLOCK_BYTES = 256 * 1024  # entity-table bytes scored per block in filtered_rank


class FilterIndex(TripleStore):
    """Known-true triplets, looked up to filter ranking candidates."""

    def keep_mask(self, query: LpQuery, cids: np.ndarray) -> np.ndarray:
        """Candidates kept by the filtered protocol.

        A candidate is dropped when it forms a known-true triplet with the
        query, unless it is the answer.
        """
        if query.missing == AS_TAIL:
            known = self.contains(query.known_entity, query.relation, cids)
        else:
            known = self.contains(cids, query.relation, query.known_entity)
        return ~known | (cids == query.answer)


@dataclass
class LpQuery:
    """One ranking query: a known side, a relation, and the entity to recover."""

    known_entity: int
    known_vec: np.ndarray
    relation: int
    missing: str  # AS_HEAD or AS_TAIL: the slot being ranked
    answer: int


@dataclass
class Thresholds:
    """Per-relation distance cutoffs; unseen relations fall back to ``default``."""

    per_relation: dict[int, float]
    default: float

    def for_relation(self, relation: int) -> float:
        return self.per_relation.get(relation, self.default)


@dataclass
class EvalReport:
    task: str
    num_queries: int
    mrr: float | None = None
    hits1: float | None = None
    hits10: float | None = None
    accuracy: float | None = None
    counts: dict[str, int] = field(default_factory=dict)
    config: dict = field(default_factory=dict)


def filtered_rank(tables: EmbeddingTables, query: LpQuery, filter_index: FilterIndex,
                  candidate_ids: np.ndarray) -> float:
    """Rank (>= 1) of the ground truth among the candidates, filtered.

    Candidates other than the answer that form a known-true triplet with the
    query are dropped; ties are resolved to the mean of the optimistic and
    pessimistic positions. Distances are taken against every row of the
    entity table in place, one contiguous block of rows at a time so that a
    block's temporaries stay in cache; each row gets the same arithmetic as a
    whole-table call, so the distances are bit-identical to one. The kept
    candidates are selected from them by a mask.
    """
    cids = np.asarray(candidate_ids)
    if not np.any(cids == query.answer):
        raise ValueError(f"ground truth {query.answer} is not among the candidates")
    ent = tables.entity_matrix()
    rel = tables.relation_vec(query.relation)
    dists = np.empty(len(ent))
    step = max(1, _RANK_BLOCK_BYTES // (ent.shape[1] * ent.itemsize))
    for lo in range(0, len(ent), step):
        block = ent[lo:lo + step]
        h, t = (query.known_vec, block) if query.missing == AS_TAIL else (block, query.known_vec)
        dists[lo:lo + step] = translation_distance(tables.model, tables.norm_order, h, rel, t)
    keep = np.zeros(len(ent), dtype=bool)
    keep[cids] = filter_index.keep_mask(query, cids)
    gt_d = dists[query.answer]
    kept = dists[keep]
    better = int(np.count_nonzero(kept < gt_d))
    tied = int(np.count_nonzero(kept == gt_d))  # includes the ground truth
    return better + (1 + tied) / 2.0


def embed_ookg(tables: EmbeddingTables, splits: BenchmarkSplits, scheme: str,
               entities: np.ndarray | Sequence[int],
               relations: np.ndarray | Sequence[int] | None, *,
               smoothing: float = DEFAULT_SMOOTHING,
               neighbor_cap: int | None = None, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Reduced embeddings of the OOKG ``entities``, queried with ``relations``.

    Returns ``(vectors, found)``: row i embeds ``entities[i]``, and
    ``found[i]`` is False (the row is left zero) when the entity has no usable
    aux neighbor. Each entity is estimated and capped once. Correlation
    weights depend on the query relation, so they reduce each unique
    (entity, relation) pair once; the other schemes reduce each entity once
    and ignore ``relations``, which may then be None.
    """
    n_ent, n_rel = splits.vocab.num_entities, splits.vocab.num_relations
    aux_store = TripleStore(splits.aux, num_entities=n_ent, num_relations=n_rel)
    train_store = TripleStore(splits.train, num_entities=n_ent, num_relations=n_rel)
    correlation = build_correlation(train_store, n_rel) if scheme == CORRELATION else None
    entities = np.asarray(entities, dtype=np.int64)
    query = np.asarray(relations, dtype=np.int64) if scheme == CORRELATION else np.zeros_like(entities)
    pairs, inverse = np.unique(np.stack([entities, query], axis=1), axis=0, return_inverse=True)
    cset = estimate_candidates(tables, aux_store, np.unique(pairs[:, 0]), splits.ikg_entities)
    if neighbor_cap is not None:
        cset = cap_neighbors(cset, neighbor_cap, seed)
    found = np.isin(pairs[:, 0], cset.entities)
    seg = np.searchsorted(cset.entities, pairs[found, 0])
    counts = cset.counts[seg]
    pair_set = cset.take(seg, segment_rows(cset.offsets[seg], counts), counts)
    weights = candidate_weights(scheme, pair_set, correlation=correlation,
                                query_relation=pairs[found, 1], train_store=train_store,
                                smoothing=smoothing)
    reduced = reduce_candidates(pair_set, weights)
    vectors = np.zeros((len(pairs), reduced.shape[1]), dtype=reduced.dtype)
    vectors[found] = reduced
    inverse = inverse.reshape(-1)
    return vectors[inverse], found[inverse]


def link_prediction(tables: EmbeddingTables, splits: BenchmarkSplits,
                    scheme: str = CORRELATION, *,
                    smoothing: float = DEFAULT_SMOOTHING,
                    neighbor_cap: int | None = None, seed: int = 0) -> EvalReport:
    """Filtered MRR / Hits@1 / Hits@10 over the test split.

    For each test triplet the OOKG side is estimated and reduced (per query
    relation when the scheme is correlation-based) and the missing in-graph
    entity is ranked against all in-graph entities. Dangling OOKG entities
    receive the worst post-filter rank and are counted in the report. A test
    triplet whose two sides are both OOKG has no in-graph answer to rank, so it
    is skipped and counted in ``skipped_both_ookg`` (triplet classification
    has no candidate set and estimates both sides instead).
    """
    # Train and valid triplets hold only in-graph entities and a query's known side is
    # out-of-graph, so they can never match a query; only aux and test are indexed.
    test, labels = splits.test, splits.test_labels
    positive = np.ones(len(test), dtype=bool) if labels is None else labels == 1
    findex = FilterIndex(np.concatenate([splits.aux, test[positive]]),
                         splits.vocab.num_entities, splits.vocab.num_relations)
    cids = splits.ikg_entities
    if cids.size == 0:
        raise ValueError("no in-graph entities to rank over")
    is_ookg = np.isin(test[:, [0, 2]], splits.ookg_entities)
    both_ookg = positive & is_ookg.all(axis=1)
    counts: dict[str, int] = {}
    for key, mask in (("negatives_skipped", ~positive), ("skipped_both_ookg", both_ookg)):
        if mask.any():
            counts[key] = int(np.count_nonzero(mask))

    # one query per remaining triplet: the known OOKG side, the relation, the side to rank
    # and its answer; validation guarantees that every test triplet touches an OOKG entity
    asked = positive & ~both_ookg
    if not asked.any():
        raise ValueError("no evaluable test triplets")
    rows, tail_missing = test[asked], is_ookg[asked, 0]
    known = np.where(tail_missing, rows[:, 0], rows[:, 2])
    answers = np.where(tail_missing, rows[:, 2], rows[:, 0])
    vectors, found = embed_ookg(tables, splits, scheme, known, rows[:, 1], smoothing=smoothing,
                                neighbor_cap=neighbor_cap, seed=seed)
    if not found.all():
        counts["dangling"] = int(np.count_nonzero(~found))
    ranks = np.empty(len(rows))
    for i, (entity, relation, tail, answer) in enumerate(zip(
            known.tolist(), rows[:, 1].tolist(), tail_missing.tolist(), answers.tolist())):
        query = LpQuery(entity, vectors[i] if found[i] else None, relation,
                        AS_TAIL if tail else AS_HEAD, answer)
        if found[i]:
            ranks[i] = filtered_rank(tables, query, findex, cids)
        else:  # dangling: the worst possible rank
            ranks[i] = np.count_nonzero(findex.keep_mask(query, cids))
    return EvalReport(
        task="lp",
        num_queries=len(ranks),
        mrr=float(np.mean(1.0 / ranks)),
        hits1=float(np.mean(ranks <= 1)),
        hits10=float(np.mean(ranks <= 10)),
        counts=counts,
        config={"scheme": scheme, "neighbor_cap": neighbor_cap, "seed": seed,
                "smoothing": smoothing},
    )


def tune_thresholds(tables: EmbeddingTables, valid: np.ndarray | Sequence[Triplet],
                    labels: np.ndarray | Sequence[int]) -> Thresholds:
    """Relation-specific cutoffs maximizing validation accuracy.

    Candidate cutoffs are the midpoints between consecutive distinct
    validation distances plus -inf / +inf; among accuracy ties the smallest
    cutoff wins. The ``default`` threshold is tuned the same way on the
    pooled validation set and serves relations absent from validation.
    """
    if not len(valid):
        raise ValueError("validation set is empty")
    if labels is None or len(labels) != len(valid):
        raise ValueError("labeled validation triplets required")
    data = np.asarray(valid, dtype=np.int64)
    ent = tables.entity_matrix()
    dists = translation_distance(tables.model, tables.norm_order, ent[data[:, 0]],
                                 tables.relation_vec(data[:, 1]), ent[data[:, 2]])
    y = np.asarray(labels) == 1

    per_relation: dict[int, float] = {}
    for rel in np.unique(data[:, 1]):
        mask = data[:, 1] == rel
        per_relation[int(rel)] = _best_threshold(dists[mask], y[mask])
    default = _best_threshold(dists, y)
    return Thresholds(per_relation, default)


def _best_threshold(dists: np.ndarray, positive: np.ndarray) -> float:
    """Smallest cutoff maximizing accuracy of 'positive iff distance <= cutoff'."""
    order = np.argsort(dists, kind="stable")
    ds = dists[order]
    ys = positive[order]
    uniq = np.unique(ds)
    cands = np.concatenate([[-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]])
    pos_cum = np.concatenate([[0], np.cumsum(ys)])
    neg_cum = np.concatenate([[0], np.cumsum(~ys)])
    k = np.searchsorted(ds, cands, side="right")
    correct = pos_cum[k] + (neg_cum[-1] - neg_cum[k])
    return float(cands[np.argmax(correct)])  # the first maximum is the smallest cutoff


def triplet_classification(tables: EmbeddingTables, splits: BenchmarkSplits,
                           scheme: str = DEGREE, *,
                           thresholds: Thresholds | None = None,
                           smoothing: float = DEFAULT_SMOOTHING,
                           neighbor_cap: int | None = None, seed: int = 0) -> EvalReport:
    """Accuracy of thresholded distances on the labeled test split.

    OOKG sides (one or both) are estimated from their own aux neighborhoods;
    a triplet with a dangling OOKG entity is classified negative. Thresholds
    are tuned on the validation split when not supplied.
    """
    if splits.test_labels is None or splits.valid_labels is None:
        raise ValueError("triplet classification needs labeled valid/test splits")
    if thresholds is None:
        thresholds = tune_thresholds(tables, splits.valid, splits.valid_labels)
    if not len(splits.test):
        raise ValueError("no evaluable test triplets")
    ends = splits.test[:, [0, 2]]  # (n, 2): head and tail ids
    rel = splits.test[:, 1]
    is_ookg = np.isin(ends, splits.ookg_entities)
    vectors, found = embed_ookg(tables, splits, scheme, ends[is_ookg],
                                np.broadcast_to(rel[:, None], ends.shape)[is_ookg],
                                smoothing=smoothing, neighbor_cap=neighbor_cap, seed=seed)
    rows = tables.entity_matrix()[ends].astype(vectors.dtype)  # float32 would round the estimates
    rows[is_ookg] = vectors
    usable = np.ones(ends.shape, dtype=bool)
    usable[is_ookg] = found
    usable = usable.all(axis=1)  # a triplet with a dangling side is predicted negative
    dists = translation_distance(tables.model, tables.norm_order, rows[:, 0],
                                 tables.relation_vec(rel), rows[:, 1])
    cutoffs = np.array([thresholds.for_relation(r) for r in range(splits.vocab.num_relations)])
    predicted = np.where(usable & (dists <= cutoffs[rel]), 1, -1)
    correct = predicted == splits.test_labels
    counts = {"dangling": int(np.count_nonzero(~usable))} if not usable.all() else {}
    return EvalReport(
        task="classification",
        num_queries=len(correct),
        accuracy=float(np.mean(correct)),
        counts=counts,
        config={"scheme": scheme, "neighbor_cap": neighbor_cap, "seed": seed,
                "smoothing": smoothing},
    )


def ablate(tables: EmbeddingTables, splits: BenchmarkSplits, variants: list[str], *,
           task: str = "lp", scheme: str | None = None,
           smoothing: float = DEFAULT_SMOOTHING, seed: int = 0,
           ratio_runs: list[tuple[str, EmbeddingTables, BenchmarkSplits]] | None = None,
           ) -> list[tuple[str, EvalReport]]:
    """Run the requested ablation variants and return (name, report) pairs.

    ``capK`` variants keep at most K randomly chosen candidates per entity,
    ``uniform`` replaces the weighting scheme, and ``ratio`` re-runs the base
    evaluation on each (name, tables, splits) entry of ``ratio_runs`` (one
    dataset per OOKG ratio).
    """
    base_scheme = scheme or (CORRELATION if task == "lp" else DEGREE)

    def run(run_tables, run_splits, run_scheme, cap):
        if task == "lp":
            return link_prediction(run_tables, run_splits, run_scheme, smoothing=smoothing,
                                   neighbor_cap=cap, seed=seed)
        return triplet_classification(run_tables, run_splits, run_scheme, smoothing=smoothing,
                                      neighbor_cap=cap, seed=seed)

    results: list[tuple[str, EvalReport]] = []
    for variant in variants:
        if variant == "uniform":
            results.append((variant, run(tables, splits, "uniform", None)))
        elif variant.startswith("cap") and variant[3:].isdigit():
            results.append((variant, run(tables, splits, base_scheme, int(variant[3:]))))
        elif variant == "ratio":
            if not ratio_runs:
                raise ValueError("ratio variant requires per-dataset (tables, splits) runs")
            for name, run_tables, run_splits in ratio_runs:
                results.append((f"ratio:{name}", run(run_tables, run_splits, base_scheme, None)))
        else:
            raise ValueError(f"unknown ablation variant {variant!r}")
    return results


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("label", "task", "num_queries", "mrr", "hits_at_1", "hits_at_10",
                "accuracy", "dangling", "skipped_both_ookg")


def format_report(label: str, report: EvalReport) -> str:
    lines = [f"== {label} ({report.task}) ==", f"queries: {report.num_queries}"]
    if report.mrr is not None:
        lines += [f"MRR:     {report.mrr:.4f}",
                  f"Hits@1:  {report.hits1:.4f}",
                  f"Hits@10: {report.hits10:.4f}"]
    if report.accuracy is not None:
        lines.append(f"accuracy: {report.accuracy:.4f}")
    for key in sorted(report.counts):
        lines.append(f"{key}: {report.counts[key]}")
    for key in sorted(report.config):
        lines.append(f"config.{key}: {report.config[key]}")
    return "\n".join(lines) + "\n"


def write_report_csv(path: str | Path, reports: list[tuple[str, EvalReport]]) -> None:
    def fmt(x) -> str:
        return "" if x is None else f"{x:.6f}" if isinstance(x, float) else str(x)

    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(_CSV_COLUMNS) + "\n")
        for label, rep in reports:
            row = [label, rep.task, rep.num_queries, rep.mrr, rep.hits1, rep.hits10,
                   rep.accuracy, rep.counts.get("dangling", 0),
                   rep.counts.get("skipped_both_ookg", 0)]
            f.write(",".join(fmt(x) for x in row) + "\n")
