"""Filtered link-prediction ranking and triplet classification of OOKG entities.

Ranking is over the in-graph entity set with the filtered protocol: every
candidate that forms a known-true triplet with the query (other than the
ground truth itself) is removed before the rank is computed. Ties are broken
by the mean of the best and worst tied positions. A query scores every row in
float32 first and re-computes in float64 only the rows whose float32 distance
lies within a proven error bound of the answer's, so its rank is exactly that
of the float64 distances (see :func:`filtered_rank`). Classification applies
relation-specific distance thresholds tuned for accuracy on the labeled
validation split.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import TripleStore
from .datasets import BenchmarkSplits
from .estimation import cap_neighbors, estimate_candidates
from .models import ROTATE, EmbeddingTables, _write_csv, translation_distance
from .reduction import (CORRELATION, DEGREE, DEFAULT_SMOOTHING, build_correlation,
                        candidate_weights, reduce_candidates)

logger = logging.getLogger(__name__)

_RANK_BLOCK_BYTES = 256 * 1024  # row bytes scored per block in filtered_rank and _triplet_distances


class FilterIndex(TripleStore):
    """Known-true triplets, looked up to filter ranking candidates."""

    def partners(self, known, relations, tail_missing) -> tuple[np.ndarray, np.ndarray]:
        """Known-true partners of query i: ``ids[offsets[i]:offsets[i + 1]]`` of ``(ids, offsets)``.

        Query i asks for the tails ``t`` of ``(known[i], relations[i], t)`` if
        ``tail_missing[i]``, else for the heads ``h`` of ``(h, relations[i], known[i])``.
        """
        other, relation, as_head, offsets = self.incident(known)
        query = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        hit = ((relation == np.asarray(relations)[query])
               & (as_head == np.asarray(tail_missing, dtype=bool)[query]))
        return other[hit], np.concatenate([[0], np.cumsum(hit)])[offsets]


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


def filtered_rank(tables: EmbeddingTables, known_vec: np.ndarray, relation: int,
                  tail_missing: bool, answer: int, keep: np.ndarray) -> float:
    """Rank (>= 1) of entity ``answer`` in the missing slot of query
    ``(known_vec, relation, ?)`` if ``tail_missing``, else ``(?, relation, known_vec)``.

    ``keep`` is a boolean mask over the entity table's rows: the answer is
    ranked against the rows it marks and always against itself, whatever its
    own entry. The filtered protocol marks the candidates less the query's
    known-true partners (:meth:`FilterIndex.partners`). Ties are resolved to the
    mean of the optimistic and pessimistic positions. The rank is that of the
    float64 distances exactly, found in two passes:

    * Screen: every row of the entity table is scored in float32 (complex64
      for RotatE) against the query vector and relation rounded once to
      float32, one contiguous block of rows at a time so that a block's
      temporaries stay in cache. Each block is cast with ``copy=False``, so a
      float64 table and its float32 copy give the same screen.
    * Re-check: the answer's distance ``gt`` is computed in float64, float32
      rows promoted exactly, as is any kept row unless its screened distance
      ``d32`` satisfies ``|d32 - gt| > c * (A + max(d32, gt))``. That proves the
      row's float64 distance lies on the same side of ``gt`` as ``d32``, so the
      screen decides it; the others are re-computed in blocks of the same size.
      A NaN or inf screen (float32 overflow) fails the test and is re-computed.
      Each re-check block holds the answer's row first, and its rows are
      compared with that copy: NumPy may round a one-element complex product
      (RotatE of width 1) differently from a longer one, so a row is only ever
      compared with the answer computed in the same call, as in a whole-table
      call.

    The band bounds ``|d32 - d64|`` by the standard rounding-error analysis
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., §3-4).
    Let ``u = 2**-24``, ``n`` the row width, ``q`` the known vector, ``r`` the
    relation, ``v`` the exact residual (``h + r - t`` or ``h∘r - t``) and ``D``
    its exact norm. For both models and both sides a row ``e`` has
    ``|e_i| <= |q_i| + |r_i| + |v_i|`` (``|r_i| = 1`` for RotatE), so with
    ``a_i = 2(|q_i| + |r_i|)``:

    * rounding ``q``, ``r`` and ``e`` to float32 and forming ``v`` (an add and
      a subtract, or a complex product, ``|δ| <= √2·γ₂``, and a subtract) errs
      by at most ``6u(a_i + |v_i|)`` in element ``i``;
    * the modulus is exact for TransE and within ``4u`` for RotatE (``hypotf``
      or NumPy's scaled ``max·sqrt(1 + ratio²)``);
    * summing the ``n`` moduli in any order adds ``γ_{n-1}`` of their sum (L1);
      the squares, their sum and the square root add ``(n/2 + 1)u`` (L2).

    With ``A = Σ a_i = 2(‖q‖₁ + ‖r‖₁)`` this gives, to first order and for both
    norms, ``|d32 - D| <= (n + 12)u·(A + D)``. Bounding ``D`` by
    ``d32 + |d32 - D|`` at most doubles the constant while ``(n + 12)u <= 1/4``;
    ``c = 2(n + 16)u`` adds ``8u`` for the second-order terms, the float64
    distance's own error (the same bound with ``2**-53``) and the float64
    arithmetic of the test. ``A`` also carries ``2**-50``, which covers float32
    underflow, where relative bounds fail: subnormal rounding adds at most
    ``√n·2**-74`` to an L2 distance and less to an L1 one. For widths of
    ``2**20`` or more ``c`` is infinite and every kept row is re-computed.
    """
    ent = tables.entity_matrix()
    rel = tables.relation_vec(relation)
    low = np.complex64 if tables.model == ROTATE else np.float32

    def distances(rows, known, relation):
        h, t = (known, rows) if tail_missing else (rows, known)
        return translation_distance(tables.model, tables.norm_order, h, relation, t)

    step = max(1, _RANK_BLOCK_BYTES // (ent.shape[1] * ent.itemsize))
    gt = distances(ent[answer:answer + 1], known_vec, rel)[0]
    keep = np.array(keep, dtype=bool)  # a copy: the caller's mask is left as it was
    keep[answer] = False  # the answer is counted below, not re-computed
    width = ent.shape[1]
    c = 2 * (width + 16) * 2.0 ** -24 if width < 2 ** 20 else np.inf
    a = 2 * (np.abs(known_vec).sum() + np.abs(rel).sum()) + 2.0 ** -50
    screen = np.empty(len(ent))  # float64, so the test never rounds gt to float32
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing screen is re-computed
        known32, rel32 = known_vec.astype(low), rel.astype(low)
        for lo in range(0, len(ent), step):
            block = ent[lo:lo + step].astype(low, copy=False)
            screen[lo:lo + step] = distances(block, known32, rel32)
        kept = screen[keep]
        sure = np.abs(kept - gt) > c * (a + np.maximum(kept, gt))
    better = int(np.count_nonzero(sure & (kept < gt)))
    tied = int(gt == gt)  # the answer ties with itself, unless its distance is NaN
    unsure = np.flatnonzero(keep)[~sure]
    per = max(1, step - 1)  # rows per re-check block, after the answer's
    for lo in range(0, len(unsure), per):
        d = distances(ent[np.append(answer, unsure[lo:lo + per])], known_vec, rel)
        better += int(np.count_nonzero(d[1:] < d[0]))
        tied += int(np.count_nonzero(d[1:] == d[0]))
    return better + (1 + tied) / 2.0


def embed_ookg(tables: EmbeddingTables, splits: BenchmarkSplits, scheme: str,
               entities: np.ndarray | Sequence[int],
               relations: np.ndarray | Sequence[int] | None, *,
               smoothing: float = DEFAULT_SMOOTHING,
               neighbor_cap: int | None = None, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Reduced embeddings of the OOKG ``entities``, queried with ``relations``.

    Returns ``(vectors, found)``: row i embeds ``entities[i]``, and
    ``found[i]`` is False (the row is left zero) when the entity has no usable
    aux neighbor. Correlation weights depend on the query relation, so each
    unique (entity, relation) pair is estimated, capped and reduced once, as
    a segment of its own; the other schemes reduce each entity once and
    ignore ``relations``, which may then be None.
    """
    if scheme == CORRELATION and relations is None:
        raise ValueError("correlation weights need the query relations of the entities")
    n_ent, n_rel = splits.vocab.num_entities, splits.vocab.num_relations
    aux_store = TripleStore(splits.aux, num_entities=n_ent, num_relations=n_rel)
    train_store = (TripleStore(splits.train, num_entities=n_ent, num_relations=n_rel)
                   if scheme in (CORRELATION, DEGREE) else None)  # uniform weights never read it
    correlation = build_correlation(train_store) if scheme == CORRELATION else None
    entities = np.asarray(entities, dtype=np.int64)
    query = np.asarray(relations, dtype=np.int64) if scheme == CORRELATION else np.zeros_like(entities)
    pairs, inverse = np.unique(np.stack([entities, query], axis=1), axis=0, return_inverse=True)
    cset = estimate_candidates(tables, aux_store, pairs[:, 0], splits.ikg_entities)
    if neighbor_cap is not None:
        cset = cap_neighbors(cset, neighbor_cap, seed)
    # a plain np.unique, as in tune_thresholds: on NumPy 2 it imports numpy.ma, a cost every
    # estimate and eval command keeps alike until the benchmark can time its removal
    found = np.isin(pairs[:, 0], np.unique(cset.entities))
    weights = candidate_weights(scheme, cset, correlation=correlation,
                                query_relation=pairs[found, 1], train_store=train_store,
                                smoothing=smoothing)
    reduced = reduce_candidates(tables, cset, weights)
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
    if splits.ikg_entities.size == 0:
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
    in_graph = np.isin(np.arange(splits.vocab.num_entities), splits.ikg_entities)
    partners, offsets = findex.partners(known, rows[:, 1], tail_missing)
    ranks = np.empty(len(rows))
    for i, (relation, tail, answer) in enumerate(zip(
            rows[:, 1].tolist(), tail_missing.tolist(), answers.tolist())):
        keep = in_graph.copy()
        keep[partners[offsets[i]:offsets[i + 1]]] = False  # the answer too: test is indexed
        if found[i]:
            ranks[i] = filtered_rank(tables, vectors[i], relation, tail, answer, keep)
        else:  # dangling: the worst possible rank, behind every kept candidate
            ranks[i] = np.count_nonzero(keep) + 1
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


def tune_thresholds(tables: EmbeddingTables, valid: np.ndarray,
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
    dists = _triplet_distances(tables, data)
    y = np.asarray(labels) == 1

    per_relation: dict[int, float] = {}
    for rel in np.unique(data[:, 1]):
        mask = data[:, 1] == rel
        per_relation[int(rel)] = _best_threshold(dists[mask], y[mask])
    default = _best_threshold(dists, y)
    return Thresholds(per_relation, default)


def _triplet_distances(tables: EmbeddingTables, triplets, estimated=None, estimates=None):
    """Distances of (n, 3) id ``triplets``, widened to float64, in ``_RANK_BLOCK_BYTES`` blocks.

    The ends set in the (n, 2) mask ``estimated`` take the rows of ``estimates``, in order.
    """
    rel = tables.relation_vec(np.arange(tables.num_relations))
    if estimated is None:
        estimated, estimates = np.zeros((len(triplets), 2), dtype=bool), rel[:0]
    first = np.concatenate([[0], np.cumsum(np.count_nonzero(estimated, axis=1))])
    step = max(1, _RANK_BLOCK_BYTES // (2 * rel.shape[1] * rel.itemsize))
    dists = np.empty(len(triplets))
    for lo in range(0, len(triplets), step):
        hi = min(lo + step, len(triplets))
        rows = tables.entity_matrix()[triplets[lo:hi, ::2]].astype(rel.dtype)  # head, tail
        rows[estimated[lo:hi]] = estimates[first[lo]:first[hi]]
        dists[lo:hi] = translation_distance(tables.model, tables.norm_order, rows[:, 0],
                                            rel[triplets[lo:hi, 1]], rows[:, 1])
    return dists


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
    usable = np.ones(ends.shape, dtype=bool)
    usable[is_ookg] = found
    usable = usable.all(axis=1)  # a triplet with a dangling side is predicted negative
    dists = _triplet_distances(tables, splits.test, is_ookg, vectors)
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

    rows = [(label, rep.task, rep.num_queries, rep.mrr, rep.hits1, rep.hits10, rep.accuracy,
             rep.counts.get("dangling", 0), rep.counts.get("skipped_both_ookg", 0))
            for label, rep in reports]
    _write_csv(path, [_CSV_COLUMNS, *([fmt(x) for x in row] for row in rows)])
