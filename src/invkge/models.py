"""Parameter tables and the distance function for TransE and RotatE.

TransE places entities and relations in R^d and scores a triplet by the norm
of h + r - t. RotatE places entities in C^d and relations on the unit circle
(stored as phase angles), scoring by the norm of h o r - t where o is the
element-wise complex product. Entity rows for RotatE are stored as 2d floats
with interleaved real/imaginary parts so the table can be reinterpreted as a
complex matrix without copying.
"""

from __future__ import annotations

import csv
import io
import json
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Vocabulary, _block_rows
from .seeding import _check_seed, substream

TRANSE = "transe"
ROTATE = "rotate"
MODELS = (TRANSE, ROTATE)

_MAGIC = b"IKGE"
_VERSION = 1
_HEADER = struct.Struct("<4sHBBIIIQ")  # magic, version, model, norm, dim, n_ent, n_rel, seed


@dataclass
class EmbeddingTables:
    """Entity and relation parameter arrays for one model.

    ``entity`` is (num_entities, dim) for TransE and (num_entities, 2*dim)
    for RotatE (interleaved re/im). ``relation`` is (num_relations, dim):
    free vectors for TransE, phase angles for RotatE.

    Dtype policy: ``init_tables``, ``load_checkpoint`` and a training run
    return float32 tables, the checkpoint's dtype, and they stay float32; a
    loaded checkpoint's tables are writable views of a copy-on-write mapping
    of the file, not copies.
    Estimation and evaluation widen to float64 before arithmetic that would otherwise round
    (``relation_vec``, candidate rows composed onto its float64 operands, rows scored for
    thresholds and classification), so results equal those of the tables' float64 copy bit
    for bit. Float64 tables work unchanged.
    Only the ranking screen in ``evaluation.filtered_rank`` computes in
    float32; it casts each block the same way from either dtype, and its
    float64 re-check keeps the ranks exact.
    """

    model: str
    dim: int
    norm_order: int
    entity: np.ndarray
    relation: np.ndarray

    @property
    def num_entities(self) -> int:
        return self.entity.shape[0]

    @property
    def num_relations(self) -> int:
        return self.relation.shape[0]

    def entity_matrix(self) -> np.ndarray:
        """Entity table as (n, dim): real for TransE, complex view for RotatE."""
        if self.model == ROTATE:
            return self.entity.view(np.result_type(self.entity.dtype, np.complex64))
        return self.entity

    def relation_vec(self, rid: int | np.ndarray) -> np.ndarray:
        """Relation(s) as used by the distance: TransE row, or RotatE unit complex.

        Widened to float64 (complex128 for RotatE) before any arithmetic, so a
        float32 table gives its float64 copy's values, and a float32 entity row
        combined with the result is promoted exactly instead of rounded.
        """
        rel = self.relation[rid].astype(np.float64, copy=False)
        return np.exp(1j * rel) if self.model == ROTATE else rel

    def copy(self) -> "EmbeddingTables":
        return EmbeddingTables(self.model, self.dim, self.norm_order,
                               self.entity.copy(), self.relation.copy())


def init_tables(seed: int, model: str, dim: int, num_entities: int, num_relations: int,
                *, norm_order: int = 1, margin: float = 1.0) -> EmbeddingTables:
    """Uniformly initialized float32 tables, deterministic for a given seed.

    Real parameters (and RotatE re/im parts) are drawn from
    [-margin/dim, margin/dim); RotatE phases from [-pi, pi). The draws are
    float64, made in row blocks of about ``core._BLOCK_BYTES`` and rounded
    into the float32 table block by block, so the tables equal one
    whole-array float64 draw from the same stream, rounded, without ever
    holding it.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    if dim <= 0 or num_entities <= 0 or num_relations <= 0:
        raise ValueError("dim, num_entities and num_relations must be positive")
    if norm_order not in (1, 2):
        raise ValueError("norm_order must be 1 or 2")
    rng = substream(seed, "init")
    bound = margin / dim
    ent_width = 2 * dim if model == ROTATE else dim
    entity = _uniform_float32(rng, bound, (num_entities, ent_width))
    relation = _uniform_float32(rng, np.pi if model == ROTATE else bound, (num_relations, dim))
    return EmbeddingTables(model, dim, norm_order, entity, relation)


def _uniform_float32(rng: np.random.Generator, bound: float, shape: tuple[int, int]) -> np.ndarray:
    """``rng.uniform(-bound, bound, shape)`` rounded to float32, drawn in row blocks."""
    table = np.empty(shape, dtype=np.float32)
    step = _block_rows(8 * shape[1])
    for lo in range(0, shape[0], step):
        block = table[lo:lo + step]
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    return table


def translation_distance(model: str, norm_order: int, h: np.ndarray, r: np.ndarray,
                         t: np.ndarray) -> np.ndarray:
    """Distance of broadcastable stacks of raw vectors, reduced over the last axis.

    For RotatE the inputs are complex and the L1/L2 norms aggregate the
    element moduli; ``r`` must already be realized as unit complex numbers.
    """
    if model == ROTATE:
        u = h * r - t
    else:
        u = h + r - t
    a = np.abs(u)
    if norm_order == 1:
        return a.sum(axis=-1)
    return np.sqrt((a * a).sum(axis=-1))


def save_checkpoint(tables: EmbeddingTables, path: str | Path, seed: int = 0) -> None:
    """Binary checkpoint: fixed header followed by float32 little-endian tables.

    The tables are written lazily, one at a time, through
    :func:`_write_atomically`, so ``path`` is never left half-written.
    """
    _check_seed(seed)
    model_code = MODELS.index(tables.model)
    header = _HEADER.pack(_MAGIC, _VERSION, model_code, tables.norm_order, tables.dim,
                          tables.num_entities, tables.num_relations, seed)

    def chunks():
        yield header
        for table in (tables.entity, tables.relation):
            yield np.ascontiguousarray(table, dtype="<f4").data   # no bytes copy

    _write_atomically(path, chunks())


def _write_atomically(path: str | Path, chunks) -> None:
    """Write the iterable of byte buffers ``chunks`` so ``path`` is never half-written.

    The bytes go to a temporary file in the same directory, which is synced
    and then replaces ``path`` in one step; on any error it is removed and
    ``path`` keeps its earlier contents.

    Every artifact is fsynced: the rename alone guards against a killed process,
    the fsync (0.3-1 ms per file) against power loss leaving ``path`` empty or partial.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: str | Path, rows) -> None:
    """``rows`` as CSV through :func:`_write_atomically`, fields quoted where they need it."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    _write_atomically(path, (text.getvalue().encode("utf-8"),))


def load_checkpoint(path: str | Path) -> tuple[EmbeddingTables, int]:
    """Inverse of :func:`save_checkpoint`; returns the tables and the stored seed.

    The file is mapped copy-on-write (``mmap.ACCESS_COPY``) rather than read,
    and both tables are float32 views of the mapping, so loading copies
    neither. They are writable: a write lands in private pages of this
    process and never reaches the file. The finiteness check walks the
    tables in blocks of about ``core._BLOCK_BYTES``, so it makes no
    table-sized temporary either.

    :func:`save_checkpoint` replaces a file by rename, so tables loaded
    before a save keep the old contents. A file truncated in place by another
    process while it is mapped can raise SIGBUS when the lost pages are
    touched. CPython holds one duplicated file descriptor per mapping, until
    the last view of it is freed.
    """
    with open(path, "rb") as f:
        if os.fstat(f.fileno()).st_size < _HEADER.size:  # mmap refuses an empty file
            raise ValueError(f"{path}: not an embedding checkpoint")
        raw = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not an embedding checkpoint")
    magic, version, model_code, norm_order, dim, n_ent, n_rel, seed = _HEADER.unpack_from(raw)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if model_code >= len(MODELS):
        raise ValueError(f"{path}: unknown model code {model_code}")
    if norm_order not in (1, 2):
        raise ValueError(f"{path}: unsupported norm order {norm_order}")
    if dim == 0:
        raise ValueError(f"{path}: checkpoint has embedding width 0")
    model = MODELS[model_code]
    ent_width = 2 * dim if model == ROTATE else dim
    offset = _HEADER.size
    ent_bytes = 4 * n_ent * ent_width
    rel_bytes = 4 * n_rel * dim
    if len(raw) != offset + ent_bytes + rel_bytes:
        raise ValueError(f"{path}: truncated checkpoint")
    entity = np.frombuffer(raw, dtype="<f4", count=n_ent * ent_width, offset=offset)
    relation = np.frombuffer(raw, dtype="<f4", count=n_rel * dim, offset=offset + ent_bytes)
    entity = entity.reshape(n_ent, ent_width)
    relation = relation.reshape(n_rel, dim)
    for table in (entity, relation):
        step = _block_rows(table.shape[1] * table.itemsize)
        if not all(np.isfinite(table[lo:lo + step]).all() for lo in range(0, len(table), step)):
            raise ValueError(f"{path}: checkpoint contains non-finite values")
    return EmbeddingTables(model, dim, norm_order, entity, relation), seed


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """JSON sidecar of the entity and relation names, written atomically."""
    payload = {"entities": vocab.entity_names, "relations": vocab.relation_names}
    _write_atomically(path, ((json.dumps(payload, ensure_ascii=False) + "\n").encode("utf-8"),))


def load_vocabulary(path: str | Path) -> Vocabulary:
    try:
        with open(path, encoding="utf-8") as f:
            payload = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a JSON vocabulary: {exc}") from None
    for key in ("entities", "relations"):
        names = payload.get(key) if isinstance(payload, dict) else None
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ValueError(f"{path}: {key!r} must be a list of strings")
    vocab = Vocabulary()
    vocab.add_entities(payload["entities"])
    vocab.add_relations(payload["relations"])
    return vocab
