"""Named random substreams derived from a single run seed.

Every stochastic stage (init, shuffling, negatives, neighbor capping, data
generation) draws from its own labelled stream so that, e.g., ablations can
share pretrained weights while varying only downstream sampling.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_word(label: object) -> int:
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def _check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` fits the 8-byte seed field of a checkpoint header."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def substream(seed: int, *labels: object) -> np.random.Generator:
    """Generator for the substream named by ``labels`` under master ``seed``.

    Stable across processes and platforms (labels are hashed with sha256, not
    the interpreter hash).
    """
    if int(seed) < 0:
        raise ValueError("seed must be non-negative")
    entropy = [int(seed)] + [_label_word(l) for l in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))
