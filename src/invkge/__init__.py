"""Translational KG embeddings with closed-form estimation of unseen entities.

Pretrains TransE/RotatE tables with self-adversarial negative sampling, then
represents out-of-knowledge-graph entities by inverting the translational
assumption over their auxiliary neighbors and reducing the resulting
candidates with correlation-, degree-, or uniform weighting. Includes the
filtered ranking / threshold-classification evaluation harness and the
neighbor-cap, uniform-weight and OOKG-ratio ablations.
"""

from .core import TripleStore, Vocabulary
from .datasets import (BenchmarkSplits, DatasetFormatError, DatasetValidationError,
                       generate_planted_splits, generate_trainable_splits, load_split_dir,
                       load_splits, write_splits)
from .estimation import CandidateSet, cap_neighbors, estimate_candidates
from .evaluation import (EvalReport, FilterIndex, Thresholds, ablate, embed_ookg, filtered_rank,
                         format_report, link_prediction, triplet_classification,
                         tune_thresholds, write_report_csv)
from .models import (MODELS, ROTATE, TRANSE, EmbeddingTables, init_tables, load_checkpoint,
                     load_vocabulary, save_checkpoint, save_vocabulary, translation_distance)
from .reduction import (CORRELATION, DEGREE, UNIFORM, build_correlation, candidate_weights,
                        reduce_candidates)
from .seeding import substream
from .training import REFERENCE_CONFIGS, Adam, TrainConfig, TrainingDivergedError, train

__version__ = "0.1.0"
