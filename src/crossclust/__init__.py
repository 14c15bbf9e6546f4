"""Two-stage contrastive clustering for vector data.

Stage one initializes an encoder with paired instance-level and
cluster-level contrastive objectives; stage two refines the embedding space
by pulling together every pair whose cosine similarity clears a threshold,
with entropy-regularized closed-form weights concentrating the denominator
on boundary-region pairs.
"""

from .augment import AugmentConfig, augment_batch
from .config import DimsSpec, TrainConfig, config_from_dict, load_config
from .data import Dataset, generate_blobs, load_csv, save_csv, standardize
from .errors import (
    ConfigError,
    ContractViolationError,
    CrossclustError,
    CsvFormatError,
    DegenerateRowError,
    NonFiniteError,
    ShapeError,
)
from .losses import (
    c3_loss,
    chain_to_embeddings,
    compute_weights,
    count_positive_pairs,
    init_cluster_loss,
    init_instance_loss,
    positive_mask,
)
from .metrics import Partition, accuracy, ari, contingency_table, hungarian, nmi
from .model import (
    AdamState,
    ForwardCache,
    ModelDims,
    ModelParams,
    adam_step,
    backward,
    forward,
    grad_check,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import entropy, row_l2_normalize, similarity_matrix
from .trainer import (
    EpochRecord,
    evaluate,
    predict,
    read_history,
    train,
    train_c3,
    train_init,
    write_history,
)

__version__ = "0.1.0"
