"""Classify aviation occurrence narratives into four aircraft-damage levels
with recurrent networks trained from scratch on numpy.

The package covers the full pipeline: corpus ingestion, deterministic text
preprocessing, ten single and stacked recurrent architectures with exact
backpropagation through time, Adam training, the evaluation metrics, and a
config-driven comparison harness. See README.md for the shape table, file
formats, and the acceptance suite.
"""

from .corpus_ingest import (
    ClassDistribution,
    DamageLabel,
    OccurrenceRecord,
    class_distribution,
    filter_completed,
    load_reports,
    map_damage_label,
)
from .dataset_io import (
    EncodedDataset,
    read_encoded_dataset,
    read_vocab_sidecar,
    vocab_fingerprint,
    write_encoded_dataset,
    write_vocab_sidecar,
)
from .errors import (
    CheckpointError,
    DataError,
    DimensionError,
    NarrativeSeqError,
    NumericError,
)
from .evaluation import (
    ClassMetrics,
    ConfusionMatrix,
    MetricsReport,
    compute_metrics,
    confusion_matrix,
    majority_baseline,
    render_results_table,
)
from .harness import ExperimentConfig, config_from_dict, load_config, run_experiment
from .checkpoint import load_checkpoint, save_checkpoint
from .neural_layers import (
    CellKind,
    ForwardCache,
    ModelSpec,
    RecurrentLayerSpec,
    bidirectional_forward,
    embedding_forward,
    gru_step,
    init_params,
    lstm_step,
    model_backward,
    model_forward,
    param_shapes,
    predict_classes,
    predict_proba,
    recurrent_forward,
    srnn_step,
)
from .tensor_core import SeededRng, matmul, relu, sigmoid, softmax, uniform_init
from .text_pipeline import (
    Vocabulary,
    build_vocabulary,
    encode_sequence,
    lemmatize,
    normalize_text,
    preprocess_corpus,
    remove_stopwords,
    tokenize,
)
from .training import (
    AdamState,
    EpochStats,
    SplitSpec,
    TrainConfig,
    adam_update,
    cross_entropy,
    split_dataset,
    train_model,
)
from .zoo import ZOO_NAMES, build_spec, model_zoo

__version__ = "0.1.0"
