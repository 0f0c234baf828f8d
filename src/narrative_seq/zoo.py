"""The ten-architecture model zoo: four single recurrent models and six
joint stacks, named by their layer order (``GRU-LSTM`` is a GRU layer
feeding an LSTM layer). ``BLSTM`` marks a bidirectional LSTM layer.
"""

from __future__ import annotations

from .errors import DataError
from .neural_layers import CellKind, ModelSpec, RecurrentLayerSpec

DEFAULT_EMBEDDING_DIM = 64
DEFAULT_HIDDEN_UNITS = 64
DEFAULT_DENSE_HIDDEN_UNITS = 64

ZOO_NAMES = (
    "LSTM",
    "BLSTM",
    "sRNN",
    "GRU",
    "GRU-LSTM",
    "GRU-BLSTM",
    "sRNN-BLSTM",
    "sRNN-LSTM",
    "GRU-BLSTM-sRNN",
    "GRU-LSTM-sRNN",
)

_LAYER_TOKENS = {
    "LSTM": (CellKind.LSTM, False),
    "BLSTM": (CellKind.LSTM, True),
    "GRU": (CellKind.GRU, False),
    "sRNN": (CellKind.SRNN, False),
}


def build_spec(name: str,
               embedding_dim: int = DEFAULT_EMBEDDING_DIM,
               hidden_units: int = DEFAULT_HIDDEN_UNITS,
               dense_hidden_units: int = DEFAULT_DENSE_HIDDEN_UNITS) -> ModelSpec:
    """ModelSpec for one zoo name; layers stack in name order. A name not in
    ``ZOO_NAMES`` is a ``DataError``, even one made of zoo layer tokens."""
    if name not in ZOO_NAMES:
        raise DataError(f"unknown model name {name!r}; zoo models are {', '.join(ZOO_NAMES)}")
    kinds = [_LAYER_TOKENS[t] for t in name.split("-")]
    stack = tuple(
        RecurrentLayerSpec(
            kind=kind,
            hidden_units=hidden_units,
            bidirectional=bidirectional,
            returns_sequence=i < len(kinds) - 1,
        )
        for i, (kind, bidirectional) in enumerate(kinds)
    )
    return ModelSpec(
        name=name,
        embedding_dim=embedding_dim,
        recurrent_stack=stack,
        dense_hidden_units=dense_hidden_units,
    )


def model_zoo(embedding_dim: int = DEFAULT_EMBEDDING_DIM,
              hidden_units: int = DEFAULT_HIDDEN_UNITS,
              dense_hidden_units: int = DEFAULT_DENSE_HIDDEN_UNITS) -> list[ModelSpec]:
    """All ten specs in canonical order."""
    return [
        build_spec(name, embedding_dim, hidden_units, dense_hidden_units)
        for name in ZOO_NAMES
    ]
