import pytest

from narrative_seq.errors import DataError
from narrative_seq.neural_layers import CellKind
from narrative_seq.zoo import ZOO_NAMES, build_spec, model_zoo


def test_zoo_has_exactly_ten_models():
    specs = model_zoo()
    assert len(specs) == 10
    assert [s.name for s in specs] == list(ZOO_NAMES)


def test_names_unique():
    assert len(set(ZOO_NAMES)) == 10


def test_single_models_have_one_layer():
    for name in ("LSTM", "BLSTM", "sRNN", "GRU"):
        spec = build_spec(name)
        assert len(spec.recurrent_stack) == 1
        assert not spec.recurrent_stack[0].returns_sequence


def test_gru_blstm_srnn_structure():
    spec = build_spec("GRU-BLSTM-sRNN")
    kinds = [layer.kind for layer in spec.recurrent_stack]
    assert kinds == [CellKind.GRU, CellKind.LSTM, CellKind.SRNN]
    assert [layer.bidirectional for layer in spec.recurrent_stack] == [False, True, False]
    assert [layer.returns_sequence for layer in spec.recurrent_stack] == [True, True, False]


def test_blstm_is_bidirectional_lstm():
    spec = build_spec("BLSTM")
    layer = spec.recurrent_stack[0]
    assert layer.kind is CellKind.LSTM and layer.bidirectional


def test_layers_stack_in_name_order():
    spec = build_spec("sRNN-LSTM")
    assert [l.kind for l in spec.recurrent_stack] == [CellKind.SRNN, CellKind.LSTM]


def test_width_overrides_apply_everywhere():
    spec = build_spec("GRU-LSTM", embedding_dim=16, hidden_units=12, dense_hidden_units=10)
    assert spec.embedding_dim == 16
    assert all(layer.hidden_units == 12 for layer in spec.recurrent_stack)
    assert spec.dense_hidden_units == 10


def test_unknown_name_rejected():
    with pytest.raises(DataError, match="CNN"):
        build_spec("CNN")
    with pytest.raises(DataError):
        build_spec("LSTM-TRANSFORMER")
    with pytest.raises(DataError, match="LSTM-GRU"):  # zoo layers, but not a zoo model
        build_spec("LSTM-GRU")


def test_default_widths():
    spec = build_spec("LSTM")
    assert spec.embedding_dim == 64
    assert spec.recurrent_stack[0].hidden_units == 64
    assert spec.dense_hidden_units == 64
