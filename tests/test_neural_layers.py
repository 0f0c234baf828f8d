import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from narrative_seq import neural_layers
from narrative_seq.corpus_ingest import DamageLabel
from narrative_seq.errors import DimensionError
from narrative_seq.neural_layers import (
    CHUNK_STEPS,
    GATE_NAMES,
    CellKind,
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
from narrative_seq.tensor_core import SeededRng, sigmoid
from narrative_seq.zoo import ZOO_NAMES, build_spec

# ---------------------------------------------------------------------------
# Independent scalar-loop oracles: plain-Python per-element arithmetic,
# sharing no code with the vectorized implementation.
# ---------------------------------------------------------------------------

def _sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def _affine_scalar(x, h, W, U, b, j):
    s = b[j]
    for i in range(len(x)):
        s += x[i] * W[i][j]
    for i in range(len(h)):
        s += h[i] * U[i][j]
    return s


def oracle_srnn_step(x, h_prev, p):
    return [
        max(0.0, _affine_scalar(x, h_prev, p["W"], p["U"], p["b"], j))
        for j in range(len(p["b"]))
    ]


def oracle_lstm_step(x, h_prev, c_prev, p):
    h_out, c_out = [], []
    for j in range(len(p["b_i"])):
        i = _sig(_affine_scalar(x, h_prev, p["W_i"], p["U_i"], p["b_i"], j))
        f = _sig(_affine_scalar(x, h_prev, p["W_f"], p["U_f"], p["b_f"], j))
        g = math.tanh(_affine_scalar(x, h_prev, p["W_g"], p["U_g"], p["b_g"], j))
        o = _sig(_affine_scalar(x, h_prev, p["W_o"], p["U_o"], p["b_o"], j))
        c = f * c_prev[j] + i * g
        c_out.append(c)
        h_out.append(o * math.tanh(c))
    return h_out, c_out


def oracle_gru_step(x, h_prev, p):
    h_out = []
    for j in range(len(p["b_z"])):
        z = _sig(_affine_scalar(x, h_prev, p["W_z"], p["U_z"], p["b_z"], j))
        r_h = [
            _sig(_affine_scalar(x, h_prev, p["W_r"], p["U_r"], p["b_r"], k)) * h_prev[k]
            for k in range(len(h_prev))
        ]
        hbar = math.tanh(_affine_scalar(x, r_h, p["W_h"], p["U_h"], p["b_h"], j))
        h_out.append((1.0 - z) * h_prev[j] + z * hbar)
    return h_out


def _oracle_unroll(kind, x_seq, p):
    """Per-step hidden states of one [L, d] sequence from the zero state."""
    plist = {k: v.tolist() for k, v in p.items()}
    n_h = len(plist[f"b{GATE_NAMES[kind][0]}"])
    h, c = [0.0] * n_h, [0.0] * n_h
    states = []
    for x_t in x_seq.tolist():
        if kind is CellKind.SRNN:
            h = oracle_srnn_step(x_t, h, plist)
        elif kind is CellKind.LSTM:
            h, c = oracle_lstm_step(x_t, h, c, plist)
        else:
            h = oracle_gru_step(x_t, h, plist)
        states.append(h)
    return states


def _rand_gate_params(rng, names, n_in, n_h):
    p = {}
    for name in names:
        p[f"W{name}"] = rng.uniform((n_in, n_h), -0.7, 0.7)
        p[f"U{name}"] = rng.uniform((n_h, n_h), -0.7, 0.7)
        p[f"b{name}"] = rng.uniform((n_h,), -0.2, 0.2)
    return p


class TestSrnnStep:
    def test_zero_params(self):
        p = {"W": np.zeros((2, 3)), "U": np.zeros((3, 3)), "b": np.zeros(3)}
        npt.assert_array_equal(srnn_step(np.ones(2), np.ones(3), p), np.zeros(3))

    def test_identity_weights_relu(self):
        p = {"W": np.eye(2), "U": np.zeros((2, 2)), "b": np.zeros(2)}
        npt.assert_array_equal(
            srnn_step(np.array([-1.0, 2.0]), np.zeros(2), p), [0.0, 2.0]
        )

    def test_matches_scalar_oracle(self):
        rng = SeededRng(13)
        p = {
            "W": rng.uniform((3, 4), -0.8, 0.8),
            "U": rng.uniform((4, 4), -0.8, 0.8),
            "b": rng.uniform((4,), -0.3, 0.3),
        }
        x = rng.uniform((3,), -1, 1)
        h_prev = rng.uniform((4,), -1, 1)
        expected = oracle_srnn_step(x.tolist(), h_prev.tolist(),
                                    {k: v.tolist() for k, v in p.items()})
        npt.assert_allclose(srnn_step(x, h_prev, p), expected, atol=1e-14)

    def test_dimension_mismatch(self):
        p = {"W": np.zeros((3, 4)), "U": np.zeros((4, 4)), "b": np.zeros(4)}
        with pytest.raises(DimensionError):
            srnn_step(np.zeros(5), np.zeros(4), p)


class TestLstmStep:
    def test_all_zero_params_and_state(self):
        p = _rand_gate_params(SeededRng(0), ("_i", "_f", "_g", "_o"), 2, 3)
        p = {k: np.zeros_like(v) for k, v in p.items()}
        h, c = lstm_step(np.ones(2), np.zeros(3), np.zeros(3), p)
        npt.assert_array_equal(h, np.zeros(3))
        npt.assert_array_equal(c, np.zeros(3))

    def test_zero_params_halves_cell_state(self):
        # sigmoid(0) = 0.5 forget gate; input*candidate contributes zero.
        p = _rand_gate_params(SeededRng(0), ("_i", "_f", "_g", "_o"), 2, 3)
        p = {k: np.zeros_like(v) for k, v in p.items()}
        c_prev = np.array([0.4, -0.6, 1.0])
        _, c = lstm_step(np.ones(2), np.zeros(3), c_prev, p)
        npt.assert_allclose(c, 0.5 * c_prev, atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = SeededRng(21)
        p = _rand_gate_params(rng, ("_i", "_f", "_g", "_o"), 3, 4)
        x = rng.uniform((3,), -1, 1)
        h_prev = rng.uniform((4,), -1, 1)
        c_prev = rng.uniform((4,), -1, 1)
        exp_h, exp_c = oracle_lstm_step(
            x.tolist(), h_prev.tolist(), c_prev.tolist(),
            {k: v.tolist() for k, v in p.items()},
        )
        h, c = lstm_step(x, h_prev, c_prev, p)
        npt.assert_allclose(h, exp_h, atol=1e-14)
        npt.assert_allclose(c, exp_c, atol=1e-14)


class TestGruStep:
    def test_zero_params_halves_state(self):
        p = _rand_gate_params(SeededRng(0), ("_z", "_r", "_h"), 2, 3)
        p = {k: np.zeros_like(v) for k, v in p.items()}
        h_prev = np.array([0.8, -0.2, 0.5])
        npt.assert_allclose(gru_step(np.ones(2), h_prev, p), 0.5 * h_prev, atol=1e-15)

    def test_zero_state_stays_zero(self):
        p = _rand_gate_params(SeededRng(0), ("_z", "_r", "_h"), 2, 3)
        p = {k: np.zeros_like(v) for k, v in p.items()}
        npt.assert_array_equal(gru_step(np.ones(2), np.zeros(3), p), np.zeros(3))

    def test_matches_scalar_oracle(self):
        rng = SeededRng(34)
        p = _rand_gate_params(rng, ("_z", "_r", "_h"), 3, 4)
        x = rng.uniform((3,), -1, 1)
        h_prev = rng.uniform((4,), -1, 1)
        expected = oracle_gru_step(
            x.tolist(), h_prev.tolist(), {k: v.tolist() for k, v in p.items()}
        )
        npt.assert_allclose(gru_step(x, h_prev, p), expected, atol=1e-14)


class TestRecurrentForward:
    def test_single_step_base_case(self):
        rng = SeededRng(5)
        p = {
            "W": rng.uniform((3, 4), -0.5, 0.5),
            "U": rng.uniform((4, 4), -0.5, 0.5),
            "b": rng.uniform((4,), -0.5, 0.5),
        }
        layer = RecurrentLayerSpec(CellKind.SRNN, 4)
        x = rng.uniform((1, 3), -1, 1)
        npt.assert_allclose(
            recurrent_forward(x, layer, p),
            srnn_step(x[0], np.zeros(4), p),
            atol=1e-15,
        )

    def test_zero_inputs_zero_bias_propagate_zeros(self):
        rng = SeededRng(6)
        p = {
            "W": rng.uniform((3, 4), -0.5, 0.5),
            "U": rng.uniform((4, 4), -0.5, 0.5),
            "b": np.zeros(4),
        }
        layer = RecurrentLayerSpec(CellKind.SRNN, 4, returns_sequence=True)
        out = recurrent_forward(np.zeros((5, 3)), layer, p)
        npt.assert_array_equal(out, np.zeros((5, 4)))

    @pytest.mark.parametrize("kind", list(CellKind), ids=lambda k: k.name)
    def test_three_step_manual_unroll(self, kind):
        # The scalar oracles index every gate by name, so a fused-column
        # mix-up (say LSTM o and g swapped) that gradcheck cannot see,
        # because forward and backward would share it, fails here.
        rng = SeededRng(9)
        p_fwd = _rand_gate_params(rng, GATE_NAMES[kind], 2, 3)
        p_bwd = _rand_gate_params(rng, GATE_NAMES[kind], 2, 3)
        x = rng.uniform((3, 3, 2), -1, 1)  # batch 3, three steps, width 2
        fwd = np.array([_oracle_unroll(kind, row, p_fwd) for row in x])
        bwd = np.array([_oracle_unroll(kind, row[::-1], p_bwd)[::-1] for row in x])

        seq_layer = RecurrentLayerSpec(kind, 3, returns_sequence=True)
        final_layer = RecurrentLayerSpec(kind, 3)
        npt.assert_allclose(recurrent_forward(x, seq_layer, p_fwd), fwd, atol=1e-14)
        npt.assert_allclose(recurrent_forward(x, final_layer, p_fwd), fwd[:, -1], atol=1e-14)

        bi_seq = RecurrentLayerSpec(kind, 3, bidirectional=True, returns_sequence=True)
        bi_final = RecurrentLayerSpec(kind, 3, bidirectional=True)
        npt.assert_allclose(bidirectional_forward(x, bi_seq, p_fwd, p_bwd),
                            np.concatenate([fwd, bwd], axis=2), atol=1e-14)
        npt.assert_allclose(bidirectional_forward(x, bi_final, p_fwd, p_bwd),
                            np.concatenate([fwd[:, -1], bwd[:, 0]], axis=1), atol=1e-14)

    @pytest.mark.parametrize("kind", list(CellKind), ids=lambda k: k.name)
    def test_shape_mismatches_raise_dimension_error(self, kind):
        p = _rand_gate_params(SeededRng(3), GATE_NAMES[kind], 2, 3)
        with pytest.raises(DimensionError):
            recurrent_forward(np.zeros((4, 5)), RecurrentLayerSpec(kind, 3), p)
        bad_u = dict(p, **{f"U{GATE_NAMES[kind][-1]}": np.zeros((3, 4))})
        with pytest.raises(DimensionError):
            recurrent_forward(np.zeros((4, 2)), RecurrentLayerSpec(kind, 3), bad_u)
        if kind is CellKind.LSTM:
            with pytest.raises(DimensionError):
                lstm_step(np.zeros(2), np.zeros(3), np.zeros(4), p)
        step = {CellKind.SRNN: lambda x, h: srnn_step(x, h, p),
                CellKind.GRU: lambda x, h: gru_step(x, h, p),
                CellKind.LSTM: lambda x, h: lstm_step(x, h, np.zeros(3), p)}[kind]
        for x_t in (np.zeros((1, 1, 2)), np.float64(1.0)):
            with pytest.raises(DimensionError, match=r"x_t must be .* got shape"):
                step(x_t, np.zeros(3))
        with pytest.raises(DimensionError, match="h_prev"):
            step(np.zeros(2), np.float64(0.0))

    def test_rejects_bidirectional_layer(self):
        layer = RecurrentLayerSpec(CellKind.SRNN, 3, bidirectional=True)
        with pytest.raises(DimensionError):
            recurrent_forward(np.zeros((2, 3)), layer, {"W": np.zeros((3, 3))})


class TestBidirectionalForward:
    def _params(self, seed, n_in=3, n_h=4):
        return _rand_gate_params(SeededRng(seed), ("_i", "_f", "_g", "_o"), n_in, n_h)

    def test_palindrome_with_shared_params(self):
        p = self._params(40)
        layer = RecurrentLayerSpec(CellKind.LSTM, 4, bidirectional=True,
                                   returns_sequence=True)
        rng = SeededRng(41)
        half = rng.uniform((2, 3), -1, 1)
        x = np.concatenate([half, half[::-1]], axis=0)  # palindromic sequence
        out = bidirectional_forward(x, layer, p, p)
        npt.assert_allclose(out[:, :4], out[::-1, 4:], atol=1e-12)

    def test_reversal_swaps_halves_of_final_state(self):
        p_f = self._params(50)
        p_b = self._params(51)
        layer = RecurrentLayerSpec(CellKind.LSTM, 4, bidirectional=True)
        x = SeededRng(52).uniform((5, 3), -1, 1)
        fwd = bidirectional_forward(x, layer, p_f, p_b)
        rev = bidirectional_forward(x[::-1], layer, p_b, p_f)
        npt.assert_allclose(fwd[:4], rev[4:], atol=1e-12)
        npt.assert_allclose(fwd[4:], rev[:4], atol=1e-12)

    def test_compositional_oracle(self):
        p_f = self._params(60)
        p_b = self._params(61)
        bidir = RecurrentLayerSpec(CellKind.LSTM, 4, bidirectional=True,
                                   returns_sequence=True)
        uni = RecurrentLayerSpec(CellKind.LSTM, 4, returns_sequence=True)
        x = SeededRng(62).uniform((6, 3), -1, 1)
        expected = np.concatenate(
            [
                recurrent_forward(x, uni, p_f),
                recurrent_forward(x[::-1], uni, p_b)[::-1],
            ],
            axis=1,
        )
        npt.assert_allclose(bidirectional_forward(x, bidir, p_f, p_b), expected,
                            atol=1e-13)


class TestLayerRunner:
    def test_sequence_functions_are_bit_identical_to_model_forward(self):
        # Longer than one input-projection chunk, batch-major [B, L, E].
        spec = build_spec("GRU-BLSTM", embedding_dim=3, hidden_units=4, dense_hidden_units=5)
        params = init_params(spec, 20, SeededRng(43, 2))
        ids = np.random.default_rng(7).integers(1, 20, size=(3, CHUNK_STEPS + 6))
        _, cache = model_forward(ids, spec, params)
        emb = embedding_forward(ids, params["embedding"])
        gru, blstm = spec.recurrent_stack

        def sub(prefix):
            return {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}

        seq = recurrent_forward(emb, gru, sub("layer0."))
        assert np.array_equal(seq, cache.layers[0][0].h[1:].transpose(1, 0, 2))
        out = bidirectional_forward(seq, blstm, sub("layer1.fwd."), sub("layer1.bwd."))
        assert np.array_equal(out, cache.features)

    def test_only_the_runner_drives_the_direction_kernels(self):
        # Direction handling (reversal, joining, the split of the gradient)
        # lives in _layer_forward and _layer_backward; the step functions
        # reach the kernel through _step.
        allowed = {"_direction_forward": {"_layer_forward", "_step"},
                   "_direction_backward": {"_layer_backward"}}
        tree = ast.parse(Path(neural_layers.__file__).read_text(encoding="utf-8"))
        callers: dict[str, set[str]] = {name: set() for name in allowed}
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in callers):
                    callers[node.func.id].add(owner)
        for name, owners in callers.items():
            assert owners, f"nothing calls {name}"
            assert owners <= allowed[name], f"{name} called from {sorted(owners - allowed[name])}"


class TestGateLayout:
    """Each gate of each step is one C-contiguous [B, H] block, so every
    per-step gate operation runs on contiguous memory."""

    @pytest.mark.parametrize("name", ["LSTM", "GRU", "BLSTM"])
    def test_cached_gates_are_gate_major(self, name):
        B, L, H = 3, CHUNK_STEPS + 6, 4
        spec = build_spec(name, embedding_dim=3, hidden_units=H, dense_hidden_units=5)
        params = init_params(spec, 20, SeededRng(44, 2))
        ids = np.random.default_rng(8).integers(1, 20, size=(B, L))
        _, cache = model_forward(ids, spec, params)
        for direction in cache.layers[0]:
            G = len(neural_layers.FUSED_GATES[direction.kind])
            assert direction.gates.shape == (L, G, B, H)
            assert all(direction.gates[t, k].flags.c_contiguous
                       for t in range(L) for k in range(G))

    @pytest.mark.parametrize("mode", ["cached", "forward_only", "sequence", "step"])
    @pytest.mark.parametrize("kind", [CellKind.LSTM, CellKind.GRU])
    def test_sigmoid_writes_contiguous_gate_blocks(self, kind, mode, monkeypatch):
        outs = []

        def recording(x, out=None):
            outs.append(out)
            return sigmoid(x, out=out)

        monkeypatch.setattr(neural_layers, "sigmoid", recording)
        B, L, H, E = 3, 5, 4, 3
        name = "LSTM" if kind is CellKind.LSTM else "GRU"
        spec = build_spec(name, embedding_dim=E, hidden_units=H, dense_hidden_units=5)
        params = init_params(spec, 20, SeededRng(45, 2))
        p = {k[len("layer0."):]: v for k, v in params.items() if k.startswith("layer0.")}
        ids = np.random.default_rng(9).integers(1, 20, size=(B, L))
        x = SeededRng(46).uniform((B, L, E), -1, 1)
        if mode == "cached":
            model_forward(ids, spec, params)
        elif mode == "forward_only":
            predict_proba(ids, spec, params)
        elif mode == "sequence":
            recurrent_forward(x, RecurrentLayerSpec(kind, H, returns_sequence=True), p)
        elif kind is CellKind.LSTM:
            lstm_step(x[:, 0], np.zeros((B, H)), np.zeros((B, H)), p)
        else:
            gru_step(x[:, 0], np.zeros((B, H)), p)
        assert outs
        assert all(out is not None and out.flags.c_contiguous for out in outs)


class TestEmbedding:
    def test_zero_row_lookup(self):
        E = np.arange(12, dtype=np.float64).reshape(4, 3)
        E[0] = 0.0
        out = embedding_forward(np.array([0, 0]), E)
        npt.assert_array_equal(out, np.zeros((2, 3)))

    def test_row_lookup(self):
        E = np.arange(12, dtype=np.float64).reshape(4, 3)
        npt.assert_array_equal(embedding_forward(np.array([3]), E), E[3:4])

    def test_out_of_range_raises(self):
        E = np.zeros((4, 3))
        with pytest.raises(IndexError):
            embedding_forward(np.array([4]), E)

    def test_absent_token_rows_get_zero_gradient(self):
        spec = build_spec("sRNN", embedding_dim=3, hidden_units=4, dense_hidden_units=4)
        params = init_params(spec, 10, SeededRng(3, 2))
        ids = np.array([2, 5, 2], dtype=np.uint32)
        probs, cache = model_forward(ids, spec, params)
        grads = model_backward(cache, DamageLabel.MINOR, spec, params)
        touched = sorted(np.nonzero(np.abs(grads["embedding"]).sum(axis=1))[0])
        assert set(touched) <= {2, 5}
        assert grads["embedding"].shape == params["embedding"].shape

    def test_gradient_scatter_matches_the_row_scatter_bit_for_bit(self, monkeypatch):
        # Three ids over 2 x 150 tokens: every row gathers many contributions.
        spec = build_spec("GRU", embedding_dim=5, hidden_units=4, dense_hidden_units=4)
        params = init_params(spec, 10, SeededRng(47, 2))
        ids = np.random.default_rng(10).integers(1, 4, size=(2, 150)).astype(np.uint32)
        d_inputs = []
        layer_backward = neural_layers._layer_backward

        def recording(*args):
            d_x, grads = layer_backward(*args)
            d_inputs.append(d_x)
            return d_x, grads

        monkeypatch.setattr(neural_layers, "_layer_backward", recording)
        _, cache = model_forward(ids, spec, params)
        grads = model_backward(cache, np.array([1, 3]), spec, params)
        expected = np.zeros_like(params["embedding"])
        np.add.at(expected, ids.reshape(-1), d_inputs[-1].transpose(1, 0, 2).reshape(-1, 5))
        assert np.array_equal(grads["embedding"], expected)


class TestPredictProba:
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_bit_identical_to_model_forward(self, name):
        spec = build_spec(name, embedding_dim=3, hidden_units=4, dense_hidden_units=5)
        params = init_params(spec, 20, SeededRng(41, 2))
        # Longer than one input-projection chunk, with trailing padding.
        ids = np.random.default_rng(5).integers(1, 20, size=(3, 70))
        ids[1, 50:] = 0
        for seq in (ids, ids[1]):
            probs = predict_proba(seq, spec, params)
            expected, _ = model_forward(seq, spec, params)
            assert probs.shape == expected.shape
            assert np.array_equal(probs, expected)

    @pytest.mark.parametrize("name", ["GRU-LSTM-sRNN", "GRU-BLSTM-sRNN"])
    def test_traced_peak_is_a_few_sequences(self, name):
        # Forward only, a layer holds its input and output sequences, not
        # the BPTT cache: model_forward peaks above 10 such sequences here.
        B, L, w = 8, 512, 8
        spec = build_spec(name, embedding_dim=w, hidden_units=w, dense_hidden_units=w)
        params = init_params(spec, 50, SeededRng(1, 2))
        ids = np.random.default_rng(0).integers(1, 50, size=(B, L))
        width = max(layer.output_width for layer in spec.recurrent_stack)
        tracemalloc.start()
        try:
            predict_proba(ids, spec, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * B * L * width * 8


class TestModelForward:
    def test_probs_sum_to_one(self):
        spec = build_spec("GRU-LSTM", embedding_dim=4, hidden_units=5, dense_hidden_units=6)
        params = init_params(spec, 12, SeededRng(17, 2))
        probs, _ = model_forward(np.array([1, 2, 3, 11]), spec, params)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_zero_params_give_uniform(self):
        spec = build_spec("LSTM", embedding_dim=3, hidden_units=4, dense_hidden_units=4)
        params = init_params(spec, 8, SeededRng(1, 2))
        zero = {k: np.zeros_like(v) for k, v in params.items()}
        probs, _ = model_forward(np.array([1, 2, 3]), spec, zero)
        npt.assert_allclose(probs, np.full(4, 0.25), atol=1e-15)

    def test_forward_deterministic(self):
        spec = build_spec("GRU", embedding_dim=4, hidden_units=4, dense_hidden_units=4)
        params = init_params(spec, 9, SeededRng(23, 2))
        ids = np.array([1, 5, 8, 0, 0])
        a, _ = model_forward(ids, spec, params)
        b, _ = model_forward(ids, spec, params)
        npt.assert_array_equal(a, b)

    def test_batch_matches_single(self):
        spec = build_spec("sRNN-BLSTM", embedding_dim=3, hidden_units=4, dense_hidden_units=4)
        params = init_params(spec, 11, SeededRng(29, 2))
        batch = np.array([[1, 2, 3, 4], [5, 6, 7, 0]], dtype=np.uint32)
        batch_probs, _ = model_forward(batch, spec, params)
        for row in range(2):
            single, _ = model_forward(batch[row], spec, params)
            npt.assert_allclose(single, batch_probs[row], atol=1e-15)

    def test_blstm_degenerates_to_lstm_when_backward_head_zeroed(self):
        lstm = build_spec("LSTM", embedding_dim=3, hidden_units=4, dense_hidden_units=5)
        blstm = build_spec("BLSTM", embedding_dim=3, hidden_units=4, dense_hidden_units=5)
        lstm_params = init_params(lstm, 10, SeededRng(31, 2))
        blstm_params = init_params(blstm, 10, SeededRng(32, 2))
        blstm_params["embedding"] = lstm_params["embedding"].copy()
        for gate in ("_i", "_f", "_g", "_o"):
            for mat in ("W", "U", "b"):
                blstm_params[f"layer0.fwd.{mat}{gate}"] = lstm_params[
                    f"layer0.{mat}{gate}"
                ].copy()
        dense = np.zeros((8, 5))
        dense[:4] = lstm_params["dense_hidden.W"]
        blstm_params["dense_hidden.W"] = dense  # backward half contributes nothing
        blstm_params["dense_hidden.b"] = lstm_params["dense_hidden.b"].copy()
        blstm_params["output.W"] = lstm_params["output.W"].copy()
        blstm_params["output.b"] = lstm_params["output.b"].copy()
        ids = np.array([1, 4, 7, 2, 9])
        p_lstm, _ = model_forward(ids, lstm, lstm_params)
        p_blstm, _ = model_forward(ids, blstm, blstm_params)
        npt.assert_allclose(p_blstm, p_lstm, atol=1e-13)

    def test_identity_srnn_second_layer_passes_through(self):
        # Layer 2 with W=I, U=0, b=0 under ReLU reproduces layer 1's final
        # per-step output at the final-state position.
        rng = SeededRng(77)
        h = 4
        p1 = {
            "W": rng.uniform((3, h), -0.8, 0.8),
            "U": rng.uniform((h, h), -0.8, 0.8),
            "b": rng.uniform((h,), -0.2, 0.2),
        }
        x = rng.uniform((6, 3), -1, 1)
        layer1_seq = RecurrentLayerSpec(CellKind.SRNN, h, returns_sequence=True)
        layer1_out = recurrent_forward(x, layer1_seq, p1)  # ReLU keeps outputs >= 0
        p2 = {"W": np.eye(h), "U": np.zeros((h, h)), "b": np.zeros(h)}
        layer2 = RecurrentLayerSpec(CellKind.SRNN, h)
        npt.assert_allclose(
            recurrent_forward(layer1_out, layer2, p2), layer1_out[-1], atol=1e-14
        )


class TestModelBackward:
    def test_gradient_shapes_match_params(self):
        spec = build_spec("GRU-BLSTM", embedding_dim=3, hidden_units=4, dense_hidden_units=4)
        params = init_params(spec, 10, SeededRng(8, 2))
        probs, cache = model_forward(np.array([1, 2, 3]), spec, params)
        grads = model_backward(cache, DamageLabel.DESTROYED, spec, params)
        assert grads.keys() == params.keys()
        for name in params:
            assert grads[name].shape == params[name].shape

    def test_loss_never_increases_when_true_logit_grows(self):
        # Cross-entropy through softmax is monotone in the true logit.
        from narrative_seq.tensor_core import softmax

        rng = np.random.default_rng(4)
        for _ in range(25):
            logits = rng.normal(size=4)
            base = -np.log(softmax(logits)[2])
            logits[2] += rng.uniform(0.0, 3.0)
            bumped = -np.log(softmax(logits)[2])
            assert bumped <= base + 1e-15

    def test_cache_spec_mismatch_rejected(self):
        spec1 = build_spec("LSTM", embedding_dim=3, hidden_units=4, dense_hidden_units=4)
        spec2 = build_spec("GRU-LSTM", embedding_dim=3, hidden_units=4, dense_hidden_units=4)
        params1 = init_params(spec1, 10, SeededRng(9, 2))
        _, cache = model_forward(np.array([1, 2]), spec1, params1)
        with pytest.raises(DimensionError):
            model_backward(cache, DamageLabel.MINOR, spec2, params1)

    @pytest.mark.parametrize("labels", [np.array([0, 1]), np.array([0, 1, 2, 3]),
                                        np.array([0, 4, 1]), np.array([0, -1, 1]), 4])
    def test_labels_not_one_code_per_row_rejected(self, labels):
        spec = build_spec("GRU", embedding_dim=3, hidden_units=4, dense_hidden_units=4)
        params = init_params(spec, 10, SeededRng(9, 2))
        ids = np.array([[1, 2], [3, 4], [5, 6]]) if np.ndim(labels) else np.array([1, 2])
        _, cache = model_forward(ids, spec, params)
        with pytest.raises(DimensionError, match="class codes"):
            model_backward(cache, labels, spec, params)


class TestPredictClass:
    def test_clear_maximum(self):
        npt.assert_array_equal(predict_classes(np.array([[0.1, 0.7, 0.1, 0.1]])),
                               [DamageLabel.SUBSTANTIAL])

    def test_tie_breaks_to_lowest_index(self):
        npt.assert_array_equal(predict_classes(np.array([[0.25, 0.25, 0.25, 0.25]])),
                               [DamageLabel.DESTROYED])

    def test_invariant_under_monotone_logit_transform(self):
        from narrative_seq.tensor_core import softmax

        rng = np.random.default_rng(15)
        for _ in range(20):
            logits = rng.normal(size=(1, 4))
            before = predict_classes(softmax(logits, axis=-1))
            after = predict_classes(softmax(3.0 * logits + 1.5, axis=-1))
            npt.assert_array_equal(before, after)


class TestSpecValidation:
    def test_stack_pattern_enforced(self):
        bad = (
            RecurrentLayerSpec(CellKind.GRU, 4, returns_sequence=False),
            RecurrentLayerSpec(CellKind.LSTM, 4, returns_sequence=False),
        )
        with pytest.raises(ValueError):
            ModelSpec(name="bad", embedding_dim=4, recurrent_stack=bad,
                      dense_hidden_units=4)

    def test_last_layer_must_collapse(self):
        bad = (RecurrentLayerSpec(CellKind.GRU, 4, returns_sequence=True),)
        with pytest.raises(ValueError):
            ModelSpec(name="bad", embedding_dim=4, recurrent_stack=bad,
                      dense_hidden_units=4)

    def test_round_trips_through_dict(self):
        spec = build_spec("GRU-BLSTM-sRNN", embedding_dim=8, hidden_units=6,
                          dense_hidden_units=5)
        assert ModelSpec.from_dict(spec.to_dict()) == spec


class TestParamShapes:
    def test_documented_shape_table(self):
        spec = build_spec("GRU-BLSTM-sRNN", embedding_dim=3, hidden_units=4,
                          dense_hidden_units=5)
        shapes = param_shapes(spec, vocab_size=10)
        assert shapes["embedding"] == (10, 3)
        assert shapes["layer0.W_z"] == (3, 4)          # GRU reads embeddings
        assert shapes["layer1.fwd.W_i"] == (4, 4)      # BLSTM reads GRU output
        assert shapes["layer1.bwd.U_o"] == (4, 4)
        assert shapes["layer2.W"] == (8, 4)            # sRNN reads both directions
        assert shapes["dense_hidden.W"] == (4, 5)
        assert shapes["output.W"] == (5, 4)

    def test_init_matches_shape_table(self):
        spec = build_spec("sRNN-LSTM", embedding_dim=3, hidden_units=4,
                          dense_hidden_units=5)
        params = init_params(spec, 7, SeededRng(2, 2))
        shapes = param_shapes(spec, 7)
        assert list(params.keys()) == list(shapes.keys())
        for name, shape in shapes.items():
            assert params[name].shape == shape

    def test_biases_zero_and_padding_row_zero(self):
        spec = build_spec("LSTM", embedding_dim=3, hidden_units=4, dense_hidden_units=5)
        params = init_params(spec, 7, SeededRng(2, 2))
        npt.assert_array_equal(params["layer0.b_f"], np.zeros(4))
        npt.assert_array_equal(params["embedding"][0], np.zeros(3))
        assert np.abs(params["embedding"][1:]).min() > 0.0
