"""Engine primitives: forward values, shape errors, and gradient correctness."""

import math
import threading
import weakref

import numpy as np
import pytest

from dualprune import tensor as T
from dualprune.errors import ShapeError, ValidationError
from dualprune.model import ModelConfig


def run_backward(loss, tape):
    return T.backward(tape, loss)


def scalar_loss(x):
    """Cross-entropy of `x`'s last-axis rows against fixed targets 0, 1, 2, ... (mod classes)."""
    rows = x.shape[:-1]
    return T.cross_entropy(x, np.arange(math.prod(rows)).reshape(rows) % x.shape[-1])


def cross_entropy_grad(logits, targets):
    """Closed form d(mean cross-entropy)/d(logits): (softmax - onehot) / N."""
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    p[np.arange(len(targets)), targets] -= 1.0
    return p / len(targets)


class TestForwardPrimitives:
    def test_matmul_identity(self):
        out = T.matmul(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[1.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_softmax_symmetry(self):
        out = T.softmax_last(T.Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_cross_entropy_uniform(self):
        out = T.cross_entropy(T.Tensor([0.0, 0.0, 0.0, 0.0]), np.asarray(2))
        assert out.data.shape == ()
        assert float(out.data) == pytest.approx(math.log(4.0), rel=1e-12)

    @pytest.mark.parametrize(
        "op,a_shape,b_shape",
        [
            ("matmul", (2, 3), (2, 3)),
            ("add", (2, 3), (4,)),
            ("elementwise-multiply", (2, 3), (2, 4)),
        ],
    )
    def test_shape_mismatch_names_op_and_shapes(self, op, a_shape, b_shape):
        a = T.Tensor(np.zeros(a_shape))
        b = T.Tensor(np.zeros(b_shape))
        primitive = {"matmul": T.matmul, "add": T.add, "elementwise-multiply": T.mul}[op]
        with pytest.raises(ShapeError) as err:
            primitive(a, b)
        message = str(err.value)
        assert op in message
        assert str(a_shape) in message and str(b_shape) in message

    def test_cross_entropy_target_shape_mismatch(self):
        with pytest.raises(ShapeError, match="cross-entropy"):
            T.cross_entropy(T.Tensor(np.zeros((3, 5))), np.zeros(4, dtype=int))

    def test_embedding_out_of_range(self):
        table = T.Tensor(np.zeros((4, 2)))
        with pytest.raises(ValidationError, match="out of range"):
            T.embedding_lookup(table, np.asarray([0, 4]))

    def test_causal_mask_requires_square(self):
        with pytest.raises(ShapeError, match="causal-mask-add"):
            T.causal_mask_add(T.Tensor(np.zeros((2, 3))))

    def test_causal_mask_keeps_values_finite(self):
        out = T.causal_mask_add(T.Tensor(np.zeros((3, 3))))
        assert np.all(np.isfinite(out.data))
        probs = T.softmax_last(out)
        assert np.allclose(probs.data[0], [1.0, 0.0, 0.0])

    def test_finite_outputs_on_finite_inputs(self):
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.normal(scale=30.0, size=(4, 6)))
        for primitive in (T.silu, T.softmax_last, T.rms_norm):
            assert np.all(np.isfinite(primitive(x).data)), primitive.__name__

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = T.softmax_last(T.Tensor(rng.normal(scale=12.0, size=(5, 7, 11))))
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_cross_entropy_confident_prediction_tends_to_zero(self):
        losses = []
        for scale in (1.0, 5.0, 30.0):
            logits = np.zeros(8)
            logits[3] = scale
            losses.append(float(T.cross_entropy(T.Tensor(logits), np.asarray(3)).data))
        assert losses[0] > losses[1] > losses[2]
        assert losses[-1] < 1e-12


def test_cross_entropy_bit_identical_to_unfused_formula():
    rng = np.random.default_rng(8)
    for shape in [(5,), (7, 11), (4, 9, 256)]:
        logits = rng.normal(scale=4.0, size=shape)
        targets = rng.integers(0, shape[-1], size=shape[:-1])
        z = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(z)
        denom = e.sum(axis=-1, keepdims=True)
        picked = np.take_along_axis(z, targets[..., None], axis=-1)[..., 0]
        expected_loss = (np.log(denom[..., 0]) - picked).mean()
        expected_grad = e / denom
        np.put_along_axis(expected_grad, targets[..., None],
                          np.take_along_axis(expected_grad, targets[..., None], axis=-1) - 1.0,
                          axis=-1)
        expected_grad *= 1.0 / max(targets.size, 1)

        x = T.param(logits, "x")
        tape = T.GradientTape()
        with tape:
            loss = T.cross_entropy(x, targets)
        assert float(loss.data) == float(expected_loss), shape
        assert np.array_equal(T.backward(tape, loss)[x.tid].data, expected_grad), shape
        assert np.array_equal(x.data, logits), shape  # the logits are left as they were


class TestTape:
    def test_square_loss_gradient(self):
        w = T.param(np.array([[1.0, -2.0]]), "w")
        tape = T.GradientTape()
        with tape:
            loss = T.cross_entropy(T.mul(w, w), np.array([0]))
        grads = run_backward(loss, tape)
        expected = cross_entropy_grad(np.array([[1.0, 4.0]]), np.array([0])) * 2.0 * w.data
        assert np.allclose(grads[w.tid].data, expected, atol=1e-12)

    def test_linear_matmul_gradient(self):
        w = T.param(np.array([[3.0, 1.0], [5.0, 2.0]]), "w")
        x = T.Tensor(np.array([[1.0, 1.0]]))
        tape = T.GradientTape()
        with tape:
            loss = T.cross_entropy(T.matmul(x, w), np.array([1]))
        grads = run_backward(loss, tape)
        expected = x.data.T @ cross_entropy_grad(np.array([[8.0, 3.0]]), np.array([1]))
        assert np.allclose(grads[w.tid].data, expected, atol=1e-12)

    def test_empty_tape_rejected(self):
        with pytest.raises(ValidationError, match="empty tape"):
            T.backward(T.GradientTape(), T.Tensor(1.0))

    def test_backward_spends_the_tape(self):
        w = T.param(np.array([[3.0, 1.0], [5.0, 2.0]]), "w")
        tape = T.GradientTape()
        with tape:
            loss = T.cross_entropy(T.matmul(T.Tensor(np.ones((1, 2))), w), np.array([1]))
        run_backward(loss, tape)
        with pytest.raises(ValidationError, match="empty tape"):
            run_backward(loss, tape)

    def test_backward_frees_the_activations_it_replays(self):
        w = T.param(np.array([[3.0, 1.0], [5.0, 2.0]]), "w")
        tape = T.GradientTape()
        with tape:
            hidden = T.silu(T.matmul(T.Tensor(np.ones((3, 2))), w))
            loss = T.cross_entropy(T.mul(hidden, hidden), np.array([0, 1, 0]))
        activation = weakref.ref(hidden.data)
        del hidden
        assert activation() is not None  # held by the tape
        grads = run_backward(loss, tape)
        assert activation() is None
        assert tape.records == []
        assert grads[w.tid].shape == (2, 2)

    def test_foreign_loss_rejected(self):
        w = T.param(np.ones((2, 2)), "w")
        tape = T.GradientTape()
        with tape:
            T.mul(w, w)
        with pytest.raises(ValidationError, match="not produced by this tape"):
            T.backward(tape, T.Tensor(0.0))

    def test_non_scalar_loss_rejected(self):
        w = T.param(np.ones((2, 2)), "w")
        tape = T.GradientTape()
        with tape:
            out = T.mul(w, w)
        with pytest.raises(ShapeError, match="scalar"):
            T.backward(tape, out)

    def test_nested_tapes_rejected(self):
        with T.GradientTape():
            with pytest.raises(ValidationError, match="already active"):
                with T.GradientTape():
                    pass

    def test_each_thread_has_its_own_active_tape(self):
        both_active = threading.Barrier(2, timeout=10)
        tapes = [T.GradientTape(), T.GradientTape()]
        errors = []

        def record(tape, value):
            try:
                with tape:
                    both_active.wait()
                    T.mul(T.Tensor(value), T.Tensor(value))
                    both_active.wait()
            except Exception as e:  # reported by the assertion below
                errors.append(e)

        threads = [threading.Thread(target=record, args=(tape, float(i)))
                   for i, tape in enumerate(tapes)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for i, tape in enumerate(tapes):
            [(out, _, _)] = tape.records
            assert float(out.data) == float(i * i)

    def test_gradient_shapes_match_weights(self):
        rng = np.random.default_rng(2)
        w = T.param(rng.normal(size=(3, 4)), "w")
        x = T.Tensor(rng.normal(size=(2, 3)))
        tape = T.GradientTape()
        with tape:
            loss = scalar_loss(T.silu(T.matmul(x, w)))
        grads = run_backward(loss, tape)
        assert grads[w.tid].data.shape == (3, 4)

    def test_accumulation_linearity(self):
        rng = np.random.default_rng(3)
        w = T.param(rng.normal(size=(4, 4)), "w")
        x1 = T.Tensor(rng.normal(size=(2, 4)))
        x2 = T.Tensor(rng.normal(size=(2, 4)))

        def loss_of(x):
            tape = T.GradientTape()
            with tape:
                loss = scalar_loss(T.silu(T.matmul(x, w)))
            return run_backward(loss, tape)[w.tid].data

        tape = T.GradientTape()
        with tape:
            combined = T.add(scalar_loss(T.silu(T.matmul(x1, w))),
                             scalar_loss(T.silu(T.matmul(x2, w))))
        joint = run_backward(combined, tape)[w.tid].data
        assert np.allclose(joint, loss_of(x1) + loss_of(x2), atol=1e-10)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(5, 5))
        x = rng.normal(size=(3, 5))

        def once():
            w = T.param(data.copy(), "w")
            tape = T.GradientTape()
            with tape:
                loss = scalar_loss(T.softmax_last(T.matmul(T.Tensor(x), w)))
            return run_backward(loss, tape)[w.tid].data

        assert np.array_equal(once(), once())

    def test_per_sample_gradient_only_for_matmul_weights(self):
        rng = np.random.default_rng(5)
        scale = T.param(np.ones(4), "scale")
        tape = T.GradientTape()
        with tape:
            loss = T.cross_entropy(T.mul(T.Tensor(rng.normal(size=(2, 3, 4))), scale),
                                   rng.integers(0, 4, size=(2, 3)))
        with pytest.raises(ShapeError, match="no per-sample gradient for scale"):
            T.backward(tape, loss, [scale], samples=2)


def serial(calls):
    return [fn(*args) for fn, *args in calls]


class TestRowBlockGradients:
    X = np.random.default_rng(5).standard_normal((4, 3, 5))
    TARGETS = np.random.default_rng(6).integers(0, 5, size=(4, 3))
    CUTS = [slice(k, k + 1) for k in range(4)]  # each block a quarter of the tokens

    def test_summed_gradients_add_the_blocks_in_batch_order(self):
        rng = np.random.default_rng(7)
        w = T.param(rng.standard_normal((5, 5)), "w")
        p = T.param(rng.standard_normal((1, 3, 5)), "p")  # broadcast over the rows
        v = T.param(np.linspace(-1.0, 1.0, 5), "v")

        def logits_of(r):
            return T.add(T.mul(T.matmul(T.Tensor(self.X[r]), w), T.silu(v)), p)

        def block_gradients(r):
            """The block's own backward of its share of the batch's mean loss
            (its mean times a quarter)."""
            tape = T.GradientTape()
            with tape:
                loss = T.mul(T.cross_entropy(logits_of(r), self.TARGETS[r]), T.Tensor(0.25))
            grads = T.backward(tape, loss, [w, p, v])
            return [grads[t.tid].data for t in (w, p, v)]

        tape = T.GradientTape()
        with tape:
            loss = T.row_block_cross_entropy(logits_of, self.TARGETS, self.CUTS, serial)
        grads = T.backward(tape, loss, [w, p, v])
        summed = [grads[t.tid].data for t in (w, p, v)]
        expected = block_gradients(self.CUTS[0])
        for r in self.CUTS[1:]:
            expected = [acc + g for acc, g in zip(expected, block_gradients(r))]
        assert [g.tobytes() for g in summed] == [g.tobytes() for g in expected]
        assert summed[1].shape == p.shape


def composed_attention(q, k, v, num_heads):
    """Causal attention as the chain of primitives that `causal_attention` fuses."""
    n_batch, n_tok, width = q.shape
    head_dim = width // num_heads

    def split(t):
        return T.transpose(T.reshape(t, (n_batch, n_tok, num_heads, head_dim)), 1, 2)

    scores = T.mul(T.matmul(split(q), T.transpose(split(k), 2, 3)),
                   T.Tensor(1.0 / math.sqrt(head_dim)))
    attn = T.softmax_last(T.causal_mask_add(scores))
    return T.reshape(T.transpose(T.matmul(attn, split(v)), 1, 2), (n_batch, n_tok, width))


def assert_matches_chain(rng, shape, num_heads):
    """The fused primitive's output and q, k, v gradients equal the chain's, bit for bit."""
    weighting = T.Tensor(rng.normal(size=shape))
    data = [rng.normal(size=shape) for _ in range(3)]
    results = []
    for attention in (T.causal_attention, composed_attention):
        qkv = [T.param(d, name) for d, name in zip(data, "qkv")]
        tape = T.GradientTape()
        with tape:
            out = attention(*qkv, num_heads)
            loss = scalar_loss(T.mul(out, weighting))
        grads = T.backward(tape, loss)
        results.append([out.data] + [grads[t.tid].data for t in qkv])
    for name, fused, chain in zip(["out", "q", "k", "v"], *results):
        assert np.array_equal(fused, chain), (shape, num_heads, name)


TINY = ModelConfig(vocab_size=32, context_length=16, num_layers=1, d_model=16,
                   num_heads=2, d_ff=24, seed=3)


class TestEmbeddingBackward:
    @staticmethod
    def table_gradient(table, ids, g):
        tape = T.GradientTape()
        with tape:
            T.embedding_lookup(table, ids)
        [(_, _, backward_fn)] = tape.records
        return backward_fn(g, (T.SUMMED,))[0]

    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_bit_identical_to_add_at(self, batch):
        rng = np.random.default_rng(batch)
        table = T.param(rng.normal(size=(32, 16)), "embed")
        ids = rng.integers(0, 8, size=(batch, 63))  # few rows, so ids repeat
        g = rng.normal(size=(batch, 63, 16))
        g[rng.random(g.shape) < 0.2] = -0.0
        g[:, :, 3] = -0.0  # a column whose every slot sums only -0.0 entries
        expected = np.zeros_like(table.data)
        np.add.at(expected, ids, g)
        assert self.table_gradient(table, ids, g).tobytes() == expected.tobytes()

    def test_position_path_bit_identical_to_add_at(self):
        rng = np.random.default_rng(7)
        table = T.param(rng.normal(size=(64, 16)), "pos")
        ids = np.arange(63)
        g = rng.normal(size=(63, 16))
        g[::5] = -0.0
        expected = np.zeros_like(table.data)
        np.add.at(expected, ids, g)
        assert self.table_gradient(table, ids, g).tobytes() == expected.tobytes()


class TestCausalAttention:
    @pytest.mark.parametrize("config", [TINY, ModelConfig()], ids=["tiny", "default"])
    def test_bit_identical_to_composed_chain(self, config):
        rng = np.random.default_rng(config.d_model)
        for n_batch, n_tok in [(1, 2), (1, config.context_length - 1), (3, 5),
                               (8, config.context_length // 2 + 3), (8, config.context_length - 1)]:
            assert_matches_chain(rng, (n_batch, n_tok, config.d_model), config.num_heads)

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    @pytest.mark.parametrize("n_tok", [1, 2, 3, 17, 63])
    def test_bit_identical_to_composed_chain_per_shape(self, n_tok, num_heads):
        rng = np.random.default_rng(100 * n_tok + num_heads)
        assert_matches_chain(rng, (3, n_tok, 16 * num_heads), num_heads)

    @pytest.mark.parametrize("value", [-1e35, -1.0, 0.0, 2.5, 1e35])
    def test_a_key_never_reaches_earlier_rows(self, value):
        # one head whose values are the identity: each output row is that
        # query's row of attention probabilities
        n_tok = 6
        rng = np.random.default_rng(7)
        q, k = (rng.normal(size=(2, n_tok, n_tok)) for _ in range(2))
        v = T.Tensor(np.broadcast_to(np.eye(n_tok), (2, n_tok, n_tok)))
        base = T.causal_attention(T.Tensor(q), T.Tensor(k), v, 1).data
        rows, cols = np.triu_indices(n_tok, 1)
        for j in range(n_tok):
            moved_k = k.copy()
            moved_k[:, j] = value
            probs = T.causal_attention(T.Tensor(q), T.Tensor(moved_k), v, 1).data
            assert np.array_equal(probs[:, :j], base[:, :j]), j
            above = probs[:, rows, cols]
            assert np.all(above == 0.0) and not np.signbit(above).any(), j

    def test_one_tape_record(self):
        x = T.Tensor(np.zeros((2, 3, 4)))
        tape = T.GradientTape()
        with tape:
            T.causal_attention(x, x, x, 2)
        assert len(tape.records) == 1

    def test_future_positions_do_not_matter(self):
        rng = np.random.default_rng(6)
        q, k, v = (rng.normal(size=(2, 6, 8)) for _ in range(3))
        base = T.causal_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 2).data
        k[:, 4:], v[:, 4:] = 1e3, -1e3
        moved = T.causal_attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 2).data
        assert np.array_equal(base[:, :4], moved[:, :4])

    @pytest.mark.parametrize("shapes,heads", [
        (((2, 3, 4), (2, 3, 4), (2, 3, 5)), 2),
        (((3, 4), (3, 4), (3, 4)), 2),
        (((2, 3, 6), (2, 3, 6), (2, 3, 6)), 4),
    ])
    def test_shape_errors(self, shapes, heads):
        q, k, v = (T.Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(ShapeError, match="causal-attention"):
            T.causal_attention(q, k, v, heads)


def _numeric_grad(loss_fn, w, step=1e-5):
    """Central differences of `loss_fn()` in every entry of `w`."""
    flat = w.data.reshape(-1)
    grad = np.empty(flat.size)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        plus = loss_fn()
        flat[i] = original - step
        minus = loss_fn()
        flat[i] = original
        grad[i] = (plus - minus) / (2.0 * step)
    return grad.reshape(w.data.shape)


def _worst_rel_error(analytic, numeric):
    # floor guards entries whose true gradient is ~0 (finite differences
    # would otherwise just compare rounding noise)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-5)
    return float((np.abs(analytic - numeric) / denom).max())


class TestGradientsAgainstFiniteDifferences:
    """Every primitive, 10 random small instances, rel. error < 1e-4."""

    @pytest.mark.parametrize("case", ["matmul_a", "matmul_b", "add", "mul", "silu",
                                      "softmax", "rms_norm", "embedding", "causal",
                                      "cross_entropy", "reshape", "transpose",
                                      "attention_q", "attention_k", "attention_v"])
    def test_primitive_gradients(self, case):
        rng = np.random.default_rng(np.frombuffer(case.encode()[:8].ljust(8, b"_"), dtype=np.uint32))
        worst = 0.0
        for _ in range(10):
            w = T.param(rng.normal(size=(3, 4)), "w")
            other = T.Tensor(rng.normal(size=(4, 3)))
            second = T.Tensor(rng.normal(size=(3, 4)))
            weighting = T.Tensor(np.arange(12.0).reshape(3, 4))
            ids = rng.integers(0, 3, size=(2, 2))
            targets = rng.integers(0, 4, size=3)

            def build():
                if case == "matmul_a":
                    return scalar_loss(T.silu(T.matmul(w, other)))
                if case == "matmul_b":
                    return scalar_loss(T.silu(T.matmul(other, w)))
                if case == "add":
                    return scalar_loss(T.silu(T.add(w, second)))
                if case == "mul":
                    return scalar_loss(T.silu(T.mul(w, weighting)))
                if case == "silu":
                    return scalar_loss(T.silu(w))
                if case == "softmax":
                    return scalar_loss(T.mul(T.softmax_last(w), weighting))
                if case == "rms_norm":
                    return scalar_loss(T.mul(T.rms_norm(w), weighting))
                if case == "embedding":
                    return scalar_loss(T.silu(T.embedding_lookup(w, ids)))
                if case == "causal":
                    sq = T.matmul(w, T.transpose(w, 0, 1))
                    probs = T.softmax_last(T.causal_mask_add(sq))
                    return scalar_loss(T.mul(probs, T.Tensor(np.arange(9.0).reshape(3, 3))))
                if case == "cross_entropy":
                    return T.cross_entropy(w, targets)
                if case == "reshape":
                    return scalar_loss(T.silu(T.reshape(w, (2, 6))))
                if case == "transpose":
                    return scalar_loss(T.silu(T.matmul(T.transpose(w, 0, 1), second)))
                if case.startswith("attention"):
                    x, y = T.reshape(w, (1, 3, 4)), T.reshape(second, (1, 3, 4))
                    qkv = [x if c == case[-1] else y for c in "qkv"]
                    return scalar_loss(T.mul(T.causal_attention(*qkv, 2), weighting))
                raise AssertionError(case)

            tape = T.GradientTape()
            with tape:
                loss = build()
            analytic = run_backward(loss, tape)[w.tid].data

            def loss_value():
                return float(build().data)

            worst = max(worst, _worst_rel_error(analytic, _numeric_grad(loss_value, w)))
        assert worst < 1e-4, f"{case}: worst rel error {worst}"

