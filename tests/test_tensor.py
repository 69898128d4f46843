import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from xrtd.tensor import (DimensionError, GradError, Tensor, attend, backward,
                         binary_cross_entropy_with_logits, embedding, ffn,
                         gated_bias, gather_rows, joined_sum, layer_norm,
                         linear, matmul, no_grad, softmax,
                         softmax_cross_entropy, two_threads, zero_grads)
from xrtd.tensor import _sigmoid


def fd_grad(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x (in place)."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = fn()
        flat[i] = keep - h
        down = fn()
        flat[i] = keep
        gflat[i] = (up - down) / (2 * h)
    return grad


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        out = matmul(eye, Tensor(np.eye(2)))
        assert np.array_equal(out.data, np.eye(2))

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.allclose(matmul(a, b).data, [[17.0], [39.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        weights = rng.normal(size=(3, 2))

        def loss():
            return float((np.matmul(a.data, b.data) * weights).sum())

        out = (matmul(a, b) * Tensor(weights)).sum()
        backward(out)
        for t in (a, b):
            numeric = fd_grad(loss, t.data)
            rel = np.abs(t.grad - numeric) / np.maximum(np.abs(numeric), 1e-8)
            assert rel.max() < 1e-4

    def test_batched_matmul_gradients(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        backward(matmul(a, b).sum())
        numeric = fd_grad(lambda: float(np.matmul(a.data, b.data).sum()),
                          b.data)
        assert np.allclose(b.grad, numeric, rtol=1e-5, atol=1e-8)


class TestLinear:
    @pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
    def test_equals_matmul_plus_bias_bit_for_bit(self, x_dtype):
        # the model feeds float32 weights float32 or float64 activations
        rng = np.random.default_rng(11)
        x_data = rng.normal(size=(2, 5, 4)).astype(x_dtype)
        w_data = rng.normal(size=(4, 3)).astype(np.float32)
        b_data = rng.normal(size=(3,)).astype(np.float32)
        weights = rng.normal(size=(2, 5, 3)).astype(x_dtype)

        def run(fused):
            x, w, b = (Tensor(a.copy(), requires_grad=True)
                       for a in (x_data, w_data, b_data))
            out = linear(x, w, b) if fused else matmul(x, w) + b
            backward((out * Tensor(weights)).sum())
            return [out.data, x.grad, w.grad, b.grad]

        for fused, plain in zip(run(True), run(False)):
            assert fused.dtype == plain.dtype
            assert np.array_equal(fused, plain)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2,)), requires_grad=True)

        def graph():
            out = linear(x, w, b)
            return (out * out).sum()

        backward(graph())
        for t in (x, w, b):
            numeric = fd_grad(lambda: graph().item(), t.data)
            denom = np.maximum(np.maximum(np.abs(numeric), np.abs(t.grad)), 1e-4)
            assert (np.abs(t.grad - numeric) / denom).max() < 1e-4

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))),
                   Tensor(np.zeros(2)))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 8)), requires_grad=True)
        loss = softmax_cross_entropy(logits, [0, 5, 7])
        assert loss.item() == pytest.approx(3 * math.log(8), rel=1e-6)

    def test_confident_logits_near_zero_loss(self):
        data = np.zeros((2, 8))
        data[0, 3] = 1e4
        data[1, 1] = 1e4
        loss = softmax_cross_entropy(Tensor(data), [3, 1])
        assert loss.item() < 1e-6

    def test_against_logsumexp_oracle(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(4, 8))
        targets = rng.integers(0, 8, size=4)
        expected = 0.0
        for row, t in zip(data, targets):
            expected += math.log(np.exp(row).sum()) - row[t]
        loss = softmax_cross_entropy(Tensor(data), targets)
        assert loss.item() == pytest.approx(expected, abs=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        targets = [0, 2, 4]
        backward(softmax_cross_entropy(logits, targets))
        numeric = fd_grad(
            lambda: sum(math.log(np.exp(logits.data[r]).sum())
                        - logits.data[r, targets[r]] for r in range(3)),
            logits.data)
        assert np.allclose(logits.grad, numeric, atol=1e-8)


class TestBinaryCrossEntropy:
    def test_zero_logit_is_ln2(self):
        loss = binary_cross_entropy_with_logits(Tensor(np.zeros(4)),
                                                np.array([0., 1., 0., 1.]))
        assert loss.item() == pytest.approx(4 * math.log(2), rel=1e-6)

    def test_saturated_logit(self):
        loss = binary_cross_entropy_with_logits(Tensor(np.array([20.0])),
                                                np.array([1.0]))
        assert loss.item() < 1e-6

    def test_against_stable_formula(self):
        rng = np.random.default_rng(5)
        x = rng.normal(scale=5, size=16)
        z = rng.integers(0, 2, size=16).astype(float)
        expected = (np.maximum(x, 0) - x * z + np.log1p(np.exp(-np.abs(x)))).sum()
        loss = binary_cross_entropy_with_logits(Tensor(x), z)
        assert loss.item() == pytest.approx(expected, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            binary_cross_entropy_with_logits(Tensor(np.zeros(3)), np.zeros(4))


class TestGelu:
    """The GELU inside `ffn`."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_equals_the_kept_terms_form_bit_for_bit(self, dtype):
        # one row, so b1's gradient is the gradient at the GELU's input
        rng = np.random.default_rng(12)
        h_data, w1_data, w2_data, b2_data, weights = (
            rng.normal(size=shape).astype(dtype)
            for shape in ((1, 5), (5, 28), (28, 3), (3,), (1, 3)))
        b1_data = (3.0 * rng.normal(size=28)).astype(dtype)
        b1 = Tensor(b1_data, requires_grad=True)
        out = ffn(Tensor(h_data), Tensor(w1_data), b1, Tensor(w2_data),
                  Tensor(b2_data))
        backward((out * Tensor(weights)).sum())
        # the backward as it ran when the forward kept x*x and the tanh
        x_data = np.matmul(h_data, w1_data) + b1_data
        c = math.sqrt(2.0 / math.pi)
        x_sq = x_data * x_data
        t = np.tanh(c * (x_data + 0.044715 * x_sq * x_data))
        d_inner = c * (1.0 + 3 * 0.044715 * x_sq)
        local = 0.5 * (1.0 + t) + 0.5 * x_data * (1.0 - t * t) * d_inner
        expected = np.matmul(weights, w2_data.T) * local
        assert b1.grad.dtype == dtype
        assert np.array_equal(b1.grad, expected[0])

    def test_backward_keeps_only_the_input(self):
        # the node keeps the GELU's input, not its output
        rng = np.random.default_rng(13)
        h, w1, b1, w2, b2 = (Tensor(rng.normal(size=shape), requires_grad=True)
                             for shape in ((3, 4), (4, 6), (6,), (6, 2), (2,)))
        out = ffn(h, w1, b1, w2, b2)
        kept = [cell.cell_contents for cell in out.node.backward_fn.__closure__
                if isinstance(cell.cell_contents, np.ndarray)]
        inputs = [x for x in kept if any(x is t.data for t in (h, w1, w2))]
        others = [x for x in kept if not any(x is y for y in inputs)]
        assert len(inputs) == 3
        assert len(others) == 1
        assert np.array_equal(others[0], np.matmul(h.data, w1.data) + b1.data)


# The composed forms that the fused nodes replay: the model's FFN, attention
# read-out and gated bias as they were built from one node per op, with the
# GELU, sigmoid and negation ops they used.

def composed_gelu(x):
    x_data, node = x.data, x.node
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x_data + 0.044715 * (x_data * x_data) * x_data))

    def bw(g):
        d_inner = c * (1.0 + 3 * 0.044715 * (x_data * x_data))
        node.accumulate(g * (0.5 * (1.0 + t)
                             + 0.5 * x_data * (1.0 - t * t) * d_inner))
    return Tensor(0.5 * x_data * (1.0 + t), parents=(x,), backward_fn=bw)


def composed_sigmoid(x):
    y, node = _sigmoid(x.data), x.node

    def bw(g):
        node.accumulate(g * y * (1.0 - y))
    return Tensor(y, parents=(x,), backward_fn=bw)


def composed_neg(x):
    node = x.node

    def bw(g):
        node.accumulate(-g)
    return Tensor(-x.data, parents=(x,), backward_fn=bw)


def composed_ffn(h, w1, b1, w2, b2):
    return linear(composed_gelu(linear(h, w1, b1)), w2, b2)


def composed_attend(attn, v, wo, bo):
    product = matmul(attn, v)
    b, heads, n, dk = product.shape
    merged = product.transpose((0, 2, 1, 3)).reshape((b, n, heads * dk))
    return linear(merged, wo, bo)


def composed_gated_bias(d, q, u, v, w):
    g_up = composed_sigmoid((q * u).sum(axis=-1, keepdims=True))
    g_reset = composed_sigmoid((q * v).sum(axis=-1, keepdims=True))
    return d + g_up * d + (Tensor(1.0) + composed_neg(g_up)) * (w * g_reset * d)


# fused node, composed form, input shapes, indices of the activation inputs
FUSED = {
    "ffn": (ffn, composed_ffn, [(2, 5, 4), (4, 6), (6,), (6, 4), (4,)], (0,)),
    "attend": (attend, composed_attend,
               [(2, 2, 5, 5), (2, 2, 5, 3), (6, 4), (4,)], (0, 1)),
    "gated_bias": (gated_bias, composed_gated_bias,
                   [(1, 2, 5, 5), (2, 2, 5, 3), (1, 2, 1, 3), (1, 2, 1, 3),
                    (1, 2, 1, 1)], (1,)),
}
# activation and weight types: the model's first block, a widened model,
# and the later blocks, which NumPy 2 computes in float64 (module docstring
# of xrtd.tensor). For gated_bias, "float32" is block 0's float32 q.
DTYPES = {"float32": (np.float32, np.float32),
          "float64": (np.float64, np.float64),
          "float64_activations": (np.float64, np.float32)}


def fused_inputs(name, dtypes, seed=0):
    _, _, shapes, activations = FUSED[name]
    rng = np.random.default_rng(seed)
    return [(2.0 * rng.normal(size=shape)).astype(
                dtypes[0] if i in activations else dtypes[1])
            for i, shape in enumerate(shapes)]


def value_and_grads(fn, arrays, activations, seed=1):
    """The value of `fn` and its inputs' gradients under a weighted sum.

    Each activation input also gets a term from outside `fn` first, as q
    gets the score product's before the gated bias's, so a node that
    swapped the order of its own terms would change its bits."""
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    rng = np.random.default_rng(seed)
    out = fn(*inputs)
    loss = (out * Tensor(rng.normal(size=out.shape).astype(out.dtype))).sum()
    for i in activations:
        x = inputs[i]
        loss = (x * Tensor(rng.normal(size=x.shape).astype(x.dtype))).sum() + loss
    backward(loss)
    return [out.data] + [t.grad for t in inputs]


def traced_bytes_after(fn, arrays):
    """The traced bytes that `fn`'s forward allocated and left alive, with
    its result (and so its node) held."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    tracemalloc.start()
    try:
        out = fn(*inputs)
        return tracemalloc.get_traced_memory()[0], out
    finally:
        tracemalloc.stop()


class TestFusedNodes:
    @pytest.mark.parametrize("dtypes", DTYPES)
    @pytest.mark.parametrize("name", FUSED)
    def test_value_and_gradients_equal_the_composed_form_bit_for_bit(
            self, name, dtypes):
        fused, composed, _, activations = FUSED[name]
        arrays = fused_inputs(name, DTYPES[dtypes])
        for got, want in zip(value_and_grads(fused, arrays, activations),
                             value_and_grads(composed, arrays, activations)):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtypes", ["float32", "float64_activations"])
    def test_equal_the_composed_forms_on_the_models_layouts(self, dtypes):
        # q, v and d are views as attention_weights makes them, and the
        # [b, heads, n, n] products exceed numpy's 256 KiB threshold for
        # computing into a temporary's buffer: a sum over a product with
        # another layout adds in another order
        b, n, heads, dk = 8, 40, 4, 4
        act, par = DTYPES[dtypes]
        rng = np.random.default_rng(8)
        q_base, v_base = (rng.normal(size=(b, n, heads, dk)).astype(act)
                          for _ in range(2))
        arrays = {"q": q_base, "v": v_base,
                  "d": rng.normal(size=(n, n, heads)).astype(par),
                  "attn": rng.normal(size=(b, heads, n, n)).astype(act),
                  "wo": rng.normal(size=(heads * dk, 8)).astype(par),
                  "bo": rng.normal(size=8).astype(par),
                  **{k: rng.normal(size=(heads, dk)).astype(par)
                     for k in ("gate_u", "gate_v")},
                  "gate_w": rng.normal(size=heads).astype(par)}

        def run(fns):
            t = {k: Tensor(a.copy(), requires_grad=True) for k, a in arrays.items()}
            q, v = (t[k].transpose((0, 2, 1, 3)) for k in ("q", "v"))
            d = t["d"].transpose((2, 0, 1)).reshape((1, heads, n, n))
            bias = fns[1](d, q, t["gate_u"].reshape((1, heads, 1, dk)),
                          t["gate_v"].reshape((1, heads, 1, dk)),
                          t["gate_w"].reshape((1, heads, 1, 1)))
            out = fns[0](t["attn"], v, t["wo"], t["bo"])
            values = [bias.data, out.data]
            weights = [rng.normal(size=x.shape) for x in values]
            loss = (q * Tensor(rng.normal(size=q.shape))).sum()
            for x, w in zip((bias, out), weights):
                loss = loss + (x * Tensor(w.astype(x.dtype))).sum()
            backward(loss)
            return values + [x.grad for x in t.values()]

        state = rng.bit_generator.state
        fused = run((attend, gated_bias))
        rng.bit_generator.state = state
        composed = run((composed_attend, composed_gated_bias))
        for got, want in zip(fused, composed):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_gated_bias_takes_criterion_2s_0d_and_1d_operands(self):
        rng = np.random.default_rng(2)
        arrays = [rng.normal(size=shape) for shape in ((), (6,), (6,), (6,), ())]
        for got, want in zip(value_and_grads(gated_bias, arrays, (1,)),
                             value_and_grads(composed_gated_bias, arrays, (1,))):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", FUSED)
    def test_gradients_match_finite_differences(self, name):
        fused = FUSED[name][0]
        inputs = [Tensor(a, requires_grad=True)
                  for a in fused_inputs(name, DTYPES["float64"], seed=3)]
        weights = Tensor(np.random.default_rng(4).normal(
            size=fused(*inputs).shape))

        def loss():
            return (fused(*inputs) * weights).sum()

        backward(loss())
        for t in inputs:
            numeric = fd_grad(lambda: loss().item(), t.data)
            denom = np.maximum(np.maximum(np.abs(numeric), np.abs(t.grad)), 1e-4)
            assert (np.abs(t.grad - numeric) / denom).max() < 1e-4

    def test_ffn_keeps_no_gelu_output(self):
        rng = np.random.default_rng(5)
        arrays = [rng.normal(size=shape)
                  for shape in ((4, 8, 16), (16, 64), (64,), (64, 16), (16,))]
        gelu_out = np.empty((4, 8, 64)).nbytes     # as large as its input
        for fn, keeps_it in ((ffn, False), (composed_ffn, True)):
            live, out = traced_bytes_after(fn, arrays)
            # the output and the GELU's input are alive
            assert (live >= out.data.nbytes + 1.5 * gelu_out) == keeps_it

    def test_attend_keeps_no_merged_read_out(self):
        rng = np.random.default_rng(6)
        arrays = [rng.normal(size=shape)
                  for shape in ((2, 4, 32, 32), (2, 4, 32, 8), (32, 32), (32,))]
        merged = np.empty((2, 32, 32)).nbytes
        for fn, keeps_it in ((attend, False), (composed_attend, True)):
            live, out = traced_bytes_after(fn, arrays)
            assert (live >= out.data.nbytes + 0.5 * merged) == keeps_it

    def test_gated_bias_keeps_no_product_of_the_full_shape(self):
        rng = np.random.default_rng(7)
        arrays = [rng.normal(size=shape)
                  for shape in ((1, 4, 32, 32), (2, 4, 32, 8), (1, 4, 1, 8),
                                (1, 4, 1, 8), (1, 4, 1, 1))]
        full, gate = np.empty((2, 4, 32, 32)).nbytes, np.empty((2, 4, 32, 1)).nbytes
        for fn, keeps_it in ((gated_bias, False), (composed_gated_bias, True)):
            live, out = traced_bytes_after(fn, arrays)
            # the output and the two gates are alive
            assert (live >= out.data.nbytes + 2 * gate + 0.5 * full) == keeps_it


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(x.sum())
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_two_x(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        backward((x * x).sum())
        assert np.allclose(x.grad, 2 * x.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GradError):
            backward(x * 2)

    def test_constants_never_allocate_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3))
        backward((x * c).sum())
        assert c.grad is None
        assert x.grad is not None
        with pytest.raises(GradError, match="holds none"):
            c.grad = np.ones(3)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(4,))

        def grad_of(scale_f, scale_g):
            x = Tensor(data.copy(), requires_grad=True)
            f = (x * x).sum()
            g = x.sum()
            backward(scale_f * f + scale_g * g)
            return x.grad

        combined = grad_of(2.0, 3.0)
        assert np.allclose(combined, 2.0 * grad_of(1.0, 0.0) + 3.0 * grad_of(0.0, 1.0),
                           rtol=1e-6)

    def test_backward_frees_the_tape(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        s = softmax(matmul(x, w))
        loss = (s * s).sum()
        value = loss.data.copy()
        node = weakref.ref(s.node)
        del s
        assert node() is not None          # the loss's tape holds it
        backward(loss)
        assert node() is None
        assert x.grad is not None and w.grad is not None
        assert loss.grad is None and np.array_equal(loss.data, value)

    def test_a_dropped_intermediate_dies_before_backward(self):
        rng = np.random.default_rng(9)
        a_data, b_data, weights = (rng.normal(size=(3, 4)) for _ in range(3))

        def grads(hold):
            a = Tensor(a_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True)
            held = []

            def probe(t):
                held.append(t if hold else (weakref.ref(t), weakref.ref(t.data)))
                return t
            loss = (softmax(probe(a * 2.0) + b) * Tensor(weights)).sum()
            if not hold:
                assert all(ref() is None for ref in held[0])
            backward(loss)
            return a.grad, b.grad

        for kept, dropped in zip(grads(hold=True), grads(hold=False)):
            assert np.array_equal(kept, dropped)

    def test_a_value_no_backward_reads_dies(self):
        x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        h = x * 3.0
        value = weakref.ref(h.data)
        loss = (h * Tensor(np.array([2.0, 1.0, 4.0]))).sum()
        del h                 # only the constant's values feed h's gradient
        assert value() is None
        backward(loss)
        assert np.array_equal(x.grad, [6.0, 3.0, 12.0])

    def test_backward_over_a_loss_without_a_node_is_a_no_op(self):
        c = Tensor(np.ones(3))
        w = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            untaped = (w * w).sum()
        for loss in ((c * 2.0).sum(), untaped, Tensor(np.array(5.0))):
            assert loss.node is None
            backward(loss)
            assert loss.grad is None
        assert c.grad is None and w.grad is None

    def test_second_backward_over_a_walked_graph_raises(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        loss = (x * x).sum()
        backward(loss)
        with pytest.raises(GradError, match="already ran"):
            backward(loss)

    def test_backward_over_a_partly_walked_graph_raises(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        y = Tensor(np.array([3.0]), requires_grad=True)
        shared = x * x
        backward(shared.sum())
        zero_grads([x, y])
        with pytest.raises(GradError, match="already ran"):
            backward((y * y).sum() + shared.sum())
        assert x.grad is None and y.grad is None

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            y = (softmax(ffn(x, x, x.sum(axis=0), x, x.sum(axis=1))) * x).sum()
            backward(y)
            return y.data.copy(), x.grad.copy()

        out1, grad1 = run()
        out2, grad2 = run()
        assert np.array_equal(out1, out2)
        assert np.array_equal(grad1, grad2)


# every op that records a tape node, with the shapes of its tensor inputs
TAPE_OPS = {
    "add": (lambda a, b: a + b, [(2, 3), (2, 3)]),
    "mul": (lambda a, b: a * b, [(2, 3), (2, 3)]),
    "reshape": (lambda a: a.reshape((3, 2)), [(2, 3)]),
    "transpose": (lambda a: a.transpose((1, 0)), [(2, 3)]),
    "sum": (lambda a: a.sum(axis=0), [(2, 3)]),
    "matmul": (matmul, [(2, 3), (3, 2)]),
    "linear": (linear, [(2, 3), (3, 2), (2,)]),
    "ffn": (ffn, [(2, 3), (3, 4), (4,), (4, 2), (2,)]),
    "attend": (attend, [(2, 2, 3, 3), (2, 2, 3, 2), (4, 3), (3,)]),
    "gated_bias": (gated_bias, [(1, 2, 3, 3), (2, 2, 3, 4), (1, 2, 1, 4),
                                (1, 2, 1, 4), (1, 2, 1, 1)]),
    "embedding": (lambda w: embedding(w, np.array([0, 1, 1])), [(2, 3)]),
    "gather_rows": (lambda x: gather_rows(x, np.array([0, 1]), np.array([2, 0])),
                    [(2, 3, 4)]),
    "softmax": (softmax, [(2, 3)]),
    "layer_norm": (layer_norm, [(2, 3), (3,), (3,)]),
    "softmax_cross_entropy": (lambda x: softmax_cross_entropy(x, [0, 2]),
                              [(2, 3)]),
    "binary_cross_entropy_with_logits": (
        lambda x: binary_cross_entropy_with_logits(x, np.zeros((2, 3))),
        [(2, 3)]),
}


class TestTape:
    @pytest.mark.parametrize("name", list(TAPE_OPS))
    def test_only_trainable_results_join_the_tape(self, name):
        op, shapes = TAPE_OPS[name]
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=shape) for shape in shapes]
        out = op(*[Tensor(a) for a in arrays])
        assert not out.requires_grad
        assert out.node is None
        inputs = [Tensor(arrays[0], requires_grad=True),
                  *[Tensor(a) for a in arrays[1:]]]
        out = op(*inputs)
        assert out.requires_grad
        assert out.node.parents == (inputs[0].node,)   # constants add none
        assert callable(out.node.backward_fn)
        with no_grad():
            untaped = op(*inputs)
        assert not untaped.requires_grad
        assert untaped.node is None
        assert np.array_equal(untaped.data, out.data)


class TestNoGrad:
    def test_flag_restored_after_exception_and_nesting(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="boom"):
            with no_grad():
                raise RuntimeError("boom")
        assert (x * x).requires_grad
        with no_grad():
            with no_grad():
                pass
            assert not (x * x).requires_grad
        assert (x * x).requires_grad

    def test_gradients_after_leaving_are_unchanged(self):
        rng = np.random.default_rng(3)
        x_data, w_data = rng.normal(size=(4, 5)), rng.normal(size=(5, 3))

        def grads(inference_between):
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(w_data, requires_grad=True)
            def graph():
                h = matmul(x, w)
                return (softmax(h) * h).sum()
            before = graph()
            if inference_between:
                with no_grad():
                    graph()
            backward(before)
            first = (x.grad.copy(), w.grad.copy())
            zero_grads([x, w])
            backward(graph())
            return first + (x.grad, w.grad)

        for plain, after in zip(grads(False), grads(True)):
            assert np.array_equal(plain, after)


class TestCompositeGradients:
    """Finite-difference property over composites of supported ops."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_composites(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        gain = Tensor(rng.normal(size=(3,)), requires_grad=True)
        bias = Tensor(rng.normal(size=(3,)), requires_grad=True)

        def graph():
            h = layer_norm(matmul(x, w), gain, bias)
            s = softmax(h)
            f = ffn(x, w, gain, w.transpose((1, 0)), x.sum(axis=0))
            return (s * s).sum() + (h * h).sum() * 0.25 + f.sum()

        out = graph()
        backward(out)
        for t in (x, w, gain, bias):
            numeric = fd_grad(lambda: graph().item(), t.data)
            denom = np.maximum(np.maximum(np.abs(numeric), np.abs(t.grad)), 1e-4)
            assert (np.abs(t.grad - numeric) / denom).max() < 1e-4

    def test_embedding_and_gather(self):
        rng = np.random.default_rng(10)
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = np.array([[0, 2], [2, 4]])

        def graph():
            emb = embedding(table, ids)
            rows = gather_rows(emb, np.array([0, 1]), np.array([1, 1]))
            return (rows * rows).sum()

        backward(graph())
        numeric = fd_grad(lambda: graph().item(), table.data)
        assert np.allclose(table.grad, numeric, atol=1e-8)

    def test_embedding_rejects_out_of_range(self):
        table = Tensor(np.zeros((4, 2)))
        with pytest.raises(IndexError):
            embedding(table, np.array([4]))

class TestBroadcasting:
    def test_trailing_dim_add(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        backward((x + b).sum())
        assert np.array_equal(b.grad, [2.0, 2.0, 2.0])
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_scalar_mul(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        backward((x * 3.0).sum())
        assert np.array_equal(x.grad, 3 * np.ones((2, 2)))

    def test_keepdims_broadcast(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        scaled = x * x.sum(axis=-1, keepdims=True)
        backward(scaled.sum())
        assert x.grad.shape == (2, 3)


class TestJoinedSum:
    """Two groups of terms whose graphs share the leaves `w` and `b`, each
    leaf reached several times by each group."""

    @staticmethod
    def leaves(dtype=np.float32):
        rng = np.random.default_rng(11)
        return (Tensor(rng.normal(size=(5, 3)).astype(dtype), requires_grad=True),
                Tensor(rng.normal(size=(3,)).astype(dtype), requires_grad=True))

    @staticmethod
    def groups(w, b):
        rng = np.random.default_rng(12)

        def term(n):
            x = Tensor(rng.normal(size=(n, 5)))
            h = linear(x, w, b)
            h = h * h
            return softmax(matmul(h, w.transpose((1, 0))) * 0.5).sum()
        return [term(4), term(2) * 3.0], [term(7), term(3), term(6)]

    def check_against_the_sequential_sum(self, dtype):
        w, b = self.leaves(dtype)
        first, second = self.groups(w, b)
        joined = joined_sum(first, second)
        backward(joined)
        w_ref, b_ref = self.leaves(dtype)
        first, second = self.groups(w_ref, b_ref)
        total = first[0]
        for term in first[1:] + second:
            total = total + term
        backward(total)
        assert joined.data.dtype == total.data.dtype
        assert joined.item() == total.item()
        assert np.array_equal(w.grad, w_ref.grad)
        assert np.array_equal(b.grad, b_ref.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_value_and_leaf_gradients_equal_the_sequential_sum(self, dtype):
        self.check_against_the_sequential_sum(dtype)

    def test_same_bits_under_frequent_thread_switches(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(30):
                self.check_against_the_sequential_sum(np.float32)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def gated_group(w, b, sizes, seed, wait, done):
        """Terms like `groups`' in which every use of a leaf passes through
        its own node. Each term's backward first waits for the event `wait`;
        `done` is set once every use has passed its contribution to its leaf."""
        rng = np.random.default_rng(seed)
        left = [3 * len(sizes)]

        def use(leaf):
            def bw(g):
                leaf.node.accumulate(g)
                left[0] -= 1
                if not left[0]:
                    done.set()
            return Tensor(leaf.data, parents=(leaf,), backward_fn=bw)

        def term(n):
            x = Tensor(rng.normal(size=(n, 5)))
            h = linear(x, use(w), use(b))
            h = h * h
            out = softmax(matmul(h, use(w).transpose((1, 0))) * 0.5).sum()

            def bw(g):
                assert wait.wait(timeout=30), "the other walk never finished"
                out.node.accumulate(g)
            return Tensor(out.data, parents=(out,), backward_fn=bw)
        return [term(n) for n in sizes]

    def gated_grads(self, held_back):
        """Leaf gradients of the sum of two gated groups: joined, with the
        group `held_back` waiting until the other has made every leaf
        contribution, or added sequentially if `held_back` is None."""
        go = threading.Event()
        go.set()
        done = {"first": threading.Event(), "second": threading.Event()}
        waits = {"first": done["second"] if held_back == "first" else go,
                 "second": done["first"] if held_back == "second" else go}
        w, b = self.leaves()
        first = self.gated_group(w, b, [4, 2], 13, waits["first"], done["first"])
        second = self.gated_group(w, b, [7, 3, 6], 14, waits["second"],
                                  done["second"])
        if held_back is None:
            total = first[0]
            for term in first[1:] + second:
                total = total + term
        else:
            total = joined_sum(first, second)
        backward(total)
        return w.grad, b.grad

    @pytest.mark.parametrize("held_back", ["first", "second"])
    def test_same_bits_whichever_walk_finishes_first(self, held_back):
        """Held back, the first walk adds nothing until the second has
        finished; the second walk starts only once the first has finished."""
        joined, sequential = self.gated_grads(held_back), self.gated_grads(None)
        for got, want in zip(joined, sequential):
            assert np.array_equal(got, want)

    def test_second_walk_failure_raises_here_and_ends_its_thread(self):
        w, b = self.leaves()
        first, second = self.groups(w, b)

        def boom(g):
            raise RuntimeError("second walk failed")
        failing = Tensor(second[0].data, parents=(second[0],), backward_fn=boom)
        threads = threading.active_count()
        joined = joined_sum(first, [failing])
        with pytest.raises(RuntimeError, match="second walk failed"):
            backward(joined)
        assert threading.active_count() == threads

    def test_walked_group_refused_before_any_gradient(self):
        w, b = self.leaves()
        first, second = self.groups(w, b)
        backward(second[1])
        zero_grads([w, b])
        with pytest.raises(GradError, match="already ran"):
            backward(joined_sum(first, second))
        assert w.grad is None and b.grad is None

    def test_no_node_under_no_grad(self):
        w, b = self.leaves()
        with no_grad():
            joined = joined_sum(*self.groups(w, b))
        assert joined.node is None
        backward(joined)
        assert w.grad is None

    def test_second_backward_refused(self):
        joined = joined_sum(*self.groups(*self.leaves()))
        backward(joined)
        with pytest.raises(GradError, match="already ran"):
            backward(joined)


class TestTwoThreads:
    def test_results_in_order(self):
        assert two_threads(lambda: "here", lambda: "there") == ("here", "there")

    @pytest.mark.parametrize("failing", ["here", "there", "both"])
    def test_failure_raises_after_the_thread_ended(self, failing):
        def call(name):
            def fn():
                if failing in (name, "both"):
                    raise ValueError(name)
                return name
            return fn
        threads = threading.active_count()
        with pytest.raises(ValueError) as raised:
            two_threads(call("here"), call("there"))
        assert str(raised.value) == ("there" if failing == "there" else "here")
        assert threading.active_count() == threads


class TestDtypeSwitch:
    """There is no default element type to switch: only non-float data is
    converted, to float32, and float data keeps its type."""

    def test_int_data_becomes_float32(self):
        assert Tensor([0, 0]).dtype == np.float32
        assert Tensor([1, 2], requires_grad=True).node.dtype == np.float32

    def test_explicit_float64_preserved(self):
        t = Tensor(np.zeros(2, dtype=np.float64))
        assert t.dtype == np.float64
