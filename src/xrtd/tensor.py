"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: numpy arrays wrapped in a `Tensor`, and a
dynamic tape of `Node`s that backward walks. Broadcasting is supported for
scalar and trailing-dimension cases (numpy semantics with gradient
un-broadcasting). The element type comes from the data: a result's type
follows its operands, and only non-float data (ints, bools) is converted, to
float32. The model's parameters are float32, and gradient checking widens its
own model pair to float64. Activations do not stay float32: `_as_tensor`
wraps a Python scalar operand as a 0-d float64 array; NumPy 2 (NEP 50)
promotes a float32 operand to float64 against it, while NumPy 1.x, with
value-based casting, keeps float32. So under NumPy 2 the attention score
scale and the gated bias's `1.0 - g_up`, whose `1.0` is such an array too,
make every encoder layer after the embedding compute in float64. ROADMAP
item 3 holds the fix. Inference runs under `no_grad`, where results join no
tape.

What code holds and what the tape holds are separate. A `Tensor` holds its
values (`data`) and a link to its `Node`, or None if it requires no
gradient. A node holds the gradient slot (`Tensor.grad` reads and writes
it), the nodes of the trainable inputs, the backward closure, and the
tensor's shape and dtype; it holds no values. A closure captures the input
nodes it feeds and only the arrays its backward reads, and each such array
only if the input that needs it has a node: `mul` keeps `other.data` only if
`self` has a node, and `softmax` keeps its output. Every other value, an
intermediate included, dies as soon as code drops its `Tensor`.

A fused node (`linear`, `ffn`, `attend`, `gated_bias`) is one node for a
composition of simpler ops, and it gives that composed form's bits. Its
forward replays the composed form's numpy calls in their order. Its backward
replays the composed walk's arithmetic: it fits an intermediate's gradient
to that intermediate's shape and dtype, as the intermediate's node would
have (`_fit`), wherever the two can differ, and only there, and adds to
each input node in the composed walk's order. Each gradient rule is written
once: `_matmul_grads` passes a product's gradient to both operands, for
`matmul`, `linear` and the fused nodes' products; its `g @ bᵀ` half is
`_left_grad`, which `ffn` and `attend` also call for the gradient of a
rebuilt intermediate, which has no node. `_scatter_grad` passes a row
lookup's gradient to its table, for `embedding` and `gather_rows`. A sum's
bits depend on the order of its terms only per node, so the order between
different nodes is free. A sum's bits also depend on the memory layout of
the array it reduces, so a replay keeps the composed
form's layouts too: numpy computes `x * (y * z)` into the temporary's
buffer, which has the temporary's layout, so a rebuilt product is named
before it is multiplied, as the composed form's kept one was. A fused node
keeps only what its backward cannot cheaply rebuild, such as its inputs
and the FFN's pre-activation. It rebuilds the rest with the forward's
numpy calls and frees each rebuilt buffer once used.

`backward` consumes the tape it walks: as it runs each node's closure it
drops the node's closure, its parents and, unless the node is a leaf, its
gradient, so the arrays the closures kept die while the backward runs. Only
leaves (parameters and other tensors created with `requires_grad=True`) keep
`.grad`. `backward` therefore runs once per forward; a second call over the
same graph raises `GradError`.

A loss made of two independent parts can be walked on two threads at once:
`joined_sum` adds two groups of terms into one result whose node has no
parents, only a closure. Backward reaches that join node first; its closure
walks the first group's graph on the calling thread and the second group's
on a second thread (`two_threads`), and returns once both walks are done.
numpy releases the GIL inside BLAS calls and ufunc loops, so the walks
overlap. The two graphs may share only leaves, and a leaf's gradient is a
sum whose bits depend on the order of its terms. So the held-leaf rule
keeps the order of a single walk over the whole sum, first group then
second. On the second thread, `Node.accumulate` keeps each leaf
contribution, already un-broadcast and cast, in a list instead of adding
it. Once both walks have ended, the join node's closure adds the kept
contributions in the order they were made. Only the first walk adds to a
leaf while the two run, so no lock is needed. Each leaf thus sums the first
walk's contributions, then the second's, each in its own walk's order. The
training step joins its monolingual chain (MLM + lambda * MRTD) as the first
group and its translation-pair chain (TLM + lambda * TRTD) as the second,
because that is the order in which the sequential walk of
`((mlm + lambda * mrtd) + tlm) + lambda * trtd` reaches them.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

_GRAD_ENABLED = True


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class GradError(RuntimeError):
    """Raised on autograd contract violations (e.g. backward on non-scalar)."""


@contextlib.contextmanager
def no_grad():
    """Build no tape inside: results get no node.

    Forward values are computed exactly as with the tape; only the nodes, and
    the arrays their closures would keep alive, are not made.
    """
    global _GRAD_ENABLED
    previous, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


# per thread: `kept` is a list on the second thread of a `joined_sum` backward
_second_walk = threading.local()


def _fit(g: np.ndarray, shape: tuple, dtype) -> np.ndarray:
    """`g` summed down to `shape` (numpy broadcasting undone) and cast to
    `dtype`, as `Node.accumulate` fits a contribution; a fused node fits its
    intermediates' with it."""
    if g.shape != shape:
        extra = g.ndim - len(shape)
        if extra > 0:
            g = g.sum(axis=tuple(range(extra)))
        axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
        if axes:
            g = g.sum(axis=axes, keepdims=True)
    return g if g.dtype == dtype else g.astype(dtype)


class Node:
    """The tape's record of one trainable tensor.

    It holds the gradient slot, the nodes of the trainable inputs
    (`parents`), the closure that passes this node's gradient on to them,
    and the tensor's shape and dtype, which are all `accumulate` needs to fit
    a contribution. A leaf has no parents and no closure. It holds no values:
    whatever arrays the backward reads, the closure captured.
    """

    __slots__ = ("grad", "parents", "backward_fn", "shape", "dtype",
                 "__weakref__")

    def __init__(self, parents: tuple, backward_fn: Callable | None,
                 shape: tuple, dtype):
        self.grad: np.ndarray | None = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.shape = shape
        self.dtype = dtype

    def accumulate(self, g: np.ndarray) -> None:
        g = _fit(g, self.shape, self.dtype)
        kept = getattr(_second_walk, "kept", None)
        if kept is not None and self.backward_fn is None:
            kept.append((self, g))    # a leaf, reached by a second walk
        else:
            self.add(g)

    def add(self, g: np.ndarray) -> None:
        """Add a contribution that already fits the slot."""
        self.grad = g if self.grad is None else self.grad + g


class Tensor:
    """A dense array and, if it requires a gradient, its tape node.

    Only tensors created with `requires_grad=True` (and results derived from
    them) get a node; plain constants never hold a gradient, and once
    `backward` has walked a result, only the leaves keep theirs. Every op
    builds its result here with its input tensors as `parents` and its
    gradient closure as `backward_fn`; the constructor makes a node, linked
    to the inputs' nodes, only when some input has one and no `no_grad`
    context is active, so this is the one place a result joins the tape. The
    result keeps neither its inputs nor the closure; its node does.
    """

    __slots__ = ("data", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), backward_fn: Callable | None = None):
        arr = np.asarray(data)
        if arr.dtype.type not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.node: Node | None = None
        if requires_grad:
            self.node = Node((), None, arr.shape, arr.dtype)
        elif _GRAD_ENABLED:
            nodes = tuple(p.node for p in parents if p.node is not None)
            if nodes:
                self.node = Node(nodes, backward_fn, arr.shape, arr.dtype)

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> np.ndarray | None:
        """The node's gradient slot; always None for a tensor without one."""
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self.node is not None:
            self.node.grad = value
        elif value is not None:
            raise GradError("a tensor that requires no gradient holds none")

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        a, b = self.node, other.node

        def bw(g):
            if a is not None:
                a.accumulate(g)
            if b is not None:
                b.accumulate(g)
        return Tensor(self.data + other.data, parents=(self, other), backward_fn=bw)

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        a, b = self.node, other.node
        b_data = other.data if a is not None else None
        a_data = self.data if b is not None else None

        def bw(g):
            if a is not None:
                a.accumulate(g * b_data)
            if b is not None:
                b.accumulate(g * a_data)
        return Tensor(self.data * other.data, parents=(self, other), backward_fn=bw)

    __rmul__ = __mul__

    # -- shape ops ----------------------------------------------------------

    def reshape(self, shape) -> "Tensor":
        a = self.node

        def bw(g):
            a.accumulate(g.reshape(a.shape))
        return Tensor(self.data.reshape(shape), parents=(self,), backward_fn=bw)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        a = self.node

        def bw(g):
            a.accumulate(g.transpose(inverse))
        return Tensor(self.data.transpose(axes), parents=(self,), backward_fn=bw)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self.node

        def bw(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(g, a.shape))
        return Tensor(self.data.sum(axis=axis, keepdims=keepdims),
                      parents=(self,), backward_fn=bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh(c * (x + 0.044715 * x^3)), the tanh of the tanh-form GELU, a new
    array; its argument is built in the output buffer."""
    t = x * x
    np.multiply(t, 0.044715, out=t)
    np.multiply(t, x, out=t)
    np.add(x, t, out=t)
    np.multiply(t, _GELU_C, out=t)
    return np.tanh(t, out=t)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_matmul(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul requires >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")


def _left_grad(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`g @ bᵀ`: the gradient of `a @ b` with respect to `a`, given `g`."""
    return np.matmul(g, np.swapaxes(b, -1, -2))


def _matmul_grads(g: np.ndarray, a_node: Node | None, a: np.ndarray | None,
                  b_node: Node | None, b: np.ndarray | None) -> None:
    """Pass `g`, the gradient of `a @ b`, on: `g @ bᵀ` (`_left_grad`) to
    `a_node`, then `aᵀ @ g` to `b_node`, each only if the node is not None.
    An operand is read only for the other operand's node, and may be None
    otherwise."""
    if a_node is not None:
        a_node.accumulate(_left_grad(g, b))
    if b_node is not None:
        b_node.accumulate(np.matmul(np.swapaxes(a, -1, -2), g))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with optional leading batch dimensions."""
    _check_matmul(a.data, b.data)
    a_node, b_node = a.node, b.node
    b_data = b.data if a_node is not None else None
    a_data = a.data if b_node is not None else None

    def bw(g):
        _matmul_grads(g, a_node, a_data, b_node, b_data)
    return Tensor(np.matmul(a.data, b.data), parents=(a, b), backward_fn=bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`matmul(x, w) + b` as one tape node, with the same arithmetic.

    The forward and each gradient are the numpy calls of the two-node form,
    in its order: b first, then x, then w (summed over x's batch axes).
    Only the sum is kept; the product before the bias is not.
    """
    _check_matmul(x.data, w.data)
    x_node, w_node, b_node = x.node, w.node, b.node
    w_data = w.data if x_node is not None else None
    x_data = x.data if w_node is not None else None

    def bw(g):
        if b_node is not None:
            b_node.accumulate(g)
        _matmul_grads(g, x_node, x_data, w_node, w_data)
    return Tensor(np.matmul(x.data, w.data) + b.data, parents=(x, w, b),
                  backward_fn=bw)


def ffn(h: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """`linear(gelu(linear(h, w1, b1)), w2, b2)` as one tape node, with the
    same arithmetic; the GELU is the tanh form.

    It keeps `h`, the pre-activation `a` and the weights, not the GELU
    output. The backward rebuilds that output for w2's gradient, then the
    GELU's derivative, each from `a` with the forward's numpy calls, and
    frees each buffer once it is used. It adds to b2, w2, then b1, h, w1.
    """
    _check_matmul(h.data, w1.data)
    a = np.matmul(h.data, w1.data) + b1.data
    y = 0.5 * a * (1.0 + _gelu_tanh(a))
    _check_matmul(y, w2.data)
    out = np.matmul(y, w2.data) + b2.data
    h_node, w1_node, b1_node, w2_node, b2_node = (
        t.node for t in (h, w1, b1, w2, b2))
    into_a = h_node is not None or w1_node is not None or b1_node is not None
    w1_data = w1.data if h_node is not None else None
    h_data = h.data if w1_node is not None else None
    w2_data = w2.data

    def bw(g):
        if b2_node is not None:
            b2_node.accumulate(g)
        t = _gelu_tanh(a)
        if w2_node is not None:
            _matmul_grads(g, None, 0.5 * a * (1.0 + t), w2_node, None)
        if not into_a:
            return
        # the ufunc calls of the GELU derivative `0.5 * (1 + t)
        # + 0.5 * a * (1 - t*t) * c * (1 + 3*0.044715 * a*a)`, in numpy's
        # order, written into three buffers; `t`'s ends as a's gradient
        slope = np.multiply(a, 0.5)
        t_sq = np.multiply(t, t)
        np.subtract(1.0, t_sq, out=t_sq)
        np.multiply(slope, t_sq, out=slope)
        del t_sq
        d_inner = np.multiply(a, a)
        np.multiply(d_inner, 3 * 0.044715, out=d_inner)
        np.add(d_inner, 1.0, out=d_inner)
        np.multiply(d_inner, _GELU_C, out=d_inner)
        np.multiply(slope, d_inner, out=slope)
        del d_inner
        np.add(t, 1.0, out=t)
        np.multiply(t, 0.5, out=t)
        np.add(t, slope, out=t)
        del slope
        # the GELU output's gradient, fitted as its node fitted it
        g_y = _fit(_left_grad(g, w2_data), a.shape, a.dtype)
        g_a = np.multiply(g_y, t, out=t)
        del g_y
        if b1_node is not None:
            b1_node.accumulate(g_a)
        _matmul_grads(g_a, h_node, h_data, w1_node, w1_data)
    return Tensor(out, parents=(h, w1, b1, w2, b2), backward_fn=bw)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """[b, heads, n, dk] -> [b, n, heads * dk], a new array."""
    b, heads, n, dk = x.shape
    return x.transpose((0, 2, 1, 3)).reshape((b, n, heads * dk))


def attend(attn: Tensor, v: Tensor, wo: Tensor, bo: Tensor) -> Tensor:
    """`linear(merge(matmul(attn, v)), wo, bo)` as one tape node, with the
    same arithmetic, where merge joins the heads of the [b, heads, n, dk]
    read-out: [b, n, heads * dk].

    It keeps `attn`, `v` and `wo`, not the merged read-out: the backward
    rebuilds that for wo's gradient. It adds to bo, wo, then attn, v.
    """
    _check_matmul(attn.data, v.data)
    product = np.matmul(attn.data, v.data)
    merged = _merge_heads(product)
    _check_matmul(merged, wo.data)
    out = np.matmul(merged, wo.data) + bo.data
    # the shape of the heads moved next to the features
    split_shape = product.transpose((0, 2, 1, 3)).shape
    merged_shape, dtype = merged.shape, product.dtype
    attn_node, v_node, wo_node, bo_node = attn.node, v.node, wo.node, bo.node
    attn_data, v_data, wo_data = attn.data, v.data, wo.data

    def bw(g):
        if bo_node is not None:
            bo_node.accumulate(g)
        if wo_node is not None:
            _matmul_grads(g, None, _merge_heads(np.matmul(attn_data, v_data)),
                          wo_node, None)
        if attn_node is not None or v_node is not None:
            # the merged heads' gradient, fitted as their node fitted it; the
            # reshape and the transpose keep its dtype and give their shapes
            g_in = _fit(_left_grad(g, wo_data), merged_shape, dtype)
            g_in = g_in.reshape(split_shape).transpose((0, 2, 1, 3))
            _matmul_grads(g_in, attn_node, attn_data, v_node, v_data)
    return Tensor(out, parents=(attn, v, wo, bo), backward_fn=bw)


def gated_bias(d: Tensor, q: Tensor, u: Tensor, v: Tensor, w: Tensor) -> Tensor:
    """Gated relative position bias for queries `q` over their last axis.

    update gate g_u = sigmoid(q . u), reset gate g_r = sigmoid(q . v):
        r = d + g_u * d + (1 - g_u) * (w * g_r * d)
    with d the bias-table entry at the clipped query-key offset. One tape
    node with the arithmetic of that formula's ops, the `1` a 0-d float64
    array, so NumPy 2 computes `1 - g_u` and what follows it in float64
    (module docstring). It keeps its five inputs and the two gates; the
    backward rebuilds `(w * g_r) * d`. It adds to d the sum's term, then
    `g_u * d`'s, then `(w * g_r) * d`'s, and to q the update gate's, then
    the reset gate's.
    """
    d_data, q_data, u_data, v_data, w_data = (t.data for t in (d, q, u, v, w))
    g_up = _sigmoid((q_data * u_data).sum(axis=-1, keepdims=True))
    g_reset = _sigmoid((q_data * v_data).sum(axis=-1, keepdims=True))
    up_d = g_up * d_data
    left = d_data + up_d
    one_minus = np.asarray(1.0) - g_up   # the bits and type of Tensor(1.0) + -g_up
    reset_w = w_data * g_reset
    inner = reset_w * d_data
    right = one_minus * inner
    out = left + right
    # (shape, dtype) of each intermediate whose gradient is fitted
    spec = {name: (x.shape, x.dtype) for name, x in (
        ("left", left), ("one_minus", one_minus), ("reset_w", reset_w),
        ("inner", inner), ("up", g_up), ("reset", g_reset))}
    q_by_u = np.broadcast_shapes(q.shape, u.shape)
    q_by_v = np.broadcast_shapes(q.shape, v.shape)
    d_node, q_node, u_node, v_node, w_node = (t.node for t in (d, q, u, v, w))

    def into_gate(g_gate, gate, shape, x_data, x_node):
        """Pass the gradient of gate = sigmoid(sum(q * x)) to q and x. The
        sum's and the product's gradients need no fitting: they already
        have those intermediates' shapes and dtypes."""
        g_prod = np.broadcast_to(g_gate * gate * (1.0 - gate), shape)
        if q_node is not None:
            q_node.accumulate(g_prod * x_data)
        if x_node is not None:
            x_node.accumulate(g_prod * q_data)

    def bw(g):
        # `g` is `right`'s gradient as it is: `right`'s shape and dtype
        # contain `left`'s, so they are the output's
        g_left = _fit(g, *spec["left"])
        if d_node is not None:
            d_node.accumulate(g_left)
        # `g_left` is `up_d`'s too: `left = d + up_d` has up_d's shape and dtype
        g_up_total = _fit(g_left * d_data, *spec["up"])
        if d_node is not None:
            d_node.accumulate(g_left * g_up)
        del g_left
        g_inner = _fit(g * (np.asarray(1.0) - g_up), *spec["inner"])
        reset_w = w_data * g_reset
        # named, not a temporary: numpy would compute the product below into
        # a temporary's buffer, laid out like d, and the sum would then add
        # in another order than over the composed form's new array
        inner = reset_w * d_data
        g_one_minus = _fit(g * inner, *spec["one_minus"])
        del inner
        g_neg = _fit(g_one_minus, *spec["up"])    # -g_up's gradient
        g_up_total = g_up_total + -g_neg    # a negation keeps g_neg's fit
        into_gate(g_up_total, g_up, q_by_u, u_data, u_node)
        g_reset_w = _fit(g_inner * d_data, *spec["reset_w"])
        if d_node is not None:
            d_node.accumulate(g_inner * reset_w)
        del g_inner
        if w_node is not None:
            w_node.accumulate(g_reset_w * g_reset)
        into_gate(_fit(g_reset_w * w_data, *spec["reset"]), g_reset, q_by_v,
                  v_data, v_node)
    return Tensor(out, parents=(d, q, u, v, w), backward_fn=bw)


def _scatter_grad(g: np.ndarray, node: Node, index) -> None:
    """Pass `g`, the gradient of the rows `index` selects from `node`'s
    tensor, on to `node`: a zero array of its shape with `g` scatter-added
    at `index`, so a row selected twice gets both terms."""
    table = np.zeros(node.shape, node.dtype)
    np.add.at(table, index, g)
    node.accumulate(table)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup `weight[ids]`; backward scatter-adds into the table."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.data.shape[0]):
        raise IndexError(
            f"id out of range for table of {weight.data.shape[0]} rows")
    w_node = weight.node

    def bw(g):
        _scatter_grad(g, w_node, ids)
    return Tensor(weight.data[ids], parents=(weight,), backward_fn=bw)


def gather_rows(x: Tensor, index0: np.ndarray, index1: np.ndarray) -> Tensor:
    """Select rows x[index0[t], index1[t]] from a stacked [B, n, ...] tensor."""
    index0 = np.asarray(index0)
    index1 = np.asarray(index1)
    x_node = x.node

    def bw(g):
        _scatter_grad(g, x_node, (index0, index1))
    return Tensor(x.data[index0, index1], parents=(x,), backward_fn=bw)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    x_node = x.node

    def bw(g):
        x_node.accumulate(s * (g - (g * s).sum(axis=-1, keepdims=True)))
    return Tensor(s, parents=(x,), backward_fn=bw)


_LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale by `gain` and shift by `bias`."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    x_hat = centered * inv
    reduce_axes = tuple(range(x.data.ndim - 1))
    x_node, gain_node, bias_node = x.node, gain.node, bias.node
    kept_hat = x_hat if x_node is not None or gain_node is not None else None
    kept_inv, gain_data = (inv, gain.data) if x_node is not None else (None, None)

    def bw(g):
        if gain_node is not None:
            gain_node.accumulate((g * kept_hat).sum(axis=reduce_axes))
        if bias_node is not None:
            bias_node.accumulate(g.sum(axis=reduce_axes))
        if x_node is not None:
            gh = g * gain_data
            x_node.accumulate(
                kept_inv * (gh - gh.mean(axis=-1, keepdims=True)
                            - kept_hat * (gh * kept_hat).mean(axis=-1, keepdims=True)))
    return Tensor(x_hat * gain.data + bias.data, parents=(x, gain, bias),
                  backward_fn=bw)


def softmax_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Negative log-softmax of each `logits` row [n, V] at its target id, summed."""
    targets = np.asarray(targets, dtype=np.int64)
    x = logits.data
    if targets.size and (targets.min() < 0 or targets.max() >= x.shape[1]):
        raise IndexError("target id out of vocabulary range")
    rows = np.arange(x.shape[0])
    mx = x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(x - mx).sum(axis=1)) + mx[:, 0]
    losses = lse - x[rows, targets]
    x_node = logits.node

    def bw(g):
        probs = np.exp(x - lse[:, None])
        probs[rows, targets] -= 1.0
        x_node.accumulate(probs * float(g))
    return Tensor(np.asarray(losses.sum(), dtype=x.dtype), parents=(logits,),
                  backward_fn=bw)


def binary_cross_entropy_with_logits(logits: Tensor, labels) -> Tensor:
    """Sum of per-position sigmoid cross-entropy, numerically stable."""
    z = np.asarray(labels, dtype=logits.data.dtype)
    if z.shape != logits.data.shape:
        raise DimensionError(
            f"labels shape {z.shape} != logits shape {logits.data.shape}")
    x = logits.data
    losses = np.maximum(x, 0.0) - x * z + np.log1p(np.exp(-np.abs(x)))
    x_node = logits.node

    def bw(g):
        x_node.accumulate(float(g) * (_sigmoid(x) - z))
    return Tensor(np.asarray(losses.sum(), dtype=x.dtype), parents=(logits,),
                  backward_fn=bw)


def backward(loss: Tensor) -> None:
    """Populate gradients of `loss` w.r.t. every contributing trainable tensor.

    The tape is consumed: each node, once its closure has run, loses its
    closure, its parents and (unless it is a leaf) its gradient, so the graph
    and the arrays its closures kept are freed as it is walked. Leaves keep
    `.grad`; `loss.data` stays. A loss without a node (nothing trainable
    reaches it) is left as it is. Call it once per forward: a graph that a
    backward has already walked, in whole or in part, raises `GradError`
    before any gradient is touched.
    """
    if loss.data.size != 1:
        raise GradError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    root = loss.node
    if root is None:
        return
    topo = _topo((root,))
    root.grad = np.ones_like(loss.data)
    _walk(topo)


def _topo(roots: Sequence[Node]) -> list[Node]:
    """The nodes that `roots` reach, each after every node that feeds it.

    Roots are searched from the last one back, as the parents of a node
    are, so the roots of a sum of terms come out as its node's parents
    would. Raises `GradError` on a node that a backward has walked.
    """
    topo: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False) for root in roots]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node.parents is None:
            raise GradError("backward already ran over this graph; "
                            "run the forward again")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return topo


def _walk(topo: list[Node]) -> None:
    """Run the closures of `topo`, last node first, freeing each node."""
    while topo:
        node = topo.pop()
        if node.backward_fn is None:
            continue                  # a leaf: it keeps its gradient
        if node.grad is not None:
            node.backward_fn(node.grad)
        # parents None mark a node that a backward has walked
        node.backward_fn = node.parents = node.grad = None


def two_threads(here: Callable, there: Callable) -> tuple:
    """`(here(), there())`, with `there` run on a new thread while `here`
    runs on this one.

    The new thread has ended when this returns or raises. If a call raised,
    its exception is raised here, `here`'s if both did.
    """
    with concurrent.futures.ThreadPoolExecutor(1) as pool:
        future = pool.submit(there)
        return here(), future.result()


def joined_sum(first: Sequence[Tensor], second: Sequence[Tensor]) -> Tensor:
    """The sum of the scalar terms `first` then `second`, added left to
    right, whose backward walks the two groups' graphs at once.

    The two groups' graphs may share leaves but no other node. The result's
    node has no parents: its closure passes the gradient to every term,
    walks the first group's graph on the calling thread and the second's on
    a second thread, and adds the second walk's leaf contributions once both
    walks have ended (the held-leaf rule of the module docstring). So
    each leaf's gradient is bit-equal to that of a sequential walk over the
    same sum. Both walks are checked before either starts; an exception from
    either is raised after both have ended.
    """
    terms = (*first, *second)
    value = terms[0].data
    for term in terms[1:]:
        value = value + term.data
    out = Tensor(value)
    first_nodes = tuple(t.node for t in first if t.node is not None)
    second_nodes = tuple(t.node for t in second if t.node is not None)
    if not _GRAD_ENABLED or not (first_nodes or second_nodes):
        return out

    def bw(g):
        first_topo, second_topo = _topo(first_nodes), _topo(second_nodes)
        kept: list = []

        def walk_first():
            for node in first_nodes:
                node.accumulate(g)
            _walk(first_topo)

        def walk_second():
            _second_walk.kept = kept   # the thread ends with two_threads
            for node in second_nodes:
                node.accumulate(g)
            _walk(second_topo)
        two_threads(walk_first, walk_second)
        for node, contribution in kept:   # the second walk's leaf terms last
            node.add(contribution)
    out.node = Node((), bw, out.shape, out.dtype)
    return out


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None
