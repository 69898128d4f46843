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
scale and the gated bias's `1.0 - g_up` make every encoder layer after the
embedding compute in float64. ROADMAP item 3 holds the fix. Inference runs
under `no_grad`, where results join no tape.

What code holds and what the tape holds are separate. A `Tensor` holds its
values (`data`) and a link to its `Node`, or None if it requires no
gradient. A node holds the gradient slot (`Tensor.grad` reads and writes
it), the nodes of the trainable inputs, the backward closure, and the
tensor's shape and dtype; it holds no values. A closure captures the input
nodes it feeds and only the arrays its backward reads, and each such array
only if the input that needs it has a node: `mul` keeps `other.data` only if
`self` has a node, `softmax` keeps its output, and `gelu` keeps its input
and recomputes the rest in the backward with the same numpy calls. Every
other value, an intermediate included, dies as soon as code drops its
`Tensor`.

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


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


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
        g = _unbroadcast(g, self.shape)
        if g.dtype != self.dtype:
            g = g.astype(self.dtype)
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

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        a = self.node

        def bw(g):
            a.accumulate(-g)
        return Tensor(-self.data, parents=(self,), backward_fn=bw)

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other) + (-self)

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

    # -- elementwise nonlinearities ------------------------------------------

    def sigmoid(self) -> "Tensor":
        y = _sigmoid(self.data)
        a = self.node

        def bw(g):
            a.accumulate(g * y * (1.0 - y))
        return Tensor(y, parents=(self,), backward_fn=bw)

    def gelu(self) -> "Tensor":
        """Tanh-form GELU approximation.

        The backward keeps only the input: it recomputes `x*x` and the tanh
        with the forward's numpy calls, so both come out bit-equal.
        """
        x = self.data
        _, t = _gelu_terms(x)
        a = self.node

        def bw(g):
            # the ufunc calls of `d_inner = c * (1 + 3*0.044715 * x_sq)` and
            # `g * (0.5 * (1 + t) + 0.5 * x * (1 - t*t) * d_inner)`, in
            # numpy's order, written into four buffers; `t`'s ends as the
            # gradient
            d_inner, t = _gelu_terms(x)
            np.multiply(d_inner, 3 * 0.044715, out=d_inner)
            np.add(d_inner, 1.0, out=d_inner)
            np.multiply(d_inner, _GELU_C, out=d_inner)
            slope = np.multiply(x, 0.5)
            t_sq = np.multiply(t, t)
            np.subtract(1.0, t_sq, out=t_sq)
            np.multiply(slope, t_sq, out=slope)
            np.multiply(slope, d_inner, out=slope)
            np.add(t, 1.0, out=t)
            np.multiply(t, 0.5, out=t)
            np.add(t, slope, out=t)
            a.accumulate(np.multiply(g, t, out=t))
        return Tensor(0.5 * x * (1.0 + t), parents=(self,), backward_fn=bw)


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_terms(x: np.ndarray) -> tuple:
    """(x*x, tanh(c * (x + 0.044715 * x^3))) for `Tensor.gelu`, two new
    arrays; the tanh's argument is built in its output buffer."""
    x_sq = x * x
    t = np.multiply(x_sq, 0.044715)
    np.multiply(t, x, out=t)
    np.add(x, t, out=t)
    np.multiply(t, _GELU_C, out=t)
    return x_sq, np.tanh(t, out=t)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _check_matmul(a: Tensor, b: Tensor) -> None:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(
            f"matmul requires >=2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}")


def matmul(a: Tensor, b) -> Tensor:
    """Matrix product with optional leading batch dimensions."""
    b = _as_tensor(b)
    _check_matmul(a, b)
    a_node, b_node = a.node, b.node
    b_data = b.data if a_node is not None else None
    a_data = a.data if b_node is not None else None

    def bw(g):
        if a_node is not None:
            a_node.accumulate(np.matmul(g, np.swapaxes(b_data, -1, -2)))
        if b_node is not None:
            b_node.accumulate(np.matmul(np.swapaxes(a_data, -1, -2), g))
    return Tensor(np.matmul(a.data, b.data), parents=(a, b), backward_fn=bw)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`matmul(x, w) + b` as one tape node, with the same arithmetic.

    The forward and each gradient are the numpy calls of the two-node form,
    in its order: b first, then x, then w (summed over x's batch axes).
    Only the sum is kept; the product before the bias is not.
    """
    _check_matmul(x, w)
    x_node, w_node, b_node = x.node, w.node, b.node
    w_data = w.data if x_node is not None else None
    x_data = x.data if w_node is not None else None

    def bw(g):
        if b_node is not None:
            b_node.accumulate(g)
        if x_node is not None:
            x_node.accumulate(np.matmul(g, np.swapaxes(w_data, -1, -2)))
        if w_node is not None:
            w_node.accumulate(np.matmul(np.swapaxes(x_data, -1, -2), g))
    return Tensor(np.matmul(x.data, w.data) + b.data, parents=(x, w, b),
                  backward_fn=bw)


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup `weight[ids]`; backward scatter-adds into the table."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= weight.data.shape[0]):
        raise IndexError(
            f"id out of range for table of {weight.data.shape[0]} rows")
    w_node = weight.node

    def bw(g):
        gw = np.zeros(w_node.shape, w_node.dtype)
        np.add.at(gw, ids, g)
        w_node.accumulate(gw)
    return Tensor(weight.data[ids], parents=(weight,), backward_fn=bw)


def gather_rows(x: Tensor, index0: np.ndarray, index1: np.ndarray) -> Tensor:
    """Select rows x[index0[t], index1[t]] from a stacked [B, n, ...] tensor."""
    index0 = np.asarray(index0)
    index1 = np.asarray(index1)
    x_node = x.node

    def bw(g):
        gx = np.zeros(x_node.shape, x_node.dtype)
        np.add.at(gx, (index0, index1), g)
        x_node.accumulate(gx)
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
