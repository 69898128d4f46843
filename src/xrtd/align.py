"""Cross-lingual evaluation: sentence retrieval, word alignment, AER.

Every layer is swept from one encode of each held-out sentence:
`content_layers` encodes a side as one PAD-padded batch, under
`tensor.no_grad` because nothing here takes a gradient, and keeps each
sentence's content-token states. Sentence retrieval mean-pools those states
at every layer and ranks targets by cosine similarity. Word alignment reads
the same states, runs entropic-regularized optimal transport between the two
sentences' token vectors at every layer and extracts mutual-argmax pairs from
the transport plan.

`sinkhorn_plans` is the one scaling loop. It solves a stack of equal-shape
costs at once, each member stopping at its own convergence iteration, so a
plan is bit-equal to solving its cost alone. The alignment sweep groups its
sentence pairs by (e length, f length) and makes one call per group over
every (layer, pair) cost of the group. It never pads costs to a common
shape: padding would change the sums of the matrix-vector products.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from .corpus import FIRST_CONTENT_ID, PAD
from .model import ModelParams, encode
from .tensor import no_grad

Pair = Tuple[int, int]


@dataclass
class AlignmentSet:
    predicted: Set[Pair]
    sure: Set[Pair]
    possible: Set[Pair]

    def __post_init__(self):
        if not self.sure <= self.possible:
            raise ValueError("sure alignments must be a subset of possible")


def aer(aset: AlignmentSet) -> float:
    """1 - (|A & S| + |A & P|) / (|A| + |S|); 0 when both A and S are empty."""
    denom = len(aset.predicted) + len(aset.sure)
    if denom == 0:
        return 0.0
    hits = len(aset.predicted & aset.sure) + len(aset.predicted & aset.possible)
    return 1.0 - hits / denom


def content_layers(seqs: List[List[int]], params: ModelParams) -> List[List[np.ndarray]]:
    """Per layer, the states of each sentence's content tokens (the ids from
    `FIRST_CONTENT_ID` on).

    `seqs` are encoded once, as one PAD-padded batch; the result holds one
    list of (content tokens, hidden) arrays per layer, layer 0 being the
    embedding output.
    """
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
    content = ids >= FIRST_CONTENT_ID
    empty = np.flatnonzero(~content.any(axis=1))
    if empty.size:
        raise ValueError(f"sentence {empty[0]} has no content tokens")
    with no_grad():
        encoded = encode(ids, params)
    return [[states.data[i, content[i]] for i in range(len(seqs))]
            for states in encoded]


def pooled_layers(layers: List[List[np.ndarray]]) -> List[np.ndarray]:
    """Per layer of `content_layers` states, one (sentences, hidden) float64
    array of sentence means; each mean is taken in the states' dtype."""
    return [np.array([s.mean(axis=0) for s in sentences], dtype=np.float64)
            for sentences in layers]


def retrieve_acc1(src: np.ndarray, tgt: np.ndarray) -> Tuple[float, int]:
    """Fraction of sources whose cosine-nearest target is the same index.

    Zero-norm embeddings are excluded and counted; ties resolve to the lower
    target index. Returns (accuracy, excluded_count).
    """
    src_norm = np.linalg.norm(src, axis=1)
    tgt_norm = np.linalg.norm(tgt, axis=1)
    excluded = int((src_norm == 0).sum() + (tgt_norm == 0).sum())
    tgt_unit = np.where(tgt_norm[:, None] > 0, tgt / np.maximum(tgt_norm, 1e-300)[:, None], 0.0)
    sims = (src / np.maximum(src_norm, 1e-300)[:, None]) @ tgt_unit.T
    rows = np.flatnonzero(src_norm > 0)
    hits = int((sims[rows].argmax(axis=1) == rows).sum())
    return (hits / len(rows) if len(rows) else 0.0), excluded


def sinkhorn_plans(costs: np.ndarray, eps: float, iters: int,
                   tol: float = 1e-6) -> Tuple[np.ndarray, np.ndarray]:
    """Entropic OT plans with uniform marginals via row/column scaling, for
    a stack of equal-shape costs [N, n, m] at once.

    Returns (plans [N, n, m], converged [N]); a member that does not
    converge returns the best plan found. Each member leaves the active set
    at its own convergence iteration, its `u`/`v` frozen, and every member
    runs the same elementwise ops, reductions and per-slice matrix-vector
    products as a stack of one, so each plan and flag is bit-equal to
    solving that cost alone.
    """
    count, n, m = costs.shape
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    kernel = np.exp(-costs / eps)
    u = np.ones((count, n))
    v = np.ones((count, m))
    converged = np.zeros(count, dtype=bool)
    active = np.arange(count)
    k, u_a, v_a = kernel, u, v
    for _ in range(iters):
        u_a = a / np.maximum(np.matmul(k, v_a[:, :, None])[:, :, 0], 1e-300)
        v_a = b / np.maximum(np.matmul(k.transpose(0, 2, 1), u_a[:, :, None])[:, :, 0],
                             1e-300)
        plan = u_a[:, :, None] * k * v_a[:, None, :]
        done = ((np.abs(plan.sum(axis=2) - a).max(axis=1) < tol) &
                (np.abs(plan.sum(axis=1) - b).max(axis=1) < tol))
        if done.any():
            stopped = active[done]
            u[stopped], v[stopped], converged[stopped] = u_a[done], v_a[done], True
            keep = ~done
            active, k, u_a, v_a = active[keep], k[keep], u_a[keep], v_a[keep]
            if not active.size:
                break
    u[active], v[active] = u_a, v_a
    return u[:, :, None] * kernel * v[:, None, :], converged


def sinkhorn_plan(cost: np.ndarray, eps: float, iters: int,
                  tol: float = 1e-6) -> Tuple[np.ndarray, bool]:
    """`sinkhorn_plans` of one [n, m] cost, or of a [N, n, m] stack.

    Returns (plan, converged), the plan shaped like `cost`; for a stack,
    converged is True only when every member converged.
    """
    plans, converged = sinkhorn_plans(cost.reshape((-1,) + cost.shape[-2:]),
                                      eps, iters, tol)
    return plans.reshape(cost.shape), bool(converged.all())


def mutual_argmax_pairs(plan: np.ndarray) -> Set[Pair]:
    row_best = plan.argmax(axis=1)
    col_best = plan.argmax(axis=0)
    return {(i, int(j)) for i, j in enumerate(row_best) if col_best[j] == i}


def cosine_cost(e_states: np.ndarray, f_states: np.ndarray) -> np.ndarray:
    """1 - cosine similarity between every e token and every f token."""
    if e_states.shape[0] < 1 or f_states.shape[0] < 1:
        raise ValueError("need at least one token on each side")
    e_unit = e_states / np.maximum(np.linalg.norm(e_states, axis=1, keepdims=True), 1e-300)
    f_unit = f_states / np.maximum(np.linalg.norm(f_states, axis=1, keepdims=True), 1e-300)
    return 1.0 - e_unit @ f_unit.T


def ot_align(e_states: np.ndarray, f_states: np.ndarray, eps: float,
             iters: int, tol: float = 1e-6) -> Tuple[Set[Pair], np.ndarray, bool]:
    """Mutual-argmax token-index pairs of an OT plan over 1 - cosine costs."""
    plan, converged = sinkhorn_plan(cosine_cost(e_states, f_states), eps, iters, tol)
    return mutual_argmax_pairs(plan), plan, converged


def layer_sweep_retrieval(source: List[List[np.ndarray]],
                          target: List[List[np.ndarray]]) -> List[Tuple[int, float, float]]:
    """Accuracy@1 per layer in both directions: (layer, en->xx, xx->en).

    `source` and `target` are `content_layers` states; the gold target of
    each source is the one at the same index.
    """
    if len(source[0]) != len(target[0]):
        raise ValueError("source and target counts differ")
    return [(layer, retrieve_acc1(s, t)[0], retrieve_acc1(t, s)[0])
            for layer, (s, t) in enumerate(zip(pooled_layers(source),
                                               pooled_layers(target)))]


def layer_sweep_aer(source: List[List[np.ndarray]], target: List[List[np.ndarray]],
                    gold: List[Tuple[Set[Pair], Set[Pair]]],
                    eps: float, iters: int) -> List[Tuple[int, float]]:
    """Mean AER per layer over sentence pairs, with gold (sure, possible)
    content-token index pairs per pair.

    `source` and `target` hold the `content_layers` states of the pairs' e
    and f sentences; eval passes the first sentences of its retrieval encode.
    Sentences of one length share a batch without padding, so their states
    equal, bit for bit, those of encoding each alone. Each sentence's states
    are widened to float64 before the cost is taken.

    Pairs are grouped by (e length, f length). Each group stacks the costs of
    all its (layer, pair) members and solves them in one Sinkhorn call, with
    no padding to a common shape, so every plan, and so every AER and mean,
    is bit-equal to aligning each pair alone with `ot_align`.
    """
    groups = defaultdict(list)    # (e length, f length) -> pair indices
    for pair, (e, f, _) in enumerate(zip(source[0], target[0], gold, strict=True)):
        groups[len(e), len(f)].append(pair)
    scores = np.empty((len(source), len(gold)))
    for members in groups.values():
        cells = list(itertools.product(range(len(source)), members))
        costs = np.stack([cosine_cost(source[layer][pair].astype(np.float64),
                                      target[layer][pair].astype(np.float64))
                          for layer, pair in cells])
        # through `sinkhorn_plan`, the name the benchmark's tracer wraps, so
        # its Sinkhorn span and counters cover the sweep
        plans, _ = sinkhorn_plan(costs, eps, iters)
        for plan, (layer, pair) in zip(plans, cells):
            sure, possible = gold[pair]
            scores[layer, pair] = aer(AlignmentSet(mutual_argmax_pairs(plan), sure, possible))
    return [(layer, float(np.mean(row))) for layer, row in enumerate(scores)]
