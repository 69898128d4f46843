"""Cross-lingual evaluation: sentence retrieval, word alignment, AER.

Every layer is swept from one encode of each held-out sentence:
`content_layers` encodes a side as one PAD-padded batch, under
`tensor.no_grad` because nothing here takes a gradient, and keeps each
sentence's content-token states. Sentence retrieval mean-pools those states
at every layer and ranks targets by cosine similarity. Word alignment reads
the same states, runs entropic-regularized optimal transport between the two
sentences' token vectors at every layer and extracts mutual-argmax pairs from
the transport plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from .model import ModelParams, encode
from .objectives import PAD, SPECIAL_IDS
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
    """Per layer, the states of each sentence's non-pad, non-special tokens.

    `seqs` are encoded once, as one PAD-padded batch; the result holds one
    list of (content tokens, hidden) arrays per layer, layer 0 being the
    embedding output.
    """
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
    content = ~np.isin(ids, sorted(SPECIAL_IDS))
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


def sinkhorn_plan(cost: np.ndarray, eps: float, iters: int,
                  tol: float = 1e-6) -> Tuple[np.ndarray, bool]:
    """Entropic OT plan with uniform marginals via row/column scaling.

    Returns (plan, converged); non-convergence returns the best plan found.
    """
    n, m = cost.shape
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    kernel = np.exp(-cost / eps)
    u = np.ones(n)
    v = np.ones(m)
    converged = False
    for _ in range(iters):
        u = a / np.maximum(kernel @ v, 1e-300)
        v = b / np.maximum(kernel.T @ u, 1e-300)
        plan = u[:, None] * kernel * v[None, :]
        if (np.abs(plan.sum(axis=1) - a).max() < tol and
                np.abs(plan.sum(axis=0) - b).max() < tol):
            converged = True
            break
    return u[:, None] * kernel * v[None, :], converged


def mutual_argmax_pairs(plan: np.ndarray) -> Set[Pair]:
    row_best = plan.argmax(axis=1)
    col_best = plan.argmax(axis=0)
    return {(i, int(j)) for i, j in enumerate(row_best) if col_best[j] == i}


def ot_align(e_states: np.ndarray, f_states: np.ndarray, eps: float,
             iters: int, tol: float = 1e-6) -> Tuple[Set[Pair], np.ndarray, bool]:
    """Mutual-argmax token-index pairs of an OT plan over 1 - cosine costs."""
    if e_states.shape[0] < 1 or f_states.shape[0] < 1:
        raise ValueError("need at least one token on each side")
    e_unit = e_states / np.maximum(np.linalg.norm(e_states, axis=1, keepdims=True), 1e-300)
    f_unit = f_states / np.maximum(np.linalg.norm(f_states, axis=1, keepdims=True), 1e-300)
    cost = 1.0 - e_unit @ f_unit.T
    plan, converged = sinkhorn_plan(cost, eps, iters, tol)
    return mutual_argmax_pairs(plan), plan, converged


def layer_sweep_retrieval(source: List[List[np.ndarray]],
                          target: List[List[np.ndarray]]) -> List[Tuple[int, float, float]]:
    """Accuracy@1 per layer in both directions: (layer, en->xx, xx->en).

    `source` and `target` are `content_layers` states; the gold target of
    each source is the one at the same index.
    """
    if len(source[0]) != len(target[0]):
        raise ValueError("source and target counts differ")
    if len(source[0]) < 2:
        raise ValueError("retrieval needs at least 2 sentence pairs")
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
    """
    rows = []
    for layer, (e_layer, f_layer) in enumerate(zip(source, target)):
        scores = [aer(AlignmentSet(ot_align(e.astype(np.float64), f.astype(np.float64),
                                            eps, iters)[0], sure, possible))
                  for e, f, (sure, possible) in zip(e_layer, f_layer, gold, strict=True)]
        rows.append((layer, float(np.mean(scores))))
    return rows
