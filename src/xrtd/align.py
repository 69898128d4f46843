"""Cross-lingual evaluation: sentence retrieval, word alignment, AER.

Sentence retrieval mean-pools hidden states of a chosen layer and ranks
targets by cosine similarity. Word alignment runs entropic-regularized
optimal transport between the two sentences' token vectors and extracts
mutual-argmax pairs from the transport plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

import numpy as np

from .model import ModelParams, encode
from .objectives import PAD, SPECIAL_IDS

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


def embed_sentences(seqs: List[List[int]], params: ModelParams,
                    layer: int) -> np.ndarray:
    """Mean of non-pad, non-special hidden states at `layer`, one row per input."""
    if not 0 <= layer <= params.config.num_layers:
        raise ValueError(f"layer {layer} outside [0, {params.config.num_layers}]")
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
    states = encode(ids, params)[layer].data
    content = np.ones_like(ids, dtype=bool)
    for special in SPECIAL_IDS:
        content &= ids != special
    out = np.zeros((len(seqs), states.shape[-1]), dtype=np.float64)
    for i in range(len(seqs)):
        rows = states[i, content[i]]
        if rows.size == 0:
            raise ValueError(f"sentence {i} has no content tokens")
        out[i] = rows.mean(axis=0)
    return out


@dataclass
class RetrievalTask:
    """Translation-paired sentences; gold mapping is the identity."""
    source: List[List[int]]
    target: List[List[int]]
    layer: int
    direction: str = "en->xx"

    def __post_init__(self):
        if len(self.source) != len(self.target):
            raise ValueError("source and target counts differ")
        if len(self.source) < 2:
            raise ValueError("retrieval needs at least 2 sentence pairs")


def accuracy_at_1(src: np.ndarray, tgt: np.ndarray) -> Tuple[float, int]:
    """Fraction of sources whose cosine-nearest target is the same index.

    Zero-norm embeddings are excluded and counted; ties resolve to the lower
    target index. Returns (accuracy, excluded_count).
    """
    src_norm = np.linalg.norm(src, axis=1)
    tgt_norm = np.linalg.norm(tgt, axis=1)
    excluded = int((src_norm == 0).sum() + (tgt_norm == 0).sum())
    valid_src = src_norm > 0
    tgt_unit = np.where(tgt_norm[:, None] > 0, tgt / np.maximum(tgt_norm, 1e-300)[:, None], 0.0)
    sims = (src / np.maximum(src_norm, 1e-300)[:, None]) @ tgt_unit.T
    hits = 0
    total = 0
    for i in np.nonzero(valid_src)[0]:
        total += 1
        hits += int(np.argmax(sims[i]) == i)
    return (hits / total if total else 0.0), excluded


def retrieve_acc1(task: RetrievalTask, params: ModelParams) -> Tuple[float, int]:
    src = embed_sentences(task.source, params, task.layer)
    tgt = embed_sentences(task.target, params, task.layer)
    return accuracy_at_1(src, tgt)


def sinkhorn_plan(cost: np.ndarray, eps: float = 0.1, iters: int = 200,
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


def ot_align(e_states: np.ndarray, f_states: np.ndarray, eps: float = 0.1,
             iters: int = 200,
             tol: float = 1e-6) -> Tuple[Set[Pair], np.ndarray, bool]:
    """Mutual-argmax token-index pairs of an OT plan over 1 - cosine costs."""
    if e_states.shape[0] < 1 or f_states.shape[0] < 1:
        raise ValueError("need at least one token on each side")
    e_unit = e_states / np.maximum(np.linalg.norm(e_states, axis=1, keepdims=True), 1e-300)
    f_unit = f_states / np.maximum(np.linalg.norm(f_states, axis=1, keepdims=True), 1e-300)
    cost = 1.0 - e_unit @ f_unit.T
    plan, converged = sinkhorn_plan(cost, eps, iters, tol)
    return mutual_argmax_pairs(plan), plan, converged


def token_states(ids: Sequence[int], params: ModelParams,
                 layer: int) -> np.ndarray:
    """Hidden vectors of the content tokens of one (wrapped) sentence."""
    if not 0 <= layer <= params.config.num_layers:
        raise ValueError(f"layer {layer} outside [0, {params.config.num_layers}]")
    arr = np.asarray([list(ids)], dtype=np.int64)
    states = encode(arr, params)[layer].data[0]
    keep = [p for p, t in enumerate(ids) if t not in SPECIAL_IDS]
    return states[keep].astype(np.float64)


def align_sentence_pair(e_ids: Sequence[int], f_ids: Sequence[int],
                        params: ModelParams, layer: int,
                        **ot_kwargs) -> Set[Pair]:
    e = token_states(e_ids, params, layer)
    f = token_states(f_ids, params, layer)
    pairs, _, _ = ot_align(e, f, **ot_kwargs)
    return pairs


def layer_sweep_retrieval(params: ModelParams, source: List[List[int]],
                          target: List[List[int]]) -> List[Tuple[int, float]]:
    """Accuracy@1 per layer, averaged over both retrieval directions."""
    rows = []
    for layer in range(params.config.num_layers + 1):
        fwd, _ = retrieve_acc1(RetrievalTask(source, target, layer, "en->xx"), params)
        bwd, _ = retrieve_acc1(RetrievalTask(target, source, layer, "xx->en"), params)
        rows.append((layer, (fwd + bwd) / 2))
    return rows


def layer_sweep_aer(params: ModelParams,
                    pairs: List[Tuple[List[int], List[int]]],
                    gold: List[Tuple[Set[Pair], Set[Pair]]],
                    **ot_kwargs) -> List[Tuple[int, float]]:
    """Mean AER per layer over (wrapped e, wrapped f) sentence pairs."""
    rows = []
    for layer in range(params.config.num_layers + 1):
        scores = []
        for (e_ids, f_ids), (sure, possible) in zip(pairs, gold):
            predicted = align_sentence_pair(e_ids, f_ids, params, layer,
                                            **ot_kwargs)
            scores.append(aer(AlignmentSet(predicted, sure, possible)))
        rows.append((layer, float(np.mean(scores))))
    return rows

