"""Masked/corrupted batch construction and the four pretraining losses.

Losses: masked language modeling (MLM) and its translation-pair variant (TLM)
for the generator; replaced token detection over single sentences (MRTD) and
concatenated translation pairs (TRTD) for the discriminator. The joint loss
is `((MLM + lambda * MRTD) + TLM) + lambda * TRTD`, summed in that order.

Only content tokens, the ids from `corpus.FIRST_CONTENT_ID` on, are masked
and scored; pad and the other reserved tokens never are.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .corpus import BOS, EOS, FIRST_CONTENT_ID, MASK, PAD, SEP
from .model import ModelPair, ModelParams, encode, mlm_logits, rtd_logits
from .tensor import (Tensor, binary_cross_entropy_with_logits, gather_rows,
                     joined_sum, softmax_cross_entropy, two_threads)

SPECIAL_IDS = frozenset(range(FIRST_CONTENT_ID))


def wrap_mono(ids: Sequence[int]) -> List[int]:
    return [BOS, *ids, EOS]


def wrap_pair(e_ids: Sequence[int], f_ids: Sequence[int]) -> List[int]:
    """Concatenate a translation pair into one input: BOS e EOS SEP f EOS.

    f starts right after the only SEP, so the ids alone give both segments.
    """
    return [BOS, *e_ids, EOS, SEP, *f_ids, EOS]


@dataclass
class MaskedBatch:
    original: np.ndarray                 # [B, n] int64, PAD-padded
    masked: np.ndarray                   # [B, n], mask positions -> MASK
    mask_positions: List[np.ndarray]     # sorted positions per sequence

    @property
    def is_pair(self) -> bool:
        """Whether the batch holds translation pairs (a SEP token)."""
        return bool((self.original == SEP).any())


@dataclass
class CorruptedBatch:
    original: np.ndarray
    corrupt: np.ndarray
    labels: np.ndarray                   # [B, n], 1 = replaced


def select_mask_positions(ids: Sequence[int], mask_ratio: float,
                          rng: np.random.Generator,
                          lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Uniform sample of positions to mask among the content tokens, the
    ids from `FIRST_CONTENT_ID` on; pad and the other reserved tokens are
    never masked.

    `lo`/`hi` optionally restrict eligibility to a half-open span (used for
    the two segments of a translation pair).
    """
    eligible = lo + np.flatnonzero(np.asarray(ids[lo:hi]) >= FIRST_CONTENT_ID)
    if eligible.size == 0:
        raise ValueError("no maskable positions in sequence")
    count = max(1, int(round(mask_ratio * eligible.size)))
    picked = rng.choice(eligible, size=count, replace=False)
    return np.sort(picked)


def build_masked_batch(seqs: List[List[int]], mask_ratio: float,
                       rng: np.random.Generator) -> MaskedBatch:
    """Pad sequences and select mask positions.

    A translation pair (a sequence holding SEP) is masked per segment: first
    up to and including SEP, then the rest.
    """
    width = max(len(s) for s in seqs)
    original = np.full((len(seqs), width), PAD, dtype=np.int64)
    positions = []
    for b, seq in enumerate(seqs):
        original[b, :len(seq)] = seq
        if SEP in seq:
            f_start = seq.index(SEP) + 1
            m_e = select_mask_positions(seq, mask_ratio, rng, 0, f_start)
            m_f = select_mask_positions(seq, mask_ratio, rng, f_start)
            positions.append(np.concatenate([m_e, m_f]))
        else:
            positions.append(select_mask_positions(seq, mask_ratio, rng))
    masked = original.copy()
    for b, pos in enumerate(positions):
        masked[b, pos] = MASK
    return MaskedBatch(original, masked, positions)


def _mask_index(batch: MaskedBatch) -> Tuple[np.ndarray, np.ndarray]:
    b_idx = np.concatenate([np.full(len(p), b, dtype=np.int64)
                            for b, p in enumerate(batch.mask_positions)])
    p_idx = np.concatenate(batch.mask_positions).astype(np.int64)
    return b_idx, p_idx


def _generator_loss(batch: MaskedBatch, generator: ModelParams):
    # masking writes MASK over content tokens only: its pads are the original's
    states = encode(batch.masked, generator)
    b_idx, p_idx = _mask_index(batch)
    rows = gather_rows(states[-1], b_idx, p_idx)
    logits = mlm_logits(rows, generator)
    loss = softmax_cross_entropy(logits, batch.original[b_idx, p_idx])
    return loss, logits.data.copy()


def generator_loss_mlm(batch: MaskedBatch, generator: ModelParams):
    """Summed negative log-likelihood at masked positions of single sentences.

    Returns (loss, logits) where logits are detached [num_masked, V] rows in
    batch order, retained for corruption sampling.
    """
    if batch.is_pair:
        raise ValueError("MLM loss expects a monolingual batch")
    return _generator_loss(batch, generator)


def generator_loss_tlm(batch: MaskedBatch, generator: ModelParams):
    """MLM over a concatenated translation pair, masked in both segments."""
    if not batch.is_pair:
        raise ValueError("TLM loss requires translation pairs (a SEP token)")
    return _generator_loss(batch, generator)


def sample_corruption(batch: MaskedBatch, generator_logits: np.ndarray,
                      rng: np.random.Generator) -> CorruptedBatch:
    """Replace masked positions with generator samples (stop-gradient).

    `generator_logits` holds one row per masked position in batch order. A
    sampled token equal to the original is labeled original.
    """
    return _corrupt(batch, generator_logits,
                    rng.gumbel(size=generator_logits.shape))


def _corrupt(batch: MaskedBatch, generator_logits: np.ndarray,
             noise: np.ndarray) -> CorruptedBatch:
    """`sample_corruption` with its Gumbel `noise`, one value per logit."""
    b_idx, p_idx = _mask_index(batch)
    if generator_logits.shape[0] != b_idx.size:
        raise ValueError("logit rows do not cover all masked positions")
    # Gumbel-max: exact categorical sample from each softmax row
    sampled = (generator_logits.astype(np.float64) + noise).argmax(axis=1)
    corrupt = batch.original.copy()
    corrupt[b_idx, p_idx] = sampled
    labels = np.zeros_like(batch.original)
    labels[b_idx, p_idx] = (sampled != batch.original[b_idx, p_idx]).astype(np.int64)
    return CorruptedBatch(batch.original, corrupt, labels)


def discriminator_loss_rtd(corrupt: CorruptedBatch, discriminator: ModelParams):
    """Binary replaced-vs-original cross-entropy over all content positions.

    Special and pad positions are not scored. The attention mask and the
    scored positions come from the original ids: a sampled replacement may
    be PAD or another reserved id, and its position still counts. Returns
    (loss, accuracy, count).
    """
    states = encode(corrupt.corrupt, discriminator,
                    pad_mask=corrupt.original != PAD)
    b_idx, p_idx = np.nonzero(corrupt.original >= FIRST_CONTENT_ID)
    rows = gather_rows(states[-1], b_idx, p_idx)
    logits = rtd_logits(rows, discriminator)
    labels = corrupt.labels[b_idx, p_idx]
    loss = binary_cross_entropy_with_logits(logits, labels)
    predictions = (logits.data > 0).astype(np.int64)
    accuracy = float((predictions == labels).mean())
    return loss, accuracy, int(b_idx.size)


def _n_masked(batch: MaskedBatch) -> int:
    return sum(len(p) for p in batch.mask_positions)


def _chain(batch: MaskedBatch, noise: np.ndarray, models: ModelPair,
           generator_loss):
    """One input's generator, corruption and discriminator: (generator loss,
    discriminator loss, discriminator accuracy, positions scored)."""
    gen_loss, logits = generator_loss(batch, models.generator)
    corrupt = _corrupt(batch, logits, noise)
    return (gen_loss, *discriminator_loss_rtd(corrupt, models.discriminator))


def joint_loss(mono: MaskedBatch, pair: MaskedBatch | None, models: ModelPair,
               lam: float, rng: np.random.Generator):
    """Four-term joint objective; returns (total loss, report dict).

    The total is `((MLM + lambda * MRTD) + TLM) + lambda * TRTD`, summed in
    that order. The monolingual chain (MLM, corruption, MRTD) runs on the
    calling thread while the pair chain runs on a second one, and
    `backward` of the total walks the two chains the same way
    (`tensor.joined_sum`). Both chains' Gumbel noise is drawn from `rng`
    first, the monolingual chain's before the pair chain's, so every output
    equals that of running the chains one after the other. Without a `pair`
    batch, the translation-pair terms (TLM and TRTD) are dropped, leaving
    monolingual MLM + lambda * MRTD, and no thread is started.
    """
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    vocab = models.generator.config.vocab_size
    n_masked_mono = _n_masked(mono)
    mono_noise = rng.gumbel(size=(n_masked_mono, vocab))
    mono_chain = functools.partial(_chain, mono, mono_noise, models,
                                   generator_loss_mlm)
    if pair is None:
        loss_mlm, loss_mrtd, acc_m, n_m = mono_chain()
        total = loss_mlm + lam * loss_mrtd
    else:
        n_masked_pair = _n_masked(pair)
        pair_noise = rng.gumbel(size=(n_masked_pair, vocab))
        pair_chain = functools.partial(_chain, pair, pair_noise, models,
                                       generator_loss_tlm)
        (loss_mlm, loss_mrtd, acc_m, n_m), (loss_tlm, loss_trtd, acc_t, n_t) = \
            two_threads(mono_chain, pair_chain)
        total = joined_sum([loss_mlm, lam * loss_mrtd],
                           [loss_tlm, lam * loss_trtd])

    report = {
        "mlm": loss_mlm.item(), "mrtd": loss_mrtd.item(),
        "mlm_per_token": loss_mlm.item() / max(1, n_masked_mono),
        "mrtd_per_token": loss_mrtd.item() / max(1, n_m),
    }
    if pair is not None:
        report.update({
            "tlm": loss_tlm.item(), "trtd": loss_trtd.item(),
            "tlm_per_token": loss_tlm.item() / max(1, n_masked_pair),
            "trtd_per_token": loss_trtd.item() / max(1, n_t),
            "disc_accuracy": (acc_m * n_m + acc_t * n_t) / max(1, n_m + n_t),
        })
    else:
        report.update({"tlm": 0.0, "trtd": 0.0, "tlm_per_token": 0.0,
                       "trtd_per_token": 0.0, "disc_accuracy": acc_m})
    report["total"] = total.item()
    return total, report
