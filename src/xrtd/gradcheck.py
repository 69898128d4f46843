"""Central finite-difference verification of analytic gradients.

Corruption sampling is frozen before checking: the discriminator terms are
evaluated on fixed corrupted batches, matching the stop-gradient semantics
of the analytic graph (no gradient flows through the sampling step). The
loss is joined as training joins it (`tensor.joined_sum`), so the check
walks the same two-thread backward. The model pair is the float32 init
widened to float64, because central differences need float64's resolution.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from .corpus import FIRST_CONTENT_ID
from .model import ModelPair, init_model_pair, model_pair_from_arrays, pair_configs
from .objectives import (CorruptedBatch, MaskedBatch, build_masked_batch,
                         discriminator_loss_rtd, generator_loss_mlm,
                         generator_loss_tlm, sample_corruption, wrap_mono,
                         wrap_pair)
from .tensor import Tensor, backward, joined_sum, no_grad, zero_grads

STEP = 1e-5
COORDS_PER_PARAM = 6


def finite_difference_check(loss_fn: Callable[[], Tensor],
                            params: Dict[str, Tensor],
                            seed: int) -> float:
    """Max relative error between analytic and central-difference gradients.

    `loss_fn` rebuilds the scalar loss from the current parameter values.
    For large tensors only `COORDS_PER_PARAM` coordinates, drawn from `seed`,
    are probed (small tensors, including all gate parameters, are probed
    fully), each at +-`STEP`. Only the first loss builds a tape; the probes
    run under `no_grad`.
    """
    rng = np.random.default_rng(seed)
    zero_grads(params.values())
    loss0 = loss_fn()
    backward(loss0)
    analytic = {k: (p.grad.copy() if p.grad is not None else
                    np.zeros_like(p.data)) for k, p in params.items()}
    # central differences cannot resolve below roundoff on the loss itself;
    # differences inside this band (e.g. exactly-zero gradients) are noise
    eps = np.finfo(np.float64).eps
    atol = 32 * eps * max(1.0, abs(loss0.item())) / STEP
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        size = flat.size
        if size <= COORDS_PER_PARAM:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=COORDS_PER_PARAM, replace=False)
        for c in coords:
            keep = flat[c]
            with no_grad():          # a probe reads only the loss's value
                flat[c] = keep + STEP
                up = loss_fn().item()
                flat[c] = keep - STEP
                down = loss_fn().item()
            flat[c] = keep
            numeric = (up - down) / (2 * STEP)
            a = float(analytic[name].reshape(-1)[c])
            if abs(a - numeric) <= atol:
                continue
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-6))
    return worst


def _random_batches(vocab_size: int, rng: np.random.Generator,
                    mask_ratio: float = 0.3):
    def sentence():
        return [int(rng.integers(FIRST_CONTENT_ID, vocab_size))
                for _ in range(int(rng.integers(4, 8)))]

    mono = build_masked_batch(
        [wrap_mono(sentence()) for _ in range(2)], mask_ratio, rng)
    pairs = [wrap_pair(sentence(), sentence()) for _ in range(2)]
    return mono, build_masked_batch(pairs, mask_ratio, rng)


def frozen_joint_loss(mono: MaskedBatch, pair: MaskedBatch,
                      corrupt_mono: CorruptedBatch,
                      corrupt_pair: CorruptedBatch,
                      models: ModelPair, lam: float) -> Tensor:
    """`objectives.joint_loss`'s total on fixed corrupted batches."""
    loss_mlm, _ = generator_loss_mlm(mono, models.generator)
    loss_tlm, _ = generator_loss_tlm(pair, models.generator)
    loss_mrtd, _, _ = discriminator_loss_rtd(corrupt_mono, models.discriminator)
    loss_trtd, _, _ = discriminator_loss_rtd(corrupt_pair, models.discriminator)
    return joined_sum([loss_mlm, lam * loss_mrtd], [loss_tlm, lam * loss_trtd])


def widened(models: ModelPair) -> ModelPair:
    """A float64 copy of `models`, sharing its embedding as `models` does."""
    arrays = {k: t.data.astype(np.float64)
              for k, t in models.all_parameters().items()}
    return model_pair_from_arrays(models.generator.config,
                                  models.discriminator.config, arrays)


def check_joint_gradients(seed: int) -> float:
    """Finite-difference check of the full joint loss on one random tiny model."""
    rng = np.random.default_rng(seed)
    vocab = int(rng.integers(10, 16))
    heads = int(rng.choice([1, 2]))
    d = heads * int(rng.choice([3, 4]))
    # init_range well above training scale: at 0.02 the gate gradients
    # fall below float64 finite-difference resolution
    section = {"hidden_size": d, "num_heads": heads, "gen_layers": 1,
               "disc_layers": 2, "ffn_size": int(rng.integers(4, 9)),
               "max_rel_distance": 3, "init_range": 0.4}
    models = widened(init_model_pair(*pair_configs(section, vocab), seed=seed + 1))
    mono, pair = _random_batches(vocab, rng)
    with no_grad():          # sampling reads only the logits' values
        _, mono_logits = generator_loss_mlm(mono, models.generator)
        _, pair_logits = generator_loss_tlm(pair, models.generator)
    corrupt_mono = sample_corruption(mono, mono_logits, rng)
    corrupt_pair = sample_corruption(pair, pair_logits, rng)

    def loss_fn():
        return frozen_joint_loss(mono, pair, corrupt_mono, corrupt_pair,
                                 models, lam=2.0)

    return finite_difference_check(loss_fn, models.all_parameters(), seed)
