"""Transformer encoder with gated relative position bias.

Position information enters only through a per-head learnable bias over
clipped relative offsets, modulated by two query-conditioned sigmoid gates.
Blocks are post-layer-norm (normalize after each residual add), which keeps
every layer's hidden states on a common scale; the same code instantiates
both the small generator and the larger discriminator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .corpus import PAD
from .tensor import (Tensor, attend, embedding, ffn, gated_bias, layer_norm,
                     linear, matmul, softmax)

NEG_INF = -1e9


@dataclass
class ModelConfig:
    num_layers: int
    hidden_size: int
    num_heads: int
    ffn_size: int
    vocab_size: int
    max_rel_distance: int
    init_range: float
    role: str

    def __post_init__(self):
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}")
        if self.role not in ("generator", "discriminator"):
            raise ValueError(f"unknown role {self.role!r}")
        for name in ("num_layers", "hidden_size", "num_heads", "ffn_size",
                     "vocab_size", "max_rel_distance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads


class ModelParams:
    """Named parameter tensors for one encoder plus its task head."""

    def __init__(self, config: ModelConfig, tensors: Dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


def param_layout(config: ModelConfig) -> Dict[str, Tuple[Tuple[int, ...], str | float]]:
    """Shape and initializer of every parameter, in initialization order.

    An initializer is "ones", "zeros" or the scale of a Uniform[-init_range,
    init_range] draw: 1/sqrt(2l) for block l's (1-based) attention output
    projection and FFN output matrix, 1 for every other weight.
    """
    d, ffn, heads = config.hidden_size, config.ffn_size, config.num_heads
    ones, zeros = ((d,), "ones"), ((d,), "zeros")
    layout = {"embed": ((config.vocab_size, d), 1.0)}
    for i in range(config.num_layers):
        p = f"layer{i}."
        scale = 1.0 / math.sqrt(2.0 * (i + 1))
        layout[p + "ln1.g"], layout[p + "ln1.b"] = ones, zeros
        for w in "qkvo":
            layout[p + f"attn.w{w}"] = ((d, d), scale if w == "o" else 1.0)
            layout[p + f"attn.b{w}"] = zeros
        layout[p + "attn.d_table"] = ((2 * config.max_rel_distance + 1, heads), 1.0)
        layout[p + "attn.gate_u"] = layout[p + "attn.gate_v"] = \
            ((heads, config.head_dim), 1.0)
        layout[p + "attn.gate_w"] = ((heads,), 1.0)
        layout[p + "ln2.g"], layout[p + "ln2.b"] = ones, zeros
        layout[p + "ffn.w1"], layout[p + "ffn.b1"] = ((d, ffn), 1.0), ((ffn,), "zeros")
        layout[p + "ffn.w2"], layout[p + "ffn.b2"] = ((ffn, d), scale), zeros
    layout["final_ln.g"], layout["final_ln.b"] = ones, zeros
    if config.role == "generator":
        layout["mlm_bias"] = ((config.vocab_size,), "zeros")
    else:
        layout["rtd_w"], layout["rtd_b"] = ((d, 1), 1.0), ((1,), "zeros")
    return layout


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Every parameter of `param_layout(config)`, a float32 array
    initialized from `seed` with one draw per weight, in layout order."""
    rng = np.random.default_rng(seed)
    dtype = np.float32
    r = config.init_range
    tensors: Dict[str, Tensor] = {}
    for name, (shape, init) in param_layout(config).items():
        if init == "ones":
            data = np.ones(shape, dtype=dtype)
        elif init == "zeros":
            data = np.zeros(shape, dtype=dtype)
        else:
            data = rng.uniform(-r, r, size=shape).astype(dtype)
            if init != 1.0:
                data = (data * init).astype(dtype)
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(config, tensors)


@functools.lru_cache(maxsize=64)
def _clipped_offsets(n: int, k: int) -> np.ndarray:
    """[n, n] table index for each (query i, key j): clip(i - j, -k, k) + k."""
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    return np.clip(i - j, -k, k) + k


def attention_weights(h: Tensor, params: ModelParams, layer: int,
                      key_mask: np.ndarray) -> Tuple[Tensor, Tensor]:
    """Softmax attention weights [b, heads, n, n] and values [b, heads, n, dk]."""
    cfg = params.config
    b, n, _ = h.shape
    heads, dk = cfg.num_heads, cfg.head_dim
    p = f"layer{layer}."

    def project(name):
        x = linear(h, params[p + f"attn.w{name}"], params[p + f"attn.b{name}"])
        return x.reshape((b, n, heads, dk)).transpose((0, 2, 1, 3))

    q, k_, v = project("q"), project("k"), project("v")
    scores = matmul(q, k_.transpose((0, 1, 3, 2))) * (1.0 / math.sqrt(dk))

    # gated relative position bias, one gate pair per query per head
    offs = _clipped_offsets(n, cfg.max_rel_distance)
    d_bias = embedding(params[p + "attn.d_table"], offs)  # [n, n, heads]
    d_bias = d_bias.transpose((2, 0, 1)).reshape((1, heads, n, n))
    u = params[p + "attn.gate_u"].reshape((1, heads, 1, dk))
    vv = params[p + "attn.gate_v"].reshape((1, heads, 1, dk))
    w = params[p + "attn.gate_w"].reshape((1, heads, 1, 1))
    bias = gated_bias(d_bias, q, u, vv, w)
    scores = scores + bias + Tensor(key_mask)
    return softmax(scores), v


def _attention(h: Tensor, params: ModelParams, layer: int,
               key_mask: np.ndarray) -> Tensor:
    attn, v = attention_weights(h, params, layer, key_mask)
    p = f"layer{layer}."
    return attend(attn, v, params[p + "attn.wo"], params[p + "attn.bo"])


def encode(ids: np.ndarray, params: ModelParams,
           pad_mask: np.ndarray | None = None) -> List[Tensor]:
    """Hidden states for every layer, index 0 being the embedding layer.

    Padded key positions are excluded from attention normalization via an
    additive mask in the embedding table's dtype; `pad_mask` (True = real
    token) defaults to ids != PAD.
    """
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ValueError(f"ids must be [batch, length], got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= params.config.vocab_size):
        raise ValueError("token id out of vocabulary range")
    if pad_mask is None:
        pad_mask = ids != PAD
    key_mask = np.where(pad_mask[:, None, None, :], 0.0, NEG_INF)
    key_mask = key_mask.astype(params["embed"].dtype)

    h = embedding(params["embed"], ids)
    states = [h]
    for layer in range(params.config.num_layers):
        p = f"layer{layer}."
        h = layer_norm(h + _attention(h, params, layer, key_mask),
                       params[p + "ln1.g"], params[p + "ln1.b"])
        f = ffn(h, params[p + "ffn.w1"], params[p + "ffn.b1"],
                params[p + "ffn.w2"], params[p + "ffn.b2"])
        h = layer_norm(h + f, params[p + "ln2.g"], params[p + "ln2.b"])
        states.append(h)
    return states


def final_hidden(h: Tensor, params: ModelParams) -> Tensor:
    return layer_norm(h, params["final_ln.g"], params["final_ln.b"])


def mlm_logits(h: Tensor, params: ModelParams) -> Tensor:
    """Vocabulary logits via the tied embedding table; `h` is [..., d_h]."""
    hn = final_hidden(h, params)
    return linear(hn, params["embed"].transpose((1, 0)), params["mlm_bias"])


def rtd_logits(h: Tensor, params: ModelParams) -> Tensor:
    """Replaced-vs-original logit per position; output drops the unit dim."""
    hn = final_hidden(h, params)
    out = linear(hn, params["rtd_w"], params["rtd_b"])
    return out.reshape(out.shape[:-1])


def pair_configs(model: Dict, vocab_size: int) -> Tuple[ModelConfig, ModelConfig]:
    """The generator and discriminator configs that a run config's `model`
    section describes, over a vocabulary of `vocab_size` tokens."""
    return tuple(
        ModelConfig(num_layers=model[layers], hidden_size=model["hidden_size"],
                    num_heads=model["num_heads"], ffn_size=model["ffn_size"],
                    vocab_size=vocab_size,
                    max_rel_distance=model["max_rel_distance"],
                    init_range=model["init_range"], role=role)
        for layers, role in (("gen_layers", "generator"),
                             ("disc_layers", "discriminator")))


@dataclass
class ModelPair:
    """Generator and discriminator, sharing one embedding table."""
    generator: ModelParams
    discriminator: ModelParams

    def all_parameters(self) -> Dict[str, Tensor]:
        return _pair_names(self.generator.tensors, self.discriminator.tensors)


def _pair_names(gen: Dict, disc: Dict) -> Dict:
    """Both models' entries, prefixed "disc." and "gen.", in that order; the
    shared embedding appears once, as the discriminator's."""
    named = {"disc." + n: v for n, v in disc.items()}
    named.update(("gen." + n, v) for n, v in gen.items() if n != "embed")
    return named


def _check_pair(gen_config: ModelConfig, disc_config: ModelConfig) -> None:
    if gen_config.num_layers >= disc_config.num_layers:
        raise ValueError("the generator must have fewer layers (gen_layers) "
                         "than the discriminator (disc_layers)")
    if (gen_config.vocab_size != disc_config.vocab_size or
            gen_config.hidden_size != disc_config.hidden_size):
        raise ValueError("shared embeddings require equal vocab and hidden sizes")


def init_model_pair(gen_config: ModelConfig, disc_config: ModelConfig,
                    seed: int) -> ModelPair:
    _check_pair(gen_config, disc_config)
    disc = init_params(disc_config, seed)
    gen = init_params(gen_config, seed + 1)
    gen.tensors["embed"] = disc.tensors["embed"]
    return ModelPair(gen, disc)


def pair_layout(gen_config: ModelConfig,
                disc_config: ModelConfig) -> Dict[str, Tuple[int, ...]]:
    """Name and shape of each tensor `ModelPair.all_parameters` returns, in
    its order."""
    _check_pair(gen_config, disc_config)
    gen, disc = ({n: shape for n, (shape, _) in param_layout(c).items()}
                 for c in (gen_config, disc_config))
    return _pair_names(gen, disc)


def model_pair_from_arrays(gen_config: ModelConfig, disc_config: ModelConfig,
                           arrays: Dict[str, np.ndarray]) -> ModelPair:
    """The pair whose parameters are `arrays`, named as `pair_layout` names
    them; each parameter keeps its array (and so its dtype)."""
    named = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
    named["gen.embed"] = named["disc.embed"]
    gen, disc = (ModelParams(c, {n: named[prefix + n] for n in param_layout(c)})
                 for prefix, c in (("gen.", gen_config), ("disc.", disc_config)))
    return ModelPair(gen, disc)
