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

from .tensor import (Tensor, embedding, get_default_dtype, layer_norm, matmul,
                     softmax)

PAD_ID = 0

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


def gated_bias(d: Tensor, q: Tensor, u: Tensor, v: Tensor, w: Tensor) -> Tensor:
    """Gated relative position bias for queries `q` over their last axis.

    update gate g_u = sigmoid(q . u), reset gate g_r = sigmoid(q . v):
        r = d + g_u * d + (1 - g_u) * (w * g_r * d)
    with d the bias-table entry at the clipped query-key offset.
    """
    g_up = (q * u).sum(axis=-1, keepdims=True).sigmoid()
    g_reset = (q * v).sum(axis=-1, keepdims=True).sigmoid()
    return d + g_up * d + (1.0 - g_up) * (w * g_reset * d)


class ModelParams:
    """Named parameter tensors for one encoder plus its task head."""

    def __init__(self, config: ModelConfig, tensors: Dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Initialize all weights Uniform[-init_range, init_range].

    For block l (1-based), the attention output projection and the FFN output
    matrix are rescaled by 1/sqrt(2l). Biases start at zero, norm gains at one.
    """
    rng = np.random.default_rng(seed)
    dtype = get_default_dtype()
    r = config.init_range
    d, ffn, heads = config.hidden_size, config.ffn_size, config.num_heads
    dk = config.head_dim
    table_size = 2 * config.max_rel_distance + 1

    def uniform(*shape):
        return Tensor(rng.uniform(-r, r, size=shape).astype(dtype),
                      requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)

    t: Dict[str, Tensor] = {"embed": uniform(config.vocab_size, d)}
    for i in range(config.num_layers):
        p = f"layer{i}."
        scale = 1.0 / math.sqrt(2.0 * (i + 1))
        t[p + "ln1.g"], t[p + "ln1.b"] = ones(d), zeros(d)
        t[p + "attn.wq"], t[p + "attn.bq"] = uniform(d, d), zeros(d)
        t[p + "attn.wk"], t[p + "attn.bk"] = uniform(d, d), zeros(d)
        t[p + "attn.wv"], t[p + "attn.bv"] = uniform(d, d), zeros(d)
        wo = uniform(d, d)
        wo.data = (wo.data * scale).astype(dtype)
        t[p + "attn.wo"], t[p + "attn.bo"] = wo, zeros(d)
        t[p + "attn.d_table"] = uniform(table_size, heads)
        t[p + "attn.gate_u"] = uniform(heads, dk)
        t[p + "attn.gate_v"] = uniform(heads, dk)
        t[p + "attn.gate_w"] = uniform(heads)
        t[p + "ln2.g"], t[p + "ln2.b"] = ones(d), zeros(d)
        t[p + "ffn.w1"], t[p + "ffn.b1"] = uniform(d, ffn), zeros(ffn)
        w2 = uniform(ffn, d)
        w2.data = (w2.data * scale).astype(dtype)
        t[p + "ffn.w2"], t[p + "ffn.b2"] = w2, zeros(d)
    t["final_ln.g"], t["final_ln.b"] = ones(d), zeros(d)
    if config.role == "generator":
        t["mlm_bias"] = zeros(config.vocab_size)
    else:
        t["rtd_w"], t["rtd_b"] = uniform(d, 1), zeros(1)
    return ModelParams(config, t)


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
        x = matmul(h, params[p + f"attn.w{name}"]) + params[p + f"attn.b{name}"]
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
    return softmax(scores, axis=-1), v


def _attention(h: Tensor, params: ModelParams, layer: int,
               key_mask: np.ndarray) -> Tensor:
    b, n, d = h.shape
    attn, v = attention_weights(h, params, layer, key_mask)
    out = matmul(attn, v).transpose((0, 2, 1, 3)).reshape((b, n, d))
    p = f"layer{layer}."
    return matmul(out, params[p + "attn.wo"]) + params[p + "attn.bo"]


def encode(ids: np.ndarray, params: ModelParams,
           pad_mask: np.ndarray | None = None) -> List[Tensor]:
    """Hidden states for every layer, index 0 being the embedding layer.

    Padded key positions are excluded from attention normalization via an
    additive mask; `pad_mask` (True = real token) defaults to ids != PAD.
    """
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ValueError(f"ids must be [batch, length], got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= params.config.vocab_size):
        raise ValueError("token id out of vocabulary range")
    if pad_mask is None:
        pad_mask = ids != PAD_ID
    key_mask = np.where(pad_mask[:, None, None, :], 0.0, NEG_INF)
    key_mask = key_mask.astype(get_default_dtype())

    h = embedding(params["embed"], ids)
    states = [h]
    for layer in range(params.config.num_layers):
        p = f"layer{layer}."
        h = layer_norm(h + _attention(h, params, layer, key_mask),
                       params[p + "ln1.g"], params[p + "ln1.b"])
        f = matmul(h, params[p + "ffn.w1"]) + params[p + "ffn.b1"]
        f = matmul(f.gelu(), params[p + "ffn.w2"]) + params[p + "ffn.b2"]
        h = layer_norm(h + f, params[p + "ln2.g"], params[p + "ln2.b"])
        states.append(h)
    return states


def final_hidden(h: Tensor, params: ModelParams) -> Tensor:
    return layer_norm(h, params["final_ln.g"], params["final_ln.b"])


def mlm_logits(h: Tensor, params: ModelParams) -> Tensor:
    """Vocabulary logits via the tied embedding table; `h` is [..., d_h]."""
    hn = final_hidden(h, params)
    return matmul(hn, params["embed"].transpose((1, 0))) + params["mlm_bias"]


def rtd_logits(h: Tensor, params: ModelParams) -> Tensor:
    """Replaced-vs-original logit per position; output drops the unit dim."""
    hn = final_hidden(h, params)
    out = matmul(hn, params["rtd_w"]) + params["rtd_b"]
    return out.reshape(out.shape[:-1])


@dataclass
class ModelPair:
    """Generator and discriminator, optionally sharing the embedding table."""
    generator: ModelParams
    discriminator: ModelParams
    share_embeddings: bool = True

    def all_parameters(self) -> Dict[str, Tensor]:
        named: Dict[str, Tensor] = {}
        seen: set[int] = set()
        for prefix, params in (("disc.", self.discriminator),
                               ("gen.", self.generator)):
            for name, t in params.tensors.items():
                if id(t) in seen:
                    continue
                seen.add(id(t))
                named[prefix + name] = t
        return named


def init_model_pair(gen_config: ModelConfig, disc_config: ModelConfig,
                    seed: int, share_embeddings: bool = True) -> ModelPair:
    if gen_config.num_layers >= disc_config.num_layers:
        raise ValueError("generator must have fewer layers than discriminator")
    if share_embeddings and (gen_config.vocab_size != disc_config.vocab_size or
                             gen_config.hidden_size != disc_config.hidden_size):
        raise ValueError("shared embeddings require equal vocab and hidden sizes")
    disc = init_params(disc_config, seed)
    gen = init_params(gen_config, seed + 1)
    if share_embeddings:
        gen.tensors["embed"] = disc.tensors["embed"]
    return ModelPair(gen, disc, share_embeddings)
