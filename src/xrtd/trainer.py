"""Joint generator/discriminator training loop.

One Adam optimizer updates both sub-models; each step consumes one
monolingual batch and one translation-pair batch so every step sees all four
loss terms. Checkpoints capture parameters, optimizer moments, the rng state
and the run record (the merged config and the TRTD flag), so a resumed run
reproduces the uninterrupted run bit for bit. The run config arrives
checked: `cli.load_config` states every rule of a valid one, and `train`
checks only that the model pair is the one the config describes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import serialize
from .corpus import (Corpus, CorpusStats, LanguageSpec, build_vocab, draw_batch,
                     language_sampling_probs)
from .model import (ModelConfig, ModelPair, model_pair_from_arrays, pair_configs,
                    pair_layout)
from .objectives import build_masked_batch, joint_loss, wrap_mono, wrap_pair
from .tensor import Tensor, backward, no_grad, zero_grads

METRICS_COLUMNS = ["step", "loss_mlm", "loss_tlm", "loss_mrtd", "loss_trtd",
                   "disc_accuracy", "lr", "loss_total"]


class DivergenceError(RuntimeError):
    """Raised when the total loss stays above 10x its initial value."""


@dataclass
class OptimConfig:
    """The `optim` section of a run config, one field per key."""
    lr_peak: float
    warmup_steps: int
    total_steps: int
    adam_betas: Tuple[float, float]
    adam_eps: float
    grad_clip: float
    weight_decay: float
    lam: float

    def __post_init__(self):
        self.adam_betas = tuple(self.adam_betas)
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ValueError("need 0 <= warmup_steps < total_steps")
        for name in ("lr_peak", "adam_eps", "grad_clip", "lam"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def lr_at(step: int, config: OptimConfig) -> float:
    """Linear ramp to lr_peak over warmup, then linear decay to 0."""
    if not 0 <= step <= config.total_steps:
        raise ValueError(f"step {step} outside [0, {config.total_steps}]")
    if step <= config.warmup_steps:
        if config.warmup_steps == 0:
            return config.lr_peak
        return config.lr_peak * step / config.warmup_steps
    span = config.total_steps - config.warmup_steps
    return config.lr_peak * (config.total_steps - step) / span


def _decays(name: str) -> bool:
    """Decoupled weight decay applies to weight matrices only."""
    return name.split(".")[-1] in {"embed", "wq", "wk", "wv", "wo", "w1", "w2",
                                   "rtd_w"}


class Adam:
    """Adam with bias correction, global-norm clipping, decoupled decay.

    Update: p -= lr * m_hat / (sqrt(v_hat) + eps), with clipping applied to
    the concatenated gradient before the moment updates and decay applied
    directly to eligible parameters.
    """

    def __init__(self, params: Dict[str, Tensor], config: OptimConfig,
                 moments: Dict[str, np.ndarray] | None = None, t: int = 0):
        """`moments` (as `state_arrays` names them) and `t` resume a saved run."""
        self.params = dict(params)
        self.config = config
        self.t = t
        if moments is None:
            moments = {f"{kind}/{name}": np.zeros_like(p.data, dtype=np.float64)
                       for name, p in self.params.items() for kind in "mv"}
        self.m = {name: moments["m/" + name] for name in self.params}
        self.v = {name: moments["v/" + name] for name in self.params}

    def step(self, lr: float) -> float:
        """Apply one update; returns the pre-clip global gradient norm."""
        cfg = self.config
        grads: Dict[str, np.ndarray] = {}
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise RuntimeError(f"non-finite gradient in parameter {name!r}")
            grads[name] = g.astype(np.float64)
        norm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        scale = cfg.grad_clip / norm if norm > cfg.grad_clip else 1.0
        self.t += 1
        b1, b2 = cfg.adam_betas
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = grads[name] * scale
            if cfg.weight_decay > 0 and _decays(name):
                p.data -= lr * cfg.weight_decay * p.data
            m, v = self.m[name], self.v[name]   # updated in their own buffers
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + cfg.adam_eps)
        return norm

    def state_arrays(self) -> Dict[str, np.ndarray]:
        out = {}
        for name in self.params:
            out["m/" + name] = self.m[name]
            out["v/" + name] = self.v[name]
        return out


def _samplers(corpus: Corpus, alpha: float, use_trtd: bool):
    """(pools, probs, langs) for the monolingual sentences and, unless
    `use_trtd` is off, for the translation pairs; pools hold wrapped inputs."""
    def sampler(pools):
        stats = CorpusStats({lang: len(p) for lang, p in pools.items()}, alpha)
        return pools, language_sampling_probs(stats), list(stats.counts)

    mono = sampler({lang: [wrap_mono(ids) for ids in seqs]
                    for lang, seqs in corpus.mono.items()})
    if not use_trtd:
        return mono, None
    return mono, sampler({lang: [wrap_pair(e, f) for e, f in pairs]
                          for lang, pairs in corpus.parallel.items()})


def _draw_batches(mono, pair, budget: int, mask_ratio: float,
                  rng: np.random.Generator):
    """One masked monolingual batch and, when `pair` is given, one pair batch."""
    mono_batch = draw_mono_batch(*mono, budget, rng, mask_ratio)
    if pair is None:
        return mono_batch, None
    return mono_batch, draw_pair_batch(*pair, budget, rng, mask_ratio)


def draw_mono_batch(pools, probs, langs, budget, rng, mask_ratio):
    seqs, _ = draw_batch(pools, probs, langs, budget, rng)
    return build_masked_batch(seqs, mask_ratio, rng)


# the same draw under a second name, so that a wrapper around the module
# attributes can tell a step's first (mono) draw from its pair draw
draw_pair_batch = draw_mono_batch


def train_step(models: ModelPair, optimizer: Adam, samplers, data: Dict,
               rng: np.random.Generator, lr: float) -> Tuple[Tensor, Dict]:
    """One training step: draw the batches from `samplers` (mono, pair) with
    the `data` section's budget and mask ratio, build the joint loss, zero
    the gradients, run the backward and update with Adam at `lr`. Returns
    (total loss, report) as `joint_loss` does."""
    mono_batch, pair_batch = _draw_batches(
        *samplers, data["token_budget"], data["mask_ratio"], rng)
    total, report = joint_loss(mono_batch, pair_batch, models,
                               optimizer.config.lam, rng)
    zero_grads(models.all_parameters().values())
    backward(total)
    optimizer.step(lr)
    return total, report


def save_checkpoint(path: str, models: ModelPair, optimizer: Adam,
                    rng: np.random.Generator, step: int, run: Dict) -> None:
    """Checkpoint directory: config.json, params.bin, optim.bin, rng.json.

    config.json holds the step and the run record `run`, {"config": merged
    run config, "use_trtd": bool}; the record's `model` section and languages
    describe the arrays. The files go to a temporary sibling directory that
    then replaces `path`, so `path` never names a partly written checkpoint.
    """
    path = os.path.normpath(path)
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        with open(os.path.join(tmp, "config.json"), "w") as fh:
            json.dump({"step": step, **run}, fh, indent=2)
        serialize.save_arrays(os.path.join(tmp, "params.bin"),
                              {k: t.data for k, t in models.all_parameters().items()})
        serialize.save_arrays(os.path.join(tmp, "optim.bin"),
                              optimizer.state_arrays())
        with open(os.path.join(tmp, "rng.json"), "w") as fh:
            json.dump(rng.bit_generator.state, fh)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if os.path.isdir(path):
        # a directory cannot be renamed over a non-empty one: move it aside
        old = path + ".old"
        shutil.rmtree(old, ignore_errors=True)
        os.replace(path, old)
        os.replace(tmp, path)
        shutil.rmtree(old)
    else:
        os.replace(tmp, path)


def language_specs(config: Dict) -> List[LanguageSpec]:
    """One `LanguageSpec` per entry of the run `config`'s `data.languages`."""
    return [LanguageSpec(**entry) for entry in config["data"]["languages"]]


def described_pair(config: Dict) -> Tuple[ModelConfig, ModelConfig]:
    """The generator and discriminator configs that the run `config`'s
    `model` section describes, over its languages' vocabulary."""
    return pair_configs(config["model"], len(build_vocab(language_specs(config))))


def _check_shapes(path: str, found: Dict[str, tuple],
                  expected: Dict[str, tuple]) -> None:
    """Raises a ValueError that names the tensors missing from, or extra
    in, the `found` names and shapes of the file `path`, or else the first
    tensor whose shape differs from the `expected` one."""
    missing = sorted(expected.keys() - found.keys())
    if missing:
        raise ValueError(f"{path}: missing tensor {', '.join(missing)}")
    extra = sorted(found.keys() - expected.keys())
    if extra:
        raise ValueError(f"{path}: unexpected tensor {', '.join(extra)}")
    for name, shape in expected.items():
        if found[name] != shape:
            raise ValueError(f"{path}: tensor {name} has shape "
                             f"{found[name]}, the model expects {shape}")


def _load_checked(path: str, shapes: Dict[str, tuple]) -> Dict[str, np.ndarray]:
    """The arrays in `path`, which must be exactly the named `shapes`."""
    arrays = serialize.load_arrays(path)
    _check_shapes(path, {name: a.shape for name, a in arrays.items()}, shapes)
    return arrays


def _moment_shapes(layout: Dict[str, tuple]) -> Dict[str, tuple]:
    """Name and shape of each array in optim.bin, for parameters `layout`."""
    return {f"{kind}/{name}": shape for name, shape in layout.items()
            for kind in "mv"}


def load_checkpoint(path: str):
    """Returns (models, rng, step, run), `run` being the run record.

    The model pair is the one the record's `model` section and languages
    describe. Every tensor in params.bin, and every record header in
    optim.bin, must match it by name and shape; a mismatch raises a
    ValueError that names the tensor. A checkpoint without a run record
    raises a ValueError. No optimizer moment is read: `load_optimizer` reads
    them for a resume.
    """
    with open(os.path.join(path, "config.json")) as fh:
        saved = json.load(fh)
    if "config" not in saved or "use_trtd" not in saved:
        raise ValueError(f"{path}: checkpoint predates the run record "
                         f"(config and use_trtd in config.json); train it again")
    run = {"config": saved["config"], "use_trtd": saved["use_trtd"]}
    configs = described_pair(run["config"])
    layout = pair_layout(*configs)
    arrays = _load_checked(os.path.join(path, "params.bin"), layout)
    models = model_pair_from_arrays(*configs, arrays)
    optim_path = os.path.join(path, "optim.bin")
    _check_shapes(optim_path, serialize.load_shapes(optim_path),
                  _moment_shapes(layout))
    rng = np.random.default_rng()
    with open(os.path.join(path, "rng.json")) as fh:
        rng.bit_generator.state = json.load(fh)
    return models, rng, saved["step"], run


def load_optimizer(path: str, models: ModelPair, step: int, run: Dict) -> Adam:
    """The Adam state of the checkpoint at `path`, whose `models`, `step`
    and run record `run` `load_checkpoint` returned."""
    params = models.all_parameters()
    moments = _load_checked(os.path.join(path, "optim.bin"), _moment_shapes(
        {name: p.data.shape for name, p in params.items()}))
    return Adam(params, OptimConfig(**run["config"]["optim"]), moments, step)


@dataclass
class TrainResult:
    final_checkpoint: str
    metrics_path: str


def train(models: ModelPair, corpus: Corpus, config: Dict, out_dir: str,
          use_trtd: bool,
          resume: Tuple[Adam, np.random.Generator, int] | None = None) -> TrainResult:
    """Run the joint loop to `optim.total_steps` of the run `config`, merged
    and checked as `cli.load_config` returns it, logging metrics per step;
    every checkpoint records `config` and `use_trtd`. A `models` that is not
    the pair `config` describes raises a ValueError before anything is
    written."""
    if (models.generator.config, models.discriminator.config) != described_pair(config):
        raise ValueError("the model pair is not the one that the config's "
                         "model section and languages describe")
    optim_cfg = OptimConfig(**config["optim"])
    mono, pair = _samplers(corpus, config["data"]["alpha"], use_trtd)
    os.makedirs(out_dir, exist_ok=True)
    if resume is None:
        resume = (Adam(models.all_parameters(), optim_cfg),
                  np.random.default_rng(config["seed"]), 0)
    optimizer, rng, start_step = resume
    data = config["data"]
    run = {"config": config, "use_trtd": use_trtd}

    metrics_path = os.path.join(out_dir, "metrics.csv")
    initial_total = None
    diverged_streak = 0
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for step in range(start_step, optim_cfg.total_steps):
            lr = lr_at(step + 1, optim_cfg)
            _, report = train_step(models, optimizer, (mono, pair), data, rng, lr)

            row = {"step": step, "loss_mlm": report["mlm"],
                   "loss_tlm": report["tlm"], "loss_mrtd": report["mrtd"],
                   "loss_trtd": report["trtd"],
                   "disc_accuracy": report["disc_accuracy"], "lr": lr,
                   "loss_total": report["total"]}
            writer.writerow([row[c] for c in METRICS_COLUMNS])

            if initial_total is None:
                initial_total = report["total"]
            diverged_streak = diverged_streak + 1 \
                if report["total"] > 10 * initial_total else 0
            if diverged_streak >= 50:
                raise DivergenceError(
                    f"loss above 10x initial for 50 steps at step {step}: "
                    f"total={report['total']:.3f} initial={initial_total:.3f}")

            if data["checkpoint_every"] and \
                    (step + 1) % data["checkpoint_every"] == 0 and \
                    (step + 1) < optim_cfg.total_steps:
                save_checkpoint(os.path.join(out_dir, f"ckpt_{step + 1}"),
                                models, optimizer, rng, step + 1, run)

    final = os.path.join(out_dir, "ckpt_final")
    save_checkpoint(final, models, optimizer, rng, optim_cfg.total_steps, run)
    return TrainResult(final, metrics_path)


def heldout_disc_accuracy(models: ModelPair, corpus: Corpus, seed: int,
                          n_batches: int, token_budget: int, mask_ratio: float,
                          alpha: float, use_trtd: bool) -> float:
    """Replaced-token detection accuracy on batches drawn from `corpus`."""
    rng = np.random.default_rng(seed)
    mono, pair = _samplers(corpus, alpha, use_trtd)
    correct = 0.0
    for _ in range(n_batches):
        mono_batch, pair_batch = _draw_batches(mono, pair, token_budget,
                                               mask_ratio, rng)
        with no_grad():
            _, report = joint_loss(mono_batch, pair_batch, models, 1.0, rng)
        # weight each batch by one; accuracy already position-weighted inside
        correct += report["disc_accuracy"]
    return correct / n_batches
