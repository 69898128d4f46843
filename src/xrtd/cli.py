"""Command-line entry points: synth, pretrain, eval, gradcheck.

All randomness flows from the single config seed. `DEFAULT_CONFIG` is the
only source of default values: the config classes of the other modules take
every value from it. Every command writes a fully merged copy of its
configuration into the output directory once its inputs pass validation,
and exits nonzero with a single-line machine-parseable error on contract
violations.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
from dataclasses import asdict
from typing import Dict, List

import numpy as np

from . import align
from .corpus import (Corpus, LanguageSpec, ToyGrammar, Vocab, build_vocab,
                     gold_alignment, synth_corpus, save_corpus_files,
                     transform_sentence)
from .gradcheck import check_joint_gradients
from .model import ModelConfig, init_model_pair
from .objectives import wrap_mono
from .trainer import OptimConfig, RunSettings, load_checkpoint, train

DEFAULT_CONFIG: Dict = {
    "seed": 0,
    "model": {
        "hidden_size": 64,
        "num_heads": 4,
        "gen_layers": 2,
        "disc_layers": 6,
        "ffn_size": 128,
        "max_rel_distance": 4,
        "init_range": 0.02,
        "share_embeddings": True,
    },
    "optim": {
        "lr_peak": 4e-3,
        "warmup_steps": 100,
        "total_steps": 2000,
        "adam_betas": [0.9, 0.98],
        "adam_eps": 1e-6,
        "grad_clip": 2.0,
        "weight_decay": 0.01,
        "lam": 50.0,
    },
    "data": {
        "languages": [
            {"lang": "en", "kind": "base", "seed": 0},
            {"lang": "pv", "kind": "permuted", "seed": 1},
        ],
        "n_sentences": 300,
        "token_budget": 512,
        "mask_ratio": 0.3,
        "alpha": 0.7,
        "checkpoint_every": 1000,
    },
    "eval": {
        "n_pairs": 300,
        "ot_eps": 0.1,
        "ot_iters": 200,
    },
}


# eval aligns the first ALIGNED_PAIRS held-out pairs of each language;
# perfbench/checks.py ALIGNED_PAIRS mirrors this value
ALIGNED_PAIRS = 50


class ConfigError(ValueError):
    pass


def _merge(defaults: Dict, overrides: Dict, path: str = "") -> Dict:
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(defaults[key], dict) and key != "languages":
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be a mapping")
            merged[key] = _merge(defaults[key], value, where)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(path: str | None) -> Dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    with open(path) as fh:
        overrides = json.load(fh)
    return _merge(DEFAULT_CONFIG, overrides)


def _write_config_copy(config: Dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run_config.json"), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


def _specs(config: Dict) -> List[LanguageSpec]:
    return [LanguageSpec(**entry) for entry in config["data"]["languages"]]


def _build_corpus(config: Dict) -> Corpus:
    rng = np.random.default_rng(config["seed"])
    return synth_corpus(_specs(config), config["data"]["n_sentences"], rng)


def _model_pair(config: Dict, vocab_size: int):
    m = config["model"]
    gen_cfg = ModelConfig(num_layers=m["gen_layers"], hidden_size=m["hidden_size"],
                          num_heads=m["num_heads"], ffn_size=m["ffn_size"],
                          vocab_size=vocab_size,
                          max_rel_distance=m["max_rel_distance"],
                          init_range=m["init_range"], role="generator")
    disc_cfg = ModelConfig(num_layers=m["disc_layers"], hidden_size=m["hidden_size"],
                           num_heads=m["num_heads"], ffn_size=m["ffn_size"],
                           vocab_size=vocab_size,
                           max_rel_distance=m["max_rel_distance"],
                           init_range=m["init_range"], role="discriminator")
    return init_model_pair(gen_cfg, disc_cfg, seed=config["seed"],
                           share_embeddings=m["share_embeddings"])


def cmd_synth(args) -> int:
    config = load_config(args.config)
    corpus = _build_corpus(config)
    _write_config_copy(config, args.out)
    written = save_corpus_files(corpus, args.out)
    for path in written:
        print(path)
    return 0


def cmd_pretrain(args) -> int:
    config = load_config(args.config)
    data = config["data"]
    optim_cfg = OptimConfig(**config["optim"])
    settings = RunSettings(token_budget=data["token_budget"],
                           mask_ratio=data["mask_ratio"],
                           use_trtd=not args.no_trtd,
                           checkpoint_every=data["checkpoint_every"],
                           alpha=data["alpha"])
    corpus = _build_corpus(config)
    resume = None
    if args.resume:
        models, optimizer, rng, step, meta = load_checkpoint(args.resume)
        # the checkpoint's Adam settings, rng and batches continue the run, so
        # a schedule, seed or data setting that differs would mix two runs;
        # checkpoint_every only decides where checkpoints are written
        changed = [f"optim.{k}" for k, v in asdict(optim_cfg).items()
                   if getattr(optimizer.config, k) != v]
        if meta.get("seed") != config["seed"]:
            changed.append("seed")
        saved = meta.get("settings", {})
        changed += [f"data.{k}" for k in ("token_budget", "mask_ratio", "alpha")
                    if saved.get(k) != getattr(settings, k)]
        if saved.get("use_trtd") != settings.use_trtd:
            changed.append("--no-trtd")
        if changed:
            raise ConfigError(f"config differs from checkpoint {args.resume} "
                              f"in {', '.join(changed)}")
        resume = (optimizer, rng, step)
    else:
        models = _model_pair(config, len(corpus.vocab))
    _write_config_copy(config, args.out)
    result = train(models, corpus, optim_cfg, args.out, seed=config["seed"],
                   settings=settings, resume=resume)
    print(result.final_checkpoint)
    print(result.metrics_path)
    return 0


def _heldout_pairs(config: Dict, spec: LanguageSpec, vocab: Vocab, n_pairs: int):
    """Fresh parallel sentences (never batched for training) for one language."""
    rng = np.random.default_rng(config["seed"] + 7777)
    grammar = ToyGrammar()
    pairs = []
    for _ in range(n_pairs):
        base = grammar.sample_sentence(rng)
        pairs.append((vocab.encode(base),
                      vocab.encode(transform_sentence(base, spec, grammar))))
    return pairs


def cmd_eval(args) -> int:
    config = load_config(args.config)
    models, _, _, _, _ = load_checkpoint(args.checkpoint)
    specs = _specs(config)
    vocab = build_vocab(specs)
    _write_config_copy(config, args.out)
    disc = models.discriminator
    ev = config["eval"]

    retrieval_rows, sweep_rows, aer_rows = [], [], []
    for spec in specs:
        if spec.kind == "base":
            continue
        pairs = _heldout_pairs(config, spec, vocab, ev["n_pairs"])
        src = [wrap_mono(e) for e, _ in pairs]
        tgt = [wrap_mono(f) for _, f in pairs]
        sweep = align.layer_sweep_retrieval(disc, src, tgt)
        for layer, fwd, bwd in sweep:
            sweep_rows.append((spec.lang, layer, (fwd + bwd) / 2))
        # the first layer with the highest direction-averaged accuracy
        best_layer, fwd, bwd = max(sweep, key=lambda r: (r[1] + r[2]) / 2)
        retrieval_rows.append((spec.lang, "en->xx", best_layer, fwd))
        retrieval_rows.append((spec.lang, "xx->en", best_layer, bwd))

        aligned = pairs[:ALIGNED_PAIRS]
        gold = [(set(gold_alignment(spec, len(e))),) * 2 for e, _ in aligned]
        wrapped = [(wrap_mono(e), wrap_mono(f)) for e, f in aligned]
        aer_sweep = align.layer_sweep_aer(disc, wrapped, gold,
                                          ev["ot_eps"], ev["ot_iters"])
        for layer, score in aer_sweep:
            aer_rows.append((spec.lang, layer, score))

    with open(os.path.join(args.out, "retrieval.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["language", "direction", "layer", "accuracy_at_1"])
        writer.writerows(retrieval_rows)
    with open(os.path.join(args.out, "layer_sweep_retrieval.csv"), "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["language", "layer", "accuracy_at_1"])
        writer.writerows(sweep_rows)
    with open(os.path.join(args.out, "layer_sweep_aer.csv"), "w",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["language", "layer", "aer"])
        writer.writerows(aer_rows)
    for row in retrieval_rows:
        print("retrieval", *row)
    return 0


def cmd_gradcheck(args) -> int:
    worst = 0.0
    for i in range(args.configs):
        err = check_joint_gradients(args.seed + i)
        print(f"config {i}: max_rel_err={err:.3e}")
        worst = max(worst, err)
    print(f"overall max_rel_err={worst:.3e}")
    return 0 if worst < args.tolerance else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xrtd",
        description="Cross-lingual replaced-token-detection pretraining "
                    "on synthetic toy languages.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic corpus files")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("pretrain", help="run joint pretraining")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", required=True)
    p.add_argument("--no-trtd", action="store_true",
                   help="drop the translation-pair loss terms")
    p.add_argument("--resume", help="checkpoint directory to resume from")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("eval", help="retrieval/alignment evaluation")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--configs", type=int, default=5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # single-line machine-parseable failure
        code = type(exc).__name__
        message = str(exc).replace("\n", " ")
        print(f'error code={code} msg="{message}"', file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
