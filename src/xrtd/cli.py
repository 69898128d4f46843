"""Command-line entry points: synth, pretrain, eval, gradcheck.

All randomness flows from the single config seed. `DEFAULT_CONFIG` is the
only source of default values: the config classes of the other modules take
every value from it. A run config is checked once, when `load_config` reads
it: `_merge` refuses an unknown key, a non-integer count and a non-number
for a float key, and
`check_config` every value that no command would run with, so every command
refuses the same configs before it writes anything. Every command writes a
fully merged copy of its configuration into the output directory once its
inputs pass validation, and exits nonzero with a single-line
machine-parseable error on contract violations. A checkpoint carries its
run's merged config, and `pretrain --resume` and `eval` refuse a config that
differs from it in a key that matters to them.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import sys
from typing import Dict

import numpy as np

from . import align
from .corpus import (Corpus, CorpusStats, gold_alignment, synth_corpus,
                     save_corpus_files)
from .gradcheck import check_joint_gradients
from .model import init_model_pair, pair_configs, pair_layout
from .objectives import wrap_mono
from .trainer import (OptimConfig, described_pair, language_specs,
                      load_checkpoint, load_optimizer, train)

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


# Keys in which a config must equal the checkpoint's run record. A resume
# continues the checkpoint's weights, schedule, rng and batches: only `eval`
# and `data.checkpoint_every` (where checkpoints go) may change. Eval needs
# the model and the languages that give the weights and embedding rows meaning.
RESUME_KEYS = ("seed", *(f"{section}.{key}" for section in ("model", "optim", "data")
                         for key in DEFAULT_CONFIG[section] if key != "checkpoint_every"),
               "--no-trtd")
EVAL_KEYS = (*(f"model.{key}" for key in DEFAULT_CONFIG["model"]), "data.languages")


class ConfigError(ValueError):
    pass


def _merge(defaults: Dict, overrides: Dict, path: str = "") -> Dict:
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where!r} must be a mapping")
            merged[key] = _merge(defaults[key], value, where)
        elif type(defaults[key]) is int and type(value) is not int:
            raise ConfigError(f"{where!r} must be an integer")   # a count
        elif type(defaults[key]) is float and type(value) not in (int, float):
            raise ConfigError(f"{where!r} must be a number")     # not a bool
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def check_config(config: Dict) -> Dict:
    """Returns the merged run `config`, or raises a ValueError for a value
    that no command would run with. The classes that own a rule check their
    sections (the model pair's over the languages' vocabulary); the other
    ranges are stated here, each with its key."""
    OptimConfig(**config["optim"])
    pair_layout(*described_pair(config))   # with the pair's own rule on layers
    data, ev = config["data"], config["eval"]
    CorpusStats({}, data["alpha"])
    for key, valid, rule in (
            ("data.n_sentences", data["n_sentences"] >= 1, "be at least 1"),
            ("data.token_budget", data["token_budget"] > 0, "be positive"),
            ("data.mask_ratio", 0 < data["mask_ratio"] <= 1, "be in (0, 1]"),
            ("data.checkpoint_every", data["checkpoint_every"] >= 0, "not be negative"),
            ("eval.n_pairs", ev["n_pairs"] >= 2, "be at least 2"),   # retrieval ranks 2+
            ("eval.ot_iters", ev["ot_iters"] >= 1, "be at least 1"),
            ("eval.ot_eps", ev["ot_eps"] > 0, "be positive")):
        if not valid:
            raise ValueError(f"{key} must {rule}")
    return config


def load_config(path: str | None) -> Dict:
    """The checked run config: `DEFAULT_CONFIG` merged with the JSON file
    at `path`, if one is given."""
    overrides = {}
    if path is not None:
        with open(path) as fh:
            overrides = json.load(fh)
    return check_config(_merge(DEFAULT_CONFIG, overrides))


def _write_config_copy(config: Dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "run_config.json"), "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)


def _refuse_changed(checkpoint: str, saved: Dict, current: Dict, keys) -> None:
    """Raise one ConfigError naming every one of `keys` (dotted paths) in
    which `current` differs from the checkpoint's `saved` record."""
    def at(record, key):
        for part in key.split("."):
            record = record[part]
        return record
    changed = [key for key in keys if at(saved, key) != at(current, key)]
    if changed:
        raise ConfigError(f"config differs from checkpoint {checkpoint} "
                          f"in {', '.join(changed)}")


def _build_corpus(config: Dict) -> Corpus:
    rng = np.random.default_rng(config["seed"])
    return synth_corpus(language_specs(config), config["data"]["n_sentences"], rng)


def _model_pair(config: Dict, vocab_size: int):
    return init_model_pair(*pair_configs(config["model"], vocab_size),
                           seed=config["seed"])


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
    corpus = _build_corpus(config)
    if args.resume:
        models, rng, step, run = load_checkpoint(args.resume)
        _refuse_changed(args.resume,
                        {**run["config"], "--no-trtd": not run["use_trtd"]},
                        {**config, "--no-trtd": args.no_trtd}, RESUME_KEYS)
        resume = (load_optimizer(args.resume, models, step, run), rng, step)
    else:
        models, resume = _model_pair(config, len(corpus.vocab)), None
    _write_config_copy(config, args.out)
    result = train(models, corpus, config, args.out, not args.no_trtd, resume)
    print(result.final_checkpoint)
    print(result.metrics_path)
    return 0


def cmd_eval(args) -> int:
    config = load_config(args.config)
    ev = config["eval"]
    models, _, _, run = load_checkpoint(args.checkpoint)
    _refuse_changed(args.checkpoint, run["config"], config, EVAL_KEYS)
    specs = language_specs(config)
    # fresh parallel sentences, never batched for training
    heldout = synth_corpus(specs, ev["n_pairs"],
                           np.random.default_rng(config["seed"] + 7777))
    _write_config_copy(config, args.out)
    disc = models.discriminator

    retrieval_rows, sweep_rows, aer_rows = [], [], []
    for spec in specs:
        if spec.kind == "base":
            continue
        pairs = heldout.parallel[spec.lang]
        # one encode per side; both sweeps read every layer from it
        src = align.content_layers([wrap_mono(e) for e, _ in pairs], disc)
        tgt = align.content_layers([wrap_mono(f) for _, f in pairs], disc)
        sweep = align.layer_sweep_retrieval(src, tgt)
        sweep_rows += [(spec.lang, layer, (fwd + bwd) / 2) for layer, fwd, bwd in sweep]
        # the first layer with the highest direction-averaged accuracy
        best_layer, fwd, bwd = max(sweep, key=lambda r: (r[1] + r[2]) / 2)
        retrieval_rows.append((spec.lang, "en->xx", best_layer, fwd))
        retrieval_rows.append((spec.lang, "xx->en", best_layer, bwd))

        gold = [(set(gold_alignment(spec, len(e))),) * 2
                for e, _ in pairs[:ALIGNED_PAIRS]]
        aer_sweep = align.layer_sweep_aer([s[:ALIGNED_PAIRS] for s in src],
                                          [t[:ALIGNED_PAIRS] for t in tgt], gold,
                                          ev["ot_eps"], ev["ot_iters"])
        aer_rows += [(spec.lang, layer, score) for layer, score in aer_sweep]

    for name, header, rows in (
            ("retrieval.csv", ["language", "direction", "layer", "accuracy_at_1"],
             retrieval_rows),
            ("layer_sweep_retrieval.csv", ["language", "layer", "accuracy_at_1"],
             sweep_rows),
            ("layer_sweep_aer.csv", ["language", "layer", "aer"], aer_rows)):
        with open(os.path.join(args.out, name), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    for row in retrieval_rows:
        print("retrieval", *row)
    return 0


def cmd_gradcheck(args) -> int:
    if args.configs < 1:
        raise ValueError("--configs must be at least 1")
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
