"""Hash every output of a fixed set of short CLI runs.

Two checkouts that print the same lines write byte-identical outputs:

    python tools/equivalence.py > after.txt    # in each checkout, then diff

The runs use the `src/` next to this script, seed 301 and 12 training steps
with a checkpoint every 6: `synth`, `pretrain`, `pretrain --resume` from
step 6, `pretrain --no-trtd`, and `eval` of the full run's final checkpoint
at 20 and at 300 held-out pairs; then a `pretrain` and a 20-pair `eval` on
four languages, one of each kind (base, permuted, reversed, affix), so that
several languages are aligned and one has reversed gold alignments; and
`gradcheck --configs 5`, whose stdout records criterion 1's errors. They run
in a temporary directory with BLAS pinned to one thread. Each output file,
the input configs and each command's stdout are printed as `sha256  path`,
the path relative to that directory.

A last leg runs the first 80 steps of the default run (seed 0, its 2,000-step
schedule) through `trainer.train`, in a subprocess with the same `src/` and
BLAS pinning, and prints one sha256 per 20-step block over every parameter's
gradient after each step, as `sha256  gradients/steps_<first>-<last>`. Some
bit-level changes show only there: a changed memory layout in the gated
bias's backward left the 12-step legs as they were and first moved the
default run's gradients at step 54.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
CONFIG = {"seed": 301, "optim": {"total_steps": 12, "warmup_steps": 3},
          "data": {"checkpoint_every": 6}, "eval": {"n_pairs": 20}}
LANGUAGES = [{"lang": "en", "kind": "base", "seed": 0},
             {"lang": "pv", "kind": "permuted", "seed": 1},
             {"lang": "rv", "kind": "reversed", "seed": 2},
             {"lang": "ax", "kind": "affix", "seed": 3}]
CONFIGS = {
    "config_20.json": {**CONFIG, "eval": {"n_pairs": 20}},
    "config_300.json": {**CONFIG, "eval": {"n_pairs": 300}},
    "config_langs.json": {**CONFIG, "data": {**CONFIG["data"], "languages": LANGUAGES}},
}
LEGS = {
    "synth": ["synth", "--config", "config_20.json", "--out", "synth"],
    "full": ["pretrain", "--config", "config_20.json", "--out", "full"],
    "resumed": ["pretrain", "--config", "config_20.json", "--out", "resumed",
                "--resume", os.path.join("full", "ckpt_6")],
    "ablated": ["pretrain", "--config", "config_20.json", "--out", "ablated",
                "--no-trtd"],
    "eval_20": ["eval", "--config", "config_20.json", "--out", "eval_20",
                "--checkpoint", os.path.join("full", "ckpt_final")],
    "eval_300": ["eval", "--config", "config_300.json", "--out", "eval_300",
                 "--checkpoint", os.path.join("full", "ckpt_final")],
    "langs": ["pretrain", "--config", "config_langs.json", "--out", "langs"],
    "langs_eval": ["eval", "--config", "config_langs.json", "--out", "langs_eval",
                   "--checkpoint", os.path.join("langs", "ckpt_final")],
    "gradcheck": ["gradcheck", "--configs", "5"],
}
GRADIENT_STEPS, GRADIENT_BLOCK = 80, 20


def _pinned_env() -> dict:
    """The environment of every leg: the `src/` next to this script and one
    BLAS thread."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_legs(work: str) -> None:
    """Write the configs and every leg's outputs and stdout under `work`."""
    for name, config in CONFIGS.items():
        with open(os.path.join(work, name), "w") as fh:
            json.dump(config, fh)
    env = _pinned_env()
    for name, argv in LEGS.items():
        done = subprocess.run([sys.executable, "-m", "xrtd.cli", *argv], cwd=work,
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{name} exited {done.returncode}: {done.stderr.strip()}")
        with open(os.path.join(work, f"{name}.stdout"), "w") as fh:
            fh.write(done.stdout)


def digests(work: str):
    """(sha256, relative path) of every file under `work`, sorted by path."""
    found = []
    for root, _, files in os.walk(work):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found.append((hashlib.sha256(fh.read()).hexdigest(),
                              os.path.relpath(path, work)))
    return sorted(found, key=lambda item: item[1])


class _LastStepHashed(Exception):
    """Ends the gradient leg's run after its last hashed step."""


def gradient_leg() -> None:
    """Run the default run's first GRADIENT_STEPS steps and print a sha256
    per GRADIENT_BLOCK steps over every parameter's gradient after each.

    It runs `trainer.train`, whose loop calls `train_step`, and wraps
    `Adam.step`, which reads the step's gradients and leaves them as they
    are: the wrapper hashes them in the optimizer's parameter order (a
    parameter without one as zeros, as `Adam.step` reads it) and ends the
    run after the last step. So the leg runs on any tree whose `train`
    updates through `Adam.step`, with or without `train_step`.
    """
    import numpy as np
    from xrtd import cli, trainer

    update = trainer.Adam.step
    digest, steps = hashlib.sha256(), 0

    def hashed_update(optimizer, lr):
        nonlocal digest, steps
        for p in optimizer.params.values():
            grad = np.zeros_like(p.data) if p.grad is None else p.grad
            digest.update(grad.tobytes())
        norm = update(optimizer, lr)
        steps += 1
        if steps % GRADIENT_BLOCK == 0:
            print(f"{digest.hexdigest()}  gradients/steps_"
                  f"{steps - GRADIENT_BLOCK:02d}-{steps - 1:02d}")
            digest = hashlib.sha256()
        if steps == GRADIENT_STEPS:
            raise _LastStepHashed
        return norm

    trainer.Adam.step = hashed_update
    config = cli.load_config(None)
    corpus = cli._build_corpus(config)
    models = cli._model_pair(config, len(corpus.vocab))
    with tempfile.TemporaryDirectory(prefix="xrtd-gradients-") as out:
        try:
            trainer.train(models, corpus, config, out, True)
        except _LastStepHashed:
            pass


def gradient_lines() -> list:
    """The gradient leg's lines, from a subprocess."""
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--gradients"],
                          env=_pinned_env(), capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"gradients exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout.splitlines()


def main() -> None:
    if sys.argv[1:] == ["--gradients"]:
        gradient_leg()
        return
    with tempfile.TemporaryDirectory(prefix="xrtd-equivalence-") as work:
        run_legs(work)
        for digest, path in digests(work):
            print(f"{digest}  {path}")
    for line in gradient_lines():
        print(line)


if __name__ == "__main__":
    main()
