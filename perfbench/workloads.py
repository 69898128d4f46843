"""The benchmark's workloads: generated configs, set-up, rounds and metrics.

xlme           `xrtd pretrain` with all four losses, checkpointing halfway,
               then `xrtd pretrain --resume` from that checkpoint for the
               second half. One such training leg is a round.
mono-ablation  the same leg with `--no-trtd` (MLM + MRTD only).
eval           `xrtd eval` on a checkpoint that the set-up trains with
               `xrtd pretrain`. One eval run is a round.

Every round runs the CLI in this process and is checked by `checks`. The
program sees only the generated config file; the seed goes into its `seed`
key, and every key not named here keeps the program's default.
"""

from __future__ import annotations

import contextlib
import filecmp
import gc
import io
import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from xrtd import cli

from . import checks
from .speed import Clock
from .tracing import Recorder, instrument

WORKLOADS = ("xlme", "mono-ablation", "eval")
EVAL_CSVS = ("retrieval.csv", "layer_sweep_retrieval.csv", "layer_sweep_aer.csv")


@dataclass(frozen=True)
class Size:
    """How much work a run does; the fast tests shrink it."""
    train_steps: int = 12
    eval_pairs: int = 20         # held-out sentence pairs per language
    min_steps: int = 100         # step samples per run, so ten lie beyond p90
    setup_repeats: int = 7
    eval_setup_repeats: int = 3  # each one trains the eval checkpoint


class SetupError(RuntimeError):
    pass


def generated_config(workload: str, seed: int, size: Size) -> dict:
    steps = size.train_steps      # of the leg, or of the checkpoint eval reads
    config = {"seed": seed,
              "optim": {"total_steps": steps, "warmup_steps": steps // 4}}
    if workload == "eval":
        config["eval"] = {"n_pairs": size.eval_pairs}
    else:
        config["data"] = {"checkpoint_every": steps // 2}
    return config


def xrtd(*argv: str) -> int:
    """One xrtd CLI command, run in this process with its stdout dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


def _flags(workload: str) -> List[str]:
    return ["--no-trtd"] if workload == "mono-ablation" else []


# -- set-up ------------------------------------------------------------------


@dataclass
class Prepared:
    workload: str
    size: Size
    config_path: str
    config: dict
    checkpoint: str | None       # eval: the checkpoint the set-up trained
    checkpoint_loss: float       # eval: loss_tail of that training run
    clock: Clock
    setup_seconds: List[float] = field(default_factory=list)   # at reference speed


def _set_up_once(workload: str, seed: int, size: Size, workdir: str):
    """Config, corpus synthesis and model init; for eval, the checkpoint too."""
    os.makedirs(workdir)
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(generated_config(workload, seed, size), fh)
    config = cli.load_config(path)
    data = cli._build_corpus(config)
    cli._model_pair(config, len(data.vocab))
    checkpoint, loss = None, float("nan")
    if workload == "eval":
        run = os.path.join(workdir, "train")
        if xrtd("pretrain", "--config", path, "--out", run) != 0:
            raise SetupError("pretrain of the eval checkpoint failed")
        checkpoint = os.path.join(run, "ckpt_final")
        loss = checks.loss_tail(run, size.train_steps)
    return path, config, checkpoint, loss


def set_up(workload: str, seed: int, size: Size, workdir: str) -> Prepared:
    """The set-up whose files the rounds use; `set_up_again` times repeats."""
    clock = Clock()
    start = time.perf_counter()
    path, config, checkpoint, loss = _set_up_once(
        workload, seed, size, os.path.join(workdir, "setup0"))
    seconds = time.perf_counter() - start
    return Prepared(workload, size, path, config, checkpoint, loss, clock,
                    [seconds / clock.factor()])


def set_up_again(prep: Prepared, workdir: str) -> None:
    """Repeat the set-up in a scratch directory and record its time.

    The machine's speed drifts over seconds, so the repeats are spread
    between the rounds and `setup_s` is their median. For eval, every
    repeat must train a bit-identical checkpoint.
    """
    start = time.perf_counter()
    _, _, checkpoint, _ = _set_up_once(prep.workload, prep.config["seed"],
                                       prep.size, workdir)
    seconds = time.perf_counter() - start
    prep.setup_seconds.append(seconds / prep.clock.factor())
    if checkpoint is not None and not filecmp.cmp(
            os.path.join(checkpoint, "params.bin"),
            os.path.join(prep.checkpoint, "params.bin"), shallow=False):
        raise SetupError("set-ups trained different eval checkpoints")
    shutil.rmtree(workdir)


# -- rounds ------------------------------------------------------------------


@dataclass
class Round:
    rec: Recorder
    job_seconds: float
    ok: bool
    failures: List[str]
    loss_tail: float = float("nan")
    speed: float = 1.0           # see speed.py; divides every time of the round
    peak_bytes: int | None = None  # the memory round's peak; it is not timed


def run_round(prep: Prepared, workdir: str, traced: bool,
              reference: str | None = None, memory: bool = False) -> Round:
    """One training leg or eval run, then the checks of its outputs.

    `reference` is an earlier round's output directory of the same run. When
    given, this round's outputs must equal it byte for byte, and the full
    checks of the eval are not repeated. A `memory` round runs under
    tracemalloc, which numpy reports its array buffers to, and records the
    peak of the bytes allocated during the round; tracemalloc slows the round,
    so its times are not used.
    """
    rec = Recorder(traced)
    cfg = prep.config_path
    full = os.path.join(workdir, "full")
    resumed = os.path.join(workdir, "resumed")
    out = os.path.join(workdir, "eval")
    with instrument(rec), _traced_memory(memory) as peak_bytes:
        start = time.perf_counter()
        if prep.workload == "eval":
            rec.attempted["eval_run"] += 1
            ok = xrtd("eval", "--config", cfg, "--checkpoint", prep.checkpoint,
                      "--out", out) == 0
            if not ok:
                rec.failed["eval_run"] += 1
        else:
            half = prep.config["data"]["checkpoint_every"]
            ok = xrtd("pretrain", "--config", cfg, "--out", full,
                      *_flags(prep.workload)) == 0
            ok = ok and xrtd("pretrain", "--config", cfg, "--out", resumed,
                             "--resume", os.path.join(full, f"ckpt_{half}"),
                             *_flags(prep.workload)) == 0
        seconds = time.perf_counter() - start
        peak = peak_bytes()
    if not ok and not (rec.steps_failed or sum(rec.failed.values())):
        rec.attempted["job"] += 1
        rec.failed["job"] += 1
    result = Round(rec, seconds, ok, [], peak_bytes=peak)
    if not ok:
        return result
    try:
        if prep.workload == "eval":
            if reference is None:
                result.failures = checks.check_eval(out, prep.checkpoint, prep.config)
            produced = [(os.path.join(out, n), n) for n in EVAL_CSVS]
        else:
            result.failures = checks.check_training(
                full, resumed, prep.config, prep.workload != "mono-ablation")
            result.loss_tail = checks.loss_tail(full, prep.size.train_steps)
            produced = [(os.path.join(full, "metrics.csv"), "metrics.csv")]
        for path, name in produced if reference is not None else []:
            if not filecmp.cmp(path, os.path.join(reference, name), shallow=False):
                result.failures.append(f"{name} differs from the run's first round")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        result.failures.append(f"check could not read the outputs: {exc!r}")
    return result


@contextlib.contextmanager
def _traced_memory(on: bool):
    """Yields a function that gives the peak traced bytes since entry."""
    if not on:
        yield lambda: None
        return
    gc.collect()       # the same collector state before every memory round
    tracemalloc.start()
    try:
        yield lambda: tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(prep: Prepared, workdir: str, seconds: float, trace: bool,
            log=sys.stderr) -> List[Round]:
    """Rounds until `seconds` of rounds have run, all of them whole.

    An untraced training run also goes on until it has `min_steps` step
    samples, and ends with one memory round. A traced run alternates untraced
    and traced rounds and has at least one of each, so that it can report its
    own overhead. The set-up is repeated between rounds until it has run
    `setup_repeats` times.
    """
    repeats = prep.size.eval_setup_repeats if prep.workload == "eval" \
        else prep.size.setup_repeats
    rounds: List[Round] = []
    reference = os.path.join(workdir, "reference")

    def one_round(traced: bool, memory: bool = False) -> bool:
        round_dir = os.path.join(workdir, f"round{len(rounds)}")
        result = run_round(prep, round_dir, traced,
                           reference if rounds else None, memory)
        if not rounds and result.ok:
            out = "eval" if prep.workload == "eval" else "full"
            shutil.copytree(os.path.join(round_dir, out), reference)
        shutil.rmtree(round_dir, ignore_errors=True)
        result.speed = prep.clock.factor()
        rounds.append(result)
        kind = "memory" if memory else "traced" if traced else "untraced"
        print(f"perfbench: round {len(rounds)} {kind} "
              f"{result.job_seconds:.2f} s at speed factor {result.speed:.3f} "
              f"ok={result.ok} failures={len(result.failures)}", file=log)
        for failure in result.failures:
            print(f"perfbench: check failed: {failure}", file=log)
        return result.ok

    measured = 0.0
    while True:
        if rounds and len(prep.setup_seconds) < repeats:
            set_up_again(prep, os.path.join(workdir, "setup"))
        if not one_round(trace and len(rounds) % 2 == 1):
            return rounds
        measured += rounds[-1].job_seconds
        steps = sum(len(r.rec.step_times) for r in rounds)
        enough = measured >= seconds and (
            len(rounds) >= 2 if trace else
            prep.workload == "eval" or steps >= prep.size.min_steps)
        if enough:
            while len(prep.setup_seconds) < repeats:
                set_up_again(prep, os.path.join(workdir, "setup"))
            if not trace:
                one_round(False, memory=True)
            return rounds


# -- metrics -----------------------------------------------------------------


def _p90(samples: List[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _unit_times(prep: Prepared, rounds: List[Round]) -> List[float]:
    """Seconds of each step at reference speed: a training step or an eval run."""
    if prep.workload == "eval":
        return [r.job_seconds / r.speed for r in rounds]
    return [t / r.speed for r in rounds for t in r.rec.step_times]


def heldout_tokens(config: dict) -> int:
    """Non-pad tokens of the wrapped held-out sentences one eval run reads."""
    return sum(len(e) + len(f) + 4
               for pairs in checks.heldout_pairs(config).values()
               for e, f in pairs)


def end_to_end(prep: Prepared, rounds: List[Round]) -> Dict[str, float]:
    peak = next(r.peak_bytes for r in rounds if r.peak_bytes is not None)
    rounds = [r for r in rounds if r.peak_bytes is None]
    times = _unit_times(prep, rounds)
    if prep.workload == "eval":
        tokens = [heldout_tokens(prep.config)] * len(rounds)
    else:
        tokens = [n for r in rounds for n in r.rec.step_tokens]
    return {
        "setup_s": statistics.median(prep.setup_seconds),
        "step_ms": statistics.median(times) * 1e3,
        "step_ms_p90": _p90(times) * 1e3,
        "tokens_per_s": statistics.median(n / t for n, t in zip(tokens, times)),
        "job_s": statistics.median([r.job_seconds / r.speed for r in rounds]),
        "loss_tail": prep.checkpoint_loss if prep.workload == "eval"
        else rounds[0].loss_tail,
        "peak_alloc_mb": peak / 2**20,
    }


# per-layer time metric -> span name; each is ms per step (training) or per
# eval run (eval), counting the outermost span of the name
PER_STEP_MS = {
    "trainer.draw_ms": "trainer.draw",
    "trainer.adam_ms": "trainer.adam",
    "objectives.generator_fwd_ms": "objectives.generator_fwd",
    "objectives.corruption_ms": "objectives.corruption",
    "objectives.discriminator_fwd_ms": "objectives.discriminator_fwd",
    "model.encode_ms": "model.encode",
    "model.attention_fwd_ms": "model.attention_fwd",
    "model.layer_norm_fwd_ms": "model.layer_norm_fwd",
    "model.heads_fwd_ms": "model.heads_fwd",
    "tensor.backward_ms": "tensor.backward",
    "tensor.matmul_fwd_ms": "tensor.matmul_fwd",
    "tensor.softmax_fwd_ms": "tensor.softmax_fwd",
    "tensor.embedding_fwd_ms": "tensor.embedding_fwd",
    "tensor.gather_rows_fwd_ms": "tensor.gather_rows_fwd",
    "tensor.loss_fwd_ms": "tensor.loss_fwd",
    "align.encode_ms": "align.encode",
    "align.retrieval_ms": "align.retrieval",
    "align.alignment_ms": "align.alignment",
    "align.sinkhorn_ms": "align.sinkhorn",
}
# per-layer time metric -> span name; ms per call
PER_CALL_MS = {
    "trainer.checkpoint_save_ms": "trainer.checkpoint_save",
    "trainer.checkpoint_load_ms": "trainer.checkpoint_load",
    "corpus.synth_ms": "corpus.synth",
    "serialize.save_ms": "serialize.save",
    "serialize.load_ms": "serialize.load",
}


def per_layer(prep: Prepared, rounds: List[Round]) -> Dict[str, float]:
    traced = [r for r in rounds if r.rec.traced]
    plain = [r for r in rounds if not r.rec.traced]
    units = len(traced) if prep.workload == "eval" else \
        sum(len(r.rec.step_times) for r in traced)
    inclusive, calls, counts = Counter(), Counter(), Counter()
    for r in traced:
        for name, (seconds, n) in r.rec.layer_seconds().items():
            inclusive[name] += seconds / r.speed
            calls[name] += n
        counts.update(r.rec.counts)
    out = {metric: inclusive[span] * 1e3 / units for metric, span in PER_STEP_MS.items()}
    out.update({metric: inclusive[span] * 1e3 / calls[span] if calls[span] else 0.0
                for metric, span in PER_CALL_MS.items()})
    saved = [b for r in traced for b in r.rec.checkpoint_bytes]
    out["trainer.checkpoint_bytes"] = float(np.mean(saved)) if saved else 0.0
    out["tensor.tensors_per_step"] = counts["tensor.tensors"] / units
    out["align.encode_calls"] = counts["align.encode_calls"] / units
    ratios = [sum(r.rec.encoded.values()) / len(r.rec.encoded)
              for r in traced if r.rec.encoded]
    out["align.sentences_encoded_per_unique"] = float(np.mean(ratios)) if ratios else 0.0
    sinkhorn_calls = counts["align.sinkhorn_calls"]
    out["align.sinkhorn_calls"] = sinkhorn_calls / units
    out["align.sinkhorn_converged_ratio"] = \
        counts["align.sinkhorn_converged"] / sinkhorn_calls if sinkhorn_calls else 0.0
    with_trace = statistics.median(_unit_times(prep, traced)) * 1e3
    without = statistics.median(_unit_times(prep, plain)) * 1e3
    out["trace.step_ms"] = with_trace
    out["trace.untraced_step_ms"] = without
    out["trace.overhead_ms"] = with_trace - without
    out["trace.overhead_pct"] = 100 * (with_trace - without) / without
    return out


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
        size: Size = Size(), log=sys.stderr) -> Result:
    """Set up, measure and check one run of `workload` inside `workdir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    prep = set_up(workload, seed, size, os.path.join(workdir, "setup"))
    rounds = measure(prep, os.path.join(workdir, "rounds"), seconds, trace, log)
    print("perfbench: set-ups at reference speed "
          + ", ".join(f"{t:.3f}" for t in prep.setup_seconds) + " s", file=log)
    attempted = failed = 0
    for r in rounds:
        attempted += sum(r.rec.attempted.values())
        failed += r.rec.steps_failed + sum(r.rec.failed.values())
    if not all(r.ok for r in rounds):
        return Result(False, attempted, failed, {})
    metrics = per_layer(prep, rounds) if trace else end_to_end(prep, rounds)
    correct = not any(r.failures for r in rounds)
    return Result(correct, attempted, failed, metrics)
