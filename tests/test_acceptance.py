"""End-to-end acceptance checks.

Each test prints one machine-readable verdict line of the form
``criterion <n> (<name>): PASS|FAIL <details>``. Criteria 8-10 share one
module-scoped fixture that performs the two full 2,000-step training runs
(with and without the translation-pair losses) through the command-line
interface and evaluates both checkpoints.
"""

import csv
import itertools
import math
import os
import time

import conftest
import numpy as np
import pytest

from xrtd import cli
from xrtd.align import (AlignmentSet, aer, mutual_argmax_pairs, sinkhorn_plan)
from xrtd.corpus import (FIRST_CONTENT_ID, CorpusStats, ToyGrammar, draw_batch,
                         language_sampling_probs, synth_corpus)
from xrtd.gradcheck import check_joint_gradients
from xrtd.model import (ModelConfig, _clipped_offsets, gated_bias,
                        init_model_pair, init_params)
from xrtd.objectives import (SPECIAL_IDS, build_masked_batch,
                             discriminator_loss_rtd, generator_loss_mlm,
                             generator_loss_tlm, sample_corruption, wrap_mono,
                             wrap_pair)
from xrtd.tensor import Tensor
from xrtd.trainer import heldout_disc_accuracy, language_specs, load_checkpoint


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num} ({name}): {verdict} {detail}".rstrip()
    print(line)
    conftest.verdict_lines.append(line)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()
    errs = [check_joint_gradients(seed) for seed in range(5)]
    elapsed = time.monotonic() - t0
    worst = max(errs)
    report(1, "gradient correctness", worst < 1e-4 and elapsed < 120,
           f"max_rel_err={worst:.3e} over {len(errs)} configs, {elapsed:.0f}s")


def test_criterion_2_gate_algebra():
    rng = np.random.default_rng(0)
    dk = 6
    d_table = Tensor(rng.normal(size=7))
    q = Tensor(rng.normal(size=dk))
    w = Tensor(np.array(1.0))
    big = Tensor(np.full(dk, 1e4))

    # the table entry attention_weights uses for offset 2 clipped at k=3
    d = d_table.data[_clipped_offsets(3, 3)[2, 0]]

    def bias(u, v, w_):
        return gated_bias(Tensor(d), q, u, v, w_).data.item()

    q_pos = q.data > 0
    up_one = Tensor(np.where(q_pos, big.data, -big.data))    # q.u -> +inf
    up_zero = Tensor(np.where(q_pos, -big.data, big.data))   # q.u -> -inf
    err_2d = abs(bias(up_one, Tensor(rng.normal(size=dk)), w) - 2 * d)
    err_d = abs(bias(up_zero, up_zero, w) - d)               # both gates -> 0
    zero = Tensor(np.zeros(dk))                               # logits 0 -> 0.5
    err_mid = abs(bias(zero, zero, w) - 1.75 * d)
    ok = err_2d < 1e-12 and err_d < 1e-12 and err_mid < 1e-9
    report(2, "gate algebra", ok,
           f"|r-2d|={err_2d:.2e} |r-d|={err_d:.2e} |r-1.75d|={err_mid:.2e}")


def test_criterion_3_initialization():
    in_range = True
    for seed in range(3):
        cfg = ModelConfig(num_layers=3, hidden_size=96, num_heads=4,
                          ffn_size=192, vocab_size=120, max_rel_distance=4,
                          init_range=0.02, role="discriminator")
        params = init_params(cfg, seed=seed)
        for name, t in params.tensors.items():
            base = name.split(".")[-1]
            if base in ("g", "b", "bq", "bk", "bv", "bo", "b1", "b2",
                        "mlm_bias", "rtd_b"):
                continue
            if float(np.abs(t.data).max()) > 0.02 + 1e-9:
                in_range = False
    # rescaled output matrices: std ratio to the unscaled input matrix of the
    # same block approximates 1/sqrt(2l)
    cfg = ModelConfig(num_layers=3, hidden_size=128, num_heads=4,
                      ffn_size=256, vocab_size=50, max_rel_distance=4,
                      init_range=0.02, role="discriminator")
    params = init_params(cfg, seed=7)
    ratios_ok, details = True, []
    for layer in (1, 2, 3):
        w1 = params[f"layer{layer - 1}.ffn.w1"].data     # >= 10^4 entries
        w2 = params[f"layer{layer - 1}.ffn.w2"].data
        assert w2.size >= 10_000
        ratio = w2.std() / w1.std()
        target = 1.0 / math.sqrt(2.0 * layer)
        details.append(f"l={layer}: {ratio:.4f} vs {target:.4f}")
        if abs(ratio - target) / target > 0.05:
            ratios_ok = False
    report(3, "initialization", in_range and ratios_ok,
           f"range_ok={in_range}; " + "; ".join(details))


def test_criterion_4_language_sampling():
    stats = CorpusStats({"a": 100, "b": 10}, alpha=0.7)
    probs = language_sampling_probs(stats)
    pools = {"a": [[7] * 10 for _ in range(30)],
             "b": [[9] * 10 for _ in range(30)]}
    rng = np.random.default_rng(0)
    drawn = []
    while len(drawn) < 100_000:   # the sampler that training batches with
        drawn += draw_batch(pools, probs, list(stats.counts), 120, rng)[1]
    counts = {lang: drawn[:100_000].count(lang) for lang in ("a", "b")}
    total = counts["a"] + counts["b"]
    freq = counts["a"] / total
    ok = total == 100_000 and abs(freq - probs[0]) < 0.01 \
        and abs(probs[0] - 0.8337) < 5e-4
    report(4, "language sampling", ok,
           f"p1={probs[0]:.4f} empirical={freq:.4f} over {total} draws")


def test_criterion_5_corruption_contract():
    rng = np.random.default_rng(0)
    t0 = time.monotonic()
    violations = 0
    for _ in range(10_000):
        vocab = int(rng.integers(8, 40))
        n_seqs = int(rng.integers(1, 4))
        seqs = []
        paired = rng.random() < 0.5
        for _ in range(n_seqs):
            if paired:
                e = list(rng.integers(FIRST_CONTENT_ID, vocab,
                                      size=int(rng.integers(2, 6))))
                f = list(rng.integers(FIRST_CONTENT_ID, vocab,
                                      size=int(rng.integers(2, 6))))
                seqs.append(wrap_pair(e, f))
            else:
                seqs.append(wrap_mono(
                    list(rng.integers(FIRST_CONTENT_ID, vocab,
                                      size=int(rng.integers(2, 8))))))
        batch = build_masked_batch(seqs, float(rng.uniform(0.1, 0.5)), rng)
        n_masked = sum(len(p) for p in batch.mask_positions)
        logits = rng.normal(size=(n_masked, vocab))
        corrupt = sample_corruption(batch, logits, rng)
        masked_at = np.zeros_like(batch.original, dtype=bool)
        for b, pos in enumerate(batch.mask_positions):
            masked_at[b, pos] = True
        # locality: only masked positions may differ from the original
        if np.any((corrupt.corrupt != corrupt.original) & ~masked_at):
            violations += 1
        # label soundness: label 1 exactly where the token actually changed
        if np.any(corrupt.labels != (corrupt.corrupt != corrupt.original)):
            violations += 1
        # special tokens and padding are never masked or corrupted
        special = np.isin(batch.original, list(SPECIAL_IDS))
        if np.any(masked_at & special) or np.any(corrupt.labels & special):
            violations += 1
    elapsed = time.monotonic() - t0
    report(5, "corruption contract", violations == 0 and elapsed < 60,
           f"{violations} violations over 10^4 batches, {elapsed:.0f}s")


def test_criterion_6_loss_baselines_at_init():
    config = cli.DEFAULT_CONFIG
    corpus = synth_corpus(language_specs(config), 200, np.random.default_rng(0))
    vocab = len(corpus.vocab)
    models = cli._model_pair(config, vocab)
    rng = np.random.default_rng(1)
    mono_seqs = [wrap_mono(s) for s in corpus.mono["en"][:24]]
    mono = build_masked_batch(mono_seqs, 0.3, rng)
    mlm_loss, logits = generator_loss_mlm(mono, models.generator)
    n_masked = sum(len(p) for p in mono.mask_positions)
    mlm_per_token = mlm_loss.item() / n_masked

    pair = build_masked_batch(
        [wrap_pair(e, f) for e, f in corpus.parallel["pv"][:12]], 0.3, rng)
    tlm_loss, _ = generator_loss_tlm(pair, models.generator)
    tlm_per_token = tlm_loss.item() / sum(len(p) for p in pair.mask_positions)

    corrupt = sample_corruption(mono, logits, rng)
    rtd_loss, _, count = discriminator_loss_rtd(corrupt, models.discriminator)
    rtd_per_pos = rtd_loss.item() / count

    ln_v, ln_2 = math.log(vocab), math.log(2.0)
    ok = (abs(mlm_per_token - ln_v) < 0.3 and abs(tlm_per_token - ln_v) < 0.3
          and abs(rtd_per_pos - ln_2) < 0.05)
    report(6, "loss baselines at init", ok,
           f"mlm={mlm_per_token:.3f} tlm={tlm_per_token:.3f} "
           f"(ln|V|={ln_v:.3f}) rtd={rtd_per_pos:.4f} (ln2={ln_2:.4f})")


def test_criterion_7_alignment_oracle():
    perfect = {(0, 0), (1, 1)}
    case0 = aer(AlignmentSet(perfect, perfect, set(perfect)))
    sure = {(1, 1), (2, 2)}
    case25 = aer(AlignmentSet({(1, 1), (3, 3)}, sure, sure | {(3, 3)}))
    case1 = aer(AlignmentSet(set(), {(0, 0)}, {(0, 0)}))
    fixtures_ok = case0 == 0.0 and case25 == pytest.approx(0.25) \
        and case1 == 1.0

    rng = np.random.default_rng(0)
    cost = rng.random((6, 9))
    plan, converged = sinkhorn_plan(cost, eps=0.1, iters=500, tol=1e-7)
    marg = max(np.abs(plan.sum(axis=1) - 1 / 6).max(),
               np.abs(plan.sum(axis=0) - 1 / 9).max())
    marginals_ok = converged and marg < 1e-4

    ot_ok, skipped = True, 0
    for seed in range(20):
        cost = np.random.default_rng(100 + seed).random((4, 4))
        perms = list(itertools.permutations(range(4)))
        totals = sorted(sum(cost[i, p[i]] for i in range(4)) for p in perms)
        if totals[1] - totals[0] < 0.05:      # near-tie: either optimum valid
            skipped += 1
            continue
        best = min(perms, key=lambda p: sum(cost[i, p[i]] for i in range(4)))
        plan, _ = sinkhorn_plan(cost, eps=0.03, iters=5000, tol=1e-9)
        if mutual_argmax_pairs(plan) != {(i, best[i]) for i in range(4)}:
            ot_ok = False
    report(7, "alignment oracle", fixtures_ok and marginals_ok and ot_ok,
           f"fixtures=({case0},{case25:.2f},{case1}) marginal_err={marg:.1e} "
           f"exact-OT matches on {20 - skipped}/20 instances")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    paths = {name: str(root / name)
             for name in ("full", "ablated", "full_eval", "ablated_eval")}
    t0 = time.monotonic()
    assert cli.main(["pretrain", "--out", paths["full"]]) == 0
    assert cli.main(["pretrain", "--out", paths["ablated"], "--no-trtd"]) == 0
    train_seconds = time.monotonic() - t0
    for run in ("full", "ablated"):
        ckpt = os.path.join(paths[run], "ckpt_final")
        assert cli.main(["eval", "--checkpoint", ckpt,
                         "--out", paths[run + "_eval"]]) == 0
    return {"paths": paths, "train_seconds": train_seconds}


def _best_retrieval(eval_dir):
    rows = _read_csv(os.path.join(eval_dir, "retrieval.csv"))
    accs = [float(r["accuracy_at_1"]) for r in rows if r["language"] == "pv"]
    return sum(accs) / len(accs)


def test_criterion_8_ablation_direction(e2e):
    full = _best_retrieval(e2e["paths"]["full_eval"])
    ablated = _best_retrieval(e2e["paths"]["ablated_eval"])
    minutes = e2e["train_seconds"] / 60
    ok = full >= 0.80 and full - ablated >= 0.10 and minutes < 15
    report(8, "ablation direction", ok,
           f"full={full:.3f} ablated={ablated:.3f} gap={full - ablated:.3f} "
           f"train={minutes:.1f}min")


def test_criterion_9_layer_curve_shape(e2e):
    rows = _read_csv(os.path.join(e2e["paths"]["full_eval"],
                                  "layer_sweep_retrieval.csv"))
    sweep = [(int(r["layer"]), float(r["accuracy_at_1"]))
             for r in rows if r["language"] == "pv"]
    sweep.sort()
    accs = [a for _, a in sweep]
    best = int(np.argmax(accs))
    last = len(accs) - 1
    midpoint = last / 2
    ok = 0 < best < last and best > midpoint
    curve = " ".join(f"{a:.3f}" for a in accs)
    report(9, "layer curve shape", ok,
           f"best_layer={best} of 0..{last} curve=[{curve}]")


def test_criterion_10_training_health(e2e):
    config = cli.load_config(None)
    models, _, _, _ = load_checkpoint(
        os.path.join(e2e["paths"]["full"], "ckpt_final"))
    heldout = synth_corpus(language_specs(config), 200,
                           np.random.default_rng(config["seed"] + 5555))
    acc = heldout_disc_accuracy(models, heldout, seed=config["seed"] + 6666,
                                n_batches=10,
                                token_budget=config["data"]["token_budget"],
                                mask_ratio=config["data"]["mask_ratio"],
                                alpha=config["data"]["alpha"], use_trtd=True)
    history = _read_csv(os.path.join(e2e["paths"]["full"], "metrics.csv"))
    deltas = []
    losses_ok = True
    for col in ("loss_mlm", "loss_tlm", "loss_mrtd", "loss_trtd"):
        first = np.mean([float(r[col]) for r in history[:100]])
        last = np.mean([float(r[col]) for r in history[-100:]])
        deltas.append(f"{col}: {first:.1f}->{last:.1f}")
        if not last < first:
            losses_ok = False
    report(10, "training health", acc > 0.90 and losses_ok,
           f"heldout_disc_acc={acc:.3f}; " + "; ".join(deltas))
