"""Output checks, computed by the benchmark apart from the program.

Each check returns a list of failure messages; an empty list means the
outputs passed. The checks recompute what the program reports from the
program's inputs and from `model.encode` states, with the benchmark's own
schedule, pooling, cosine, argmax, Sinkhorn and gold alignments.

Argmax ties: where two candidates score within a tolerance of each other
(identical sentences, or a repeated function word at layer 0), either could
be the program's pick. The checks then accept every value that one of the
admissible picks gives, and no other.
"""

from __future__ import annotations

import csv
import filecmp
import os
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from xrtd import corpus, model, trainer

SPECIAL_IDS = np.arange(len(corpus.RESERVED_TOKENS))
BOS, EOS = 2, 3
LOSS_COLUMNS = ("loss_mlm", "loss_tlm", "loss_mrtd", "loss_trtd")
TOTAL_RTOL = 1e-6        # loss_total is summed in the training dtype
COSINE_TIE = 1e-6        # pooled layer-0 states are float32 in the program
PLAN_TIE = 1e-9          # relative, on transport plan entries
VALUE_TOL = 1e-12
ALIGNED_PAIRS = 50       # the eval aligns the first 50 held-out pairs

Pair = Tuple[int, int]


def read_csv(path: str) -> Tuple[List[str], List[List[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_columns(path: str) -> Dict[str, List[float]]:
    header, rows = read_csv(path)
    return {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}


def scheduled_lr(step: int, optim: dict) -> float:
    """Linear warmup to the peak over `warmup_steps`, then linear decay to 0."""
    peak, warmup, total = optim["lr_peak"], optim["warmup_steps"], optim["total_steps"]
    if step <= warmup:
        return peak * step / warmup if warmup else peak
    return peak * (total - step) / (total - warmup)


def tail_rows(steps: int) -> int:
    """How many rows make the head and the tail of a metrics.csv."""
    return max(1, steps // 4)


# -- training ----------------------------------------------------------------


def check_training(full_dir: str, resumed_dir: str, config: dict,
                   use_trtd: bool) -> List[str]:
    """metrics.csv of an uninterrupted run and of its resumed second half."""
    failures = []
    optim = config["optim"]
    total_steps = optim["total_steps"]
    cols = read_columns(os.path.join(full_dir, "metrics.csv"))
    if cols.get("step") != [float(s) for s in range(total_steps)]:
        return [f"metrics.csv steps are not 0..{total_steps - 1}"]

    for step, lr in zip(cols["step"], cols["lr"]):
        want = scheduled_lr(int(step) + 1, optim)
        if abs(lr - want) > VALUE_TOL * max(1.0, abs(want)):
            failures.append(f"lr at step {int(step)} is {lr!r}, schedule gives {want!r}")

    lam = optim["lam"]
    for i, total in enumerate(cols["loss_total"]):
        want = (cols["loss_mlm"][i] + cols["loss_tlm"][i]
                + lam * (cols["loss_mrtd"][i] + cols["loss_trtd"][i]))
        if abs(total - want) > TOTAL_RTOL * abs(want):
            failures.append(f"loss_total at step {i} is {total!r}, "
                            f"the terms sum to {want!r}")

    active = LOSS_COLUMNS if use_trtd else ("loss_mlm", "loss_mrtd")
    for name in set(LOSS_COLUMNS) - set(active):
        if any(v != 0.0 for v in cols[name]):
            failures.append(f"{name} is not 0 under --no-trtd")
    k = tail_rows(total_steps)
    for name in active:
        head, tail = np.mean(cols[name][:k]), np.mean(cols[name][-k:])
        if not tail < head:
            failures.append(f"{name} does not fall: first {k} rows mean {head!r}, "
                            f"last {k} rows mean {tail!r}")

    # the resume starts from ckpt_<checkpoint_every>, so its first row is
    # that step and its rows are the uninterrupted run's from there on
    half = config["data"]["checkpoint_every"]
    _, full_rows = read_csv(os.path.join(full_dir, "metrics.csv"))
    header, resumed_rows = read_csv(os.path.join(resumed_dir, "metrics.csv"))
    step = header.index("step")
    if len(resumed_rows) != total_steps - half or resumed_rows[0][step] != str(half):
        failures.append(f"resumed metrics.csv does not start at step {half} "
                        f"with {total_steps - half} rows")
    elif resumed_rows != full_rows[half:]:
        failures.append("resumed metrics.csv rows differ from the uninterrupted run")
    for name in ("params.bin", "optim.bin"):
        if not filecmp.cmp(os.path.join(full_dir, "ckpt_final", name),
                           os.path.join(resumed_dir, "ckpt_final", name),
                           shallow=False):
            failures.append(f"resumed ckpt_final/{name} differs from the "
                            "uninterrupted run")
    return failures


def loss_tail(run_dir: str, steps: int) -> float:
    """Mean loss_total over the last rows of a run's metrics.csv."""
    totals = read_columns(os.path.join(run_dir, "metrics.csv"))["loss_total"]
    return float(np.mean(totals[-tail_rows(steps):]))


# -- evaluation --------------------------------------------------------------


def language_specs(config: dict) -> List[corpus.LanguageSpec]:
    return [corpus.LanguageSpec(**entry) for entry in config["data"]["languages"]]


def heldout_pairs(config: dict) -> Dict[str, List[Tuple[List[int], List[int]]]]:
    """The eval's held-out pairs per non-base language, unwrapped ids.

    Fresh grammar sentences from the rng seeded `seed + 7777`, restarted
    for every language, paired with their transform.
    """
    specs = language_specs(config)
    grammar = corpus.ToyGrammar()
    vocab = corpus.build_vocab(specs, grammar)
    out = {}
    for spec in specs:
        if spec.kind == "base":
            continue
        rng = np.random.default_rng(config["seed"] + 7777)
        pairs = []
        for _ in range(config["eval"]["n_pairs"]):
            base = grammar.sample_sentence(rng)
            pairs.append((vocab.encode(base), vocab.encode(
                corpus.transform_sentence(base, spec, grammar))))
        out[spec.lang] = pairs
    return out


def gold_pairs(spec: corpus.LanguageSpec, length: int) -> Set[Pair]:
    """Word alignment of a sentence to its transform: mirrored if reversed."""
    if spec.kind == "reversed":
        return {(i, length - 1 - i) for i in range(length)}
    return {(i, i) for i in range(length)}


def _states(seqs: Sequence[Sequence[int]], disc) -> Tuple[np.ndarray, List[np.ndarray]]:
    ids = np.zeros((len(seqs), max(len(s) for s in seqs)), dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
    return ids, [t.data for t in model.encode(ids, disc)]


def _pooled(ids: np.ndarray, layer_states: np.ndarray) -> np.ndarray:
    content = ~np.isin(ids, SPECIAL_IDS)
    return np.stack([layer_states[i][content[i]].astype(np.float64).mean(axis=0)
                     for i in range(len(ids))])


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def hit_range(sims: np.ndarray) -> Tuple[float, float]:
    """Accuracy@1 with the diagonal as gold, lowest and highest over ties."""
    low = high = 0
    for i, row in enumerate(sims):
        best = np.flatnonzero(row >= row.max() - COSINE_TIE)
        low += int(best.tolist() == [i])
        high += int(i in best)
    return low / len(sims), high / len(sims)


def sinkhorn(cost: np.ndarray, eps: float, iters: int, tol: float = 1e-6) -> np.ndarray:
    """Entropic transport plan with uniform marginals (Sinkhorn-Knopp)."""
    n, m = cost.shape
    a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    kernel = np.exp(-cost / eps)
    u, v = np.ones(n), np.ones(m)
    for _ in range(iters):
        u = a / np.maximum(kernel @ v, 1e-300)
        v = b / np.maximum(kernel.T @ u, 1e-300)
        plan = u[:, None] * kernel * v[None, :]
        if (np.abs(plan.sum(axis=1) - a).max() < tol
                and np.abs(plan.sum(axis=0) - b).max() < tol):
            break
    return u[:, None] * kernel * v[None, :]


def aer_range(plan: np.ndarray, gold: Set[Pair]) -> Tuple[float, float]:
    """AER of mutual-argmax pairs, lowest and highest over argmax ties."""
    rows = [set(np.flatnonzero(r >= r.max() * (1 - PLAN_TIE)).tolist()) for r in plan]
    cols = [set(np.flatnonzero(c >= c.max() * (1 - PLAN_TIE)).tolist()) for c in plan.T]
    sure = {(i, j) for i, r in enumerate(rows) if len(r) == 1
            for j in r if cols[j] == {i}}
    maybe = {(i, j) for i, r in enumerate(rows) for j in r if i in cols[j]} - sure

    def aer(predicted: Set[Pair]) -> float:
        denom = len(predicted) + len(gold)
        return 1.0 - 2 * len(predicted & gold) / denom if denom else 0.0
    return aer(sure | (maybe & gold)), aer(sure | (maybe - gold))


def _within(value: float, bounds: Tuple[float, float]) -> bool:
    return bounds[0] - VALUE_TOL <= value <= bounds[1] + VALUE_TOL


def check_eval(eval_dir: str, checkpoint: str, config: dict) -> List[str]:
    """The three eval CSVs against recomputation from the checkpoint."""
    failures = []
    disc = trainer.load_checkpoint(checkpoint)[0].discriminator
    layers = list(range(disc.config.num_layers + 1))
    specs = {s.lang: s for s in language_specs(config)}
    _, sweep_rows = read_csv(os.path.join(eval_dir, "layer_sweep_retrieval.csv"))
    _, best_rows = read_csv(os.path.join(eval_dir, "retrieval.csv"))
    _, aer_rows = read_csv(os.path.join(eval_dir, "layer_sweep_aer.csv"))
    ot = config["eval"]

    for lang, pairs in heldout_pairs(config).items():
        src = [[BOS, *e, EOS] for e, _ in pairs]
        tgt = [[BOS, *f, EOS] for _, f in pairs]
        src_ids, src_states = _states(src, disc)
        tgt_ids, tgt_states = _states(tgt, disc)
        fwd, bwd = {}, {}
        for layer in layers:
            sims = _unit(_pooled(src_ids, src_states[layer])) @ \
                _unit(_pooled(tgt_ids, tgt_states[layer])).T
            fwd[layer], bwd[layer] = hit_range(sims), hit_range(sims.T)

        sweep = [(int(r[1]), float(r[2])) for r in sweep_rows if r[0] == lang]
        if [layer for layer, _ in sweep] != layers:
            failures.append(f"{lang}: layer_sweep_retrieval.csv layers are not {layers}")
            continue
        for layer, acc in sweep:
            want = ((fwd[layer][0] + bwd[layer][0]) / 2,
                    (fwd[layer][1] + bwd[layer][1]) / 2)
            if not _within(acc, want):
                failures.append(f"{lang} layer {layer}: swept accuracy@1 {acc!r}, "
                                f"recomputed {want}")
        best_layer = layers[int(np.argmax([acc for _, acc in sweep]))]
        best = {r[1]: (int(r[2]), float(r[3])) for r in best_rows if r[0] == lang}
        for direction, ranges in (("en->xx", fwd), ("xx->en", bwd)):
            layer, acc = best.get(direction, (None, None))
            if layer != best_layer:
                failures.append(f"{lang} {direction}: retrieval.csv layer {layer}, "
                                f"the sweep's argmax is {best_layer}")
            elif not _within(acc, ranges[layer]):
                failures.append(f"{lang} {direction}: accuracy@1 {acc!r}, "
                                f"recomputed {ranges[layer]}")

        per_layer: Dict[int, List[Tuple[float, float]]] = {layer: [] for layer in layers}
        for e, f in pairs[:ALIGNED_PAIRS]:
            gold = gold_pairs(specs[lang], len(e))
            e_states = model.encode(np.array([[BOS, *e, EOS]]), disc)
            f_states = model.encode(np.array([[BOS, *f, EOS]]), disc)
            for layer in layers:
                cost = 1.0 - _unit(e_states[layer].data[0, 1:-1].astype(np.float64)) @ \
                    _unit(f_states[layer].data[0, 1:-1].astype(np.float64)).T
                plan = sinkhorn(cost, ot["ot_eps"], ot["ot_iters"])
                per_layer[layer].append(aer_range(plan, gold))
        got = [(int(r[1]), float(r[2])) for r in aer_rows if r[0] == lang]
        if [layer for layer, _ in got] != layers:
            failures.append(f"{lang}: layer_sweep_aer.csv layers are not {layers}")
            continue
        for layer, value in got:
            want = (float(np.mean([lo for lo, _ in per_layer[layer]])),
                    float(np.mean([hi for _, hi in per_layer[layer]])))
            if not _within(value, want):
                failures.append(f"{lang} layer {layer}: AER {value!r}, recomputed {want}")
    return failures
