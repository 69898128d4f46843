"""Fast tests of the benchmark: every workload at a tiny size, and every
output check shown to fail on a deliberately corrupted program output."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import checks, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = workloads.Size(train_steps=8, eval_pairs=4, min_steps=1,
                      setup_repeats=2, eval_setup_repeats=2)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def edit_csv(path, row, column, change):
    """Apply `change` to one cell (row 0 is the first data row)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = repr(change(float(rows[row + 1][col])))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Tiny runs by workload, made on first use: the rounds of an untraced
    and of a traced run, and one more round whose outputs are kept."""
    made = {}

    def get(workload):
        if workload not in made:
            workdir = str(tmp_path_factory.mktemp(workload))
            prep = workloads.set_up(workload, 3, TINY, os.path.join(workdir, "setup"))
            plain, traced = (workloads.measure(prep, os.path.join(workdir, f"rounds{t}"),
                                               0, t, log=io.StringIO())
                             for t in (False, True))
            kept = workloads.run_round(prep, os.path.join(workdir, "kept"), False)
            made[workload] = prep, plain, traced, kept, os.path.join(workdir, "kept")
        return made[workload]
    return get


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_clean_and_reports_every_metric(tiny_runs, workload):
    prep, plain, traced, kept, _ = tiny_runs(workload)
    assert [r.peak_bytes is not None for r in plain] == [False, True]
    assert [r.rec.traced for r in traced] == [False, True]
    rounds = plain + traced
    assert all(r.ok and not r.failures for r in rounds + [kept])
    assert not any(sum(r.rec.failed.values()) or r.rec.steps_failed for r in rounds)
    e2e = workloads.end_to_end(prep, plain)
    layers = workloads.per_layer(prep, traced)
    assert sorted(e2e) == sorted(declared("end_to_end"))
    assert sorted(layers) == sorted(declared("per_layer"))
    assert all(v > 0 for v in e2e.values())
    assert len(prep.setup_seconds) == 2 and all(r.speed > 0 for r in rounds)
    if prep.workload == "eval":
        assert layers["align.encode_calls"] > 0 and layers["align.sinkhorn_calls"] > 0
    else:
        assert layers["trainer.adam_ms"] > 0 and layers["trainer.checkpoint_bytes"] > 0


def corrupted(kept_dir, tmp_path, name):
    target = str(tmp_path / name)
    shutil.copytree(kept_dir, target)
    return target


def training_failures(prep, run_dir):
    return checks.check_training(os.path.join(run_dir, "full"),
                                 os.path.join(run_dir, "resumed"), prep.config,
                                 prep.workload != "mono-ablation")


@pytest.mark.parametrize("workload", ["xlme", "mono-ablation"])
def test_training_checks_fail_on_corrupted_outputs(tiny_runs, workload, tmp_path):
    prep, _, _, _, kept_dir = tiny_runs(workload)
    assert training_failures(prep, kept_dir) == []
    full = os.path.join("full", "metrics.csv")
    cases = {
        "lr at step 3": (full, lambda d: edit_csv(d, 3, "lr", lambda v: v * 1.01)),
        "loss_total at step 2": (full, lambda d: edit_csv(d, 2, "loss_total",
                                                          lambda v: v + 1.0)),
        "loss_mrtd does not fall": (full, lambda d: [
            edit_csv(d, r, "loss_mrtd", lambda v: v + 1e4) for r in (6, 7)]),
        "resumed metrics.csv does not start at step 4": (
            os.path.join("resumed", "metrics.csv"),
            lambda d: shutil.copy(os.path.join(os.path.dirname(d), "..", full), d)),
        "resumed metrics.csv rows differ": (
            os.path.join("resumed", "metrics.csv"),
            lambda d: edit_csv(d, 1, "loss_mlm", lambda v: np.nextafter(v, 0.0))),
    }
    if prep.workload == "mono-ablation":
        cases["loss_tlm is not 0"] = (full, lambda d: edit_csv(d, 0, "loss_tlm",
                                                               lambda v: 1e-3))
    for message, (relative, corrupt) in cases.items():
        run_dir = corrupted(kept_dir, tmp_path, message.replace(" ", "_"))
        corrupt(os.path.join(run_dir, relative))
        failures = training_failures(prep, run_dir)
        assert any(message in f for f in failures), (message, failures)

    run_dir = corrupted(kept_dir, tmp_path, "params")
    with open(os.path.join(run_dir, "resumed", "ckpt_final", "params.bin"), "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 1]))
    assert any("ckpt_final/params.bin differs" in f
               for f in training_failures(prep, run_dir))


def test_eval_checks_fail_on_corrupted_outputs(tiny_runs, tmp_path):
    prep, _, _, _, kept_dir = tiny_runs("eval")
    out = os.path.join(kept_dir, "eval")
    assert checks.check_eval(out, prep.checkpoint, prep.config) == []
    away = lambda v: v - 0.5 if v >= 0.5 else v + 0.5  # noqa: E731
    cases = {
        "layer 2: swept accuracy@1": (
            "layer_sweep_retrieval.csv", lambda p: edit_csv(p, 2, "accuracy_at_1", away)),
        "en->xx: accuracy@1": (
            "retrieval.csv", lambda p: edit_csv(p, 0, "accuracy_at_1", away)),
        "xx->en: retrieval.csv layer": (
            "retrieval.csv", lambda p: edit_csv(p, 1, "layer",
                                                lambda v: int(v + 1) % 7)),
        "layer 4: AER": (
            "layer_sweep_aer.csv", lambda p: edit_csv(p, 4, "aer",
                                                      lambda v: v + 0.2)),
    }
    for message, (name, corrupt) in cases.items():
        run_dir = corrupted(out, tmp_path, message.replace(" ", "_").replace(":", ""))
        corrupt(os.path.join(run_dir, name))
        failures = checks.check_eval(run_dir, prep.checkpoint, prep.config)
        assert any(message in f for f in failures), (message, failures)


def test_argmax_ties_widen_only_where_tied():
    sims = np.array([[0.9, 0.9, 0.1], [0.2, 0.8, 0.1], [0.3, 0.1, 0.5]])
    assert checks.hit_range(sims) == (2 / 3, 1.0)
    plan = np.array([[0.4, 0.4, 0.0], [0.4, 0.4, 0.0], [0.0, 0.0, 0.5]])
    low, high = checks.aer_range(plan, {(0, 0), (1, 1), (2, 2)})
    assert low == 0.0 and high == pytest.approx(1 - 2 * 1 / 6)
    assert checks.aer_range(np.eye(3), {(0, 0), (1, 1), (2, 2)}) == (0.0, 0.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "xlme",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
