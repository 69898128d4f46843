import copy
import csv
import gc
import json
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from xrtd import serialize
from xrtd.cli import DEFAULT_CONFIG, _build_corpus, _model_pair, main
from xrtd.corpus import LanguageSpec, synth_corpus
from xrtd.model import init_model_pair, pair_configs
from xrtd.objectives import joint_loss
from xrtd.tensor import Node, Tensor
from xrtd.trainer import (METRICS_COLUMNS, Adam, DivergenceError, OptimConfig,
                          _decays, _draw_batches, _samplers,
                          heldout_disc_accuracy, load_checkpoint, load_optimizer,
                          lr_at, save_checkpoint, train, train_step)


# traced bytes alive at the end of a default-config forward, with its loss
# held: tools/memsites.py's "live at the end of the forward" under NumPy 2
DEFAULT_FORWARD_LIVE_MB = 40.32


def small_corpus(seed=0, n=60):
    specs = [LanguageSpec("en", "base", 0), LanguageSpec("pv", "permuted", 1)]
    return synth_corpus(specs, n, np.random.default_rng(seed))


def small_models(vocab_size, seed=0):
    """The pair that `small_run`'s model section describes."""
    return init_model_pair(*pair_configs(small_run()["model"], vocab_size),
                           seed=seed)


def optim_config(**overrides):
    return OptimConfig(**{**DEFAULT_CONFIG["optim"], **overrides})


def small_run(total=40, warmup=8, seed=0, **data):
    """A merged run config with a small model, the small schedule and
    64-token batches, over `small_corpus`'s languages."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    config["seed"] = seed
    config["model"].update(hidden_size=16, num_heads=2, gen_layers=1,
                           disc_layers=2, ffn_size=32)
    config["optim"].update(lr_peak=1e-3, warmup_steps=warmup, total_steps=total)
    config["data"].update({"token_budget": 64, "checkpoint_every": 20, **data})
    return config


def small_optim(total=40, warmup=8):
    return OptimConfig(**small_run(total, warmup)["optim"])


def metrics_rows(result):
    """The rows of a run's metrics.csv, one dict per step."""
    with open(result.metrics_path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSchedule:
    cfg = optim_config(lr_peak=4e-4, warmup_steps=100, total_steps=500)

    def test_apex(self):
        assert lr_at(100, self.cfg) == self.cfg.lr_peak

    def test_terminus(self):
        assert lr_at(500, self.cfg) == 0.0

    def test_midpoint_of_decay(self):
        assert lr_at(300, self.cfg) == pytest.approx(self.cfg.lr_peak / 2)

    def test_ramp_is_linear(self):
        assert lr_at(25, self.cfg) == pytest.approx(self.cfg.lr_peak / 4)
        assert lr_at(0, self.cfg) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_at(-1, self.cfg)
        with pytest.raises(ValueError):
            lr_at(501, self.cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            optim_config(warmup_steps=10, total_steps=10)
        with pytest.raises(ValueError):
            optim_config(lr_peak=0.0)


class TestDecayPredicate:
    def test_weights_decay(self):
        assert _decays("gen.layer0.attn.wq")
        assert _decays("disc.layer1.ffn.w1")
        assert _decays("disc.embed")
        assert _decays("disc.rtd_w")

    def test_biases_and_norms_do_not(self):
        for name in ("gen.layer0.attn.bq", "disc.layer1.ffn.b2",
                     "gen.layer0.ln1.g", "disc.final_ln.b",
                     "gen.mlm_bias", "disc.rtd_b",
                     "gen.layer0.attn.d_table", "gen.layer0.attn.gate_u",
                     "disc.layer1.attn.gate_v", "gen.layer0.attn.gate_w"):
            assert not _decays(name)

class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        optim = Adam({"p": p}, optim_config(weight_decay=0.0))
        optim.step(1e-3)
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_two_hand_iterated_steps(self):
        cfg = optim_config(weight_decay=0.0, grad_clip=100.0,
                           adam_betas=(0.9, 0.98), adam_eps=1e-6)
        p = Tensor(np.array([0.5], dtype=np.float64), requires_grad=True)
        optim = Adam({"p": p}, cfg)
        lr = 1e-2
        grads = [0.3, -0.7]
        m = v = 0.0
        expected = 0.5
        for t, g in enumerate(grads, start=1):
            p.grad = np.array([g])
            optim.step(lr)
            m = 0.9 * m + 0.1 * g
            v = 0.98 * v + 0.02 * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.98 ** t)
            expected -= lr * m_hat / (math.sqrt(v_hat) + 1e-6)
            assert p.data[0] == pytest.approx(expected, abs=1e-10)

    def test_global_norm_clip_halves_large_gradient(self):
        cfg = optim_config(weight_decay=0.0, grad_clip=2.0)
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([4.0])
        optim = Adam({"p": p}, cfg)
        norm = optim.step(1e-3)
        assert norm == pytest.approx(4.0)
        # first moment reflects the clipped gradient 4.0 * 0.5 = 2.0
        assert optim.m["p"][0] == pytest.approx(0.1 * 2.0)

    def test_clip_spans_all_parameters(self):
        cfg = optim_config(weight_decay=0.0, grad_clip=2.0)
        a = Tensor(np.array([0.0]), requires_grad=True)
        b = Tensor(np.array([0.0]), requires_grad=True)
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        optim = Adam({"a": a, "b": b}, cfg)
        norm = optim.step(1e-3)
        assert norm == pytest.approx(5.0)
        assert optim.m["a"][0] == pytest.approx(0.1 * 3.0 * (2.0 / 5.0))

    def test_nan_gradient_names_parameter(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        q = Tensor(np.array([1.0]), requires_grad=True)
        p.grad, q.grad = np.array([0.1]), np.array([np.nan])
        optim = Adam({"fine": p, "broken": q}, optim_config())
        with pytest.raises(RuntimeError, match="broken"):
            optim.step(1e-3)

    def test_weight_decay_shrinks_eligible_weights_only(self):
        cfg = optim_config(weight_decay=0.1, grad_clip=100.0)
        w = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        w.grad = np.zeros(1)
        b.grad = np.zeros(1)
        optim = Adam({"gen.layer0.attn.wq": w, "gen.layer0.attn.bq": b}, cfg)
        optim.step(1e-2)
        assert w.data[0] == pytest.approx(1.0 - 1e-2 * 0.1)
        assert b.data[0] == 1.0

    def test_steps_equal_the_expression_form_bit_for_bit(self):
        cfg = optim_config(weight_decay=0.1, grad_clip=1.0)
        rng = np.random.default_rng(4)
        named = {name: Tensor(rng.normal(size=shape).astype(np.float32),
                              requires_grad=True)
                 for name, shape in (("disc.layer0.ffn.w1", (3, 5)),
                                     ("disc.layer0.ffn.b1", (5,)))}
        optim = Adam(named, cfg)
        buffers = [t.data for t in named.values()]
        moments = [*optim.m.values(), *optim.v.values()]
        p = {k: t.data.copy() for k, t in named.items()}
        m = {k: np.zeros(t.shape) for k, t in named.items()}
        v = {k: np.zeros(t.shape) for k, t in named.items()}
        b1, b2 = cfg.adam_betas
        for t in (1, 2, 3):
            grads = {k: rng.normal(size=x.shape).astype(np.float32)
                     for k, x in named.items()}
            for k, x in named.items():
                x.grad = grads[k]
            lr = 1e-2 * t
            optim.step(lr)
            # the update as written out of place, one new array per expression
            g64 = {k: g.astype(np.float64) for k, g in grads.items()}
            norm = math.sqrt(sum(float((g * g).sum()) for g in g64.values()))
            assert norm > cfg.grad_clip           # the clip is exercised
            scale = cfg.grad_clip / norm
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for k in named:
                g = g64[k] * scale
                if _decays(k):
                    p[k] = (p[k] - lr * cfg.weight_decay * p[k]).astype(np.float32)
                m[k] = b1 * m[k] + (1 - b1) * g
                v[k] = b2 * v[k] + (1 - b2) * g * g
                update = lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + cfg.adam_eps)
                p[k] = (p[k] - update).astype(np.float32)
            for k, x in named.items():
                assert x.data.dtype == np.float32
                assert np.array_equal(x.data, p[k])
                assert np.array_equal(optim.m[k], m[k])
                assert np.array_equal(optim.v[k], v[k])
        # each parameter and each moment is updated in its own buffer
        assert all(a is t.data for a, t in zip(buffers, named.values()))
        assert all(a is b for a, b in
                   zip(moments, [*optim.m.values(), *optim.v.values()]))


class TestTrainLoop:
    def test_zero_remaining_steps_checkpoint_equals_init(self, tmp_path):
        corpus = small_corpus()
        models = small_models(len(corpus.vocab))
        before = {k: t.data.copy() for k, t in models.all_parameters().items()}
        optim = Adam(models.all_parameters(), small_optim(total=10))
        result = train(models, corpus, small_run(total=10), str(tmp_path / "run"),
                       True, resume=(optim, np.random.default_rng(0), 10))
        assert metrics_rows(result) == []
        loaded, _, step, _ = load_checkpoint(result.final_checkpoint)
        assert step == 10
        for k, t in loaded.all_parameters().items():
            assert np.array_equal(t.data, before[k])

    def test_fixed_seed_runs_are_identical(self, tmp_path):
        def run(tag):
            corpus = small_corpus()
            models = small_models(len(corpus.vocab))
            result = train(models, corpus, small_run(total=10, seed=3),
                           str(tmp_path / tag), True)
            with open(result.metrics_path) as fh:
                return fh.read()

        assert run("a") == run("b")

    def test_steps_update_both_submodels(self, tmp_path):
        corpus = small_corpus()
        models = small_models(len(corpus.vocab))
        before = {k: t.data.copy() for k, t in models.all_parameters().items()}
        optim = Adam(models.all_parameters(), small_optim(total=6, warmup=2))
        train(models, corpus, small_run(total=6, warmup=2), str(tmp_path / "run"),
              True, resume=(optim, np.random.default_rng(0), 4))
        changed = {k for k, t in models.all_parameters().items()
                   if not np.array_equal(t.data, before[k])}
        assert any(k.startswith("gen.layer") for k in changed)
        assert any(k.startswith("disc.layer") for k in changed)

    def test_steps_leave_only_parameters_and_the_last_loss_alive(self):
        def live(kind):
            gc.collect()
            return [o for o in gc.get_objects() if isinstance(o, kind)]

        before = live(Tensor), live(Node)   # held, so no id below is reused
        known = {id(o) for objects in before for o in objects}
        corpus = small_corpus()
        models = small_models(len(corpus.vocab))
        run = small_run()
        optim_cfg = OptimConfig(**run["optim"])
        samplers = _samplers(corpus, run["data"]["alpha"], True)
        named = models.all_parameters()
        optimizer = Adam(named, optim_cfg)
        rng = np.random.default_rng(0)
        for step in range(2):
            total, _ = train_step(models, optimizer, samplers, run["data"], rng,
                                  lr_at(step + 1, optim_cfg))
        new = {id(t) for t in live(Tensor) if id(t) not in known}
        assert new == {id(t) for t in named.values()} | {id(total)}
        new_nodes = {id(n) for n in live(Node) if id(n) not in known}
        assert new_nodes == ({id(t.node) for t in named.values()}
                             | {id(total.node)})
        assert all(t.grad is not None for t in named.values())

    def test_default_forward_leaves_no_more_alive_than_measured(self):
        # one default-config forward, as tools/memsites.py runs it; under
        # NumPy 1.x layers 1+ compute in float32 and it reads lower
        config = copy.deepcopy(DEFAULT_CONFIG)
        corpus = _build_corpus(config)
        models = _model_pair(config, len(corpus.vocab))
        optim_cfg = OptimConfig(**config["optim"])
        mono, pair = _samplers(corpus, config["data"]["alpha"], True)
        rng = np.random.default_rng(config["seed"])
        batches = _draw_batches(mono, pair, config["data"]["token_budget"],
                                config["data"]["mask_ratio"], rng)
        tracemalloc.start()
        try:
            total, _ = joint_loss(*batches, models, optim_cfg.lam, rng)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert total.node is not None
        assert live < 1.1 * DEFAULT_FORWARD_LIVE_MB * 2 ** 20

    def test_train_leaves_no_thread_behind(self, tmp_path):
        corpus = small_corpus()
        models = small_models(len(corpus.vocab))
        before = set(threading.enumerate())
        train(models, corpus, small_run(total=3, warmup=1), str(tmp_path / "run"),
              True)
        assert set(threading.enumerate()) == before

    def test_metrics_csv_layout(self, tmp_path):
        corpus = small_corpus()
        models = small_models(len(corpus.vocab))
        result = train(models, corpus,
                       small_run(total=5, warmup=2, checkpoint_every=0),
                       str(tmp_path / "run"), True)
        with open(result.metrics_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == METRICS_COLUMNS
        assert len(rows) == 6
        assert [int(r[0]) for r in rows[1:]] == [0, 1, 2, 3, 4]
        assert float(rows[1][6]) > 0.0   # lr column

    def test_resume_reproduces_interrupted_run(self, tmp_path):
        corpus = small_corpus()
        models = small_models(len(corpus.vocab))
        full = train(models, corpus, small_run(total=40, seed=5),
                     str(tmp_path / "full"), True)

        loaded, rng, step, run = load_checkpoint(
            str(tmp_path / "full" / "ckpt_20"))
        optim = load_optimizer(str(tmp_path / "full" / "ckpt_20"), loaded, step, run)
        assert step == 20
        resumed = train(loaded, corpus,
                        small_run(total=40, seed=5, checkpoint_every=0),
                        str(tmp_path / "resumed"), True,
                        resume=(optim, rng, step))
        tail = metrics_rows(full)[20:]
        resumed_rows = metrics_rows(resumed)
        assert len(resumed_rows) == len(tail) == 20
        for a, b in zip(resumed_rows, tail):
            assert a == b
        final_full, _, _, _ = load_checkpoint(full.final_checkpoint)
        final_res, _, _, _ = load_checkpoint(resumed.final_checkpoint)
        for k, t in final_full.all_parameters().items():
            assert np.array_equal(t.data, final_res.all_parameters()[k].data)

    def test_checkpoint_roundtrip_bit_identical(self, tmp_path):
        corpus = small_corpus()
        models = small_models(len(corpus.vocab))
        cfg = small_optim(total=10)
        optim = Adam(models.all_parameters(), cfg)
        rng = np.random.default_rng(11)
        rng.random(17)   # advance away from the seed state
        record = {"config": small_run(total=10, seed=11), "use_trtd": False}
        save_checkpoint(str(tmp_path / "ck"), models, optim, rng, 7, record)
        loaded, rng2, step, run = load_checkpoint(str(tmp_path / "ck"))
        optim2 = load_optimizer(str(tmp_path / "ck"), loaded, step, run)
        assert step == 7 and run == record
        assert optim2.config == cfg
        assert rng2.bit_generator.state == rng.bit_generator.state
        assert optim2.t == 7
        for k, t in models.all_parameters().items():
            assert np.array_equal(loaded.all_parameters()[k].data, t.data)
        for k in optim.m:
            assert np.array_equal(optim2.m[k], optim.m[k])
            assert np.array_equal(optim2.v[k], optim.v[k])

    def test_no_trtd_mode_runs(self, tmp_path):
        corpus = small_corpus()
        models = small_models(len(corpus.vocab))
        result = train(models, corpus,
                       small_run(total=5, warmup=2, checkpoint_every=0),
                       str(tmp_path / "run"), False)
        assert all(float(r["loss_tlm"]) == 0.0 and float(r["loss_trtd"]) == 0.0
                   for r in metrics_rows(result))

    def test_divergence_guard(self, tmp_path, monkeypatch):
        corpus = small_corpus()
        models = small_models(len(corpus.vocab))
        counter = {"n": 0}

        def exploding_loss(mono, pair, models_, lam, rng):
            counter["n"] += 1
            value = 1.0 if counter["n"] == 1 else 100.0
            report = {"mlm": value, "tlm": 0.0, "mrtd": 0.0, "trtd": 0.0,
                      "disc_accuracy": 0.5, "total": value}
            return Tensor(np.array(value)), report

        monkeypatch.setattr("xrtd.trainer.joint_loss", exploding_loss)
        with pytest.raises(DivergenceError, match="50 steps"):
            train(models, corpus,
                  small_run(total=200, warmup=10, checkpoint_every=0),
                  str(tmp_path / "run"), True)
        assert counter["n"] == 51

    @pytest.mark.parametrize("vocab_delta, model", [
        (-1, {}), (0, {"hidden_size": 32}), (0, {"disc_layers": 3}),
    ], ids=["vocab_size", "hidden_size", "disc_layers"])
    def test_refuses_a_pair_the_config_does_not_describe(self, tmp_path,
                                                         vocab_delta, model):
        corpus = small_corpus()
        models = small_models(len(corpus.vocab) + vocab_delta)
        config = small_run(total=5, warmup=2)
        config["model"].update(model)
        with pytest.raises(ValueError, match="model section and languages"):
            train(models, corpus, config, str(tmp_path / "run"), True)
        assert not (tmp_path / "run").exists()

    def test_heldout_accuracy_in_unit_interval(self):
        corpus = small_corpus()
        models = small_models(len(corpus.vocab))
        data = DEFAULT_CONFIG["data"]
        acc = heldout_disc_accuracy(models, corpus, seed=1, n_batches=3,
                                    token_budget=64,
                                    mask_ratio=data["mask_ratio"],
                                    alpha=data["alpha"], use_trtd=True)
        assert 0.0 <= acc <= 1.0


class TestCheckpointFiles:
    def saved(self, path, step=0):
        models = small_models(len(small_corpus().vocab))
        optim = Adam(models.all_parameters(), small_optim())
        save_checkpoint(str(path), models, optim, np.random.default_rng(0),
                        step, {"config": small_run(), "use_trtd": True})
        return str(path)

    @pytest.mark.parametrize("file, tensor, edit", [
        ("params.bin", "disc.embed", lambda a: a.pop("disc.embed")),
        ("params.bin", "extra", lambda a: a.update(extra=np.zeros(2))),
        ("params.bin", "disc.layer0.ffn.w1",
         lambda a: a.update({"disc.layer0.ffn.w1": a["disc.layer0.ffn.w1"][:, :5]})),
        ("optim.bin", "v/gen.layer0.attn.gate_u",
         lambda a: a.pop("v/gen.layer0.attn.gate_u")),
        ("optim.bin", "m/disc.layer1.ffn.w2",
         lambda a: a.update({"m/disc.layer1.ffn.w2": a["m/disc.layer1.ffn.w2"].T})),
    ], ids=["missing", "extra", "misshaped", "missing-moment", "misshaped-moment"])
    def test_mismatch_names_the_tensor(self, tmp_path, capsys, file, tensor,
                                       edit):
        path = self.saved(tmp_path / "ck")
        arrays = serialize.load_arrays(os.path.join(path, file))
        edit(arrays)
        serialize.save_arrays(os.path.join(path, file), arrays)
        with pytest.raises(ValueError, match=re.escape(tensor)):
            load_checkpoint(path)
        code = main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and tensor in err
        assert err.startswith('error code=ValueError msg="')
        # a failed eval leaves no config copy and keeps an existing one
        assert not (tmp_path / "eval" / "run_config.json").exists()
        existing = tmp_path / "existing"
        existing.mkdir()
        (existing / "run_config.json").write_bytes(b"earlier run")
        assert main(["eval", "--checkpoint", path, "--out", str(existing)]) == 2
        assert (existing / "run_config.json").read_bytes() == b"earlier run"

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw[:-1], "truncated data for 'v/"),
        (lambda raw: b"TSTORE00" + raw[8:], "bad magic"),
    ], ids=["last-byte", "bad-magic"])
    def test_damaged_moments_are_refused(self, tmp_path, capsys, edit, message):
        # eval reads only optim.bin's record headers, yet refuses it as a
        # resume, which reads the moments, would
        path = self.saved(tmp_path / "ck")
        optim_path = os.path.join(path, "optim.bin")
        with open(optim_path, "rb") as fh:
            raw = fh.read()
        with open(optim_path, "wb") as fh:
            fh.write(edit(raw))
        with pytest.raises(serialize.FormatError, match=re.escape(message)):
            load_checkpoint(path)
        code = main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and message in err
        assert err.startswith('error code=FormatError msg="')

    def test_load_reads_parameters_and_no_moment(self, tmp_path):
        # a default-size pair: its 1.1 MB of parameters outweigh the
        # loader's own objects, and optim.bin holds 4x their bytes
        config = copy.deepcopy(DEFAULT_CONFIG)
        models = _model_pair(config, len(_build_corpus(config).vocab))
        path = str(tmp_path / "ck")
        save_checkpoint(path, models, Adam(models.all_parameters(),
                                           OptimConfig(**config["optim"])),
                        np.random.default_rng(0), 0,
                        {"config": config, "use_trtd": True})
        del models
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * os.path.getsize(os.path.join(path, "params.bin"))

    def test_config_json_holds_only_the_step_and_run_record(self, tmp_path):
        path = self.saved(tmp_path / "ck", step=4)
        with open(os.path.join(path, "config.json")) as fh:
            saved = json.load(fh)
        assert saved == {"step": 4, "config": small_run(), "use_trtd": True}

    def test_checkpoint_without_run_record_is_refused(self, tmp_path, capsys):
        # config.json as written before checkpoints carried the run record
        path = self.saved(tmp_path / "ck")
        config_path = os.path.join(path, "config.json")
        with open(config_path) as fh:
            saved = json.load(fh)
        run_config = saved.pop("config")
        saved["optim"] = run_config["optim"]
        saved["meta"] = {"settings": {"use_trtd": saved.pop("use_trtd")},
                         "seed": run_config["seed"]}
        with open(config_path, "w") as fh:
            json.dump(saved, fh)
        code = main(["eval", "--checkpoint", path,
                     "--out", str(tmp_path / "eval")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and path in err and "predates" in err
        assert err.startswith('error code=ValueError msg="')

    def test_failed_save_leaves_no_checkpoint(self, tmp_path, monkeypatch):
        write = serialize.save_arrays

        def fail_on_optim(path, arrays):
            if os.path.basename(path) == "optim.bin":
                raise OSError("disk full")
            write(path, arrays)

        monkeypatch.setattr(serialize, "save_arrays", fail_on_optim)
        with pytest.raises(OSError, match="disk full"):
            self.saved(tmp_path / "ck")
        assert os.listdir(tmp_path) == []

    def test_save_replaces_existing_checkpoint(self, tmp_path):
        self.saved(tmp_path / "ck", step=3)
        path = self.saved(tmp_path / "ck", step=5)
        assert load_checkpoint(path)[2] == 5
        assert os.listdir(tmp_path) == ["ck"]


class TestSerialize:
    def written(self, tmp_path):
        path = str(tmp_path / "arrays.bin")
        serialize.save_arrays(path, {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                                     "b": np.ones((4, 0, 2)), "c": np.ones(5)})
        return path

    def test_shapes_are_those_of_the_loaded_arrays(self, tmp_path):
        path = self.written(tmp_path)
        arrays = serialize.load_arrays(path)
        assert serialize.load_shapes(path) == {"a": (2, 3), "b": (4, 0, 2), "c": (5,)}
        assert {k: a.shape for k, a in arrays.items()} == serialize.load_shapes(path)
        assert arrays["a"].dtype == np.float32 and arrays["c"].dtype == np.float64
        assert np.array_equal(arrays["a"], np.arange(6).reshape(2, 3))
        assert np.array_equal(arrays["c"], np.ones(5))

    def test_round_trip_keeps_shape_and_values(self, tmp_path):
        path = str(tmp_path / "arrays.bin")
        arrays = {"scalar": np.array(3.5),
                  "transposed": np.arange(6, dtype=np.float32).reshape(2, 3).T}
        serialize.save_arrays(path, arrays)
        loaded = serialize.load_arrays(path)
        assert serialize.load_shapes(path) == {"scalar": (), "transposed": (3, 2)}
        for name, arr in arrays.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].dtype == arr.dtype
            assert np.array_equal(loaded[name], arr)

    # record "a": its dtype code follows the magic, the count, the name's
    # length and the name (byte 8 + 4 + 4 + 1 = 17), and its 24 data bytes
    # follow the code, the rank and two dims (byte 17 + 2 + 16 = 35)
    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw[:-1], "truncated data for 'c'"),
        (lambda raw: raw[:35 + 23], "truncated data for 'a'"),
        (lambda raw: raw[:17] + bytes([7]) + raw[18:], "unknown dtype code 7 for 'a'"),
        (lambda raw: b"TSTORE02" + raw[8:], "bad magic"),
    ], ids=["last-byte", "first-record", "unknown-dtype", "bad-magic"])
    def test_header_reader_refuses_what_load_arrays_refuses(self, tmp_path,
                                                           edit, message):
        path = self.written(tmp_path)
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(edit(raw))
        for load in (serialize.load_arrays, serialize.load_shapes):
            with pytest.raises(serialize.FormatError, match=re.escape(message)):
                load(path)
