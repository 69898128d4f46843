import csv
import json
import os

import pytest

from xrtd import align, gradcheck
from xrtd.cli import ConfigError, DEFAULT_CONFIG, load_config, main

AX_LANGUAGES = [{"lang": "en", "kind": "base", "seed": 0},
                {"lang": "ax", "kind": "affix", "seed": 1}]

TINY_OVERRIDES = {
    "seed": 1,
    "model": {"hidden_size": 16, "num_heads": 2, "gen_layers": 1,
              "disc_layers": 2, "ffn_size": 32, "max_rel_distance": 4},
    "optim": {"total_steps": 6, "warmup_steps": 2},
    "data": {"languages": [{"lang": "en", "kind": "base", "seed": 0},
                           {"lang": "pv", "kind": "permuted", "seed": 1}],
             "n_sentences": 40, "token_budget": 64, "checkpoint_every": 3},
    "eval": {"n_pairs": 5, "ot_iters": 50},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(overrides if overrides is not None
                               else TINY_OVERRIDES))
    return str(path)


class TestConfig:
    def test_defaults_when_no_file(self):
        assert load_config(None) == DEFAULT_CONFIG

    def test_merge_preserves_unset_defaults(self, tmp_path):
        path = write_config(tmp_path, {"optim": {"total_steps": 700}})
        config = load_config(path)
        assert config["optim"]["total_steps"] == 700
        assert config["optim"]["lr_peak"] == DEFAULT_CONFIG["optim"]["lr_peak"]

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"optimizer": {}})
        with pytest.raises(ConfigError, match="optimizer"):
            load_config(path)

    @pytest.mark.parametrize("value", [4.5, True, "4", 4.0])
    def test_integer_key_takes_only_an_integer(self, tmp_path, value):
        path = write_config(tmp_path, {"optim": {"total_steps": value}})
        with pytest.raises(ConfigError, match="'optim.total_steps' must be an integer"):
            load_config(path)

    def test_unknown_nested_key_rejected_with_path(self, tmp_path):
        path = write_config(tmp_path, {"optim": {"lr": 1.0}})
        with pytest.raises(ConfigError, match="optim.lr"):
            load_config(path)


class TestSynth:
    def test_writes_expected_files_and_counts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "corpus"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["mono_en.txt", "mono_pv.txt", "parallel_en_pv.txt",
                         "run_config.json", "vocab.txt"]
        for mono in ("mono_en.txt", "mono_pv.txt"):
            lines = (out / mono).read_text().strip().split("\n")
            assert len(lines) == 40
        printed = capsys.readouterr().out.strip().split("\n")
        assert len(printed) == 4   # vocab + 2 mono + 1 parallel

    def test_three_languages_three_mono_two_parallel(self, tmp_path):
        overrides = json.loads(json.dumps(TINY_OVERRIDES))
        overrides["data"]["languages"].append(
            {"lang": "rv", "kind": "reversed", "seed": 2})
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "corpus3"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"mono_en.txt", "mono_pv.txt", "mono_rv.txt"} <= names
        assert {"parallel_en_pv.txt", "parallel_en_rv.txt"} <= names

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["synth", "--config", cfg, "--out", str(out1)])
        main(["synth", "--config", cfg, "--out", str(out2)])
        for name in ("vocab.txt", "mono_en.txt", "mono_pv.txt",
                     "parallel_en_pv.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestErrors:
    def test_bad_config_exits_two_with_parseable_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"nonsense": 1})
        code = main(["synth", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0
        assert err.startswith("error code=ConfigError msg=")

    def test_share_embeddings_is_an_unknown_key(self, tmp_path, capsys):
        # the two models always share one embedding table
        overrides = json.loads(json.dumps(TINY_OVERRIDES))
        overrides["model"]["share_embeddings"] = False
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "run"
        code = main(["pretrain", "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err == ("error code=ConfigError msg=\"unknown config key "
                       "'model.share_embeddings'\"")
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, error", [
        ("data", "alpha", 0, "ValueError"),
        ("data", "n_sentences", 0, "ValueError"),
        ("data", "token_budget", 0, "ValueError"),
        ("data", "mask_ratio", 1.5, "ValueError"),
        ("data", "checkpoint_every", -2, "ValueError"),
        ("optim", "total_steps", 4.5, "ConfigError"),
        ("optim", "total_steps", 2, "ValueError"),
        ("model", "num_heads", 3, "ValueError"),
        ("model", "gen_layers", 2, "ValueError"),
        ("data", "languages", AX_LANGUAGES[:1], "ValueError"),
        ("eval", "n_pairs", 1, "ValueError"),
        ("eval", "ot_iters", 0, "ValueError"),
        ("eval", "ot_eps", 0, "ValueError"),
    ], ids=["alpha", "n_sentences", "token_budget", "mask_ratio",
            "checkpoint_every_negative", "total_steps_not_integer",
            "total_steps_not_above_warmup", "num_heads", "gen_layers", "one_language",
            "n_pairs", "ot_iters", "ot_eps"])
    def test_bad_data_section_fails_before_any_output(self, tmp_path, capsys,
                                                      section, key, value,
                                                      error):
        # every command refuses the config before it reads a checkpoint
        overrides = json.loads(json.dumps(TINY_OVERRIDES))
        overrides[section][key] = value
        cfg = write_config(tmp_path, overrides)
        for command, *args in (
                ("synth",), ("pretrain",),
                ("eval", "--checkpoint", str(tmp_path / "missing"))):
            out = tmp_path / command
            code = main([command, "--config", cfg, "--out", str(out), *args])
            assert code == 2, command
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and key in err
            assert err.startswith(f'error code={error} msg="')
            assert not (out / "run_config.json").exists()
            assert not out.exists()

    def test_synth_refuses_zero_sentences_before_any_output(self, tmp_path, capsys):
        overrides = json.loads(json.dumps(TINY_OVERRIDES))
        overrides["data"]["n_sentences"] = 0
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "corpus"
        code = main(["synth", "--config", cfg, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n_sentences" in err
        assert not out.exists()

    def test_missing_checkpoint_exits_two(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error code=" in capsys.readouterr().err


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        code = main(["gradcheck", "--seed", "0", "--configs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall max_rel_err=" in out

    def test_no_configs_refused(self, capsys):
        code = main(["gradcheck", "--configs", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ('error code=ValueError msg="--configs must be '
                                'at least 1"\n')

    def test_only_the_first_loss_builds_a_tape(self, monkeypatch):
        untaped = []     # per loss_fn call: whether its loss has no node
        check = gradcheck.finite_difference_check

        def recording_check(loss_fn, params, seed):
            def recording_loss_fn():
                loss = loss_fn()
                untaped.append(loss.node is None)
                return loss
            return check(recording_loss_fn, params, seed)
        monkeypatch.setattr(gradcheck, "finite_difference_check", recording_check)
        assert gradcheck.check_joint_gradients(0) < 1e-4
        assert len(untaped) > 1
        assert untaped[0] is False
        assert all(untaped[1:])

    def test_unreachable_tolerance_fails(self, capsys):
        code = main(["gradcheck", "--seed", "0", "--configs", "1",
                     "--tolerance", "0"])
        assert code == 1


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_run")
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["pretrain", "--config", cfg, "--out", str(out)]) == 0
    return tmp_path, cfg, out


class TestPretrainEval:
    def test_metrics_rows_match_total_steps(self, run_dir):
        _, _, out = run_dir
        with open(out / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == TINY_OVERRIDES["optim"]["total_steps"]

    def test_config_copy_written(self, run_dir):
        _, _, out = run_dir
        config = json.loads((out / "run_config.json").read_text())
        assert config["optim"]["total_steps"] == 6

    def test_resume_reproduces_metrics_tail(self, run_dir, tmp_path):
        base, cfg, out = run_dir
        resumed = tmp_path / "resumed"
        code = main(["pretrain", "--config", cfg, "--out", str(resumed),
                     "--resume", str(out / "ckpt_3")])
        assert code == 0
        with open(out / "metrics.csv") as fh:
            full = list(csv.reader(fh))[1:]
        with open(resumed / "metrics.csv") as fh:
            tail = list(csv.reader(fh))[1:]
        assert tail == full[3:]

    @pytest.mark.parametrize("section, key, value, named", [
        ("optim", "lr_peak", 1e-3, "optim.lr_peak"),
        (None, "seed", 2, "seed"),
        ("data", "mask_ratio", 0.15, "data.mask_ratio"),
        ("data", "token_budget", 32, "data.token_budget"),
        (None, None, None, "--no-trtd"),
        ("data", "n_sentences", 20, "data.n_sentences"),
        ("data", "languages", AX_LANGUAGES, "data.languages"),
        ("model", "hidden_size", 32, "model.hidden_size"),
    ], ids=["optim", "seed", "mask_ratio", "token_budget", "no_trtd",
            "n_sentences", "languages", "hidden_size"])
    def test_resume_refuses_changed_run(self, run_dir, tmp_path, capsys,
                                        section, key, value, named):
        _, _, out = run_dir
        overrides = json.loads(json.dumps(TINY_OVERRIDES))
        if key is not None:
            (overrides[section] if section else overrides)[key] = value
        cfg = write_config(tmp_path, overrides, "changed.json")
        flags = ["--no-trtd"] if named == "--no-trtd" else []
        code = main(["pretrain", "--config", cfg, "--out",
                     str(tmp_path / "resumed"), "--resume", str(out / "ckpt_3"),
                     *flags])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0
        assert err.startswith("error code=ConfigError msg=") and named in err
        # a refused run leaves no config copy and keeps an existing one
        assert not (tmp_path / "resumed" / "run_config.json").exists()
        existing = tmp_path / "existing"
        existing.mkdir()
        (existing / "run_config.json").write_bytes(b"earlier run")
        assert main(["pretrain", "--config", cfg, "--out", str(existing),
                     "--resume", str(out / "ckpt_3"), *flags]) == 2
        assert (existing / "run_config.json").read_bytes() == b"earlier run"

    def test_resume_accepts_changed_checkpoint_every(self, run_dir, tmp_path):
        _, _, out = run_dir
        overrides = json.loads(json.dumps(TINY_OVERRIDES))
        overrides["data"]["checkpoint_every"] = 2
        cfg = write_config(tmp_path, overrides, "changed.json")
        resumed = tmp_path / "resumed"
        assert main(["pretrain", "--config", cfg, "--out", str(resumed),
                     "--resume", str(out / "ckpt_3")]) == 0
        assert (resumed / "ckpt_4").is_dir()

    def test_resume_accepts_changed_eval_section(self, run_dir, tmp_path):
        _, _, out = run_dir
        overrides = json.loads(json.dumps(TINY_OVERRIDES))
        overrides["eval"]["n_pairs"] = 7
        cfg = write_config(tmp_path, overrides, "changed.json")
        assert main(["pretrain", "--config", cfg, "--out",
                     str(tmp_path / "resumed"), "--resume", str(out / "ckpt_3")]) == 0

    @pytest.mark.parametrize("section, key, value, named", [
        ("data", "languages", AX_LANGUAGES, "data.languages"),
        ("model", "hidden_size", 32, "model.hidden_size"),
        ("model", "disc_layers", 3, "model.disc_layers"),
    ], ids=["languages", "hidden_size", "disc_layers"])
    def test_eval_refuses_changed_model_or_languages(self, run_dir, tmp_path,
                                                     capsys, section, key,
                                                     value, named):
        _, _, out = run_dir
        overrides = json.loads(json.dumps(TINY_OVERRIDES))
        overrides[section][key] = value
        cfg = write_config(tmp_path, overrides, "changed.json")
        code = main(["eval", "--config", cfg, "--checkpoint",
                     str(out / "ckpt_final"), "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0
        assert err.startswith("error code=ConfigError msg=") and named in err
        assert not (tmp_path / "e" / "run_config.json").exists()

    def test_eval_accepts_changed_seed_and_eval_section(self, run_dir, tmp_path):
        _, _, out = run_dir
        overrides = json.loads(json.dumps(TINY_OVERRIDES))
        overrides["seed"] = 5
        overrides["data"]["n_sentences"] = 10
        overrides["eval"]["n_pairs"] = 3
        cfg = write_config(tmp_path, overrides, "changed.json")
        assert main(["eval", "--config", cfg, "--checkpoint",
                     str(out / "ckpt_final"), "--out", str(tmp_path / "e")]) == 0

    def test_no_trtd_zeroes_pair_losses(self, run_dir, tmp_path):
        base, cfg, _ = run_dir
        out = tmp_path / "ablated"
        assert main(["pretrain", "--config", cfg, "--out", str(out),
                     "--no-trtd"]) == 0
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["loss_tlm"]) == 0.0 and float(r["loss_trtd"]) == 0.0
                   for r in rows)
        assert all(float(r["loss_mlm"]) > 0.0 for r in rows)

    def test_eval_writes_reports(self, run_dir, tmp_path, capsys):
        base, cfg, out = run_dir
        eval_out = tmp_path / "eval"
        code = main(["eval", "--config", cfg,
                     "--checkpoint", str(out / "ckpt_final"),
                     "--out", str(eval_out)])
        assert code == 0
        with open(eval_out / "retrieval.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["direction"] for r in rows} == {"en->xx", "xx->en"}
        with open(eval_out / "layer_sweep_retrieval.csv") as fh:
            sweep = list(csv.DictReader(fh))
        # disc_layers=2 -> layers 0..2 for the single non-base language
        assert [int(r["layer"]) for r in sweep] == [0, 1, 2]
        with open(eval_out / "layer_sweep_aer.csv") as fh:
            aer_rows = list(csv.DictReader(fh))
        assert all(0.0 <= float(r["aer"]) <= 1.0 for r in aer_rows)

    @pytest.mark.parametrize("key, value, error", [
        ("n_pairs", 1, "ValueError"), ("ot_eps", 0, "ValueError"),
        ("ot_eps", -0.1, "ValueError"), ("ot_iters", 0, "ValueError"),
        ("ot_iters", 1.5, "ConfigError"),
    ], ids=["n_pairs", "ot_eps_zero", "ot_eps_negative", "ot_iters",
            "ot_iters_not_integer"])
    def test_eval_refuses_bad_eval_section_before_any_output(self, run_dir,
                                                             tmp_path, capsys,
                                                             key, value, error):
        _, _, out = run_dir
        overrides = json.loads(json.dumps(TINY_OVERRIDES))
        overrides["eval"][key] = value
        cfg = write_config(tmp_path, overrides, "changed.json")
        code = main(["eval", "--config", cfg, "--checkpoint",
                     str(out / "ckpt_final"), "--out", str(tmp_path / "e")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert err.startswith(f'error code={error} msg="')
        assert not (tmp_path / "e" / "run_config.json").exists()

    def test_eval_encodes_each_sentence_once_per_sweep(self, run_dir, tmp_path,
                                                       monkeypatch):
        # each side is encoded once, as a batch; the retrieval and the
        # alignment sweeps both read every layer from those states
        _, cfg, out = run_dir
        calls = []
        encode = align.encode

        def counting(ids, params):
            calls.append(len(ids))
            return encode(ids, params)
        monkeypatch.setattr(align, "encode", counting)
        assert main(["eval", "--config", cfg, "--checkpoint",
                     str(out / "ckpt_final"), "--out", str(tmp_path / "e")]) == 0
        n_pairs = TINY_OVERRIDES["eval"]["n_pairs"]
        assert calls == [n_pairs, n_pairs]   # one non-base language

    def test_eval_encodes_without_a_tape(self, run_dir, tmp_path, monkeypatch):
        _, cfg, out = run_dir
        states = []
        encode = align.encode

        def recording(ids, params):
            result = encode(ids, params)
            states.extend(result)
            return result
        monkeypatch.setattr(align, "encode", recording)
        assert main(["eval", "--config", cfg, "--checkpoint",
                     str(out / "ckpt_final"), "--out", str(tmp_path / "e")]) == 0
        assert states and not any(s.requires_grad for s in states)
