import copy
import math

import numpy as np
import pytest

from xrtd import model
from xrtd.cli import DEFAULT_CONFIG, _build_corpus
from xrtd.corpus import FIRST_CONTENT_ID
from xrtd.model import (ModelConfig, _clipped_offsets, attention_weights,
                        encode, gated_bias, init_model_pair, init_params,
                        mlm_logits, pair_configs, rtd_logits)
from xrtd.gradcheck import widened
from xrtd.tensor import Tensor, backward, zero_grads
from xrtd.trainer import Adam, OptimConfig, load_checkpoint, save_checkpoint


def small_config(**overrides):
    base = dict(num_layers=2, hidden_size=8, num_heads=2, ffn_size=16,
                vocab_size=20, max_rel_distance=4, init_range=0.02,
                role="discriminator")
    base.update(overrides)
    return ModelConfig(**base)


class TestConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            small_config(hidden_size=10, num_heads=4)

    def test_head_dim(self):
        assert small_config().head_dim == 4

    def test_generator_must_be_smaller(self):
        gen = small_config(num_layers=3, role="generator")
        disc = small_config(num_layers=3)
        with pytest.raises(ValueError):
            init_model_pair(gen, disc, seed=0)


class TestInit:
    def test_all_sampled_weights_in_range(self):
        params = init_params(small_config(), seed=0)
        for name, t in params.tensors.items():
            if name.endswith(".g"):  # norm gains start at 1, not sampled
                continue
            assert t.data.min() >= -0.02 - 1e-9, name
            assert t.data.max() <= 0.02 + 1e-9, name

    def test_biases_zero_and_gains_one(self):
        params = init_params(small_config(), seed=0)
        assert np.all(params["layer0.attn.bq"].data == 0)
        assert np.all(params["layer1.ffn.b2"].data == 0)
        assert np.all(params["final_ln.g"].data == 1)

    def test_rescaled_std_ratio(self):
        # >=1e4 entries per matrix so the empirical std is tight
        cfg = small_config(num_layers=3, hidden_size=100, num_heads=4,
                           ffn_size=104, vocab_size=50)
        params = init_params(cfg, seed=1)
        uniform_std = 0.02 / math.sqrt(3)
        for layer in range(3):
            factor = 1.0 / math.sqrt(2 * (layer + 1))
            for name in (f"layer{layer}.attn.wo", f"layer{layer}.ffn.w2"):
                ratio = params[name].data.std() / uniform_std
                assert ratio == pytest.approx(factor, rel=0.05), name

    def test_block2_ffn_output_std_value(self):
        cfg = small_config(num_layers=2, hidden_size=100, num_heads=4,
                           ffn_size=104, vocab_size=50)
        params = init_params(cfg, seed=2)
        # uniform std 0.02/sqrt(3), then divided by sqrt(4) at block 2
        assert params["layer1.ffn.w2"].data.std() == pytest.approx(0.005774, rel=0.05)

    def test_block1_rescale_factor(self):
        assert 1.0 / math.sqrt(2 * 1) == pytest.approx(1 / math.sqrt(2))

    def test_deterministic_for_seed(self):
        a = init_params(small_config(), seed=3)
        b = init_params(small_config(), seed=3)
        for name in a.tensors:
            assert np.array_equal(a[name].data, b[name].data)


def gate(d, q, u, v, w):
    """`gated_bias` on float64 tensors; returns the single bias value."""
    return gated_bias(*(Tensor(np.asarray(x, dtype=np.float64))
                        for x in (d, q, u, v, w))).data.item()


class TestGatedBias:
    def test_update_gate_one_gives_twice_d(self):
        # q.u -> +inf saturates the update gate at exactly 1.0
        assert gate(0.7, [1.0, 0.0], [1e4, 0.0], [0.0, 0.0], 1.0) == 2 * 0.7

    def test_both_gates_zero_gives_d(self):
        assert gate(-0.3, [1.0, 0.0], [-1e4, 0.0], [-1e4, 0.0], 5.0) == -0.3

    def test_mid_gates_give_1_75_d(self):
        # q.u = q.v = 0 -> both gates 0.5; with w = 1: d + d/2 + d/4
        r = gate(0.4, [1.0, 1.0], [0.0, 0.0], [0.0, 0.0], 1.0)
        assert r == pytest.approx(1.75 * 0.4, abs=1e-12)

    @pytest.mark.parametrize("d_value", [-1.0, 0.0, 0.3, 2.0])
    def test_gate_identities_hold_for_all_d(self, d_value):
        q = [1.0, 0.0]
        assert gate(d_value, q, [1e4, 0.0], [0.0, 0.0], 3.0) == 2 * d_value
        assert gate(d_value, q, [-1e4, 0.0], [-1e4, 0.0], 3.0) == d_value

    def test_offset_clipping_equalizes_far_keys(self):
        # table index of query i, key j: clip(i - j, -4, 4) + 4
        offs = _clipped_offsets(12, 4)
        assert offs[4, 0] == offs[9, 0] == offs[11, 2] == 8
        assert offs[0, 4] == offs[0, 9] == 0
        assert offs[5, 5] == 4

    def test_differentiable_wrt_all_parameters(self):
        d, q, u, v, w = (Tensor(np.asarray(x), requires_grad=True)
                         for x in (0.5, [0.4, 0.6], [0.2, -0.1],
                                   [0.3, 0.2], 0.8))
        backward(gated_bias(d, q, u, v, w))
        for t in (d, u, v, w, q):
            assert t.grad is not None


class TestAttention:
    def _hidden(self, params, ids):
        from xrtd.tensor import embedding
        return embedding(params["embed"], ids)

    def test_uniform_rows_when_scores_constant(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        # identical keys and zero bias -> every attention row is uniform
        params["layer0.attn.wk"].data[:] = 0
        params["layer0.attn.d_table"].data[:] = 0
        ids = np.array([[5, 6, 7, 8]])
        h = self._hidden(params, ids)
        key_mask = np.zeros((1, 1, 1, 4), dtype=np.float32)
        attn, _ = attention_weights(h, params, 0, key_mask)
        assert np.allclose(attn.data, 0.25, atol=1e-6)

    def test_rows_sum_to_one(self):
        params = init_params(small_config(), seed=1)
        ids = np.random.default_rng(0).integers(FIRST_CONTENT_ID, 20, size=(3, 6))
        h = self._hidden(params, ids)
        key_mask = np.zeros((3, 1, 1, 6), dtype=np.float32)
        attn, _ = attention_weights(h, params, 0, key_mask)
        assert np.allclose(attn.data.sum(axis=-1), 1.0, atol=1e-6)
        assert attn.data.min() >= 0

    def test_three_token_single_head_hand_oracle(self):
        cfg = ModelConfig(num_layers=1, hidden_size=2, num_heads=1,
                          ffn_size=4, vocab_size=10, max_rel_distance=2,
                          init_range=0.02, role="discriminator")
        params = init_params(cfg, seed=0)
        rng = np.random.default_rng(42)
        for name in ("wq", "wk", "wv"):
            params[f"layer0.attn.{name}"].data = rng.normal(size=(2, 2))
            params[f"layer0.attn.b{name[1]}"].data = np.zeros(2)
        params["layer0.attn.d_table"].data = rng.normal(size=(5, 1))
        params["layer0.attn.gate_u"].data = rng.normal(size=(1, 2))
        params["layer0.attn.gate_v"].data = rng.normal(size=(1, 2))
        params["layer0.attn.gate_w"].data = np.array([0.9])
        h_np = rng.normal(size=(1, 3, 2))
        attn, v = attention_weights(Tensor(h_np), params, 0,
                                    np.zeros((1, 1, 1, 3)))

        # independent recomputation with plain numpy
        q = h_np[0] @ params["layer0.attn.wq"].data
        k = h_np[0] @ params["layer0.attn.wk"].data
        scores = q @ k.T / math.sqrt(2)
        sig = lambda x: 1 / (1 + math.exp(-x))
        for i in range(3):
            gu = sig(q[i] @ params["layer0.attn.gate_u"].data[0])
            gr = sig(q[i] @ params["layer0.attn.gate_v"].data[0])
            for j in range(3):
                d = params["layer0.attn.d_table"].data[
                    np.clip(i - j, -2, 2) + 2, 0]
                scores[i, j] += d + gu * d + (1 - gu) * (0.9 * gr * d)
        expected = np.exp(scores - scores.max(axis=1, keepdims=True))
        expected /= expected.sum(axis=1, keepdims=True)
        assert np.allclose(attn.data[0, 0], expected, atol=1e-6)

    def test_no_dead_gate_parameters(self):
        cfg = small_config()
        params = init_params(cfg, seed=3)
        ids = np.random.default_rng(1).integers(FIRST_CONTENT_ID, 20, size=(2, 5))
        zero_grads(params.tensors.values())
        loss = encode(ids, params)[-1].sum()
        backward(loss)
        for layer in range(cfg.num_layers):
            for name in ("d_table", "gate_u", "gate_v", "gate_w"):
                grad = params[f"layer{layer}.attn.{name}"].grad
                assert grad is not None
                assert np.any(grad != 0), f"layer{layer}.{name} has zero gradient"


class TestEncode:
    def test_layer_count_includes_embedding_layer(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        states = encode(np.array([[5, 6]]), params)
        assert len(states) == cfg.num_layers + 1

    def test_single_token_outputs_finite(self):
        params = init_params(small_config(), seed=0)
        for state in encode(np.array([[7]]), params):
            assert np.all(np.isfinite(state.data))

    def test_out_of_range_id_rejected(self):
        params = init_params(small_config(), seed=0)
        with pytest.raises(ValueError):
            encode(np.array([[25]]), params)

    def test_batch_permutation_equivariance(self):
        params = init_params(small_config(), seed=0)
        ids = np.random.default_rng(2).integers(FIRST_CONTENT_ID, 20, size=(3, 4))
        out = encode(ids, params)[-1].data
        perm = [2, 0, 1]
        out_perm = encode(ids[perm], params)[-1].data
        assert np.allclose(out[perm], out_perm, atol=1e-6)

    def test_padding_invariance(self):
        params = init_params(small_config(), seed=0)
        ids = np.array([[5, 6, 7, 0, 0]])
        longer = np.array([[5, 6, 7, 0, 0, 0, 0, 0, 0, 0]])
        short_out = encode(ids, params)[-1].data[0, :3]
        long_out = encode(longer, params)[-1].data[0, :3]
        assert np.allclose(short_out, long_out, atol=1e-5)

    def test_state_dtypes_follow_the_parameters(self):
        # numpy 1.x and 2.x promote float32 layers 1+ differently; layer 0
        # and a float64 pair compute in their parameters' type on both
        pair = init_model_pair(small_config(num_layers=1, role="generator"),
                               small_config(), seed=0)
        ids = np.array([[5, 6, 7, 0], [8, 9, 0, 0]])
        for params in (pair.generator, pair.discriminator):
            assert encode(ids, params)[0].dtype == np.float32
        wide = widened(pair)
        for params in (wide.generator, wide.discriminator):
            assert [s.dtype for s in encode(ids, params)] == \
                [np.float64] * (params.config.num_layers + 1)


class TestHeads:
    def test_mlm_logit_shape(self):
        cfg = small_config(role="generator")
        params = init_params(cfg, seed=0)
        h = encode(np.array([[5, 6, 7]]), params)[-1]
        assert mlm_logits(h, params).shape == (1, 3, cfg.vocab_size)

    def test_rtd_logit_shape(self):
        params = init_params(small_config(), seed=0)
        h = encode(np.array([[5, 6, 7]]), params)[-1]
        assert rtd_logits(h, params).shape == (1, 3)

    def test_shared_embeddings_are_one_object(self):
        gen = small_config(num_layers=1, role="generator")
        disc = small_config(num_layers=2)
        pair = init_model_pair(gen, disc, seed=0)
        assert pair.generator["embed"] is pair.discriminator["embed"]
        named = pair.all_parameters()
        assert "gen.embed" not in named
        assert "disc.embed" in named


class TestSerialization:
    """Parameters are saved and loaded only as part of a training checkpoint."""

    def checkpoint(self, tmp_path):
        config = copy.deepcopy(DEFAULT_CONFIG)
        config["model"].update(hidden_size=8, num_heads=2, gen_layers=1,
                               disc_layers=2, ffn_size=16)
        config["data"]["n_sentences"] = 5
        vocab_size = len(_build_corpus(config).vocab)
        pair = init_model_pair(*pair_configs(config["model"], vocab_size), seed=5)
        optim = Adam(pair.all_parameters(), OptimConfig(**config["optim"]))
        path = str(tmp_path / "ck")
        save_checkpoint(path, pair, optim, np.random.default_rng(0), 0,
                        {"config": config, "use_trtd": True})
        return pair, path

    def test_save_load_roundtrip(self, tmp_path):
        pair, path = self.checkpoint(tmp_path)
        loaded = load_checkpoint(path)[0].all_parameters()
        for name, t in pair.all_parameters().items():
            assert np.array_equal(t.data, loaded[name].data), name

    def test_load_builds_no_random_model(self, tmp_path, monkeypatch):
        pair, path = self.checkpoint(tmp_path)
        calls = []
        init = model.init_params

        def counting(*args, **kwargs):
            calls.append(args)
            return init(*args, **kwargs)
        monkeypatch.setattr(model, "init_params", counting)
        loaded = load_checkpoint(path)[0]
        assert calls == []
        # Adam's moments and norm sum follow this order, so resume needs it
        want, got = pair.all_parameters(), loaded.all_parameters()
        assert list(got) == list(want)
        assert all(got[k].data.dtype == t.data.dtype and got[k].requires_grad
                   for k, t in want.items())
        assert loaded.generator["embed"] is loaded.discriminator["embed"]
