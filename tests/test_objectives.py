import math
import threading

import numpy as np
import pytest

from xrtd.corpus import FIRST_CONTENT_ID
from xrtd.gradcheck import widened
from xrtd.model import ModelConfig, encode, init_model_pair, init_params, mlm_logits
from xrtd.objectives import (BOS, EOS, MASK, PAD, SEP, SPECIAL_IDS,
                             CorruptedBatch, MaskedBatch, build_masked_batch,
                             discriminator_loss_rtd,
                             generator_loss_mlm, generator_loss_tlm,
                             joint_loss, sample_corruption,
                             select_mask_positions, wrap_mono, wrap_pair)
from xrtd.tensor import Node, backward, gather_rows, no_grad, zero_grads


def tiny_pair(vocab_size=100, seed=0):
    gen = ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                      vocab_size=vocab_size, max_rel_distance=4,
                      init_range=0.02, role="generator")
    disc = ModelConfig(num_layers=2, hidden_size=8, num_heads=2, ffn_size=16,
                       vocab_size=vocab_size, max_rel_distance=4,
                       init_range=0.02, role="discriminator")
    return init_model_pair(gen, disc, seed=seed)


def random_mono_batch(rng, vocab_size=100, n_seqs=4, ratio=0.15):
    seqs = [wrap_mono([int(rng.integers(FIRST_CONTENT_ID, vocab_size))
                       for _ in range(int(rng.integers(4, 12)))])
            for _ in range(n_seqs)]
    return build_masked_batch(seqs, ratio, rng)


def random_pair_batch(rng, vocab_size=100, n_seqs=4, ratio=0.15):
    wrapped = [wrap_pair([int(rng.integers(FIRST_CONTENT_ID, vocab_size))
                          for _ in range(int(rng.integers(4, 9)))],
                         [int(rng.integers(FIRST_CONTENT_ID, vocab_size))
                          for _ in range(int(rng.integers(4, 9)))])
               for _ in range(n_seqs)]
    return build_masked_batch(wrapped, ratio, rng)


class TestMaskSelection:
    def test_exact_count_at_twenty_eligible(self):
        rng = np.random.default_rng(0)
        ids = wrap_mono(list(range(5, 25)))
        assert len(select_mask_positions(ids, 0.15, rng)) == 3

    def test_floor_of_one(self):
        rng = np.random.default_rng(1)
        assert len(select_mask_positions(wrap_mono([7, 8]), 0.15, rng)) == 1

    def test_specials_never_selected(self):
        rng = np.random.default_rng(2)
        ids = wrap_mono([9] * 10)
        for _ in range(200):
            pos = select_mask_positions(ids, 0.5, rng)
            assert all(ids[p] not in SPECIAL_IDS for p in pos)

    def test_ratio_one_selects_every_content_position_in_the_span(self):
        rng = np.random.default_rng(6)
        ids = wrap_pair([7, 8, 9], [10, 11])
        f_start = ids.index(SEP) + 1
        for lo, hi in ((0, f_start), (f_start, None), (0, None)):
            span = range(lo, len(ids) if hi is None else hi)
            pos = select_mask_positions(ids, 1.0, rng, lo, hi)
            assert pos.dtype == np.int64
            assert pos.tolist() == [p for p in span if ids[p] not in SPECIAL_IDS]

    def test_no_eligible_positions_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            select_mask_positions([BOS, EOS], 0.15, rng)

    def test_selection_is_uniform(self):
        # 20 eligible tokens at ratio 0.15 pick exactly 3, so a uniform
        # sampler hits each position with frequency 3/20 = 0.15
        rng = np.random.default_rng(4)
        ids = wrap_mono(list(range(5, 25)))
        counts = np.zeros(len(ids))
        draws = 100_000
        for _ in range(draws):
            counts[select_mask_positions(ids, 0.15, rng)] += 1
        freq = counts / draws
        assert freq[0] == 0.0 and freq[-1] == 0.0
        assert np.all(np.abs(freq[1:-1] - 0.15) < 0.01)

    def test_masked_differs_exactly_on_positions(self):
        rng = np.random.default_rng(5)
        batch = random_mono_batch(rng)
        for b, pos in enumerate(batch.mask_positions):
            diff = np.nonzero(batch.masked[b] != batch.original[b])[0]
            assert np.array_equal(np.sort(diff), pos)
            assert np.all(batch.masked[b, pos] == MASK)

    def test_pair_masks_cover_both_segments(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            batch = random_pair_batch(rng)
            for b, pos in enumerate(batch.mask_positions):
                f_start = list(batch.original[b]).index(SEP) + 1
                assert np.any(pos < f_start) and np.any(pos >= f_start)


class TestGeneratorLosses:
    def test_untrained_mlm_near_log_vocab(self):
        models = tiny_pair(vocab_size=100)
        rng = np.random.default_rng(7)
        batch = random_mono_batch(rng, n_seqs=16)
        loss, _ = generator_loss_mlm(batch, models.generator)
        n = sum(len(p) for p in batch.mask_positions)
        assert loss.item() / n == pytest.approx(math.log(100), abs=0.3)

    def test_single_mask_matches_hand_log_softmax(self):
        models = tiny_pair(vocab_size=30)
        ids = wrap_mono([7, 9, 11, 13])
        batch = MaskedBatch(np.array([ids]), np.array([ids]),
                            [np.array([2])])
        batch.masked[0, 2] = MASK
        loss, logits = generator_loss_mlm(batch, models.generator)
        states = encode(batch.masked, models.generator)
        picked = gather_rows(states[-1], np.array([0]), np.array([2]))
        row = mlm_logits(picked, models.generator).data[0]
        expected = math.log(np.exp(row - row.max()).sum()) + row.max() - row[9]
        assert loss.item() == pytest.approx(expected, abs=1e-6)
        assert logits.shape == (1, 30)

    def test_loss_ignores_targets_outside_masks(self):
        models = tiny_pair(vocab_size=50)
        ids = np.array([wrap_mono([6, 7, 8, 9])])
        masked = ids.copy()
        masked[0, 2] = MASK
        a = MaskedBatch(ids.copy(), masked, [np.array([2])])
        altered = ids.copy()
        altered[0, 3] = 42   # non-masked target changes, input stays masked
        b = MaskedBatch(altered, masked, [np.array([2])])
        la, _ = generator_loss_mlm(a, models.generator)
        lb, _ = generator_loss_mlm(b, models.generator)
        assert la.item() == lb.item()

    def test_tlm_requires_boundary_and_mlm_rejects_it(self):
        models = tiny_pair()
        rng = np.random.default_rng(8)
        mono = random_mono_batch(rng)
        pair = random_pair_batch(rng)
        with pytest.raises(ValueError):
            generator_loss_tlm(mono, models.generator)
        with pytest.raises(ValueError):
            generator_loss_mlm(pair, models.generator)

    def test_tlm_two_masks_match_manual_log_softmax_sums(self):
        models = tiny_pair(vocab_size=40)
        ids = wrap_pair([10, 11, 12], [20, 21, 22])
        positions = np.array([2, ids.index(SEP) + 2])
        masked = np.array([ids])
        masked[0, positions] = MASK
        batch = MaskedBatch(np.array([ids]), masked, [positions])
        loss, _ = generator_loss_tlm(batch, models.generator)
        states = encode(masked, models.generator)
        expected = 0.0
        for p in positions:
            picked = gather_rows(states[-1], np.array([0]), np.array([p]))
            row = mlm_logits(picked, models.generator).data[0]
            shifted = row - row.max()
            expected += (math.log(np.exp(shifted).sum()) + row.max()
                         - row[ids[p]])
        assert loss.item() == pytest.approx(expected, abs=1e-6)

    def test_untrained_tlm_near_log_vocab(self):
        models = tiny_pair(vocab_size=100)
        rng = np.random.default_rng(9)
        batch = random_pair_batch(rng, n_seqs=16)
        loss, _ = generator_loss_tlm(batch, models.generator)
        n = sum(len(p) for p in batch.mask_positions)
        assert loss.item() / n == pytest.approx(math.log(100), abs=0.3)


class TestCorruptionSampling:
    def test_one_hot_logits_keep_original(self):
        rng = np.random.default_rng(10)
        batch = random_mono_batch(rng, vocab_size=20)
        b_idx = np.concatenate([np.full(len(p), i)
                                for i, p in enumerate(batch.mask_positions)])
        p_idx = np.concatenate(batch.mask_positions)
        logits = np.full((len(b_idx), 20), -1e4)
        logits[np.arange(len(b_idx)), batch.original[b_idx, p_idx]] = 1e4
        corrupt = sample_corruption(batch, logits, rng)
        assert np.array_equal(corrupt.corrupt, batch.original)
        assert corrupt.labels.sum() == 0

    def test_positions_outside_masks_untouched(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            batch = random_mono_batch(rng, vocab_size=30)
            logits = rng.normal(size=(sum(len(p) for p in batch.mask_positions), 30))
            corrupt = sample_corruption(batch, logits, rng)
            diff = corrupt.corrupt != batch.original
            for b, pos in enumerate(batch.mask_positions):
                outside = np.setdiff1d(np.arange(diff.shape[1]), pos)
                assert not diff[b, outside].any()

    def test_sampling_frequencies_match_softmax(self):
        rng = np.random.default_rng(12)
        row = np.array([1.0, 0.0, -1.0, 2.0])
        probs = np.exp(row) / np.exp(row).sum()
        # one masked position repeated across a wide batch: 10 calls of
        # 10,000 sequences give 1e5 independent categorical draws
        n_seqs, n_calls = 10_000, 10
        ids = np.tile(wrap_mono([3]), (n_seqs, 1))   # placeholder content
        ids[:, 1] = 5 % 4  # keep ids in-vocab for the 4-word toy table
        original = np.tile([BOS, 0, EOS], (n_seqs, 1))
        masked = original.copy()
        masked[:, 1] = MASK
        batch = MaskedBatch(original, masked,
                            [np.array([1]) for _ in range(n_seqs)])
        logits = np.tile(row, (n_seqs, 1))
        counts = np.zeros(4)
        for _ in range(n_calls):
            corrupt = sample_corruption(batch, logits, rng)
            sampled = corrupt.corrupt[:, 1]
            counts += np.bincount(sampled, minlength=4)
        freq = counts / (n_seqs * n_calls)
        assert np.all(np.abs(freq - probs) < 0.01)

    def test_label_soundness_and_locality(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            batch = random_mono_batch(rng, vocab_size=12)
            logits = rng.normal(size=(sum(len(p) for p in batch.mask_positions), 12))
            corrupt = sample_corruption(batch, logits, rng)
            rebuilt = (corrupt.corrupt != corrupt.original).astype(np.int64)
            assert np.array_equal(rebuilt, corrupt.labels)
            n_masked = sum(len(p) for p in batch.mask_positions)
            assert corrupt.labels.sum() <= n_masked
            specials = np.isin(corrupt.original,
                               [PAD, MASK, BOS, EOS, SEP])
            assert not (corrupt.labels[specials] != 0).any()


class TestDiscriminatorLoss:
    def test_untrained_near_ln2(self):
        models = tiny_pair()
        rng = np.random.default_rng(16)
        batch = random_mono_batch(rng, n_seqs=16)
        _, logits = generator_loss_mlm(batch, models.generator)
        corrupt = sample_corruption(batch, logits, rng)
        loss, _, count = discriminator_loss_rtd(corrupt, models.discriminator)
        assert loss.item() / count == pytest.approx(math.log(2), abs=0.05)

    def test_perfect_confidence_on_clean_batch(self):
        models = tiny_pair()
        models.discriminator["rtd_w"].data[:] = 0.0
        models.discriminator["rtd_b"].data[:] = -20.0
        rng = np.random.default_rng(17)
        batch = random_mono_batch(rng)
        clean = CorruptedBatch(batch.original, batch.original.copy(),
                               np.zeros_like(batch.original))
        loss, acc, _ = discriminator_loss_rtd(clean, models.discriminator)
        assert loss.item() < 1e-6
        assert acc == 1.0

    def test_matches_manual_bce_sum(self):
        models = tiny_pair(vocab_size=20)
        ids = np.array([wrap_mono([6, 7, 8, 9, 10])])
        corrupt_ids = ids.copy()
        corrupt_ids[0, 2] = 15
        labels = np.zeros_like(ids)
        labels[0, 2] = 1
        corrupt = CorruptedBatch(ids, corrupt_ids, labels)
        loss, _, count = discriminator_loss_rtd(corrupt, models.discriminator)
        assert count == 5
        from xrtd.model import rtd_logits
        states = encode(corrupt_ids, models.discriminator)
        picked = gather_rows(states[-1], np.zeros(5, dtype=np.int64),
                             np.arange(1, 6))
        x = rtd_logits(picked, models.discriminator).data
        z = labels[0, 1:6].astype(float)
        manual = (np.maximum(x, 0) - x * z + np.log1p(np.exp(-np.abs(x)))).sum()
        assert loss.item() == pytest.approx(manual, abs=1e-8)

    def test_reserved_replacements_stay_attended_and_scored(self, monkeypatch):
        # the generator may sample PAD or another reserved id; the position
        # is still a content token of the original, so the discriminator
        # attends to it, scores it and labels it replaced
        models = tiny_pair(vocab_size=20)
        original = np.array([wrap_mono([6, 7, 8, 9, 10]) + [PAD],
                             wrap_mono([11, 12, 13, 14, 15, 16])])
        masked = original.copy()
        masked[0, [2, 4]] = MASK
        batch = MaskedBatch(original, masked,
                            [np.array([2, 4]), np.array([], dtype=np.int64)])
        logits = np.full((2, 20), -100.0)
        logits[0, PAD] = logits[1, SEP] = 100.0
        corrupt = sample_corruption(batch, logits, np.random.default_rng(18))
        assert corrupt.corrupt[0, 2] == PAD and corrupt.corrupt[0, 4] == SEP

        seen = {}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                seen[name] = (args, fn(*args, **kwargs))
                return seen[name][1]
            monkeypatch.setattr(f"xrtd.objectives.{name}", wrapped)
        spy("encode", encode)
        spy("gather_rows", gather_rows)
        _, _, count = discriminator_loss_rtd(corrupt, models.discriminator)

        attended = encode(corrupt.corrupt, models.discriminator,
                          pad_mask=original != PAD)
        unattended = encode(corrupt.corrupt, models.discriminator)
        # the setup is one where the two masks give different states
        assert not np.allclose(attended[-1].data[0, :6], unattended[-1].data[0, :6])
        assert np.array_equal(seen["encode"][1][-1].data, attended[-1].data)
        _, b_idx, p_idx = seen["gather_rows"][0]
        scored = set(zip(b_idx.tolist(), p_idx.tolist()))
        assert {(0, 2), (0, 4)} <= scored
        assert count == len(scored) == 11     # every content token
        assert corrupt.labels[0, 2] == corrupt.labels[0, 4] == 1


class TestJointLoss:
    def make_batches(self, seed):
        rng = np.random.default_rng(seed)
        return random_mono_batch(rng), random_pair_batch(rng), rng

    def test_lambda_zero_is_generator_only(self):
        models = tiny_pair()
        mono, pair, rng = self.make_batches(19)
        total, report = joint_loss(mono, pair, models, 0.0,
                                   np.random.default_rng(0))
        mlm, _ = generator_loss_mlm(mono, models.generator)
        tlm, _ = generator_loss_tlm(pair, models.generator)
        assert total.item() == mlm.item() + tlm.item()

    def test_total_equals_sum_of_reported_terms(self):
        models = tiny_pair()
        mono, pair, _ = self.make_batches(20)
        total, r = joint_loss(mono, pair, models, 50.0,
                              np.random.default_rng(1))
        recon = r["mlm"] + r["tlm"] + 50.0 * (r["mrtd"] + r["trtd"])
        assert total.item() == pytest.approx(recon, abs=1e-6)
        assert r["total"] == total.item()

    def test_doubling_lambda_adds_discriminator_terms(self):
        models = tiny_pair()
        mono, pair, _ = self.make_batches(21)
        t1, r1 = joint_loss(mono, pair, models, 3.0, np.random.default_rng(2))
        t2, r2 = joint_loss(mono, pair, models, 6.0, np.random.default_rng(2))
        assert r1["mrtd"] == r2["mrtd"] and r1["trtd"] == r2["trtd"]
        assert t2.item() - t1.item() == pytest.approx(
            3.0 * (r1["mrtd"] + r1["trtd"]), rel=1e-9)

    def test_negative_lambda_rejected(self):
        models = tiny_pair()
        mono, pair, _ = self.make_batches(22)
        with pytest.raises(ValueError):
            joint_loss(mono, pair, models, -1.0, np.random.default_rng(0))

    def test_no_trtd_drops_pair_terms(self):
        models = tiny_pair()
        mono, _, _ = self.make_batches(23)
        total, r = joint_loss(mono, None, models, 50.0,
                              np.random.default_rng(3))
        assert r["tlm"] == 0.0 and r["trtd"] == 0.0
        assert total.item() == pytest.approx(r["mlm"] + 50.0 * r["mrtd"],
                                             rel=1e-9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_equal_the_sequential_chains_bit_for_bit(self, dtype):
        # the reference runs the two chains one after the other on one
        # thread, each corruption drawing its noise when it is needed
        models = tiny_pair() if dtype is np.float32 else widened(tiny_pair())
        mono, pair, _ = self.make_batches(25)
        params = models.all_parameters()
        total, report = joint_loss(mono, pair, models, 7.0,
                                   np.random.default_rng(4))
        backward(total)
        grads = {name: p.grad for name, p in params.items()}
        zero_grads(params.values())

        rng = np.random.default_rng(4)
        mlm, logits = generator_loss_mlm(mono, models.generator)
        mrtd, _, _ = discriminator_loss_rtd(
            sample_corruption(mono, logits, rng), models.discriminator)
        tlm, logits = generator_loss_tlm(pair, models.generator)
        trtd, _, _ = discriminator_loss_rtd(
            sample_corruption(pair, logits, rng), models.discriminator)
        reference = mlm + 7.0 * mrtd + tlm + 7.0 * trtd
        backward(reference)
        assert total.data.dtype == reference.data.dtype
        assert total.item() == reference.item() == report["total"]
        assert [report[k] for k in ("mlm", "mrtd", "tlm", "trtd")] == \
            [t.item() for t in (mlm, mrtd, tlm, trtd)]
        for name, p in params.items():
            assert p.grad.dtype == dtype, name
            assert np.array_equal(grads[name], p.grad), name

    def test_failing_pair_chain_raises_here_and_ends_its_thread(self):
        models = tiny_pair()
        mono, _, _ = self.make_batches(26)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="translation pairs"):
            joint_loss(mono, mono, models, 1.0, np.random.default_rng(0))
        assert threading.active_count() == threads

    def test_nodes_are_built_on_both_threads_and_none_under_no_grad(
            self, monkeypatch):
        # heldout_disc_accuracy runs joint_loss under no_grad
        models = tiny_pair()
        mono, pair, _ = self.make_batches(27)
        builders = []
        init = Node.__init__

        def recording_init(self, *args):
            builders.append(threading.current_thread())
            init(self, *args)
        monkeypatch.setattr(Node, "__init__", recording_init)
        joint_loss(mono, pair, models, 1.0, np.random.default_rng(0))
        assert len(set(builders)) == 2
        builders.clear()
        with no_grad():
            joint_loss(mono, pair, models, 1.0, np.random.default_rng(0))
        assert builders == []

    def test_gradient_firewall(self):
        # discriminator loss alone must not reach generator-only weights
        models = tiny_pair()
        rng = np.random.default_rng(24)
        mono = random_mono_batch(rng)
        _, logits = generator_loss_mlm(mono, models.generator)
        corrupt = sample_corruption(mono, logits, rng)
        zero_grads(models.all_parameters().values())
        loss, _, _ = discriminator_loss_rtd(corrupt, models.discriminator)
        backward(loss)
        for name, p in models.all_parameters().items():
            if name.startswith("gen."):
                assert p.grad is None or not np.any(p.grad), name
            if name == "disc.layer0.attn.wq":
                assert p.grad is not None and np.any(p.grad)


class TestMemorization:
    def test_mlm_loss_halves_on_tiny_corpus(self):
        # 500 plain gradient steps on 100 fixed sentences must cut the
        # per-token MLM loss by at least half
        from xrtd.corpus import LanguageSpec, synth_corpus
        from xrtd.cli import DEFAULT_CONFIG
        from xrtd.trainer import Adam, OptimConfig

        rng = np.random.default_rng(25)
        specs = [LanguageSpec("en", "base", 0), LanguageSpec("pv", "permuted", 1)]
        corpus = synth_corpus(specs, 100, rng)
        sentences = [wrap_mono(s) for s in corpus.mono["en"][:100]]
        cfg = ModelConfig(num_layers=2, hidden_size=32, num_heads=2,
                          ffn_size=64, vocab_size=len(corpus.vocab),
                          max_rel_distance=4, init_range=0.02,
                          role="generator")
        gen = init_params(cfg, seed=0)
        optim = Adam(gen.tensors, OptimConfig(**{**DEFAULT_CONFIG["optim"],
                                                 "weight_decay": 0.0}))

        losses = []
        for step in range(500):
            idx = rng.choice(100, size=16, replace=False)
            batch = build_masked_batch([sentences[i] for i in idx], 0.15,
                                       rng)
            zero_grads(gen.tensors.values())
            loss, _ = generator_loss_mlm(batch, gen)
            backward(loss)
            optim.step(7e-3)
            losses.append(loss.item() / sum(len(p) for p in batch.mask_positions))
        initial = float(np.mean(losses[:10]))
        final = float(np.mean(losses[-20:]))
        assert final < 0.5 * initial

