import itertools

import numpy as np
import pytest

from xrtd.align import (AlignmentSet, aer, content_layers, layer_sweep_aer,
                        layer_sweep_retrieval, mutual_argmax_pairs, ot_align,
                        pooled_layers, retrieve_acc1, sinkhorn_plan, sinkhorn_plans)
from xrtd.corpus import FIRST_CONTENT_ID
from xrtd.model import ModelConfig, encode, init_params
from xrtd.objectives import wrap_mono


def small_params(vocab_size=40, layers=2, seed=0):
    cfg = ModelConfig(num_layers=layers, hidden_size=16, num_heads=2,
                      ffn_size=32, vocab_size=vocab_size, max_rel_distance=4,
                      init_range=0.02, role="discriminator")
    return init_params(cfg, seed=seed)


def pooled(seqs, params):
    return pooled_layers(content_layers(seqs, params))


class TestContentStates:
    def test_batch_states_equal_single_encodes_bit_for_bit(self):
        # sentences of one length need no padding, so the batch computes
        # each sentence's states exactly as an encode of it alone does
        params = small_params(vocab_size=60, layers=3, seed=2)
        rng = np.random.default_rng(10)
        seqs = [wrap_mono(list(rng.integers(FIRST_CONTENT_ID, 60, size=10)))
                for _ in range(7)]
        batched = content_layers(seqs, params)
        assert len(batched) == 4
        for i, ids in enumerate(seqs):
            alone = encode(np.array([ids]), params)
            for layer, states in enumerate(alone):
                assert np.array_equal(batched[layer][i], states.data[0, 1:-1])

    def test_keeps_content_tokens_only(self):
        params = small_params()
        states = content_layers([wrap_mono([7, 9, 11]), wrap_mono([6])], params)
        assert [s.shape for s in states[1]] == [(3, 16), (1, 16)]


class TestSentenceEmbedding:
    def test_single_token_is_its_hidden_state(self):
        params = small_params()
        ids = wrap_mono([7])
        emb = pooled([ids], params)[1][0]
        states = encode(np.array([ids]), params)[1].data
        assert np.allclose(emb, states[0, 1], atol=1e-7)

    def test_invariant_to_trailing_padding(self):
        params = small_params()
        a = wrap_mono([7, 9, 11])
        b = wrap_mono([6, 8])
        batched = pooled([a, b], params)[2]
        alone = pooled([b], params)[2][0]
        assert np.allclose(batched[1], alone, atol=1e-5)

    def test_hand_averaged_three_tokens(self):
        params = small_params()
        ids = wrap_mono([7, 9, 11])
        states = encode(np.array([ids]), params)[1].data
        manual = states[0, 1:4].mean(axis=0)
        assert np.allclose(pooled([ids], params)[1][0], manual, atol=1e-6)

    def test_mean_taken_in_the_states_dtype_then_widened(self):
        states = np.random.default_rng(0).normal(size=(10, 4)).astype(np.float32)
        means = pooled_layers([[states]])[0]
        assert means.dtype == np.float64
        assert np.array_equal(means[0], states.mean(axis=0))
        assert not np.array_equal(means[0], states.astype(np.float64).mean(axis=0))

    def test_all_special_sentence_rejected(self):
        params = small_params()
        with pytest.raises(ValueError, match="sentence 1"):
            content_layers([wrap_mono([7]), [2, 3]], params)


class TestRetrieval:
    def test_self_retrieval_is_perfect(self):
        params = small_params()
        sents = [wrap_mono([5 + i, 6 + i]) for i in range(8)]
        means = pooled(sents, params)[1]
        acc, excluded = retrieve_acc1(means, means)
        assert acc == 1.0 and excluded == 0

    def test_constructed_fixture_seven_of_ten(self):
        rng = np.random.default_rng(0)
        tgt = np.eye(10) + 0.01 * rng.normal(size=(10, 10))
        src = tgt.copy()
        for i in (2, 5, 8):   # point three sources at the wrong target
            src[i] = tgt[(i + 1) % 10]
        acc, _ = retrieve_acc1(src, tgt)
        assert acc == pytest.approx(0.7)

    def test_untrained_model_is_near_chance(self):
        params = small_params(vocab_size=300, seed=3)
        rng = np.random.default_rng(1)
        src = [wrap_mono(list(rng.integers(FIRST_CONTENT_ID, 300, size=6)))
               for _ in range(100)]
        tgt = [wrap_mono(list(rng.integers(FIRST_CONTENT_ID, 300, size=6)))
               for _ in range(100)]
        acc, _ = retrieve_acc1(pooled(src, params)[1], pooled(tgt, params)[1])
        assert acc < 0.15

    def test_scaling_invariance(self):
        rng = np.random.default_rng(2)
        src = rng.normal(size=(12, 6))
        tgt = rng.normal(size=(12, 6))
        base, _ = retrieve_acc1(src, tgt)
        scaled, _ = retrieve_acc1(src * 37.0, tgt * 0.003)
        assert base == scaled

    def test_zero_norm_rows_excluded_with_count(self):
        src = np.eye(4)
        tgt = np.eye(4)
        src[2] = 0.0
        acc, excluded = retrieve_acc1(src, tgt)
        assert excluded == 1
        assert acc == 1.0   # remaining three all retrieve correctly

    def test_task_validation(self):
        params = small_params()
        one = content_layers([[2, 5, 3]], params)
        two = content_layers([[2, 5, 3], [2, 6, 3]], params)
        with pytest.raises(ValueError, match="counts differ"):
            layer_sweep_retrieval(one, two)


class TestSinkhorn:
    def test_identical_states_give_identity_alignment(self):
        rng = np.random.default_rng(3)
        states = rng.normal(size=(5, 8))
        pairs, plan, converged = ot_align(states, states.copy(), eps=0.1,
                                          iters=2000)
        assert converged
        assert pairs == {(i, i) for i in range(5)}

    def test_marginals_within_tolerance(self):
        rng = np.random.default_rng(4)
        cost = rng.random((6, 9))
        plan, converged = sinkhorn_plan(cost, eps=0.1, iters=500, tol=1e-7)
        assert converged
        assert np.abs(plan.sum(axis=1) - 1 / 6).max() < 1e-4
        assert np.abs(plan.sum(axis=0) - 1 / 9).max() < 1e-4
        assert np.all(plan >= 0)

    def test_large_epsilon_flattens_plan(self):
        rng = np.random.default_rng(5)
        cost = rng.random((5, 5))
        sharp, _ = sinkhorn_plan(cost, eps=0.05, iters=500)
        flat, _ = sinkhorn_plan(cost, eps=50.0, iters=500)
        uniform = np.full((5, 5), 1 / 25)
        assert np.abs(flat - uniform).max() < np.abs(sharp - uniform).max()
        assert np.abs(flat - uniform).max() < 1e-3

    def test_matches_exact_four_by_four_assignment(self):
        # the unregularized optimum over uniform marginals is a permutation
        # matrix; enumerate all 24 of them for the exact answer
        rng = np.random.default_rng(6)
        for _ in range(10):
            e = rng.normal(size=(4, 6))
            f = rng.normal(size=(4, 6))
            e_unit = e / np.linalg.norm(e, axis=1, keepdims=True)
            f_unit = f / np.linalg.norm(f, axis=1, keepdims=True)
            cost = 1.0 - e_unit @ f_unit.T
            best = min(itertools.permutations(range(4)),
                       key=lambda p: sum(cost[i, p[i]] for i in range(4)))
            second = sorted(sum(cost[i, p[i]] for i in range(4))
                            for p in itertools.permutations(range(4)))[1]
            best_cost = sum(cost[i, best[i]] for i in range(4))
            if second - best_cost < 0.05:
                continue   # near-ties may legitimately differ under blur
            # convergence flag not asserted: at small eps the scaling loop
            # may stop shy of tol while the argmax structure is long settled
            pairs, _, _ = ot_align(e, f, eps=0.02, iters=20000)
            assert pairs == {(i, best[i]) for i in range(4)}

    def test_stack_matches_one_at_a_time_bit_for_bit(self):
        # one cost at growing scales: the zero cost converges at iteration 1,
        # the others at 3, 5, 11 and 25, and the largest not within 60
        base = np.random.default_rng(11).random((5, 7))
        costs = np.stack([scale * base for scale in (0.5, 0.0, 2.0, 0.05, 1.0, 0.2)])
        first = [next((k for k in range(1, 61) if sinkhorn_plan(c, 0.1, k)[1]), None)
                 for c in costs]
        assert first == [11, 1, None, 3, 25, 5]
        plans, converged = sinkhorn_plans(costs, eps=0.1, iters=60)
        assert converged.tolist() == [True, True, False, True, True, True]
        for cost, plan, flag in zip(costs, plans, converged):
            alone, alone_flag = sinkhorn_plan(cost, eps=0.1, iters=60)
            assert np.array_equal(plan, alone) and flag == alone_flag

    def test_plan_of_a_stack_reports_whether_every_member_converged(self):
        base = np.random.default_rng(11).random((5, 7))
        costs = np.stack([0.5 * base, 2.0 * base])
        plans, converged = sinkhorn_plan(costs, eps=0.1, iters=60)
        assert converged is False
        assert np.array_equal(plans, sinkhorn_plans(costs, eps=0.1, iters=60)[0])
        assert sinkhorn_plan(costs[:1], eps=0.1, iters=60)[1] is True

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            ot_align(np.zeros((0, 4)), np.ones((3, 4)), eps=0.1, iters=200)

    def test_mutual_argmax_on_hand_plan(self):
        plan = np.array([[0.6, 0.1, 0.0],
                         [0.5, 0.2, 0.1],
                         [0.0, 0.1, 0.7]])
        # row 1's best column (0) prefers row 0, so row 1 yields no pair
        assert mutual_argmax_pairs(plan) == {(0, 0), (2, 2)}


class TestAer:
    def test_perfect_prediction(self):
        s = {(0, 0), (1, 1)}
        assert aer(AlignmentSet(s, s, set(s))) == 0.0

    def test_hand_fixture_quarter(self):
        sure = {(1, 1), (2, 2)}
        possible = sure | {(3, 3)}
        predicted = {(1, 1), (3, 3)}
        assert aer(AlignmentSet(predicted, sure, possible)) == pytest.approx(0.25)

    def test_disjoint_prediction(self):
        aset = AlignmentSet({(5, 5)}, {(0, 0)}, {(0, 0)})
        assert aer(aset) == 1.0

    def test_empty_everything_is_zero(self):
        assert aer(AlignmentSet(set(), set(), set())) == 0.0

    def test_empty_prediction_nonempty_sure_is_one(self):
        assert aer(AlignmentSet(set(), {(0, 0)}, {(0, 0)})) == 1.0

    def test_sure_must_be_subset_of_possible(self):
        with pytest.raises(ValueError):
            AlignmentSet(set(), {(0, 0)}, set())

    def test_adding_correct_sure_pair_never_hurts(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            sure = {(i, int(rng.integers(5))) for i in rng.integers(5, size=4)}
            possible = sure | {(int(rng.integers(5)), int(rng.integers(5)))}
            predicted = {p for p in possible if rng.random() < 0.5}
            missing = sure - predicted
            if not missing:
                continue
            before = aer(AlignmentSet(predicted, sure, possible))
            after = aer(AlignmentSet(predicted | {next(iter(missing))},
                                     sure, possible))
            assert after <= before + 1e-12

    def test_known_permutation_alignment_scores_zero(self):
        gold = {(i, 3 - i) for i in range(4)}
        assert aer(AlignmentSet(gold, gold, set(gold))) == 0.0


class TestLayerSweeps:
    def test_retrieval_sweep_has_row_per_layer(self):
        params = small_params(layers=3)
        sents = content_layers([wrap_mono([5 + i, 7 + i]) for i in range(6)], params)
        rows = layer_sweep_retrieval(sents, sents)
        assert [r[0] for r in rows] == [0, 1, 2, 3]
        assert all(0.0 <= acc <= 1.0 for r in rows for acc in r[1:])
        assert rows[0][1:] == (1.0, 1.0)   # self-retrieval at the embedding layer

    def test_retrieval_sweep_directions_match_pooled_states(self):
        params = small_params(vocab_size=60, layers=2, seed=4)
        rng = np.random.default_rng(9)
        src = [wrap_mono(list(rng.integers(FIRST_CONTENT_ID, 60, size=4)))
               for _ in range(12)]
        tgt = [wrap_mono(list(rng.integers(FIRST_CONTENT_ID, 60, size=3)))
               for _ in range(12)]
        rows = layer_sweep_retrieval(content_layers(src, params),
                                     content_layers(tgt, params))
        for (_, fwd, bwd), s, t in zip(rows, pooled(src, params),
                                       pooled(tgt, params)):
            assert fwd == retrieve_acc1(s, t)[0]
            assert bwd == retrieve_acc1(t, s)[0]

    def test_aer_sweep_has_row_per_layer(self):
        params = small_params(layers=2)
        e = content_layers([wrap_mono([5, 6, 7])], params)
        f = content_layers([wrap_mono([8, 9, 10])], params)
        gold = [({(0, 0), (1, 1), (2, 2)}, {(0, 0), (1, 1), (2, 2)})]
        rows = layer_sweep_aer(e, f, gold, eps=0.1, iters=200)
        assert [r[0] for r in rows] == [0, 1, 2]
        assert all(0.0 <= r[1] <= 1.0 for r in rows)

    def test_aer_sweep_aligns_content_tokens_only(self):
        # a sentence aligned to its reversal; gold indices count content
        # tokens from 0, so keeping BOS/EOS would shift every predicted pair
        # off the gold ones
        params = small_params(layers=2)
        e = content_layers([wrap_mono([5, 9, 13, 17])], params)
        f = content_layers([wrap_mono([17, 13, 9, 5])], params)
        gold = {(i, 3 - i) for i in range(4)}
        rows = layer_sweep_aer(e, f, [(gold, gold)], eps=0.1, iters=2000)
        assert rows == [(0, 0.0), (1, 0.0), (2, 0.0)]

    def test_aer_sweep_equals_the_per_pair_loop_bit_for_bit(self):
        # lengths interleaved so that no group of equal (e, f) lengths is
        # contiguous, with e and f of unequal length in most pairs
        params = small_params(vocab_size=60, layers=3, seed=7)
        rng = np.random.default_rng(12)
        lengths = [(3, 3), (5, 4), (3, 3), (4, 6), (5, 4), (2, 5), (3, 3), (4, 6)]
        e = content_layers(
            [wrap_mono(list(rng.integers(FIRST_CONTENT_ID, 60, size=n)))
             for n, _ in lengths], params)
        f = content_layers(
            [wrap_mono(list(rng.integers(FIRST_CONTENT_ID, 60, size=m)))
             for _, m in lengths], params)
        gold = []
        for n, m in lengths:
            sure = {(i, int(rng.integers(m))) for i in range(n) if rng.random() < 0.7}
            gold.append((sure, sure | {(int(rng.integers(n)), int(rng.integers(m)))}))

        def per_pair_sweep(source, target, gold, eps, iters):
            rows = []
            for layer, (e_layer, f_layer) in enumerate(zip(source, target)):
                scores = [aer(AlignmentSet(ot_align(s.astype(np.float64),
                                                    t.astype(np.float64),
                                                    eps, iters)[0], sure, possible))
                          for s, t, (sure, possible) in zip(e_layer, f_layer, gold,
                                                           strict=True)]
                rows.append((layer, float(np.mean(scores))))
            return rows

        for eps, iters in ((0.1, 200), (0.02, 15)):
            assert layer_sweep_aer(e, f, gold, eps, iters) == \
                per_pair_sweep(e, f, gold, eps, iters)
        with pytest.raises(ValueError):
            layer_sweep_aer(e, f, gold[:-1], eps=0.1, iters=200)
