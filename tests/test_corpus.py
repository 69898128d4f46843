from collections import Counter

import numpy as np
import pytest

from xrtd import corpus as corpus_module
from xrtd.corpus import (RESERVED_TOKENS, Corpus, CorpusStats, LanguageSpec,
                         ToyGrammar, Vocab, build_vocab, draw_batch,
                         gold_alignment, language_sampling_probs, save_corpus_files,
                         synth_corpus, token_map, transform_sentence)
from xrtd.objectives import BOS, EOS, MASK, PAD, SEP


class TestSamplingProbs:
    def test_alpha_one_is_proportional(self):
        probs = language_sampling_probs(CorpusStats({"a": 3, "b": 1}, 1.0))
        assert np.allclose(probs, [0.75, 0.25])

    def test_temperature_value(self):
        probs = language_sampling_probs(CorpusStats({"a": 100, "b": 10}, 0.7))
        expected = 100 ** 0.7 / (100 ** 0.7 + 10 ** 0.7)
        assert probs[0] == pytest.approx(expected, abs=1e-12)
        assert probs[0] == pytest.approx(0.8337, abs=5e-4)

    def test_equal_counts_are_uniform(self):
        for alpha in (0.3, 0.7, 1.0):
            probs = language_sampling_probs(
                CorpusStats({"a": 7, "b": 7, "c": 7}, alpha))
            assert np.allclose(probs, 1 / 3)

    def test_probs_sum_to_one(self):
        probs = language_sampling_probs(
            CorpusStats({"a": 12, "b": 5, "c": 31}, 0.7))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_lower_alpha_lifts_smaller_language(self):
        shares = [language_sampling_probs(CorpusStats({"a": 100, "b": 10}, a))[1]
                  for a in (0.3, 0.7, 1.0)]
        assert shares[0] > shares[1] > shares[2]

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError):
            CorpusStats({"a": 0, "b": 5}, 0.7)
        with pytest.raises(ValueError):
            CorpusStats({"a": 3}, 0.0)


class TestVocab:
    def test_reserved_ids_fixed(self):
        v = Vocab(["cat", "dog"])
        assert v.id_to_token[:5] == RESERVED_TOKENS
        assert v.token_to_id["cat"] == 5

    def test_each_reserved_id_names_its_token(self):
        vocab = build_vocab([LanguageSpec("en", "base", 0),
                             LanguageSpec("pv", "permuted", 1)])
        for token_id, token in ((PAD, "<pad>"), (MASK, "<mask>"), (BOS, "<bos>"),
                                (EOS, "<eos>"), (SEP, "<sep>")):
            assert vocab.id_to_token[token_id] == token
            assert vocab.token_to_id[token] == token_id

    def test_encode_decode_identity(self):
        v = Vocab(["cat", "dog", "bird"])
        words = ["dog", "cat", "bird", "dog"]
        assert v.decode(v.encode(words)) == words

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Vocab(["cat", "cat"])

    def test_vocab_file_lines_are_id_to_token(self, tmp_path):
        v = Vocab(["cat", "dog"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        assert path.read_text(encoding="utf-8").split("\n") == v.id_to_token + [""]


class TestTransforms:
    grammar = ToyGrammar()

    @pytest.mark.parametrize("kind", ["permuted", "reversed", "affix"])
    def test_invertibility(self, kind):
        # a one-to-one word map over the whole lexicon, applied word by word
        # (then mirrored or not), makes every transform invertible
        spec = LanguageSpec("zz", kind, seed=3)
        mapping = token_map(spec, self.grammar)
        assert set(mapping) == set(self.grammar.anchors + self.grammar.words)
        assert len(set(mapping.values())) == len(mapping)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = self.grammar.sample_sentence(rng)
            assert len(transform_sentence(s, spec, self.grammar)) == len(s)

    def test_transform_is_deterministic(self):
        spec = LanguageSpec("pv", "permuted", seed=9)
        s = ["da", "aj3", "no7", "vb2", "di", "no1"]
        assert (transform_sentence(s, spec, self.grammar)
                == transform_sentence(s, spec, self.grammar))

    def test_content_surfaces_are_language_tagged(self):
        for kind in ("permuted", "reversed", "affix"):
            spec = LanguageSpec("xx", kind, seed=1)
            mapping = token_map(spec, self.grammar)
            assert all(mapping[w].startswith("xx:") for w in self.grammar.words)

    def test_anchor_surfaces_shared_across_languages(self):
        for kind in ("base", "permuted", "reversed", "affix"):
            spec = LanguageSpec("xx", kind, seed=1)
            mapping = token_map(spec, self.grammar)
            assert all(mapping[a] == a for a in self.grammar.anchors)

    def test_sentence_agreement(self):
        g = self.grammar
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = g.sample_sentence(rng)
            assert len(s) == 10
            for det, adj, noun, clf in (s[0:4], s[6:10]):
                n = g.nouns.index(noun)
                assert det == g.dets[g.gender[n]]
                assert clf == g.clfs[g.noun_class[n]]
                assert g.adjs.index(adj) in g.noun_adjs[n]
            v = g.verbs.index(s[5])
            assert s[4] == g.parts[g.verb_class[v]]
            assert g.nouns.index(s[2]) in g.verb_subj[v]
            assert g.nouns.index(s[8]) in g.verb_obj[v]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LanguageSpec("xx", "rot13")

    def test_gold_alignment_shapes(self):
        rev = gold_alignment(LanguageSpec("rv", "reversed"), 4)
        assert rev == [(0, 3), (1, 2), (2, 1), (3, 0)]
        perm = gold_alignment(LanguageSpec("pv", "permuted"), 3)
        assert perm == [(0, 0), (1, 1), (2, 2)]


class TestSynthCorpus:
    def make(self, n=1000, seed=0):
        specs = [LanguageSpec("en", "base", 0),
                 LanguageSpec("pv", "permuted", 1),
                 LanguageSpec("rv", "reversed", 2)]
        return specs, synth_corpus(specs, n, np.random.default_rng(seed))

    def test_requires_one_base(self):
        # eval builds only the vocabulary, so build_vocab checks it too
        for build in (lambda specs: synth_corpus(specs, 5, np.random.default_rng(0)),
                      build_vocab):
            with pytest.raises(ValueError):
                build([LanguageSpec("en", "base", 0)])
            with pytest.raises(ValueError):
                build([LanguageSpec("a", "permuted", 0),
                       LanguageSpec("b", "reversed", 1)])

    def test_builds_each_token_map_once_per_language(self, monkeypatch):
        # one call from build_vocab and one from synthesis, not one per word
        calls = Counter()
        original = corpus_module.token_map

        def counting(spec, grammar):
            calls[spec.lang] += 1
            return original(spec, grammar)
        monkeypatch.setattr(corpus_module, "token_map", counting)
        self.make(n=300)
        assert calls == {"en": 2, "pv": 2, "rv": 2}

    def test_default_grammar_is_built_once(self, monkeypatch):
        specs, corpus = self.make(n=20)
        fresh = synth_corpus(specs, 20, np.random.default_rng(0), ToyGrammar())
        assert (corpus.mono, corpus.parallel) == (fresh.mono, fresh.parallel)
        grammar = corpus_module.default_grammar()
        built = []
        monkeypatch.setattr(ToyGrammar, "__init__",
                            lambda self, seed=9: built.append(seed))
        self.make(n=20)
        build_vocab(specs)
        assert built == [] and corpus_module.default_grammar() is grammar

    def test_mono_sentences_are_transformed_base_sentences(self):
        specs = [LanguageSpec("en", "base", 0), LanguageSpec("pv", "permuted", 1),
                 LanguageSpec("rv", "reversed", 2), LanguageSpec("ax", "affix", 3)]
        corpus = synth_corpus(specs, 50, np.random.default_rng(4))
        grammar = ToyGrammar()
        rng = np.random.default_rng(4)
        bases = [grammar.sample_sentence(rng) for _ in range(50)]
        for spec in specs:
            assert corpus.mono[spec.lang] == [
                corpus.vocab.encode(transform_sentence(b, spec, grammar))
                for b in bases]

    def test_counts_and_pools(self):
        specs, corpus = self.make(n=40)
        assert set(corpus.mono) == {"en", "pv", "rv"}
        assert all(len(v) == 40 for v in corpus.mono.values())
        assert set(corpus.parallel) == {"pv", "rv"}
        assert corpus.base_lang == "en"

    def test_parallel_pairs_respect_known_permutation(self):
        specs, corpus = self.make(n=1000)
        grammar = ToyGrammar()
        pv = specs[1]
        mapping = token_map(pv, grammar)
        for e_ids, f_ids in corpus.parallel["pv"]:
            e_words = corpus.vocab.decode(e_ids)
            f_words = corpus.vocab.decode(f_ids)
            assert len(e_words) == len(f_words)
            for i, j in gold_alignment(pv, len(e_words)):
                assert f_words[j] == mapping[e_words[i]]

    def test_reversed_pairs_align_mirrored(self):
        specs, corpus = self.make(n=200)
        grammar = ToyGrammar()
        rv = specs[2]
        mapping = token_map(rv, grammar)
        for e_ids, f_ids in corpus.parallel["rv"]:
            e_words = corpus.vocab.decode(e_ids)
            f_words = corpus.vocab.decode(f_ids)
            for i, j in gold_alignment(rv, len(e_words)):
                assert f_words[j] == mapping[e_words[i]]

    def test_sentences_tokenize_roundtrip(self):
        _, corpus = self.make(n=50)
        for seqs in corpus.mono.values():
            for ids in seqs:
                words = corpus.vocab.decode(ids)
                assert corpus.vocab.encode(words) == ids

    def test_vocab_covers_all_languages(self):
        specs, corpus = self.make(n=20)
        grammar = ToyGrammar()
        expected = (len(RESERVED_TOKENS) + len(grammar.anchors)
                    + len(grammar.words) * len(specs))
        assert len(corpus.vocab) == expected


class TestDynamicBatching:
    """The token-budget sampler that training draws its batches with."""

    def pools(self):
        return {"a": [[7] * 16 for _ in range(50)],
                "b": [[9] * 16 for _ in range(50)]}

    def stats(self, alpha=0.7):
        return CorpusStats({"a": 100, "b": 10}, alpha)

    def draws(self, pools, budget, seed, n_batches, stats=None):
        stats = stats or self.stats()
        probs = language_sampling_probs(stats)
        rng = np.random.default_rng(seed)
        return [draw_batch(pools, probs, list(stats.counts), budget, rng)
                for _ in range(n_batches)]

    def test_equal_lengths_divide_budget(self):
        for items, languages in self.draws(self.pools(), 64, 0, 10):
            assert len(items) == len(languages) == 4
            assert sum(len(s) for s in items) == 64

    def test_budget_and_fill_bounds(self):
        rng = np.random.default_rng(1)
        pools = {"a": [[5] * int(rng.integers(4, 20)) for _ in range(100)],
                 "b": [[6] * int(rng.integers(4, 20)) for _ in range(100)]}
        for items, _ in self.draws(pools, 64, 2, 100):
            assert 32 <= sum(len(s) for s in items) <= 64

    def test_language_frequencies_match_probs(self):
        stats = self.stats()
        probs = language_sampling_probs(stats)
        batches = self.draws(self.pools(), 64, 5, 10_000)
        languages = [lang for _, langs in batches for lang in langs]
        assert len(languages) == 40_000
        assert languages.count("a") / len(languages) == \
            pytest.approx(probs[0], abs=0.01)

    def test_reproducible_for_fixed_seed(self):
        assert self.draws(self.pools(), 64, 8, 15) == \
            self.draws(self.pools(), 64, 8, 15)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            self.draws(self.pools(), 0, 9, 1)


class TestCorpusFiles:
    def test_save_writes_expected_files(self, tmp_path):
        specs = [LanguageSpec("en", "base", 0),
                 LanguageSpec("pv", "permuted", 1)]
        corpus = synth_corpus(specs, 12, np.random.default_rng(0))
        written = save_corpus_files(corpus, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["mono_en.txt", "mono_pv.txt",
                         "parallel_en_pv.txt", "vocab.txt"]
        assert len(written) == 4
        mono = (tmp_path / "mono_en.txt").read_text().strip().split("\n")
        assert len(mono) == 12
        lang, text = mono[0].split("\t")
        assert lang == "en"
        assert corpus.vocab.encode(text.split()) == corpus.mono["en"][0]
        pair = (tmp_path / "parallel_en_pv.txt").read_text().strip().split("\n")
        e_text, f_text = pair[0].split("\t")
        e_ids, f_ids = corpus.parallel["pv"][0]
        assert corpus.vocab.encode(e_text.split()) == e_ids
        assert corpus.vocab.encode(f_text.split()) == f_ids
