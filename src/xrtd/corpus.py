"""Synthetic multilingual corpora, vocabulary, sampling, and batching.

Languages are deterministic, invertible transforms of a small stochastic
base grammar, so every parallel pair carries a known word-level alignment.
The tokenizer is whitespace splitting over this closed lexicon; a single
vocabulary is shared across all languages. The reserved tokens take its first
ids, so an id is a content token (a word) iff it is at least
`FIRST_CONTENT_ID`. The other modules use this one rule.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

RESERVED_TOKENS = ["<pad>", "<mask>", "<bos>", "<eos>", "<sep>"]
# the reserved tokens' ids: their positions in RESERVED_TOKENS
PAD, MASK, BOS, EOS, SEP = range(len(RESERVED_TOKENS))
# every id from here on is a word: an id is content iff it is at least this
FIRST_CONTENT_ID = len(RESERVED_TOKENS)

LANGUAGE_KINDS = ("base", "permuted", "reversed", "affix")


class Vocab:
    """Token/id bijection with fixed reserved ids 0..4."""

    def __init__(self, tokens: Sequence[str]):
        self.id_to_token = list(RESERVED_TOKENS)
        seen = set(self.id_to_token)
        for tok in tokens:
            if tok in seen:
                raise ValueError(f"duplicate token {tok!r}")
            seen.add(tok)
            self.id_to_token.append(tok)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, words: Sequence[str]) -> List[int]:
        return [self.token_to_id[w] for w in words]

    def decode(self, ids: Sequence[int]) -> List[str]:
        return [self.id_to_token[i] for i in ids]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tok in self.id_to_token:
                fh.write(tok + "\n")


@dataclass(frozen=True)
class LanguageSpec:
    lang: str
    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in LANGUAGE_KINDS:
            raise ValueError(f"unknown language kind {self.kind!r}")


@dataclass
class CorpusStats:
    counts: Dict[str, int]
    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if any(m <= 0 for m in self.counts.values()):
            raise ValueError("all language counts must be positive")


def language_sampling_probs(stats: CorpusStats) -> np.ndarray:
    """p_j = m_j^alpha / sum_k m_k^alpha, over the languages in stats order."""
    m = np.array(list(stats.counts.values()), dtype=np.float64)
    weights = m ** stats.alpha
    return weights / weights.sum()


class ToyGrammar:
    """Clause grammar whose function words agree with content-word features.

    Every sentence reads subject-NP, particle, verb, object-NP, where a noun
    phrase is determiner, adjective, noun, classifier. The determiner surface
    is fixed by the noun's gender, the classifier by the noun's class, and
    the particle by the verb's class; adjectives are restricted per noun and
    argument nouns per verb. Function words (the anchors) keep the same
    surface in every language while content words are relexified, so masked
    anchors are a prediction target shared across languages and anchor
    agreement is only checkable against the neighbouring content words.
    """

    def __init__(self, seed: int = 9):
        rng = np.random.default_rng(seed)
        self.dets = ["da", "di", "du", "do"]
        self.clfs = ["xa", "xi", "xu", "xo"]
        self.parts = ["ko", "ku", "ke", "ka"]
        self.adjs = [f"aj{i}" for i in range(10)]
        self.nouns = [f"no{i}" for i in range(20)]
        self.verbs = [f"vb{i}" for i in range(12)]
        self.anchors = self.dets + self.clfs + self.parts
        self.words = self.adjs + self.nouns + self.verbs
        self.gender = {n: int(rng.integers(4)) for n in range(len(self.nouns))}
        self.noun_class = {n: int(rng.integers(4)) for n in range(len(self.nouns))}
        self.verb_class = {v: int(rng.integers(4)) for v in range(len(self.verbs))}
        self.noun_adjs = {n: rng.choice(len(self.adjs), size=3, replace=False)
                          for n in range(len(self.nouns))}
        # subject and object sets overlap on a 5-noun core, with two
        # role-exclusive extras each, so argument roles carry information
        self.verb_subj: Dict[int, np.ndarray] = {}
        self.verb_obj: Dict[int, np.ndarray] = {}
        for v in range(len(self.verbs)):
            core = rng.choice(len(self.nouns), size=5, replace=False)
            rest = [n for n in range(len(self.nouns)) if n not in core]
            extra = rng.choice(len(rest), size=4, replace=False)
            self.verb_subj[v] = np.concatenate(
                [core, [rest[extra[0]], rest[extra[1]]]])
            self.verb_obj[v] = np.concatenate(
                [core, [rest[extra[2]], rest[extra[3]]]])

    def noun_phrase(self, noun: int, adj: int) -> List[str]:
        return [self.dets[self.gender[noun]], self.adjs[adj],
                self.nouns[noun], self.clfs[self.noun_class[noun]]]

    def sample_sentence(self, rng: np.random.Generator) -> List[str]:
        v = int(rng.integers(len(self.verbs)))
        subj = int(self.verb_subj[v][rng.integers(7)])
        obj = int(self.verb_obj[v][rng.integers(7)])
        while obj == subj:
            obj = int(self.verb_obj[v][rng.integers(7)])
        sa = int(self.noun_adjs[subj][rng.integers(3)])
        oa = int(self.noun_adjs[obj][rng.integers(3)])
        return (self.noun_phrase(subj, sa)
                + [self.parts[self.verb_class[v]], self.verbs[v]]
                + self.noun_phrase(obj, oa))


@functools.cache
def default_grammar() -> ToyGrammar:
    """The one `ToyGrammar()` of the process: it is deterministic (seed 9),
    takes milliseconds to build and nothing mutates it."""
    return ToyGrammar()


def token_map(spec: LanguageSpec, grammar: ToyGrammar) -> Dict[str, str]:
    """Deterministic base-word -> language-surface mapping.

    Anchors keep their surface in every language; only content words are
    relexified or decorated.
    """
    keep = {w: w for w in grammar.anchors}
    if spec.kind == "base":
        return {**keep, **{w: w for w in grammar.words}}
    if spec.kind == "permuted":
        perm = np.random.default_rng(spec.seed).permutation(len(grammar.words))
        return {**keep, **{w: f"{spec.lang}:{grammar.words[perm[i]]}"
                           for i, w in enumerate(grammar.words)}}
    if spec.kind == "reversed":
        return {**keep, **{w: f"{spec.lang}:{w}" for w in grammar.words}}
    return {**keep, **{w: f"{spec.lang}:{w}~ka" for w in grammar.words}}  # affix


def _apply_map(sentence: List[str], mapping: Dict[str, str],
               spec: LanguageSpec) -> List[str]:
    mapped = [mapping[w] for w in sentence]
    return mapped[::-1] if spec.kind == "reversed" else mapped


def transform_sentence(sentence: List[str], spec: LanguageSpec,
                       grammar: ToyGrammar) -> List[str]:
    return _apply_map(sentence, token_map(spec, grammar), spec)


def gold_alignment(spec: LanguageSpec, length: int) -> List[Tuple[int, int]]:
    """Known base-index <-> transformed-index pairs for one sentence."""
    if spec.kind == "reversed":
        return [(i, length - 1 - i) for i in range(length)]
    return [(i, i) for i in range(length)]


@dataclass
class Corpus:
    vocab: Vocab
    specs: List[LanguageSpec]
    mono: Dict[str, List[List[int]]]
    parallel: Dict[str, List[Tuple[List[int], List[int]]]]   # keyed by non-base lang

    @property
    def base_lang(self) -> str:
        return next(s.lang for s in self.specs if s.kind == "base")


def build_vocab(specs: Sequence[LanguageSpec],
                grammar: ToyGrammar | None = None) -> Vocab:
    """Anchors, then each language's surface of every content word.

    Every parallel pair encodes a base-language sentence, so the language set
    must hold exactly one base language and at least one other.
    """
    if len(specs) < 2 or sum(s.kind == "base" for s in specs) != 1:
        raise ValueError("need >=2 languages with exactly one base language")
    grammar = grammar or default_grammar()
    tokens: List[str] = list(grammar.anchors)
    for spec in specs:
        mapping = token_map(spec, grammar)
        tokens.extend(mapping[w] for w in grammar.words)
    return Vocab(tokens)


def synth_corpus(specs: Sequence[LanguageSpec], n_sentences: int,
                 rng: np.random.Generator,
                 grammar: ToyGrammar | None = None) -> Corpus:
    """Monolingual corpus per language plus base<->lang parallel corpora.

    One shared set of base sentences underlies all corpora: each language's
    monolingual text is its transform of those sentences and each parallel
    corpus pairs a base sentence with its transform. Seeing the same content
    monolingually in every language and in paired form is what lets the
    pair objectives bind the languages' representations together.
    """
    specs = list(specs)
    grammar = grammar or default_grammar()
    vocab = build_vocab(specs, grammar)

    sentences = [grammar.sample_sentence(rng) for _ in range(n_sentences)]
    mono: Dict[str, List[List[int]]] = {}
    parallel: Dict[str, List[Tuple[List[int], List[int]]]] = {}
    for spec in specs:
        mapping = token_map(spec, grammar)
        transformed = [vocab.encode(_apply_map(s, mapping, spec))
                       for s in sentences]
        mono[spec.lang] = transformed
        if spec.kind != "base":
            parallel[spec.lang] = [(vocab.encode(s), t)
                                   for s, t in zip(sentences, transformed)]
    return Corpus(vocab, specs, mono, parallel)


def draw_batch(pools: Dict[str, list], probs: np.ndarray, langs: List[str],
               budget: int, rng: np.random.Generator) -> Tuple[list, List[str]]:
    """Fill one batch of about `budget` tokens from per-language pools.

    Each draw picks a language by `probs` (over `langs`), then an item, a
    token list such as a wrapped sentence or translation pair, uniformly
    within that language's pool. Drawing stops once the budget is reached or
    the next item would exceed it; the first item is always kept. Returns the
    items and their languages in draw order.
    """
    if budget <= 0:
        raise ValueError("token budget must be positive")
    items, languages, used = [], [], 0
    while True:
        lang = langs[rng.choice(len(langs), p=probs)]
        pool = pools[lang]
        item = pool[rng.integers(len(pool))]
        if items and used + len(item) > budget:
            return items, languages
        items.append(item)
        languages.append(lang)
        used += len(item)
        if used >= budget:
            return items, languages


def save_corpus_files(corpus: Corpus, outdir) -> List[str]:
    """Write vocab, per-language mono files, and per-pair parallel files.

    Mono format: one sentence per line, "<lang>\\t<tokens>". Parallel format:
    "<base tokens>\\t<translated tokens>".
    """
    import os
    written = []
    vocab_path = os.path.join(outdir, "vocab.txt")
    corpus.vocab.save(vocab_path)
    written.append(vocab_path)
    for lang, seqs in corpus.mono.items():
        path = os.path.join(outdir, f"mono_{lang}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for ids in seqs:
                fh.write(f"{lang}\t{' '.join(corpus.vocab.decode(ids))}\n")
        written.append(path)
    base = corpus.base_lang
    for lang, pairs in corpus.parallel.items():
        path = os.path.join(outdir, f"parallel_{base}_{lang}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for e_ids, f_ids in pairs:
                fh.write(f"{' '.join(corpus.vocab.decode(e_ids))}\t"
                         f"{' '.join(corpus.vocab.decode(f_ids))}\n")
        written.append(path)
    return written
