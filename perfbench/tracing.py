"""Timing wrappers around xrtd's public functions, installed from outside.

The benchmark changes no program code. `instrument` swaps module and class
attributes of xrtd for wrappers for the length of a `with` block and puts
the originals back afterwards. The swap works because the program looks
these names up at call time (`trainer.train` calls the module-level
`draw_mono_batch`, `model.encode` calls the module-level `matmul`, ...).

Every round installs the probes: the step boundaries (the mono draw starts
a training step and `Adam.step` ends it), the non-pad tokens of each drawn
batch, and the checkpoint saves and loads, which are counted as operations.
A traced round also records one span per wrapped call (name, start, end,
parent span) and the counters of the per-layer report.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

from xrtd import align, cli, model, objectives, serialize, tensor, trainer

PAD_ID = 0

# (owner, attribute, span name) wrapped only in traced rounds. Where the same
# function is bound in several modules, every binding a caller uses is listed.
TRACED_CALLS = [
    (objectives, "generator_loss_mlm", "objectives.generator_fwd"),
    (objectives, "generator_loss_tlm", "objectives.generator_fwd"),
    (objectives, "sample_corruption", "objectives.corruption"),
    (objectives, "discriminator_loss_rtd", "objectives.discriminator_fwd"),
    (objectives, "encode", "model.encode"),
    (align, "encode", "model.encode"),
    (model, "attention_weights", "model.attention_fwd"),
    (model, "layer_norm", "model.layer_norm_fwd"),
    (objectives, "mlm_logits", "model.heads_fwd"),
    (objectives, "rtd_logits", "model.heads_fwd"),
    (trainer, "backward", "tensor.backward"),
    (model, "matmul", "tensor.matmul_fwd"),
    (model, "softmax", "tensor.softmax_fwd"),
    (model, "embedding", "tensor.embedding_fwd"),
    (objectives, "gather_rows", "tensor.gather_rows_fwd"),
    (objectives, "softmax_cross_entropy", "tensor.loss_fwd"),
    (objectives, "binary_cross_entropy_with_logits", "tensor.loss_fwd"),
    (align, "layer_sweep_retrieval", "align.retrieval"),
    (align, "retrieve_acc1", "align.retrieval"),
    (align, "layer_sweep_aer", "align.alignment"),
    (cli, "synth_corpus", "corpus.synth"),
    (serialize, "save_arrays", "serialize.save"),
    (serialize, "load_arrays", "serialize.load"),
]

Span = Tuple[str, float, float, int]


class Recorder:
    """What one round of a workload did: steps, tokens, operations, spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.step_times: List[float] = []      # seconds, mono draw to Adam update
        self.step_tokens: List[int] = []
        self.attempted: Counter = Counter()    # operation -> count
        self.failed: Counter = Counter()
        self.spans: List[Span | None] = []    # None while the call runs
        self.counts: Counter = Counter()
        self.encoded: Counter = Counter()      # sentence -> times align encoded it
        self.checkpoint_bytes: List[int] = []
        self._stack: List[int] = []
        self._step_start = 0.0
        self._tokens = 0

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, op: str | None = None,
             after: Callable | None = None) -> Callable:
        """`fn` with its calls counted as `op` and, when traced, spanned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if op is not None:
                self.attempted[op] += 1
            index = -1
            if self.traced:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(None)
                self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if op is not None:
                    self.failed[op] += 1
                raise
            finally:
                end = time.perf_counter()
                if index >= 0:
                    self._stack.pop()
                    self.spans[index] = (name, start, end, parent)
            if after is not None:
                after(result, args, start, end)
            return result
        return wrapper

    def _mono_drawn(self, batch, args, start, end) -> None:
        self._step_start = start
        self._tokens = int((batch.original != PAD_ID).sum())

    def _pair_drawn(self, batch, args, start, end) -> None:
        self._tokens += int((batch.original != PAD_ID).sum())

    def _updated(self, result, args, start, end) -> None:
        self.step_times.append(end - self._step_start)
        self.step_tokens.append(self._tokens)

    def _saved(self, result, args, start, end) -> None:
        path = args[0]
        self.checkpoint_bytes.append(
            sum(entry.stat().st_size for entry in os.scandir(path)))

    def _encoded(self, states, args, start, end) -> None:
        self.counts["align.encode_calls"] += 1
        for row in np.asarray(args[0]):
            self.encoded[tuple(row[row != PAD_ID].tolist())] += 1

    def _sinkhorn_done(self, result, args, start, end) -> None:
        self.counts["align.sinkhorn_calls"] += 1
        self.counts["align.sinkhorn_converged"] += int(result[1])

    # -- report -------------------------------------------------------------

    @property
    def steps_failed(self) -> int:
        return self.attempted["step"] - len(self.step_times)

    def layer_seconds(self) -> Dict[str, Tuple[float, int]]:
        """Per span name: (inclusive seconds, calls).

        Only the outermost span of a name counts, so a function that calls
        another with the same span name is not counted twice.
        """
        spans = self.spans    # complete: every wrapper fills its span on exit
        inclusive: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent in spans:
            calls[name] += 1
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                inclusive[name] += end - start
        return {name: (inclusive[name], calls[name]) for name in calls}


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Install the round's wrappers into xrtd; restore the originals on exit."""
    saved = []

    def patch(owner, attr, name, **kwargs):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, rec.wrap(name, original, **kwargs))

    try:
        patch(trainer, "draw_mono_batch", "trainer.draw", op="step",
              after=rec._mono_drawn)
        patch(trainer, "draw_pair_batch", "trainer.draw", after=rec._pair_drawn)
        patch(trainer.Adam, "step", "trainer.adam", after=rec._updated)
        patch(trainer, "save_checkpoint", "trainer.checkpoint_save",
              op="checkpoint_save", after=rec._saved)
        patch(cli, "load_checkpoint", "trainer.checkpoint_load",
              op="checkpoint_load")
        if rec.traced:
            for owner, attr, name in TRACED_CALLS:
                patch(owner, attr, name)
            # the outer align.encode span holds the model.encode span above
            patch(align, "encode", "align.encode", after=rec._encoded)
            patch(align, "sinkhorn_plan", "align.sinkhorn",
                  after=rec._sinkhorn_done)
            init = tensor.Tensor.__init__

            def counting_init(self, *args, **kwargs):
                rec.counts["tensor.tensors"] += 1
                init(self, *args, **kwargs)
            saved.append((tensor.Tensor, "__init__", init))
            tensor.Tensor.__init__ = counting_init
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
