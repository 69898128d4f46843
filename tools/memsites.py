"""Where a training step's memory lives: live bytes at the end of the forward.

    python tools/memsites.py [--top 12]
    python tools/memsites.py --steps 30

Builds the default config's corpus and model pair (`xrtd.cli.DEFAULT_CONFIG`),
draws the first step's batches as `trainer.train` does, and runs the joint
loss under tracemalloc, which numpy reports its array buffers to. With the
loss, and so its whole tape, still alive it prints the traced bytes grouped
by allocating line, the innermost line in `src/xrtd` on each allocation's
traceback, and by the line outside `tensor.py` that called it (for an
allocation made outside `tensor.py`, the two are the same). Tracing starts
after the model is built, so the parameters are not counted. Last it runs
the step's backward and prints the peak reached during it.

With `--steps N` it runs N default training steps instead, through
`trainer.train_step` as `trainer.train` does but without metrics or
checkpoints, and reports the steady-state steps, the last N - N // 3. It
prints their median count of minor page faults (`ru_minflt`) per step and
their median wall time per step, from a pass without tracemalloc, and the
highest per-step peak of traced bytes, from a second pass of the same steps
under tracemalloc started before the model is built, so parameters and
optimizer moments count. It uses the `src/` next to this script and pins
BLAS to one thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import linecache  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "xrtd") + os.sep
TENSOR = PACKAGE + "tensor.py"
sys.path.insert(0, os.path.join(ROOT, "src"))

from xrtd import cli, trainer  # noqa: E402
from xrtd.objectives import joint_loss  # noqa: E402
from xrtd.tensor import backward  # noqa: E402

MB = 2 ** 20


def site(traceback: tracemalloc.Traceback) -> tuple | None:
    """(allocating line, calling line) of one allocation, each a (file,
    line): the innermost frame in the package and the innermost one in the
    package outside tensor.py; None if no frame is in the package."""
    ours = [(f.filename, f.lineno) for f in traceback
            if f.filename.startswith(PACKAGE)]     # frames run oldest to newest
    if not ours:
        return None
    callers = [f for f in ours if f[0] != TENSOR]
    return ours[-1], callers[-1] if callers else ours[-1]


def label(where: tuple) -> str:
    return f"{os.path.relpath(where[0], PACKAGE)}:{where[1]}"


def training_steps(config, corpus, n: int):
    """Build the default model pair and run `n` training steps, yielding
    after each one."""
    models = cli._model_pair(config, len(corpus.vocab))
    optim_cfg = trainer.OptimConfig(**config["optim"])
    samplers = trainer._samplers(corpus, config["data"]["alpha"], True)
    optimizer = trainer.Adam(models.all_parameters(), optim_cfg)
    rng = np.random.default_rng(config["seed"])
    for step in range(n):
        trainer.train_step(models, optimizer, samplers, config["data"], rng,
                           trainer.lr_at(step + 1, optim_cfg))
        yield step


def report_steps(config, corpus, n: int) -> None:
    steady = n // 3
    faults, seconds = [], []
    last = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
    for _ in training_steps(config, corpus, n):
        now = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        faults.append(now[0] - last[0])
        seconds.append(now[1] - last[1])
        last = now
    peaks = []
    tracemalloc.start()
    for _ in training_steps(config, corpus, n):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
    tracemalloc.stop()
    print(f"steps {steady}-{n - 1} of {n}: median minor page faults per step "
          f"{statistics.median(faults[steady:]):.0f}, median wall "
          f"{statistics.median(seconds[steady:]) * 1e3:.1f} ms per step, peak "
          f"traced {max(peaks[steady:]) / MB:.2f} MB")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--top", type=int, default=12,
                        help="number of allocating lines to print")
    parser.add_argument("--steps", type=int, default=0,
                        help="run this many training steps and report their "
                             "page faults, wall time and peak traced bytes "
                             "instead")
    args = parser.parse_args(argv)

    config = cli.load_config(None)
    corpus = cli._build_corpus(config)
    if args.steps:
        if args.steps < 0:
            parser.error("--steps must not be negative")
        report_steps(config, corpus, args.steps)
        return
    models = cli._model_pair(config, len(corpus.vocab))
    optim_cfg = trainer.OptimConfig(**config["optim"])
    mono, pair = trainer._samplers(corpus, config["data"]["alpha"], True)
    rng = np.random.default_rng(config["seed"])
    batches = trainer._draw_batches(mono, pair, config["data"]["token_budget"],
                                    config["data"]["mask_ratio"], rng)

    tracemalloc.start(64)
    total, _ = joint_loss(*batches, models, optim_cfg.lam, rng)
    snapshot = tracemalloc.take_snapshot()
    sites: Counter = Counter()
    for trace in snapshot.traces:
        sites[site(trace.traceback)] += trace.size
    live = sum(sites.values())
    print(f"live at the end of the forward: {live / MB:.2f} MB")
    print(f"{'MB':>8} {'share':>6}  allocating line <- calling line  (source "
          "of the calling line), paths in src/xrtd")
    for where, size in sites.most_common(args.top):
        if where is None:
            text = "(no frame in src/xrtd)"
        else:
            allocating, calling = where
            text = (f"{label(allocating)} <- {label(calling)}  "
                    f"({linecache.getline(*calling).strip()})")
        print(f"{size / MB:8.2f} {size / live:6.1%}  {text}")

    del snapshot
    tracemalloc.reset_peak()
    backward(total)
    print(f"peak during the backward: {tracemalloc.get_traced_memory()[1] / MB:.2f} MB")
    tracemalloc.stop()


if __name__ == "__main__":
    main()
