"""Run one workload of the xrtd benchmark and print its result.

    python3 perfbench/run.py --workload xlme --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: it imports xrtd from `src/`. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; with `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics. Progress goes to
stderr. Outputs are written under `.perfbench_out/` in the checkout and
removed at the end of the run.
"""

import os
import sys

# BLAS runs on one thread, pinned before numpy is first imported, so that
# every figure is single-threaded whatever the machine's core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "xrtd", "__init__.py")):
        print(f"perfbench: no xrtd sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m["name"] for m in declared if m["name"] not in result.metrics]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in result.metrics},
    }))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
