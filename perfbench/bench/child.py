"""One workload in a fresh process; writes its result as JSON.

Started by ``perfbench/run.py`` with the BLAS/OpenMP thread variables
removed from the environment, so the libraries run at their defaults.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

from harness import PeakRSS, environment, log, stream_triad


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    root = os.getcwd()
    env = environment(root)
    ctx = {"scratch": args.scratch}
    stream = None
    if args.trace:
        stream = stream_triad()
        ctx["stream_gbs"] = stream["gbs"]
    module = importlib.import_module(args.workload)
    t0 = time.perf_counter()
    with PeakRSS() as rss:
        result = module.run(args.seed, args.seconds, bool(args.trace), ctx)
    result["end_to_end"]["peak_rss_mb"] = rss.peak_mb
    result.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": time.perf_counter() - t0,
        "environment": env,
        "stream": stream,
    })
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1, default=float)
    log(f"{args.workload}: done in {result['elapsed_s']:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
