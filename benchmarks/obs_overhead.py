"""Observability overhead in one process: default queries against bare ones.

Runs one workload of the repository benchmark (``benchmarks/e2e``) in
this process, on the checkout given, and times warm queries in
interleaved rounds: each round runs one query with the default options
(``observe=True, trace=True``) and one *bare* query (``observe=False,
trace=False``) on the same engine, the side that goes first flipped every
round, so that machine drift cannot pass for overhead. It also counts
the objects the garbage collector tracks for one default result.

    python3 benchmarks/obs_overhead.py [CHECKOUT] --workload sssp_road \\
        --seed 7 --rounds 6 | tee -a section.md

prints a markdown table: the default and bare wall-clock medians, the
gap (default / bare - 1) from the wall-clock medians, from the CPU-time
medians (less exposed to other tenants of a shared machine) and per
round, and the tracked objects one default result keeps alive.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parents[1]


def tracked_objects(session) -> int:
    """GC-tracked objects kept alive by one default query's result."""
    gc.collect()
    before = len(gc.get_objects())
    outcome = session.workload.query(session.engine, session.inputs)
    gc.collect()
    held = len(gc.get_objects()) - before
    del outcome
    return held


def measure(workload: str, seed: int, rounds: int, quick: bool) -> dict:
    from protocol import Session
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as workdir:
        session = Session(WORKLOADS[workload], WORKLOADS[workload].inputs(seed, quick),
                          Path(workdir))
        session.cold_start()
        session.warm()  # warm state (plans, tapes) before any timed query
        engine = session.engine
        default = engine.options
        bare = default.replace(observe=False, trace=False)
        times = {"default": [], "bare": []}  # (wall, cpu) per query
        for n in range(rounds):
            order = ("default", "bare") if n % 2 == 0 else ("bare", "default")
            for side in order:
                engine.options = default if side == "default" else bare
                t0, c0 = perf_counter(), process_time()
                session.workload.query(engine, session.inputs)
                times[side].append((perf_counter() - t0, process_time() - c0))
        engine.options = default
        held = tracked_objects(session)

    def median(side, clock):
        return statistics.median(t[clock] for t in times[side])

    return {
        "default": median("default", 0), "bare": median("bare", 0),
        "gap": median("default", 0) / median("bare", 0) - 1.0,
        "cpu_gap": median("default", 1) / median("bare", 1) - 1.0,
        "round_gaps": [d[0] / b[0] - 1.0 for d, b in zip(times["default"], times["bare"])],
        "tracked": held,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(ROOT))
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--quick", action="store_true", help="the benchmark's quick sizes")
    args = parser.parse_args(argv)
    checkout = Path(args.checkout).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks" / "e2e")]
    print(f"\n`{checkout.name}`, seed {args.seed}, {args.rounds} rounds\n")
    print("| workload | default median s | bare median s | gap (wall medians) "
          "| gap (CPU medians) | gap per round (wall) | tracked objects per result |")
    print("|---|---|---|---|---|---|---|")
    for workload in args.workload:
        r = measure(workload, args.seed, args.rounds, args.quick)
        rounds = ", ".join(f"{g:+.1%}" for g in r["round_gaps"])
        print(f"| {workload} | {r['default']:.4g} | {r['bare']:.4g} | {r['gap']:+.1%} "
              f"| {r['cpu_gap']:+.1%} | {rounds} | {r['tracked']} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
