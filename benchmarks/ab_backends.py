"""Serial against the host-parallel backends, as alternating in-process rounds.

Host parallelism (``parallel_backend="threads"`` and ``"cluster"``) was
removed from this repository after this script measured it losing to
serial on every benchmark workload (``results/ab/PR-28.md``). The script
stays so the measurement can be repeated on any checkout that still
carries the backends, for example the commit before the removal:

    git clone . /tmp/parent && git -C /tmp/parent checkout 8382fdf
    python3 benchmarks/ab_backends.py --checkout /tmp/parent \\
        --seed 7 --seed 23 --rounds 5 --workers 2 | tee -a ledger.md

For every workload of ``benchmarks/e2e/workloads.py`` and every seed, one
fresh process (its imports from ``CHECKOUT/src``) generates the inputs,
builds one engine and answers the workload's query under each backend in
turn: an untimed warm-up query per backend, then ``--rounds`` rounds, the
backend order rotated every round so none always runs first. Every query
of a cluster run spawns and joins its own worker pool, which is part of
what a user of that backend waits for. The output is markdown: per
backend the median [q1-q3] query seconds, the ratio to serial, the rounds
it beat serial in, and whether its values hash and simulated time equal
serial's. A backend *wins* only when its median beats serial's by more
than serial's inter-quartile distance and it won every round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("pr_ram", "pr_ooc", "sssp_road", "msbfs_batch")
BACKENDS = ("serial", "threads", "cluster")


def child(checkout: Path, workload: str, seed: int, rounds: int, workers: int) -> dict:
    """Every query of one (workload, seed) in this process; raw seconds."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks" / "e2e")]
    import numpy as np
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    inputs = spec.inputs(seed, quick=False)
    with tempfile.TemporaryDirectory() as tmp:
        engine = spec.cold_start(inputs, Path(tmp))
        base = engine.options
        options = {
            "serial": base.replace(parallel_backend="serial", parallel_shards=0),
            "threads": base.replace(parallel_backend="threads", parallel_shards=workers),
            "cluster": base.replace(parallel_backend="cluster", parallel_shards=workers),
        }

        def query(backend: str) -> tuple[float, str]:
            engine.options = options[backend]
            t0 = time.perf_counter()
            outcome = spec.query(engine, inputs)
            seconds = time.perf_counter() - t0
            digest = hashlib.blake2b(digest_size=16)
            values = outcome.values if isinstance(outcome.values, list) else [outcome.values]
            for part in values:
                digest.update(np.ascontiguousarray(part))
            return seconds, f"{digest.hexdigest()} {outcome.run.sim_time!r}"

        signatures = {b: query(b)[1] for b in BACKENDS}  # warm-up, untimed
        seconds = {b: [] for b in BACKENDS}
        for r in range(rounds):
            order = BACKENDS[r % 3:] + BACKENDS[: r % 3]
            for backend in order:
                s, sig = query(backend)
                seconds[backend].append(s)
                if sig != signatures[backend]:
                    signatures[backend] = "NOT REPEATABLE"
    return {"seconds": seconds, "signatures": signatures}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def table(workload: str, seed: int, rec: dict) -> list[str]:
    seconds, sigs = rec["seconds"], rec["signatures"]
    s_q1, s_med, s_q3 = quartiles(seconds["serial"])
    rows = []
    for backend in BACKENDS:
        q1, med, q3 = quartiles(seconds[backend])
        wins = sum(b < s for b, s in zip(seconds[backend], seconds["serial"]))
        n = len(seconds[backend])
        if backend == "serial":
            verdict, ratio, won = "-", "1.000", "-"
        else:
            beats = s_med - med > s_q3 - s_q1 and wins == n
            verdict = "**wins beyond the noise**" if beats else "no win"
            ratio, won = f"{med / s_med:.3f}", f"{wins}/{n}"
        same = "yes" if sigs[backend] == sigs["serial"] else f"NO ({sigs[backend]})"
        rows.append(
            f"| {workload} | {seed} | {backend} | {med:.4f} [{q1:.4f}-{q3:.4f}] "
            f"| {ratio} | {won} | {same} | {verdict} |"
        )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="a tree that still has the threads and cluster backends")
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", action="append", type=int)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--child", nargs=2, metavar=("WORKLOAD", "SEED"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    if args.child:
        workload, seed = args.child[0], int(args.child[1])
        print(json.dumps(child(checkout, workload, seed, args.rounds, args.workers)))
        return 0
    print(f"\n| workload | seed | backend | query s median [q1-q3] | /serial "
          f"| rounds won | values + sim time == serial | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in args.workload or WORKLOAD_NAMES:
        for seed in args.seed or [7]:
            done = subprocess.run(
                [sys.executable, __file__, "--checkout", str(checkout),
                 "--rounds", str(args.rounds), "--workers", str(args.workers),
                 "--child", workload, str(seed)],
                capture_output=True, text=True, check=True,
            )
            rec = json.loads(done.stdout.strip().splitlines()[-1])
            print("\n".join(table(workload, seed, rec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
