"""Out-of-core peak-RSS probe (``python -m repro.obs.ooc_probe``).

Opens a shard store, runs fixed-iteration PageRank out-of-core and
prints one JSON object with the run's peak RSS, prefetch counters and a
vertex-value checksum. It must run in a *fresh* interpreter because
``ru_maxrss`` is lifetime-monotone: a process that has already touched
a large array can never measure a smaller peak again --
:func:`run_ooc_probe` launches it in one.

``--rss-cap`` turns the measurement into an enforced claim: the probe
exits non-zero when the run grew peak RSS (``VmHWM``) by more than the
cap, so a cap below the graph's in-RAM footprint proves the run never
held the full graph resident. (The store is one mapping of the whole
file, so *address space* says nothing -- resident pages are what the
``memory_budget`` bounds, by handing evicted shards' pages back to the
OS.) CI's out-of-core smoke job runs exactly that.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path


def _rss_peak_bytes() -> int:
    """Peak RSS of *this* process image, from ``/proc/self/status``.

    Not ``ru_maxrss``: Linux copies that across fork+exec, so a child
    spawned by a fat parent (the bench harness) would inherit the
    parent's peak and report a meaningless delta. VmHWM is per-mm and
    resets on exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def run_ooc_probe(
    store_path,
    iterations: int = 8,
    memory_budget: int | None = None,
    rss_cap: int | None = None,
    profile_out=None,
    timeout: float = 600.0,
) -> dict:
    """Run this probe in a fresh interpreter.

    ``ru_maxrss`` is lifetime-monotone, so a run's peak RSS can only be
    measured by a process that has done nothing else -- hence the
    subprocess. Returns the probe's JSON document; on a crash the dict
    has ``ok: False`` plus the captured stderr tail.
    """
    import repro

    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, "-m", "repro.obs.ooc_probe", str(store_path),
        "--iterations", str(iterations),
    ]
    if memory_budget is not None:
        cmd += ["--memory-budget", str(memory_budget)]
    if rss_cap is not None:
        cmd += ["--rss-cap", str(rss_cap)]
    if profile_out is not None:
        cmd += ["--profile-out", str(profile_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return {
            "ok": False,
            "returncode": proc.returncode,
            "error": (proc.stderr or proc.stdout).strip()[-2000:],
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.ooc_probe",
        description="run PageRank from a shard store and report peak RSS as JSON",
    )
    parser.add_argument("store", help="shard store directory (repro partition output)")
    parser.add_argument("--iterations", type=int, default=8,
                        help="PageRank power iterations")
    parser.add_argument("--memory-budget", type=int, default=None,
                        help="host RAM budget (bytes) for the shard cache")
    parser.add_argument(
        "--rss-cap", type=int, default=None,
        help="fail unless the run's peak-RSS growth (rss_delta_bytes) "
             "stays at or below this many bytes",
    )
    parser.add_argument("--profile-out", default=None,
                        help="also write the bottleneck profile JSON here")
    args = parser.parse_args(argv)

    # Import the heavy stack before measuring anything -- the probe
    # bounds the *run*, not the interpreter. That includes SciPy's CSR
    # kernels, which the first ``add`` gather would otherwise load.
    import numpy as np

    from repro.algorithms import PageRank
    from repro.core.runtime import GraphReduce, GraphReduceOptions
    from repro.core.shardstore import ShardStore
    from repro.graph.csr import sparsetools

    sparsetools()

    rss_floor = _rss_peak_bytes()
    out: dict = {
        "ok": False,
        "store": args.store,
        "rss_floor_bytes": rss_floor,
        "memory_budget": args.memory_budget,
        "rss_cap_bytes": args.rss_cap,
    }
    opts = GraphReduceOptions(cache_policy="never", memory_budget=args.memory_budget)
    result = GraphReduce(shard_store=ShardStore.open(args.store), options=opts).run(
        PageRank(tolerance=None, max_iterations=args.iterations)
    )
    peak = _rss_peak_bytes()
    vals = result.vertex_values
    delta = peak - rss_floor
    out.update(
        ok=args.rss_cap is None or delta <= args.rss_cap,
        algorithm="pagerank-power",
        iterations=result.iterations,
        num_partitions=result.num_partitions,
        max_rss_bytes=peak,
        rss_delta_bytes=delta,
        checksum=float(np.sum(vals[np.isfinite(vals)], dtype=np.float64)),
        prefetch=result.prefetch,
    )
    if not out["ok"]:
        out["error"] = f"peak RSS grew {delta} B, over the {args.rss_cap} B cap"
    if args.profile_out:
        from repro.obs.profile import build_profile, write_profile

        write_profile(args.profile_out, build_profile(result))
    print(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
