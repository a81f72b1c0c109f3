"""The repository benchmark (see README.md in this directory).

Three ways to run it, from the repository root:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload in this process; the last line of standard output is
    the result object the ``BENCHMARK.json`` contract describes
    (``--trace 0``: end-to-end metrics, ``--trace 1``: per-layer).
``python3 benchmarks/e2e/run.py [--workload W]... [--seed 7] [--out FILE] [--quick]``
    every chosen workload, each in fresh subprocesses (untraced, then
    traced), one after another; cross-checks ``pr_ooc`` against
    ``pr_ram`` and writes one JSON document with the machine profile.
``python3 benchmarks/e2e/run.py --repeat-check R``
    two alternating sets of R full invocations of the same code; fails
    if the set medians disagree by more than a metric's bound or any
    exact metric differs at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORK = ROOT / ".bench_work"
#: simulated seconds: like the counters they repeat exactly per seed
SIMULATED = ("sim_time_s", "sim_memcpy_s", "sim.kernel_s", "sim.memcpy_busy_s")
DEFAULT_SEED = 7


# ----------------------------------------------------------------------
# One workload in this process (the contract's command)
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """The workload's record: the contract's result plus its profile."""
    from protocol import COLD_STARTS, Session, measure_end_to_end, measure_layers
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = WORK / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        session = Session(workload, workload.inputs(seed, quick), workdir)
        samples = {}
        if trace:
            declared = PER_LAYER
            values = measure_layers(
                session, traced_reps=1 if quick else workload.traced_reps
            )
        else:
            declared = END_TO_END
            values, samples = measure_end_to_end(
                session,
                cold_starts=1 if quick else COLD_STARTS,
                warm_reps=2 if quick else workload.warm_reps(seconds),
            )
        correct = session.verified()
        return {
            "correct": correct,
            "attempted": session.ops.attempted,
            "failed": session.ops.failed,
            "metrics": {
                key: {"value": values[key], "unit": spec["unit"]}
                for key, spec in declared.items()
            },
            "samples": samples,
            "profile": session.profile(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_metrics(name: str, metrics: dict, samples: dict, ops: int, failed: int, correct: bool) -> None:
    for key, metric in metrics.items():
        print(f"{name:12s} {key:32s} {metric['value']:.6g} {metric['unit']}")
    for key, s in samples.items():
        print(
            f"{name:12s} {key:32s} n={s['n']} q1={s['q1']:.4g} q3={s['q3']:.4g} "
            f"min={s['min']:.4g} max={s['max']:.4g}"
        )
    print(
        f"{name:12s} operations: {ops} attempted, {failed} failed; "
        f"outputs {'verified' if correct else 'WRONG'}"
    )


# ----------------------------------------------------------------------
# Every workload, each in fresh subprocesses
# ----------------------------------------------------------------------
def machine_profile(seed: int) -> dict:
    import numpy
    import scipy

    from repro.core.kernels import numba_available

    def read(path: str, default: str = "unknown") -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return default

    model = [
        line.split(":", 1)[1].strip()
        for line in read("/proc/cpuinfo", "").splitlines()
        if line.startswith("model name")
    ]
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    thp = read("/sys/kernel/mm/transparent_hugepage/enabled")
    return {
        "nproc": os.cpu_count(),
        "cpu": model[0] if model else platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_available(),
        "thp": thp[thp.find("[") + 1 : thp.find("]")] if "[" in thp else thp.strip(),
        "seed": seed,
        "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown",
    }


def run_child(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    out = WORK / f"child-{os.getpid()}.json"
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    if quick:
        cmd.append("--quick")
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        record = json.loads(out.read_text())
    except OSError:
        raise RuntimeError(f"{name} --trace {trace} exited {done.returncode} without a result")
    finally:
        out.unlink(missing_ok=True)
    return record


def run_suite(names: list[str], seed: int, seconds: float, quick: bool) -> dict:
    """One full invocation: the JSON document of every chosen workload."""
    workloads = {}
    for name in names:
        untraced = run_child(name, seed, seconds, 0, quick)
        traced = run_child(name, seed, seconds, 1, quick)
        record = {
            "correct": untraced["correct"] and traced["correct"],
            "ops": untraced["attempted"] + traced["attempted"],
            "failed_ops": untraced["failed"] + traced["failed"],
            "end_to_end": untraced["metrics"],
            "samples": untraced["samples"],
            "per_layer": traced["metrics"],
            "profile": untraced["profile"],
        }
        workloads[name] = record
        print_metrics(
            name, {**record["end_to_end"], **record["per_layer"]}, record["samples"],
            record["ops"], record["failed_ops"], record["correct"],
        )
    problems = [n for n, r in workloads.items() if not r["correct"] or r["failed_ops"]]
    if {"pr_ram", "pr_ooc"} <= workloads.keys():
        # The repo's bit-identity contract between the two tiers.
        ram, ooc = workloads["pr_ram"], workloads["pr_ooc"]
        same = (
            ram["profile"]["values_hash"] == ooc["profile"]["values_hash"]
            and ram["end_to_end"]["sim_time_s"] == ooc["end_to_end"]["sim_time_s"]
        )
        print(f"pr_ooc values and simulated time {'equal' if same else 'DIFFER FROM'} pr_ram's")
        if not same:
            ooc["failed_ops"] += 1
            problems.append("pr_ooc != pr_ram")
    if "pr_ooc" in workloads:
        print(
            "pr_ooc: the store lives in a work directory and stays in the page "
            "cache; this measures the host pipeline, not disk hardware"
        )
    return {
        "benchmark": "benchmarks/e2e",
        "machine": machine_profile(seed),
        "seconds": seconds,
        "quick": quick,
        "workloads": workloads,
        "problems": problems,
    }


# ----------------------------------------------------------------------
# Two sets of runs of the same code
# ----------------------------------------------------------------------
def is_exact(name: str) -> bool:
    """Whether a metric repeats exactly from run to run of one seed:
    everything but host-clock readings and peak RSS."""
    if name in SIMULATED:
        return True
    host_clock = name.endswith(("_s", "ns_per_item", "us_per_op")) or name.startswith("trace.")
    return name in PER_LAYER and not host_clock


def repeat_check(names: list[str], seed: int, seconds: float, quick: bool, repeats: int):
    """(markdown table, ok) of two alternating sets of ``repeats`` runs."""
    sets = {"A": [], "B": []}
    for i in range(2 * repeats):
        label = "AB"[i % 2]
        print(f"--- repeat-check invocation {i + 1}/{2 * repeats} (set {label})")
        doc = run_suite(names, seed, seconds, quick)
        if doc["problems"]:
            raise RuntimeError(f"invocation {i + 1} failed: {doc['problems']}")
        sets[label].append(doc)
    machine = sets["A"][0]["machine"]
    lines = [
        f"Two alternating sets of {repeats} invocations, seed {seed}, "
        f"{machine['nproc']} x {machine['cpu']}, commit {machine['git_commit']}.",
        "",
        "| workload | metric | unit | median A | median B | set diff | bound | spread A | spread B | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    ok = True
    for name in names:
        for key, spec in END_TO_END.items():
            a, b = ([d["workloads"][name]["end_to_end"][key]["value"] for d in sets[s]] for s in "AB")
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = abs(med_a - med_b) / med_a
            spreads = [(max(v) - min(v)) / statistics.median(v) for v in (a, b)]
            if is_exact(key):
                bound, verdict = 0.0, "exact" if len(set(a + b)) == 1 else "DIFFERS"
            else:
                bound = spec["bound"]
                verdict = "ok" if diff <= bound else "EXCEEDS"
                if verdict == "ok" and max(spreads) > bound:
                    verdict = "ok (noisy)"
            ok &= verdict in ("ok", "ok (noisy)", "exact")
            lines.append(
                f"| {name} | {key} | {spec['unit']} | {med_a:.6g} | {med_b:.6g} | "
                f"{diff:.4f} | {bound:.2f} | {spreads[0]:.4f} | {spreads[1]:.4f} | {verdict} |"
            )
        drifting = sorted(
            key for key in PER_LAYER
            if is_exact(key) and len({
                d["workloads"][name]["per_layer"][key]["value"] for s in "AB" for d in sets[s]
            }) > 1
        )
        ok &= not drifting
        lines.append(
            f"| {name} | exact per-layer counters | | | | | 0.00 | | | "
            f"{'DIFFER: ' + ', '.join(drifting) if drifting else 'exact'} |"
        )
    return "\n".join(lines) + "\n", ok


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeat-check", type=int, metavar="R")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in SPEC["workloads"]]

    if args.trace is not None:
        if len(names) != 1:
            parser.error("--trace runs exactly one --workload")
        record = run_workload(names[0], args.seed, args.seconds, bool(args.trace), args.quick)
        print_metrics(
            names[0], record["metrics"], record["samples"],
            record["attempted"], record["failed"], record["correct"],
        )
        if args.out:
            args.out.write_text(json.dumps(record, indent=1))
        print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0 if record["correct"] else 1

    if args.repeat_check:
        table, ok = repeat_check(names, args.seed, args.seconds, args.quick, args.repeat_check)
        print(table)
        if args.out:
            args.out.write_text(table)
        return 0 if ok else 1

    doc = run_suite(names, args.seed, args.seconds, args.quick)
    WORK.mkdir(exist_ok=True)
    out = args.out or WORK / "e2e.json"
    out.write_text(json.dumps(doc, indent=1))
    print(f"wrote {out}")
    return 1 if doc["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
