"""Alternating-pair A/B of two checkouts on the repository benchmark.

The protocol every wall-clock claim in this repository goes through
(ROADMAP "Perf evidence", ``benchmarks/e2e/NOISE.md``): single runs on a
shared box spread by 5-30%, so a parent and a change checkout are run as
*pairs*, the side that goes first flipped every pair, each run one fresh
``benchmarks/e2e/run.py`` process started inside its own checkout.

    python3 benchmarks/ab_pairs.py PARENT CHANGE --workload pr_ram \\
        --seed 7 --pairs 10 --trace 0 | tee -a section.md

prints markdown in the ``results/ab/PR-<n>.md`` format; every run lasts the
``run_seconds`` of ``BENCHMARK.json``, the same on both sides. ``--trace
0``: a summary table -- median [q1-q3] per side, change/parent, pairs won,
a verdict against the ``BENCHMARK.json`` bound, bit-identity of the
simulated clocks and of the values hash -- then every run. ``--trace 1``:
the per-layer metrics of each pair side by side; the counters (unit
``count``), the bytes moved and the simulated kernel seconds repeat
exactly per seed, so one that differs between the sides fails the run.

Verdicts: *better* = the change wins at least 9/10 of the pairs (ties
count for neither side) and the medians differ by more than the parent's
inter-quartile distance -- from fewer than ten pairs that is only a
reading, and says so; *unresolved* = the wider of the two sides' spreads
((max - min) / median) exceeds the bound and the change's runs do not all
beat the parent's; otherwise the bound is applied to the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
#: simulated seconds repeat exactly per seed; everything else is host time
EXACT = ("sim_time_s", "sim_memcpy_s")
#: per-layer metrics that repeat exactly too: a difference is a finding
EXACT_LAYERS = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"} | {
    "movement.h2d_mb", "movement.d2h_mb", "sim.kernel_s",
}
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One fresh benchmark process in ``checkout``; its result record."""
    work = checkout / ".bench_work"  # run.py's own (git-ignored) work directory
    work.mkdir(exist_ok=True)
    out = work / f"ab-{os.getpid()}.json"
    cmd = [
        sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
        "--out", str(out),
    ]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
    try:
        return json.loads(out.read_text())
    except OSError:
        raise RuntimeError(
            f"{checkout}: {' '.join(cmd)} exited {done.returncode} without a result"
        ) from None
    finally:
        out.unlink(missing_ok=True)


def run_pairs(parent: Path, change: Path, workload: str, seed: int, trace: int,
              pairs: int) -> list[dict]:
    """``2 * pairs`` runs, the first side alternating; one row per run."""
    checkouts = dict(zip(SIDES, (parent, change)))
    rows = []
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for side in order:
            record = run_once(checkouts[side], workload, seed, trace)
            rows.append({"pair": pair, "first": order[0], "side": side, "record": record})
            print(f"{workload} seed {seed} pair {pair}/{pairs} {side}: done", file=sys.stderr)
    return rows


def _values(rows: list[dict], side: str, metric: str) -> list[float]:
    return [r["record"]["metrics"][metric]["value"] for r in rows if r["side"] == side]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, str, str]:
    """(change/parent, pairs won, verdict) of one non-exact metric."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    # As costs (lower is better), so one set of comparisons serves both senses.
    sign = 1.0 if better == "lower" else -1.0
    p_cost, c_cost = [sign * v for v in parent], [sign * v for v in change]
    wins = sum(c < p for p, c in zip(p_cost, c_cost))
    q1, _, q3 = _quartiles(p_cost)
    saved = sign * (p_med - c_med)
    spread = max((max(v) - min(v)) / statistics.median(v) for v in (parent, change))
    if len(parent) < 2:
        text = "one pair: no spread to judge against"
    elif wins >= 0.9 * len(parent) and saved > q3 - q1:
        # A gain may only be claimed from ten pairs or more.
        text = "better" if len(parent) >= 10 else "reads better (n<10, not a claim)"
    elif spread > bound and max(c_cost) >= min(p_cost):
        text = "unresolved (spread wider than the bound)"
    elif -saved / p_med > bound:
        text = f"WORSE beyond the {bound} bound"
    elif saved < 0:
        text = f"reads {-saved / p_med:+.1%} worse, inside the {bound} bound"
    else:
        text = "no worse"
    return f"{c_med / p_med:.3f}", f"{wins}/{len(parent)}", text


def _relative(parent: list[float], change: list[float]) -> float:
    """Largest relative difference between any parent and change value."""
    return max(abs(c - p) / abs(p) if p else abs(c) for p in parent for c in change)


def summary_table(rows: list[dict], workload: str, seed: int) -> list[str]:
    head = f"| {workload} | {seed} | {len(rows) // 2} "
    lines = [
        "| workload | seed | pairs | metric | parent median [q1-q3] | change median [q1-q3] "
        "| change/parent | change better | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for metric, spec in END_TO_END.items():
        parent, change = (_values(rows, side, metric) for side in SIDES)
        if metric in EXACT:
            if len(set(parent + change)) == 1:
                text = "bit-identical on every run"
            else:
                text = f"DIFFERS by {_relative(parent, change):.2g} relative at most"
            lines.append(f"{head}| {metric} | {parent[0]!r} | {change[0]!r} | {text} | - | - |")
            continue
        cells = [
            "{1:.4g} [{0:.4g}-{2:.4g}]".format(*_quartiles(values)) for values in (parent, change)
        ]
        ratio, won, text = verdict(parent, change, spec["better"], spec["bound"])
        lines.append(f"{head}| {metric} | {cells[0]} | {cells[1]} | {ratio} | {won} | {text} |")
    records = [r["record"] for r in rows]
    hashes = sorted({(r["side"], r["record"]["profile"]["values_hash"]) for r in rows})
    lines.append(
        f"{head}| failed / wrong / values_hash | - | - | failed={sum(r['failed'] for r in records)} "
        f"wrong={sum(not r['correct'] for r in records)} hashes={hashes} | - | - |"
    )
    return lines


def runs_table(rows: list[dict], workload: str, seed: int) -> list[str]:
    lines = [
        "| workload | seed | pair | ran first | side | " + " | ".join(END_TO_END)
        + " | failed | verified | values_hash |",
        "|---|---|---|---|---|" + "---|" * (len(END_TO_END) + 3),
    ]
    for r in rows:
        record = r["record"]
        values = {name: record["metrics"][name]["value"] for name in END_TO_END}
        cells = [repr(v) if name in EXACT else f"{v:.4g}" for name, v in values.items()]
        lines.append(
            f"| {workload} | {seed} | {r['pair']} | {r['first']} | {r['side']} | "
            + " | ".join(cells)
            + f" | {record['failed']} | {record['correct']} | {record['profile']['values_hash']} |"
        )
    return lines


def traced_tables(rows: list[dict], workload: str, seed: int) -> tuple[list[str], set[str]]:
    """The tables, and the :data:`EXACT_LAYERS` metrics that differ in a pair."""
    lines, moved = [], set()
    for pair in sorted({r["pair"] for r in rows}):
        parent, change = (
            next(r["record"] for r in rows if r["pair"] == pair and r["side"] == side)
            for side in SIDES
        )
        lines += [
            f"**{workload}, seed {seed}, `--trace 1`, pair {pair}** "
            f"(`=` identical; failed {parent['failed']} / {change['failed']}, "
            f"verified {parent['correct']} / {change['correct']})",
            "",
            "| metric | parent | change |",
            "|---|---|---|",
        ]
        for name, metric in parent["metrics"].items():
            p, c = metric["value"], change["metrics"][name]["value"]
            cell = "=" if c == p else format(c, ".6g")
            if c != p and name in EXACT_LAYERS:
                moved.add(name)
                cell += f" ({_relative([p], [c]):.2g} relative)"
            lines.append(f"| {name} | {p:.6g} | {cell} |")
        lines.append("")
    return lines, moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    clean = True
    for workload in args.workload:
        rows = run_pairs(
            args.parent.resolve(), args.change.resolve(), workload, args.seed,
            args.trace, args.pairs,
        )
        title = f"### {workload}, seed {args.seed}, {args.pairs} pairs, `--trace {args.trace}`"
        if args.trace:
            tables, moved = traced_tables(rows, workload, args.seed)
            lines = [title, ""] + tables
            for name in sorted(moved):
                lines.append(f"**{name} differs between the sides**")
                clean = False
        else:
            lines = (
                [title, ""] + summary_table(rows, workload, args.seed)
                + ["", "Every run:", ""] + runs_table(rows, workload, args.seed) + [""]
            )
        print("\n".join(lines) + "\n", flush=True)
        clean &= all(r["record"]["correct"] and not r["record"]["failed"] for r in rows)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
