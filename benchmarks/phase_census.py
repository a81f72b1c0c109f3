"""How often a phase can be folded from a tape, per benchmark workload.

A barrier phase's *skeleton* is what it issues apart from its kernel
durations: (group, residency, ordered shards), or the frontier sync. Its
*event order* is the path the event loop takes through it, which a phase
tape records as guards (``repro.sim.tape``). For every workload of
``benchmarks/e2e/workloads.py`` and every seed this prints, for one
query on a fresh engine:

* ``phases``: barrier phases that may use tapes (frontier syncs too);
* ``skeletons``: distinct skeletons among them;
* ``orders``: distinct (skeleton, event order) pairs, counted by a second
  query on another fresh engine that records every new order it meets,
  on first sighting and without the variant bounds;
* ``hit rate``: phases folded from a tape, over ``phases``;
* ``instr/play``: instructions and guards of the tape that folded a
  phase, per folded phase;
* ``tape KB``: what the tapes of the first query hold.

    PYTHONPATH=src python3 benchmarks/phase_census.py --seed 7 --seed 23

``--quick`` uses the workloads' small inputs.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import repro.core.movement as movement  # noqa: E402
from repro.core.movement import DataMovementEngine  # noqa: E402
from repro.sim.tape import Tape, TapeRecorder  # noqa: E402


class Census:
    """Counts phases, hits and executed instructions while installed."""

    def __init__(self):
        self.phases = self.hits = self.instructions = 0
        self.playing = False  # inside _play (not a recording's self-check)
        self.engines: list[DataMovementEngine] = []

    def install(self):
        census, play, tape_play = self, DataMovementEngine._play, Tape.play
        init = DataMovementEngine.__init__

        def counted_init(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            census.engines.append(engine)

        def counted_play(engine, key, inputs):
            census.phases += 1
            census.playing = True
            try:
                hit = play(engine, key, inputs)
            finally:
                census.playing = False
            census.hits += hit
            return hit

        def counted_tape(tape, inputs, refs):
            record = tape_play(tape, inputs, refs)
            if record is not None and census.playing:
                census.instructions += len(tape)
            return record

        DataMovementEngine.__init__ = counted_init
        DataMovementEngine._play = counted_play
        Tape.play = counted_tape
        return lambda: (
            setattr(DataMovementEngine, "__init__", init),
            setattr(DataMovementEngine, "_play", play),
            setattr(Tape, "play", tape_play),
        )

    def books(self) -> list[dict]:
        unique = {id(e.tapes): e.tapes for e in self.engines}
        return list(unique.values())


def _record_every_order(engine, key):
    """``_recorder`` without bounds, recording on first sighting."""
    engine.tapes.setdefault(key, [])
    return TapeRecorder()


def census(workload, seed: int, quick: bool, workdir: Path) -> dict:
    inputs = workload.inputs(seed, quick)
    row = {"workload": workload.name, "seed": seed}
    counter = Census()
    uninstall = counter.install()
    try:
        workload.query(workload.cold_start(inputs, workdir), inputs)
    finally:
        uninstall()
    tapes = [t for book in counter.books() for variants in book.values() for t, _, _ in variants]
    row.update(
        phases=counter.phases,
        skeletons=sum(len(book) for book in counter.books()),
        hit_rate=counter.hits / max(counter.phases, 1),
        instr_per_play=counter.instructions / max(counter.hits, 1),
        tape_kb=sum(t.nbytes for t in tapes) / 1e3,
    )
    every, recorder = Census(), DataMovementEngine._recorder
    uninstall = every.install()
    DataMovementEngine._recorder = _record_every_order
    bounds = movement.TAPES, movement.TAPE_VARIANTS
    movement.TAPES = movement.TAPE_VARIANTS = 1 << 30
    try:
        workload.query(workload.cold_start(inputs, workdir), inputs)
    finally:
        movement.TAPES, movement.TAPE_VARIANTS = bounds
        DataMovementEngine._recorder = recorder
        uninstall()
    row["orders"] = sum(len(v) for book in every.books() for v in book.values())
    return row


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", action="append", type=int)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    print("| workload | seed | phases | skeletons | orders | hit rate | instr/play | tape KB |")
    print("|---|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or list(WORKLOADS):
            for seed in args.seed or [7]:
                r = census(WORKLOADS[name], seed, args.quick, Path(tmp))
                print(f"| {r['workload']} | {r['seed']} | {r['phases']} | {r['skeletons']} "
                      f"| {r['orders']} | {r['hit_rate']:.3f} | {r['instr_per_play']:.0f} "
                      f"| {r['tape_kb']:.1f} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
