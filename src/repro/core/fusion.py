"""The Phase Fusion Engine (Section 5.3).

Builds the per-iteration *phase plan*: which phase groups run, over
which shard selection, moving which streaming buffers. Two optimizations
shape the plan:

* **Dynamic phase elimination** -- a phase the user did not define still
  costs shard movement in the naive pipeline; eliminating it drops both
  the kernel launches and the buffers only it needed (e.g. no
  ``gather_map`` -> in-edge arrays never cross PCIe; out-edges still move
  because FrontierActivate always runs).
* **Dynamic phase fusion** -- adjacent phases with shard-local data flow
  merge into one group, sharing one transfer and one kernel launch:
  ``gatherMap``+``gatherReduce`` always fuse (every in-edge of an
  interval vertex lives in that interval's shard, so the edge update
  array never leaves the device); ``scatter``+``FrontierActivate`` fuse
  (both iterate the out-edges of changed vertices); and when gather and
  scatter are both absent -- the paper's BFS example -- ``apply`` fuses
  with ``FrontierActivate``.

The *unoptimized* plan models the baseline of Figure 15: all five phases
run separately over every shard, each moving the full shard in and the
mutable buffers back out, with no frontier skipping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.api import GASProgram
from repro.obs.span import NULL_OBSERVER

#: Canonical phase order within one iteration (Figure 12).
PHASES = ("gather_map", "gather_reduce", "apply", "scatter", "frontier_activate")

#: The streaming buffers a host shard store holds: a group moving none
#: of them reads no shard edges (edge state and update arrays are not
#: stored).
EDGE_BUFFERS = frozenset(("in_topology", "in_weights", "out_topology", "out_weights"))


def _record_plan(obs, plan: "list[PhaseGroup]", mode: str) -> None:
    """Fusion-decision telemetry: how many groups the plan collapsed to,
    how many phases were fused away and how many eliminated outright."""
    total_phases = sum(len(g.phases) for g in plan)
    obs.add("fusion.groups", len(plan))
    obs.add("fusion.fused_phases", sum(len(g.phases) - 1 for g in plan))
    obs.add("fusion.eliminated_phases", max(0, len(PHASES) - total_phases))
    obs.event(
        "fusion.plan",
        category="fusion",
        mode=mode,
        groups=[g.name for g in plan],
        phases=[list(g.phases) for g in plan],
    )


@dataclass(frozen=True)
class PhaseGroup:
    """One fused group of phases executed per shard under one transfer."""

    name: str
    phases: tuple[str, ...]
    #: 'active' (frontier vertices), 'changed' (post-apply), or 'all'
    selector: str
    #: streaming buffers moved host->device for each selected shard
    h2d_buffers: tuple[str, ...]
    #: streaming buffers copied back device->host afterwards
    d2h_buffers: tuple[str, ...]
    #: device-only scratch buffers (allocated while the shard is staged,
    #: never crossing PCIe -- e.g. the fused gather's edge update array)
    scratch_buffers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        unknown = set(self.phases) - set(PHASES)
        if unknown:
            raise ValueError(f"unknown phases {sorted(unknown)}")
        if self.selector not in ("active", "changed", "all"):
            raise ValueError(f"unknown selector {self.selector!r}")

    @property
    def streams_edges(self) -> bool:
        """Whether the group streams shard edges (so must acquire them)."""
        return not EDGE_BUFFERS.isdisjoint(self.h2d_buffers)


def _in_buffers(program: GASProgram) -> tuple[str, ...]:
    bufs = ["in_topology"]
    if program.needs_weights:
        bufs.append("in_weights")
    if program.edge_dtype is not None:
        bufs.append("in_edge_state")
    return tuple(bufs)


def _out_buffers(program: GASProgram, for_scatter: bool) -> tuple[str, ...]:
    bufs = ["out_topology"]
    if for_scatter and program.needs_weights:
        bufs.append("out_weights")
    if for_scatter and program.edge_dtype is not None:
        bufs.append("out_edge_state")
    return tuple(bufs)


def build_plan(
    program: GASProgram, optimized: bool = True, fuse_gather: bool = False, obs=None
) -> list[PhaseGroup]:
    """The iteration's phase plan for ``program``.

    ``fuse_gather`` merges gatherMap and gatherReduce under one shard
    transfer so the edge update array never crosses PCIe. The paper's GR
    keeps them separate (Figure 12 moves every phase's shards), so this
    is off by default and measured as an extension ablation.
    """
    obs = obs if obs is not None else NULL_OBSERVER
    if not optimized:
        plan = _unoptimized_plan(program)
        _record_plan(obs, plan, "unoptimized")
        return plan

    plan: list[PhaseGroup] = []
    if program.has_gather and fuse_gather:
        plan.append(
            PhaseGroup(
                "gather",
                ("gather_map", "gather_reduce"),
                selector="active",
                h2d_buffers=_in_buffers(program),
                d2h_buffers=(),
                scratch_buffers=("edge_update_array",),
            )
        )
    elif program.has_gather:
        # Paper-faithful: gatherMap writes the per-in-edge update array
        # back to the host; gatherReduce streams it in again.
        plan.append(
            PhaseGroup(
                "gather_map",
                ("gather_map",),
                selector="active",
                h2d_buffers=_in_buffers(program),
                d2h_buffers=("edge_update_array",),
            )
        )
        plan.append(
            PhaseGroup(
                "gather_reduce",
                ("gather_reduce",),
                selector="active",
                h2d_buffers=("edge_update_array",),
                d2h_buffers=(),
            )
        )
    if program.has_gather or program.has_scatter:
        # apply stands alone: it touches only resident vertex arrays.
        plan.append(
            PhaseGroup("apply", ("apply",), selector="active", h2d_buffers=(), d2h_buffers=())
        )
        if program.has_scatter:
            d2h = ("out_edge_state",) if program.edge_dtype is not None else ()
            plan.append(
                PhaseGroup(
                    "scatter_fa",
                    ("scatter", "frontier_activate"),
                    selector="changed",
                    h2d_buffers=_out_buffers(program, for_scatter=True),
                    d2h_buffers=d2h,
                )
            )
        else:
            plan.append(
                PhaseGroup(
                    "frontier_activate",
                    ("frontier_activate",),
                    selector="changed",
                    h2d_buffers=_out_buffers(program, for_scatter=False),
                    d2h_buffers=(),
                )
            )
    else:
        # The BFS case: only apply defined -> apply fuses with
        # FrontierActivate under a single out-edge transfer.
        plan.append(
            PhaseGroup(
                "apply_fa",
                ("apply", "frontier_activate"),
                selector="active",
                h2d_buffers=_out_buffers(program, for_scatter=False),
                d2h_buffers=(),
            )
        )
    _record_plan(obs, plan, "bsp")
    return plan


def _unoptimized_plan(program: GASProgram) -> list[PhaseGroup]:
    """Five separate phases, full shard both ways, every shard."""
    all_in = _in_buffers(program)
    all_out = _out_buffers(program, for_scatter=True)
    full = tuple(dict.fromkeys(all_in + all_out + ("edge_update_array", "vertex_update_array")))
    mutable = ("edge_update_array", "vertex_update_array") + (
        ("in_edge_state", "out_edge_state") if program.edge_dtype is not None else ()
    )
    return [
        PhaseGroup(name, (name,), selector="all", h2d_buffers=full, d2h_buffers=mutable)
        for name in PHASES
    ]


def movement_savings(program: GASProgram) -> dict[str, bool]:
    """Which Section-5.3 savings apply to this program (for reporting)."""
    return {
        "eliminates_gather_buffers": not program.has_gather,
        "eliminates_scatter_values": not program.has_scatter,
        "fuses_gather_map_reduce": program.has_gather,
        "fuses_scatter_frontier": program.has_scatter,
        "fuses_apply_frontier": not program.has_gather and not program.has_scatter,
    }
