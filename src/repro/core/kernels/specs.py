"""Declarative kernel specs: how a GAS program opts into fusion.

A program whose gather/apply phases fit one of a small set of shapes
declares them as frozen specs (:meth:`GASProgram.gather_kernel_spec` /
:meth:`~repro.core.api.GASProgram.apply_kernel_spec`). The kernel
backends compile/execute those shapes as single fused passes; programs
without specs (stateful apply, edge-state gathers) run the generic
NumPy path unchanged.

Gather kinds (per-edge value fed to the segment reduction)::

    copy        src                       (connected components)
    div_degree  src / max(out_degree, 1)  (PageRank)
    mul_weight  src * w                   (SpMV)
    add_weight  src + w                   (SSSP)
    add_one     src + 1                   (pull BFS)

Apply kinds::

    affine      new = base + scale * where(has, g, fill)
                changed per ``changed_mode`` (all | tol | none)
    min_improve candidate = where(has, g, inf); keep improvements;
                ``source`` (if set) reports changed once on iteration 0
    mark_level  new = where(isinf(old), iteration, old); changed where
                old was inf (apply-only BFS)

Numeric codes (:data:`GATHER_KINDS`, :data:`REDUCE_KINDS`,
:data:`APPLY_KINDS`, :data:`CHANGED_MODES`) are what the compiled
backend branches on inside ``@njit`` bodies, so kernels specialize
without string handling.
"""

from __future__ import annotations

from dataclasses import dataclass

GATHER_KINDS = {"copy": 0, "div_degree": 1, "mul_weight": 2, "add_weight": 3, "add_one": 4}
#: "or" is the bit-parallel multi-source reduction (MS-BFS): uint64
#: bitmask words OR together, 64 traversals per word. Integer state
#: only -- the batch executor's bit-packed layout is its sole user.
REDUCE_KINDS = {"add": 0, "min": 1, "or": 2}
APPLY_KINDS = {"affine": 0, "min_improve": 1, "mark_level": 2}
CHANGED_MODES = {"all": 0, "tol": 1, "none": 2}

#: Gather kinds whose per-edge value reads the edge weight.
WEIGHTED_KINDS = frozenset({"mul_weight", "add_weight"})
#: Gather kinds whose per-edge value is a function of the source vertex
#: alone, so it can be mapped once per vertex instead of once per edge.
SOURCE_ONLY_KINDS = frozenset({"div_degree", "add_one"})


@dataclass(frozen=True)
class GatherSpec:
    """Fusable gather: per-edge map ``kind`` + segment reduction."""

    kind: str
    reduce: str = "add"

    def __post_init__(self):
        if self.kind not in GATHER_KINDS:
            raise ValueError(f"unknown gather kind {self.kind!r}")
        if self.reduce not in REDUCE_KINDS:
            raise ValueError(f"unknown gather reduce {self.reduce!r}")

    @property
    def needs_weights(self) -> bool:
        return self.kind in WEIGHTED_KINDS

    @property
    def source_only(self) -> bool:
        return self.kind in SOURCE_ONLY_KINDS


@dataclass(frozen=True)
class ApplySpec:
    """Fusable apply: vertex update + changed-mask rule."""

    kind: str
    base: float = 0.0
    scale: float = 1.0
    fill: float = 0.0
    tol: float | None = None
    changed_mode: str = "all"
    source: int | None = None

    def __post_init__(self):
        if self.kind not in APPLY_KINDS:
            raise ValueError(f"unknown apply kind {self.kind!r}")
        if self.changed_mode not in CHANGED_MODES:
            raise ValueError(f"unknown changed mode {self.changed_mode!r}")
        if self.changed_mode == "tol" and self.tol is None:
            raise ValueError("changed_mode 'tol' requires a tolerance")
