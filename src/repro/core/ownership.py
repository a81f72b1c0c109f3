"""Partitioned ownership: who holds which shard, and what crosses owners.

One abstraction shared by the two scale-out layers:

* the worker pool (:mod:`repro.core.procpool`, ``parallel_backend=
  "cluster"``), where each worker *process* attaches only its owned
  shard slice and the main process ships sparse boundary-vertex deltas
  through fixed-slot shared-memory mailboxes, and
* the simulated multi-device scheduler (:mod:`repro.core.multigpu`),
  where each *device* owns its shards for the whole run and the
  iteration-end replication exchanges only the changed vertices each
  peer actually reads.

Both layers need the same three answers, which live here:

1. **shard -> owner**: a total, single-owner assignment
   (:class:`OwnershipMap`; every shard has exactly one owner).
2. **boundary-vertex index sets**: which foreign vertices an owner
   *reads* (``in_boundary`` -- the CSC source vertices of its shards
   that fall outside its own intervals) and which of its vertices other
   owners read (``out_boundary``). These bound the sparse delta traffic:
   an owner only ever needs value updates for ``owned union
   in_boundary`` vertices.
3. **frontier policy**: ``"replicated"`` keeps full frontier bitmaps
   everywhere (the classic multi-GPU GAS design, and what the paper's
   single-device engine assumes); ``"partitioned"`` ships only the
   owned-interval slice (pool) or the pairwise boundary bits
   (multi-device), trading bitmap traffic for the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.partition import IDX_BYTES, PTR_BYTES, VAL_BYTES

#: Recognized frontier exchange policies.
FRONTIER_POLICIES = ("replicated", "partitioned")


def check_frontier_policy(policy: str) -> str:
    if policy not in FRONTIER_POLICIES:
        raise ValueError(
            f"unknown frontier_policy {policy!r}; expected one of "
            f"{FRONTIER_POLICIES}"
        )
    return policy


@dataclass(frozen=True)
class OwnershipMap:
    """A total shard -> owner assignment (every shard, exactly one owner).

    ``owner_of[i]`` is the owner of shard ``i``. Owners are dense ids
    ``0..num_owners-1``; an owner may end up with zero shards only when
    there are more owners than shards.
    """

    num_owners: int
    owner_of: tuple

    @classmethod
    def contiguous(cls, num_partitions: int, num_owners: int) -> "OwnershipMap":
        """Block assignment: owner ``w`` gets a contiguous run of shards.

        Contiguous runs keep each owner's vertex intervals contiguous
        too (shard intervals are sorted), which is what lets the worker
        pool describe an owner's vertex range as one ``[lo, hi)``
        slice -- the partitioned frontier policy ships exactly that
        slice of the bitmaps.
        """
        if num_owners < 1:
            raise ValueError(f"num_owners must be >= 1, got {num_owners!r}")
        num_owners = min(num_owners, max(num_partitions, 1))
        bounds = np.linspace(0, num_partitions, num_owners + 1).astype(np.int64)
        owner_of = np.repeat(np.arange(num_owners), np.diff(bounds))
        return cls(num_owners=num_owners, owner_of=tuple(int(o) for o in owner_of))

    @classmethod
    def round_robin(cls, num_partitions: int, num_owners: int) -> "OwnershipMap":
        """``shard.index % num_owners`` -- the legacy multi-GPU layout."""
        if num_owners < 1:
            raise ValueError(f"num_owners must be >= 1, got {num_owners!r}")
        num_owners = min(num_owners, max(num_partitions, 1))
        return cls(
            num_owners=num_owners,
            owner_of=tuple(i % num_owners for i in range(num_partitions)),
        )

    @property
    def num_partitions(self) -> int:
        return len(self.owner_of)

    def shards_of(self, owner: int) -> list[int]:
        return [i for i, o in enumerate(self.owner_of) if o == owner]

    def validate(self) -> None:
        """Every shard has exactly one owner in ``[0, num_owners)``."""
        if self.num_owners < 1:
            raise ValueError("ownership needs at least one owner")
        for i, o in enumerate(self.owner_of):
            if not isinstance(o, int) or not (0 <= o < self.num_owners):
                raise ValueError(
                    f"shard {i} has invalid owner {o!r} "
                    f"(num_owners={self.num_owners})"
                )


# ----------------------------------------------------------------------
# Boundary-vertex index sets
# ----------------------------------------------------------------------
def owned_vertex_mask(sharded, ownership: OwnershipMap, owner: int) -> np.ndarray:
    """Bool mask of the vertices inside ``owner``'s shard intervals."""
    mask = np.zeros(sharded.num_vertices, dtype=bool)
    for i in ownership.shards_of(owner):
        s = sharded.shards[i]
        mask[s.start : s.stop] = True
    return mask


def boundary_sets(sharded, ownership: OwnershipMap) -> tuple[list, list]:
    """Per-owner (in_boundary, out_boundary) sorted vertex-id arrays.

    ``in_boundary[w]``: foreign vertices ``w`` *reads* -- the CSC source
    vertices of its shards outside its own intervals (gather pulls their
    values across the ownership boundary).

    ``out_boundary[w]``: vertices ``w`` owns that some *other* owner
    reads. By construction the two sides describe the same edges, so
    ``union_{c != p}(in_boundary[c] & owned[p]) == out_boundary[p]`` --
    the symmetry the property test pins down.

    Works identically for in-RAM shards and store-backed lazy shards
    (reading ``csc.indices`` faults a lazy shard in once; this runs at
    pool/scheduler startup, not per iteration).
    """
    n = sharded.num_vertices
    readers = [
        np.zeros(n, dtype=bool) for _ in range(ownership.num_owners)
    ]  # readers[w][v]: w reads v via some owned shard's in-edges
    owned = [
        owned_vertex_mask(sharded, ownership, w)
        for w in range(ownership.num_owners)
    ]
    for shard in sharded.shards:
        w = ownership.owner_of[shard.index]
        src = shard.csc.indices
        if len(src):
            readers[w][src] = True
    in_b = [
        np.flatnonzero(readers[w] & ~owned[w])
        for w in range(ownership.num_owners)
    ]
    out_b = []
    for w in range(ownership.num_owners):
        read_by_others = np.zeros(n, dtype=bool)
        for other in range(ownership.num_owners):
            if other != w:
                read_by_others[in_b[other]] = True
        out_b.append(np.flatnonzero(read_by_others & owned[w]))
    return in_b, out_b


def boundary_matrix(sharded, ownership: OwnershipMap) -> dict:
    """Pairwise boundary sets: ``(consumer, producer) -> vertex ids``.

    ``matrix[(c, p)]`` holds the vertices owned by ``p`` that consumer
    ``c`` reads -- the exact vertex set a partitioned-frontier exchange
    from ``p`` to ``c`` must cover. Diagonal pairs are absent (an owner
    never ships to itself).
    """
    in_b, _ = boundary_sets(sharded, ownership)
    owned = [
        owned_vertex_mask(sharded, ownership, w)
        for w in range(ownership.num_owners)
    ]
    matrix = {}
    for c in range(ownership.num_owners):
        for p in range(ownership.num_owners):
            if c == p:
                continue
            vids = in_b[c][owned[p][in_b[c]]]
            if len(vids):
                matrix[(c, p)] = vids
    return matrix


# ----------------------------------------------------------------------
# Resident-byte accounting
# ----------------------------------------------------------------------
def estimate_shard_bytes(
    num_interval_vertices: int,
    num_in_edges: int,
    num_out_edges: int,
    with_weights: bool,
) -> int:
    """Host bytes of one shard's CSC+CSR arrays, from counts alone.

    Pure count math so the worker pool can report per-worker resident
    footprints for store-backed shards without faulting their pages
    (edge ids ride with each layout at ``IDX_BYTES`` apiece).
    """
    nv = num_interval_vertices
    total = 2 * (nv + 1) * PTR_BYTES  # csc+csr indptr
    total += (num_in_edges + num_out_edges) * 2 * IDX_BYTES  # indices+edge_ids
    if with_weights:
        total += (num_in_edges + num_out_edges) * VAL_BYTES
    return total
