"""On-disk shard store: the out-of-core analogue of Section 4.3.

GraphReduce's defining claim is processing graphs *larger than device
memory* by streaming shards over PCIe. On the host side of the
reproduction the same regime appears one level up the hierarchy: a graph
larger than host RAM must stream shards from *disk*. This module is that
tier -- a two-file directory holding one ``ShardedGraph``:

``manifest.json``
    graph metadata, intervals, per-shard edge counts, and the byte
    offset of every array in ``shards.bin`` plus one ``zlib.crc32`` per
    shard. Everything the Data Movement Engine sizes transfers with
    comes from here.
``shards.bin``
    the two degree arrays, then every shard's CSC and CSR sub-arrays
    (``indptr``/``indices``/``eids``[/``weights``]) packed back to back:
    each array starts on a 64-byte boundary and each shard on a
    4096-byte page, so a shard is a page range nobody else shares.

``ShardStore.open`` maps ``shards.bin`` once, read-only. ``load_arrays``
builds and checks a shard's ``np.frombuffer`` views into that mapping
once, then every later load is a lookup; a shard's bytes fault in on
first touch, and :meth:`ShardStore.release` hands its page range back
with ``madvise(MADV_DONTNEED)``. Views stay valid after a release --
they re-fault -- so nothing that holds one (a dense plan, say) pins memory.

Shards come back as :class:`LazyShard` views whose ``csc``/``csr``
properties delegate to a pluggable *source* -- by default a per-store
memo, at runtime the movement layer's ``HostPrefetcher`` -- so the
resident set is a policy decision, not a format property. The arrays a
lazy shard exposes have byte-identical dtypes and contents to the
in-RAM :class:`~repro.core.partition.Shard`, which is what keeps
out-of-core runs bit-identical to in-RAM runs.

:func:`build_store_streaming` ingests an edge-list file that never fully
resides in RAM: a chunked counting pass fixes the intervals, a bucketing
pass spills (key, neighbor, edge-id[, weight]) records per shard, and a
per-shard compression pass reproduces exactly the stable-sort layout of
:func:`repro.graph.csr._compress` -- including the global edge ids.
"""

from __future__ import annotations

import json
import mmap
import shutil
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.kernels import layout as layout_mod
from repro.core.partition import (
    ShardBytes,
    ShardedGraph,
    edge_balanced_from_loads,
)
from repro.graph.edgelist import VID_DTYPE, WEIGHT_DTYPE
from repro.graph.csr import CSR, shared_array, stable_order
from repro.graph.io import edgelist_metadata, iter_edge_chunks

FORMAT = "graphreduce-shard-store"
VERSION = 2

MANIFEST = "manifest.json"
PACKED = "shards.bin"

#: every shard starts on a page (so ``madvise`` can drop exactly it) and
#: every array on a cache line (what the fused kernels stream)
PAGE = 4096
ALIGN = layout_mod.ALIGN

#: sub-array name -> dtype, in on-disk order per layout ("csc" / "csr")
_DTYPES = {
    "indptr": np.dtype(np.int64),
    "indices": np.dtype(VID_DTYPE),
    "eids": np.dtype(np.int64),
    "weights": np.dtype(WEIGHT_DTYPE),
}
_REQUIRED = (
    "name", "num_vertices", "num_edges", "undirected", "weighted", "logic",
    "dtypes", "boundaries", "packed_bytes", "degrees", "shards",
)


#: ``madvise`` flags, None where the platform's ``mmap`` has none
_MADV_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)
_MADV_WILLNEED = getattr(mmap, "MADV_WILLNEED", None)


class StoreFormatError(ValueError):
    """The directory is not a readable v2 shard store."""


# ----------------------------------------------------------------------
# Lazy views
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardArrays:
    """One shard's arrays: read-only views into the store's mapping."""

    csc: CSR
    csr: CSR
    csc_weights: np.ndarray | None
    csr_weights: np.ndarray | None
    #: bytes of the arrays above (for fault accounting)
    nbytes: int = 0


class LazyShard(ShardBytes):
    """A :class:`~repro.core.partition.Shard` look-alike whose arrays
    live behind a *source* (store memo or prefetcher cache).

    Counts come from the manifest, so everything the Data Movement
    Engine sizes transfers with -- ``sub_array_bytes``, ``total_bytes``,
    ``expand_buffers`` -- never faults a byte in from disk.
    """

    __slots__ = ("index", "start", "stop", "_num_in", "_num_out", "_source")

    def __init__(self, index: int, start: int, stop: int, num_in: int, num_out: int, source):
        self.index = index
        self.start = start
        self.stop = stop
        self._num_in = num_in
        self._num_out = num_out
        self._source = source

    def bind(self, source) -> None:
        """Swap the array provider (the runtime installs its prefetcher)."""
        self._source = source

    @property
    def num_interval_vertices(self) -> int:
        return self.stop - self.start

    @property
    def num_in_edges(self) -> int:
        return self._num_in

    @property
    def num_out_edges(self) -> int:
        return self._num_out

    @property
    def csc(self) -> CSR:
        return self._source.arrays(self.index).csc

    @property
    def csr(self) -> CSR:
        return self._source.arrays(self.index).csr

    @property
    def csc_weights(self) -> np.ndarray | None:
        return self._source.arrays(self.index).csc_weights

    @property
    def csr_weights(self) -> np.ndarray | None:
        return self._source.arrays(self.index).csr_weights


class StoreEdgeList:
    """EdgeList facade over a store: metadata + mapped degree views.

    Satisfies everything the runtime reads from ``edges`` -- counts,
    ``name``, ``undirected``, degree arrays, the ``weights is None``
    probe -- without the edges themselves ever existing in RAM.
    ``weights`` is a zero-length marker array when the run is weighted
    (stored or synthesized unit weights); real per-edge values are only
    ever touched shard-wise through the lazy shards.
    """

    def __init__(self, store: "ShardStore", weighted: bool):
        self.num_vertices = store.num_vertices
        self.num_edges = store.num_edges
        self.undirected = store.undirected
        self.name = store.name
        self.weights = np.empty(0, dtype=WEIGHT_DTYPE) if weighted else None
        self._store = store

    def with_unit_weights(self) -> "StoreEdgeList":
        return StoreEdgeList(self._store, weighted=True)

    def out_degrees(self) -> np.ndarray:
        return self._store.out_degrees()

    def in_degrees(self) -> np.ndarray:
        return self._store.in_degrees()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoreEdgeList({self.name!r}, V={self.num_vertices}, "
            f"E={self.num_edges}, store={str(self._store.path)!r})"
        )


class _MemoSource:
    """Default array provider: load on first touch, keep forever.

    Fine for direct store use (tests, ad-hoc inspection); the runtime
    replaces it with the budgeted ``HostPrefetcher``.
    """

    def __init__(self, store: "ShardStore", unit_weights: bool):
        self._store = store
        self._unit_weights = unit_weights
        self._cache: dict[int, ShardArrays] = {}

    def arrays(self, index: int) -> ShardArrays:
        got = self._cache.get(index)
        if got is None:
            got = self._store.load_arrays(index, unit_weights=self._unit_weights)
            self._cache[index] = got
        return got


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
def _array_counts(meta: dict, weighted: bool) -> list[tuple[str, str, int]]:
    """(key, part, element count) of one shard's arrays."""
    rows = meta["stop"] - meta["start"] + 1
    return [
        (f"{layout}.{part}", part, rows if part == "indptr" else meta[count_key])
        for layout, count_key in (("csc", "in_edges"), ("csr", "out_edges"))
        for part in _DTYPES
        if part != "weights" or weighted
    ]


class ShardStore:
    """A ``ShardedGraph`` serialized to one directory.

    Construction validates the manifest against the packed file's size
    and maps the file once; everything after is views into that mapping,
    which lives as long as the store or any array handed out from it.
    """

    def __init__(self, path: Path, manifest: dict):
        self.path = path = Path(path)
        if manifest.get("format") != FORMAT:
            raise StoreFormatError(
                f"{path}: not a shard store (format={manifest.get('format')!r})"
            )
        version = manifest.get("version")
        if version != VERSION:
            hint = " (one .npy per array); rebuild with `repro partition`" if version == 1 else ""
            raise StoreFormatError(f"{path}: unsupported store version {version!r}{hint}")
        missing = [key for key in _REQUIRED if key not in manifest]
        if missing:
            raise StoreFormatError(f"{path}: manifest lacks {', '.join(missing)}")
        self.manifest = manifest
        self.name: str = manifest["name"]
        self.num_vertices: int = manifest["num_vertices"]
        self.num_edges: int = manifest["num_edges"]
        self.undirected: bool = manifest["undirected"]
        self.weighted: bool = manifest["weighted"]
        self.logic: str = manifest["logic"]
        self.boundaries = np.asarray(manifest["boundaries"], dtype=np.int64)
        self.shard_meta: list[dict] = manifest["shards"]
        self.packed_bytes: int = manifest["packed_bytes"]
        try:
            self._layout = self._checked_layout()
        except (KeyError, TypeError) as exc:
            raise StoreFormatError(f"{path}: malformed manifest ({exc!r})") from exc
        packed = path / PACKED
        try:
            size = packed.stat().st_size
        except FileNotFoundError:
            raise StoreFormatError(f"{path}: {PACKED} is missing") from None
        if size != self.packed_bytes:
            raise StoreFormatError(
                f"{path}: {PACKED} holds {size} bytes, manifest says {self.packed_bytes}"
            )
        with packed.open("rb") as fh:
            self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        self._warned_no_madvise = False
        #: shard index -> its checked views (see :meth:`load_arrays`)
        self._views: dict[int, ShardArrays] = {}

    def _checked_layout(self) -> list[dict[str, tuple]]:
        """Per shard, array key -> ``(dtype, count, offset)``, every
        span proven inside the file."""
        if self.manifest["dtypes"] != {k: dt.name for k, dt in _DTYPES.items()}:
            raise StoreFormatError(f"{self.path}: unexpected dtypes {self.manifest['dtypes']}")

        def span(offset: int, nbytes: int, align: int, what: str) -> None:
            if offset < 0 or offset % align or offset + nbytes > self.packed_bytes:
                raise StoreFormatError(
                    f"{self.path}: {what} at [{offset}, {offset + nbytes}) is misaligned "
                    f"or outside the {self.packed_bytes}-byte packed file"
                )

        degrees = self.manifest["degrees"]
        span(degrees["offset"], degrees["nbytes"], ALIGN, "degrees")
        for side in ("out", "in"):
            span(degrees[side], self.num_vertices * 8, ALIGN, f"degrees.{side}")
        layout = []
        for meta in self.shard_meta:
            span(meta["offset"], meta["nbytes"], PAGE, f"shard {meta['index']}")
            arrays = {}
            for key, part, count in _array_counts(meta, self.weighted):
                dtype, offset = _DTYPES[part], meta["arrays"][key]
                span(offset, count * dtype.itemsize, ALIGN, f"shard {meta['index']} {key}")
                arrays[key] = (dtype, count, offset)
            layout.append(arrays)
        return layout

    # -- construction ---------------------------------------------------
    @classmethod
    def open(cls, path) -> "ShardStore":
        path = Path(path)
        try:
            with (path / MANIFEST).open() as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            hint = ""
            if any(path.glob("shard*.npy")):
                hint = " (loose version 1 arrays; rebuild with `repro partition`)"
            raise StoreFormatError(f"{path}: no {MANIFEST}{hint}") from None
        except json.JSONDecodeError as exc:
            raise StoreFormatError(f"{path}: unreadable {MANIFEST} ({exc})") from exc
        if not isinstance(manifest, dict):
            raise StoreFormatError(f"{path}: {MANIFEST} is not a JSON object")
        return cls(path, manifest)

    @classmethod
    def save(cls, sharded: ShardedGraph, path) -> "ShardStore":
        """Serialize an in-RAM ``ShardedGraph`` (same bytes the
        streaming builder produces)."""
        edges = sharded.edges
        with _StoreWriter(path, edges.weights is not None) as writer:
            writer.degrees(edges.out_degrees(), edges.in_degrees())
            for shard in sharded.shards:
                writer.shard(
                    shard.index,
                    shard.start,
                    shard.stop,
                    (
                        (layout, (csr.indptr, csr.indices, csr.edge_ids, weights))
                        for layout, csr, weights in (
                            ("csc", shard.csc, shard.csc_weights),
                            ("csr", shard.csr, shard.csr_weights),
                        )
                    ),
                )
            manifest = writer.finish(
                edges.name, edges.num_vertices, edges.num_edges, edges.undirected,
                sharded.logic, sharded.boundaries,
            )
        return cls(writer.path, manifest)

    # -- reading --------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self.shard_meta)

    def load_arrays(self, index: int, unit_weights: bool = False) -> ShardArrays:
        """One shard's sub-arrays as read-only views into the mapping.

        The views and both ``CSR``s are built and checked (the CSC's vertex
        ids against the graph too) on the shard's first successful load
        after ``open`` (a load that raises keeps nothing); later loads
        return the same objects. One check is
        enough: they are the same views over the same read-only mapping,
        and plans built from them were already reused without a re-check.
        Views pin no pages, so the memo leaves RSS to :meth:`release`.

        ``unit_weights`` stands in ``ones`` for the weights when an
        unweighted store runs a weights-needing program -- the same
        values ``EdgeList.with_unit_weights`` would have partitioned.
        They are read-only views of the process-wide ones
        (:func:`~repro.graph.csr.shared_array`, sized once for the
        store's largest shard), so a plan that keeps them owns no bytes.
        Every returned array is 64-byte aligned: the views by the file
        layout, the ones by ``shared_array``.
        """
        got = self._views.get(index)
        if got is None:
            v = {key: np.frombuffer(self._mm, *spec) for key, spec in self._layout[index].items()}
            csc = CSR(v["csc.indptr"], v["csc.indices"], v["csc.eids"])
            ids = csc.indices  # summed through unchecked (csr_sum); take checks the rest
            if len(ids) and (ids.min() < 0 or ids.max() >= self.num_vertices):
                raise StoreFormatError(f"{self.path}: shard {index} names a vertex id out of range")
            csr = CSR(v["csr.indptr"], v["csr.indices"], v["csr.eids"])
            nbytes = sum(a.nbytes for a in v.values())
            got = ShardArrays(csc, csr, v.get("csc.weights"), v.get("csr.weights"), nbytes)
            self._views[index] = got
        if not unit_weights or self.weighted:
            return got
        most = max(shard[side + ".indices"][1] for shard in self._layout for side in ("csc", "csr"))
        ones = shared_array("ones", most, WEIGHT_DTYPE)
        csc_w, csr_w = ones[: got.csc.num_edges], ones[: got.csr.num_edges]
        return ShardArrays(got.csc, got.csr, csc_w, csr_w, got.nbytes + csc_w.nbytes + csr_w.nbytes)

    def _advise(self, flag: int | None, index: int) -> int:
        """``madvise`` one shard's page range; returns the bytes advised
        (0 where the platform has no ``madvise``: warned once per store,
        then a no-op, so residency is simply left to the OS)."""
        if flag is None:
            if not self._warned_no_madvise:
                self._warned_no_madvise = True
                warnings.warn(
                    "mmap.madvise is unavailable on this platform: shard-store "
                    "prefetch hints and eviction are no-ops",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return 0
        meta = self.shard_meta[index]
        self._mm.madvise(flag, meta["offset"], meta["nbytes"])
        return meta["nbytes"]

    def release(self, index: int) -> int:
        """Drop a shard's pages from this process (``MADV_DONTNEED``).
        Outstanding views stay valid and re-fault on next touch."""
        return self._advise(_MADV_DONTNEED, index)

    def will_need(self, index: int) -> int:
        """Ask the OS to start reading a shard in (``MADV_WILLNEED``)."""
        return self._advise(_MADV_WILLNEED, index)

    def verify(self) -> None:
        """Recompute every recorded checksum; raises on the first
        mismatch. O(file) -- on demand, never part of ``open``."""
        regions = [("degrees", self.manifest["degrees"])]
        regions += [(f"shard {m['index']}", m) for m in self.shard_meta]
        for what, r in regions:
            with memoryview(self._mm)[r["offset"] : r["offset"] + r["nbytes"]] as region:
                if zlib.crc32(region) != r["crc32"]:
                    raise StoreFormatError(f"{self.path}: {what} fails its checksum")

    def _degrees(self, side: str) -> np.ndarray:
        return np.frombuffer(
            self._mm, np.int64, self.num_vertices, self.manifest["degrees"][side]
        )

    def out_degrees(self) -> np.ndarray:
        return self._degrees("out")

    def in_degrees(self) -> np.ndarray:
        return self._degrees("in")

    def sharded_graph(self, unit_weights: bool = False, source=None) -> ShardedGraph:
        """The lazy ``ShardedGraph`` view (no shard data is read)."""
        if source is None:
            source = _MemoSource(self, unit_weights)
        edges = StoreEdgeList(self, weighted=self.weighted or unit_weights)
        shards = [
            LazyShard(m["index"], m["start"], m["stop"], m["in_edges"], m["out_edges"], source)
            for m in self.shard_meta
        ]
        return ShardedGraph(edges, self.boundaries, shards, self.logic)

    def edgelist(self) -> StoreEdgeList:
        return StoreEdgeList(self, weighted=self.weighted)

    def max_shard_bytes(self, with_weights: bool, with_edge_state: bool) -> int:
        return self.sharded_graph().max_shard_bytes(with_weights, with_edge_state)

    def max_interval_vertices(self) -> int:
        return max((m["stop"] - m["start"] for m in self.shard_meta), default=0)

    def disk_bytes(self) -> int:
        """Size of the packed array file (what streaming must cover)."""
        return self.packed_bytes


class _StoreWriter:
    """Lays a store out on disk; shared by :meth:`ShardStore.save` and
    :func:`build_store_streaming` so both produce the same bytes.

    Arrays are appended to ``shards.bin`` at 64-byte boundaries, shards
    at page boundaries; a running ``crc32`` covers each shard's span
    (inner padding included) and the degree block.
    """

    def __init__(self, path, weighted: bool):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.weighted = weighted
        self._fh = (self.path / PACKED).open("wb")
        self._pos = 0
        self._crc = 0
        self._degrees: dict = {}
        self._shards: list[dict] = []

    def __enter__(self) -> "_StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._fh.close()
        return False

    def _pad(self, align: int) -> None:
        gap = -self._pos % align
        if gap:
            self._write(bytes(gap))

    def _write(self, data) -> None:
        self._fh.write(data)
        self._crc = zlib.crc32(data, self._crc)
        self._pos += len(data)

    def _begin(self, align: int) -> int:
        self._pad(align)
        self._crc = 0
        return self._pos

    def _array(self, arr, dtype) -> int:
        self._pad(ALIGN)
        offset = self._pos
        self._write(np.ascontiguousarray(arr, dtype=dtype).view(np.uint8))
        return offset

    def degrees(self, out_deg: np.ndarray, in_deg: np.ndarray) -> None:
        offset = self._begin(ALIGN)
        self._degrees = {
            "out": self._array(out_deg, np.int64),
            "in": self._array(in_deg, np.int64),
            "offset": offset,
            "nbytes": self._pos - offset,
            "crc32": self._crc,
        }

    def shard(self, index: int, start: int, stop: int, layouts) -> None:
        """``layouts`` yields ``("csc", columns)`` then ``("csr",
        columns)``, columns being ``(indptr, indices, eids,
        weights|None)``; each is dropped before the next is asked for,
        so a lazy caller holds one layout in RAM at a time."""
        offset = self._begin(PAGE)
        arrays, edges = {}, {}
        for layout, columns in layouts:
            edges[layout] = len(columns[1])
            for (part, dtype), column in zip(_DTYPES.items(), columns):
                if part != "weights" or self.weighted:
                    arrays[f"{layout}.{part}"] = self._array(column, dtype)
            del columns, column
        self._shards.append(
            {
                "index": index,
                "start": start,
                "stop": stop,
                "in_edges": edges["csc"],
                "out_edges": edges["csr"],
                "offset": offset,
                "nbytes": self._pos - offset,
                "crc32": self._crc,
                "arrays": arrays,
            }
        )

    def finish(self, name, num_vertices, num_edges, undirected, logic, boundaries) -> dict:
        """Write the manifest (last, so a torn build never opens)."""
        manifest = {
            "format": FORMAT,
            "version": VERSION,
            "name": name,
            "num_vertices": int(num_vertices),
            "num_edges": int(num_edges),
            "undirected": bool(undirected),
            "weighted": self.weighted,
            "logic": logic,
            "dtypes": {part: dtype.name for part, dtype in _DTYPES.items()},
            "boundaries": [int(b) for b in boundaries],
            "packed_bytes": self._pos,
            "degrees": self._degrees,
            "shards": self._shards,
        }
        self._fh.close()
        with (self.path / MANIFEST).open("w") as fh:
            json.dump(manifest, fh, indent=1)
        return manifest


# ----------------------------------------------------------------------
# Streaming ingestion: the two-pass external partitioner
# ----------------------------------------------------------------------
def _grow_to(arr: np.ndarray, size: int) -> np.ndarray:
    if size <= len(arr):
        return arr
    grown = np.zeros(size, dtype=arr.dtype)
    grown[: len(arr)] = arr
    return grown


def build_store_streaming(
    input_path,
    out_dir,
    num_partitions: int,
    chunk_edges: int = 1 << 20,
    num_vertices: int | None = None,
    name: str | None = None,
) -> ShardStore:
    """Build a shard store from an edge-list file without ever holding
    the full edge set in RAM.

    Pass 1 streams chunks accumulating degree arrays (the partitioner's
    load model and the store's ``degrees.*`` files). Pass 2 re-streams,
    bucketing each chunk's edges by destination interval (the CSC side)
    and source interval (the CSR side) into per-shard spill files of
    ``(key, neighbor, edge_id[, weight])`` records. Pass 3 reads one
    shard's records at a time, stable-sorts by key and compresses --
    reproducing :func:`repro.graph.csr._compress`'s layout exactly,
    global edge ids included, so a streamed store is bit-identical to
    ``ShardStore.save(PartitionEngine().partition(...))``.

    Peak memory: one chunk + one shard's records + the degree arrays.
    """
    input_path = Path(input_path)
    out_dir = Path(out_dir)
    meta = edgelist_metadata(input_path)

    # -- pass 1: degrees / counts --------------------------------------
    out_deg = np.zeros(0, dtype=np.int64)
    in_deg = np.zeros(0, dtype=np.int64)
    num_edges = 0
    weighted = None
    for src, dst, w in iter_edge_chunks(input_path, chunk_edges):
        if weighted is None:
            weighted = w is not None
        elif weighted != (w is not None):
            raise ValueError(f"{input_path}: mixed weighted/unweighted chunks")
        if len(src):
            hi = int(max(src.max(), dst.max())) + 1
            out_deg = _grow_to(out_deg, hi)
            in_deg = _grow_to(in_deg, hi)
            out_deg += np.bincount(src, minlength=len(out_deg))
            in_deg += np.bincount(dst, minlength=len(in_deg))
        num_edges += len(src)
    weighted = bool(weighted)
    n = meta["num_vertices"] if meta["num_vertices"] is not None else len(out_deg)
    if num_vertices is not None:
        n = num_vertices
    if n < len(out_deg):
        raise ValueError(f"{input_path}: endpoint {len(out_deg) - 1} outside [0, {n})")
    out_deg = _grow_to(out_deg, n)
    in_deg = _grow_to(in_deg, n)
    num_partitions = max(1, min(num_partitions, max(n, 1)))
    boundaries = edge_balanced_from_loads(out_deg + in_deg, num_partitions)

    # -- pass 2: bucket records into per-shard spill files --------------
    fields = [("key", np.int64), ("val", np.int64), ("eid", np.int64)]
    if weighted:
        fields.append(("w", WEIGHT_DTYPE))
    rec_dtype = np.dtype(fields)
    spill_dir = out_dir / "_spill"
    spill_dir.mkdir(parents=True, exist_ok=True)
    spill = {
        (i, layout): (spill_dir / f"{i:05d}.{layout}.bin").open("wb")
        for i in range(num_partitions)
        for layout in ("csc", "csr")
    }
    try:
        eid_base = 0
        for src, dst, w in iter_edge_chunks(input_path, chunk_edges):
            eids = np.arange(eid_base, eid_base + len(src), dtype=np.int64)
            eid_base += len(src)
            for layout, keys, vals in (("csc", dst, src), ("csr", src, dst)):
                recs = np.empty(len(keys), dtype=rec_dtype)
                recs["key"] = keys
                recs["val"] = vals
                recs["eid"] = eids
                if weighted:
                    recs["w"] = w
                owner = np.searchsorted(boundaries, keys, side="right") - 1
                recs = recs[stable_order(owner)]
                counts = np.bincount(owner, minlength=num_partitions)
                offset = 0
                for i in range(num_partitions):
                    c = int(counts[i])
                    if c:
                        recs[offset : offset + c].tofile(spill[(i, layout)])
                    offset += c
    finally:
        for fh in spill.values():
            fh.close()

    # -- pass 3: per-shard compression ----------------------------------
    def compress(i: int, layout: str, start: int, stop: int) -> tuple:
        recs = np.fromfile(spill_dir / f"{i:05d}.{layout}.bin", dtype=rec_dtype)
        # Records arrive in original edge order; a stable sort by key
        # therefore preserves per-row original order -- the layout
        # the in-RAM _compress + row_slice pipeline produces.
        recs = recs[stable_order(recs["key"])]
        counts = np.bincount(recs["key"] - start, minlength=stop - start)
        indptr = np.zeros(stop - start + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, recs["val"], recs["eid"], recs["w"] if weighted else None

    with _StoreWriter(out_dir, weighted) as writer:
        writer.degrees(out_deg, in_deg)
        for i in range(num_partitions):
            start, stop = int(boundaries[i]), int(boundaries[i + 1])
            writer.shard(
                i, start, stop,
                ((layout, compress(i, layout, start, stop)) for layout in ("csc", "csr")),
            )
        shutil.rmtree(spill_dir)
        manifest = writer.finish(
            name or meta["name"], n, num_edges, meta["undirected"],
            "edge_balanced", boundaries,
        )
    return ShardStore(out_dir, manifest)
