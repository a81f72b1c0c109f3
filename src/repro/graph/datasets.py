"""Stand-ins for the paper's evaluation datasets (Table 1 + delaunay_n13).

Each registry entry pairs the paper's published statistics with a
synthetic generator from the same structural family, scaled per
DESIGN.md: the five out-of-memory graphs carry 1/64 of the paper's
edges (matching the 1/64 device-memory scaling), while the small
in-memory graphs use gentler factors so they stay non-degenerate. The
in-memory/out-of-memory classification against the scaled K20c is
asserted by the test suite for every entry.

Datasets are deterministic (fixed seeds) and cached in-process, since
several benchmarks share the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.graph import generators as gen
from repro.graph.edgelist import EdgeList


@dataclass(frozen=True)
class DatasetInfo:
    """Registry metadata for one Table-1 stand-in."""

    name: str
    family: str
    #: factory producing the stand-in EdgeList
    builder: Callable[[], EdgeList]
    #: True if Table 1 lists this as fitting GPU memory
    in_memory: bool
    #: dataset scale factor relative to the paper's graph
    scale: int
    #: the paper's published statistics (vertices, edges, size string)
    paper_vertices: int
    paper_edges: int
    paper_size: str
    #: whether the graph is stored as pairs of directed edges
    undirected: bool = False


def _registry() -> dict[str, DatasetInfo]:
    entries = [
        # ---------------- GPU in-memory (Table 1 top half) ----------------
        DatasetInfo(
            "ak2010", "planar/redistricting",
            lambda: gen.planar_like(45_292, 108_549, seed=11, name="ak2010"),
            in_memory=True, scale=1,
            paper_vertices=45_292, paper_edges=108_549, paper_size="7.9MB",
            undirected=True,
        ),
        DatasetInfo(
            "coAuthorsDBLP", "collaboration",
            lambda: gen.coauthor_graph(16, 244_419, seed=12, name="coAuthorsDBLP"),
            in_memory=True, scale=4,
            paper_vertices=299_067, paper_edges=977_676, paper_size="69.5MB",
            undirected=True,
        ),
        DatasetInfo(
            "kron_g500-logn20", "kronecker",
            lambda: gen.rmat(14, 697_192, seed=13, name="kron_g500-logn20"),
            in_memory=True, scale=64,
            paper_vertices=1_048_576, paper_edges=44_620_272, paper_size="2.4GB",
        ),
        DatasetInfo(
            "webbase-1M", "web crawl",
            lambda: gen.web_graph(17, 388_192, seed=14, name="webbase-1M"),
            in_memory=True, scale=8,
            paper_vertices=1_000_005, paper_edges=3_105_536, paper_size="211.6MB",
        ),
        DatasetInfo(
            "belgium_osm", "road network",
            lambda: gen.road_network(425, 424, 13_547, seed=15, name="belgium_osm"),
            in_memory=True, scale=8,
            paper_vertices=1_441_295, paper_edges=1_549_970, paper_size="5.4MB",
            undirected=True,
        ),
        DatasetInfo(
            "delaunay_n13", "triangulation",
            lambda: gen.delaunay_graph(8_192, seed=16, name="delaunay_n13"),
            in_memory=True, scale=1,
            paper_vertices=8_192, paper_edges=24_576, paper_size="~1MB",
            undirected=True,
        ),
        # ---------------- GPU out-of-memory (Table 1 bottom half) ---------
        DatasetInfo(
            "kron_g500-logn21", "kronecker",
            lambda: gen.rmat(15, 1_480_000, seed=21, name="kron_g500-logn21"),
            in_memory=False, scale=64,
            paper_vertices=2_097_152, paper_edges=91_042_010, paper_size="4.84GB",
        ),
        DatasetInfo(
            "nlpkkt160", "3D mesh (PDE)",
            lambda: gen.mesh3d(51, 51, 51, name="nlpkkt160"),
            in_memory=False, scale=64,
            paper_vertices=8_345_600, paper_edges=221_172_512, paper_size="11.9GB",
            undirected=True,
        ),
        DatasetInfo(
            "uk-2002", "web crawl",
            lambda: gen.web_graph(18, 4_658_027, seed=23, name="uk-2002"),
            in_memory=False, scale=64,
            paper_vertices=18_520_486, paper_edges=298_113_762, paper_size="16.4GB",
        ),
        DatasetInfo(
            "orkut", "social network",
            lambda: gen.social_graph(16, 1_831_016, seed=24, name="orkut"),
            in_memory=False, scale=64,
            paper_vertices=3_072_441, paper_edges=117_185_083, paper_size="6.2GB",
            undirected=True,
        ),
        DatasetInfo(
            "cage15", "banded (DNA walk)",
            # halfwidth 300 gives a BFS diameter of a few hundred, like
            # the real cage15's long-but-not-pathological chain structure
            lambda: gen.banded(80_544, 300, 20, seed=25, name="cage15"),
            in_memory=False, scale=64,
            paper_vertices=5_154_859, paper_edges=99_199_551, paper_size="5.4GB",
        ),
    ]
    return {e.name: e for e in entries}


DATASETS: dict[str, DatasetInfo] = _registry()

#: Datasets used in the out-of-memory comparison (Table 3, Figs 13-17).
OUT_OF_MEMORY = [n for n, e in DATASETS.items() if not e.in_memory]

#: Datasets used in the in-memory comparison (Table 4).
IN_MEMORY_TABLE4 = ["ak2010", "coAuthorsDBLP", "kron_g500-logn20", "webbase-1M", "belgium_osm"]

#: Datasets in the Table-2 BFS comparison.
TABLE2 = ["ak2010", "belgium_osm", "coAuthorsDBLP", "delaunay_n13", "kron_g500-logn20", "webbase-1M"]

_cache: dict[str, EdgeList] = {}


def load_dataset(name: str, cache: bool = True) -> EdgeList:
    """Build (or fetch the cached) stand-in for a Table-1 graph."""
    try:
        info = DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None
    if cache and name in _cache:
        return _cache[name]
    edges = info.builder()
    if cache:
        _cache[name] = edges
    return edges
