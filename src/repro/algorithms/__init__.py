"""Graph algorithms expressed as GAS programs (Section 6.1).

The four evaluated algorithms -- BFS, SSSP, PageRank and Connected
Components -- plus two of the GAS-expressible extensions the paper cites
(heat simulation and sparse matrix-vector multiplication).

Each program is a :class:`repro.core.api.GASProgram`; the same instances
drive GraphReduce and every baseline framework, so cross-framework
results are directly comparable.
"""

from repro.algorithms.bfs import BFS, BFSGather
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.heat import HeatSimulation
from repro.algorithms.kcore import KCore
from repro.algorithms.labelprop import LabelPropagation
from repro.algorithms.pagerank import PageRank
from repro.algorithms.spmv import SpMV
from repro.algorithms.sssp import SSSP, DeltaSSSP

#: The paper's Table-3/Table-4 algorithm suite, in column order.
PAPER_ALGORITHMS = {
    "BFS": lambda: BFS(source=0),
    "SSSP": lambda: SSSP(source=0),
    "Pagerank": lambda: PageRank(),
    "CC": lambda: ConnectedComponents(),
}

__all__ = [
    "BFS",
    "BFSGather",
    "SSSP",
    "DeltaSSSP",
    "PageRank",
    "ConnectedComponents",
    "HeatSimulation",
    "SpMV",
    "KCore",
    "LabelPropagation",
    "PAPER_ALGORITHMS",
]
