"""Discrete geodesic structure on the boundary.

The boundary metric is approximated by a k-nearest-neighbor graph on
sampled boundary nodes. Edge weights use an anisotropic chord cost that
charges the chord component transverse to the maximal complex tangent
distribution (along the frame ``structures.transverse_frame`` gives at
each node) an ``anisotropy`` multiplier before taking the norm, with the
frame pinned at the node nearest the edge midpoint. At anisotropy 1
the weights collapse to plain Euclidean chord lengths. Distances are
Dijkstra shortest paths; rows are cached, and a saved graph carries its
cached rows, so a later load computes only the rows it lacks.

A saved graph is a cache of two files. The graph file (``.npz``) holds
the nodes, the adjacency, the parameters and the domain's boundary cloud,
and is written once, after a fresh build. The row store next to it
(``.rows``) is append-only: a save appends the rows computed since the
load as raw records, and a load reads them back without decompression or
checksums. A header binds the store to its graph file, so a store left
beside another graph is never read.

Nodes are thinned from ``_OVERSAMPLE`` times as many quasirandom boundary
candidates by the exact greedy farthest-point rule; a KD-tree over the
candidates prunes each step's distance update to the candidates it can
change, without changing the chosen nodes. Each undirected edge is
weighed once and stored in both directions, so the adjacency is
symmetric by construction: rows run one-direction Dijkstra on it and
geodesics walk back over a cached row. A graph whose adjacency is not
exactly symmetric, such as an edited cache, is refused.

Snapping to nodes gives an exact pseudometric on the node set, and it is
the separation every metric reads. The local mode
(``distance_local_batch``) corrects short-range queries with direct chord
costs so that scales below the node spacing remain visible; it serves only
the orbit tests' Cauchy criteria.

Every Dijkstra row, the graph's and the layered solver's, runs through
``shortest_rows``. A batch large enough to pay for a fork is cut into
contiguous slices, one per CPU in the process's affinity mask: forked
children run the extra slices into a shared anonymous buffer while the
parent runs the first, and the rows come back exactly as one serial call
returns them. There is nothing to configure.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import signal
import struct
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from .errors import (
    ConfigError,
    GraphDisconnected,
    ImageOffBoundary,
)
from .domain import Domain
from .structures import StructureField, transverse_frame

__all__ = [
    "BoundaryGraph",
    "BoundaryMap",
    "LipschitzReport",
    "lipschitz_details",
    "shortest_rows",
]

# Dijkstra work (source rows times stored edges) a batch must exceed before
# it gets a second slice; each further slice needs as much work again.
# Measured on a 2-core VM, min of 7 calls on the 2,000-node collar graph
# (nnz 25,744): two slices break even at 24-40 rows (0.6-1.0 M) and take
# 48 rows from 22.6 to 18.9 ms and 64 rows from 30.5 to 23.3 ms. The floor
# sits above that because after a fork the parent's first write to each of
# its pages is a page fault, about 1 us each and some thousands per command.
_FORK_WORK = 2_000_000

# boundary candidates drawn per graph node before farthest-point thinning
_OVERSAMPLE = 4

# nodes through which ``distance_local_batch`` enters and leaves the graph
_LOCAL_K = 8


def dijkstra_counts() -> dict:
    """Empty counters for ``shortest_rows``: calls, source rows, and the
    rows forked children computed."""
    return {"calls": 0, "rows": 0, "child_rows": 0}


def shortest_rows(A: csr_matrix, sources, counts: Optional[dict] = None
                  ) -> np.ndarray:
    """``dijkstra(A, directed=True, indices=sources)``, bit for bit.

    A batch whose ``len(sources) * A.nnz`` passes ``_FORK_WORK`` is cut into
    contiguous slices, at most one per CPU in the affinity mask. One forked
    child per extra slice runs the module-level ``dijkstra`` on it and
    writes the rows into a shared anonymous buffer; the parent runs the
    first slice meanwhile, then reaps every child. A slice whose child
    failed, died or could not be forked is computed by the parent, so the
    rows never depend on how the batch was cut, and no child outlives the
    call. Every row of a source is computed independently of the others,
    which is why slices give the serial call's rows. Without ``os.fork`` or
    ``os.sched_getaffinity`` (Linux has both), or on one CPU, the batch is
    one serial call. ``counts`` (see ``dijkstra_counts``) is updated in
    place.
    """
    sources = np.atleast_1d(np.asarray(sources, dtype=np.intp))
    k = sources.size
    n_slices = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n_slices = min(len(os.sched_getaffinity(0)), k,
                       1 + k * A.nnz // _FORK_WORK)
    if counts is not None:
        counts["calls"] += 1
        counts["rows"] += k
    if n_slices < 2:
        return dijkstra(A, directed=True, indices=sources)
    bounds = [k * s // n_slices for s in range(n_slices + 1)]
    head, n = bounds[1], A.shape[0]
    out = np.empty((k, n))
    # children write rows head: onwards
    with mmap.mmap(-1, (k - head) * n * 8) as buf:
        children, undone = {}, []
        done = False
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                try:
                    pid = os.fork()
                except OSError:
                    undone.append((lo, hi))
                    continue
                if pid == 0:
                    code = 1
                    try:
                        shared = np.frombuffer(buf, dtype=np.float64)
                        shared.reshape(k - head, n)[lo - head:hi - head] = \
                            dijkstra(A, directed=True, indices=sources[lo:hi])
                        code = 0
                    finally:
                        os._exit(code)
                children[pid] = (lo, hi)
            # the parent's rows go straight into ``out``, so they are not
            # held twice while the children's are copied
            out[:head] = dijkstra(A, directed=True, indices=sources[:head])
            done = True
        finally:
            for pid, span in children.items():
                if not done:
                    os.kill(pid, signal.SIGKILL)
                if os.waitpid(pid, 0)[1] != 0:
                    undone.append(span)
        # copied out a megabyte (whole pages) at a time, each piece freed
        # once copied, so the parent never holds the buffer and its copy at
        # once; the buffer is unmapped before the call returns
        flat, dest = np.frombuffer(buf, dtype=np.float64), out[head:].reshape(-1)
        step = 1 << 17
        for lo in range(0, flat.size, step):
            hi = min(lo + step, flat.size)
            dest[lo:hi] = flat[lo:hi]
            buf.madvise(mmap.MADV_REMOVE, 8 * lo, 8 * (hi - lo))
        del flat
    for lo, hi in undone:
        out[lo:hi] = dijkstra(A, directed=True, indices=sources[lo:hi])
    if counts is not None:
        counts["child_rows"] += k - head - sum(hi - lo for lo, hi in undone)
    return out


class BoundaryGraph:
    """k-NN geodesic graph on boundary nodes with anisotropic chord weights."""

    def __init__(self, domain: Domain, structure: StructureField,
                 nodes: np.ndarray, adjacency: csr_matrix, params: dict):
        self.domain = domain
        self.structure = structure
        self.nodes = np.asarray(nodes, dtype=float)
        if (adjacency != adjacency.T).nnz:
            raise ConfigError("graph adjacency is not symmetric; rows run "
                              "one-direction Dijkstra on it")
        self.adjacency = adjacency
        self.params = dict(params)
        self.tree = cKDTree(self.nodes)
        self._rows: dict[int, np.ndarray] = {}
        # distance rows taken from a cache, run by Dijkstra in this
        # process, held by the row store after the last save, and written
        # by this process's saves
        self.row_counts = {"loaded": 0, "computed": 0, "saved": 0,
                           "appended": 0}
        # the graph file this graph was loaded from or saved to, and the
        # rows its row store holds
        self._cache: Optional[str] = None
        self._stored: set[int] = set()
        self.dijkstra_counts = dijkstra_counts()
        # wall seconds of a fresh build's stages (see ``build``); None for
        # a graph loaded from a cache
        self.build_timings: Optional[dict] = None
        self._frames = transverse_frame(domain, structure, self.nodes)

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, domain: Domain, structure: StructureField, n_nodes: int = 600,
              k_neighbors: int = 10, anisotropy: float = 8.0,
              seed: int = 0) -> "BoundaryGraph":
        """Sample nodes, connect k nearest neighbors, weight the edges.

        The nodes are the farthest-point thinning of ``_OVERSAMPLE`` times
        as many quasirandom boundary candidates, by the exact greedy rule
        with each step's update pruned by a KD-tree. ``_connect`` weighs
        each undirected k-NN edge once and stores it in both directions,
        so distance rows use one-direction Dijkstra. ``build_timings``
        holds the wall seconds of the three stages: ``sample_s`` (the
        candidates), ``thin_s`` (the thinning) and ``connect_s`` (the node
        tree, the frames and the weighted edges).
        """
        if n_nodes < 8:
            raise ConfigError("boundary graphs need at least 8 nodes")
        if anisotropy < 1.0:
            raise ConfigError("anisotropy must be at least 1")
        clock = [time.perf_counter()]
        cand = domain.sample_boundary(max(_OVERSAMPLE * n_nodes, n_nodes + 8),
                                      seed=seed, quasi=True)
        clock.append(time.perf_counter())
        nodes = _farthest_point_subset(cand, n_nodes, seed)
        clock.append(time.perf_counter())
        params = {
            "n_nodes": int(n_nodes),
            "k_neighbors": int(k_neighbors),
            "anisotropy": float(anisotropy),
            "seed": int(seed),
            "refinement_level": 0,
        }
        graph = cls(domain, structure, nodes, csr_matrix((n_nodes, n_nodes)), params)
        graph._connect(k_neighbors)
        clock.append(time.perf_counter())
        graph.build_timings = dict(zip(("sample_s", "thin_s", "connect_s"),
                                       np.diff(clock).tolist()))
        return graph

    def _connect(self, k_neighbors: int):
        """Join each node to its ``k_neighbors`` nearest, widening k until
        the graph is connected.

        Each undirected edge is weighed once, by ``chord_cost`` from its
        lower to its higher node: a chord's cost does not depend on its
        direction, bit for bit (the midpoint is symmetric and the reversed
        chord is the exact negation). Both directions get that weight, so
        the CSR matrix is the symmetrized k-NN graph ``A.maximum(A.T)``
        would give, built directly.
        """
        m = self.nodes.shape[0]
        k = k_neighbors
        for attempt in range(6):
            kq = min(k + 1, m)
            _, nbr = self.tree.query(self.nodes, k=kq)
            ii = np.repeat(np.arange(m), kq - 1)
            jj = nbr[:, 1:].reshape(-1)
            key = np.unique(np.minimum(ii, jj) * m + np.maximum(ii, jj))
            lo, hi = key // m, key % m
            w = self.chord_cost(self.nodes[lo], self.nodes[hi])
            rows = np.concatenate([lo, hi])
            cols = np.concatenate([hi, lo])
            order = np.lexsort((cols, rows))
            degree = np.bincount(rows, minlength=m)
            indptr = np.concatenate([[0], np.cumsum(degree)])
            A = csr_matrix((np.concatenate([w, w])[order], cols[order], indptr),
                           shape=(m, m))
            ncomp, _ = connected_components(A, directed=False)
            if ncomp == 1:
                self.adjacency = A
                self.params["k_neighbors"] = int(k)
                self._rows.clear()
                return
            k = min(2 * k, m - 1)
        raise GraphDisconnected(
            f"graph still has {ncomp} components after widening k to {k}"
        )

    def refine(self) -> "BoundaryGraph":
        """A denser graph with the same parameters and twice the nodes."""
        p = dict(self.params)
        out = BoundaryGraph.build(
            self.domain, self.structure,
            n_nodes=2 * int(p["n_nodes"]),
            k_neighbors=int(p["k_neighbors"]),
            anisotropy=p["anisotropy"],
            seed=p["seed"],
        )
        out.params["refinement_level"] = int(p.get("refinement_level", 0)) + 1
        return out

    # -- chord costs and frames ----------------------------------------------

    def chord_parts(self, a: np.ndarray, b: np.ndarray,
                    frame_idx: Optional[np.ndarray] = None):
        """In-distribution and transverse chord components, frame per chord."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        if frame_idx is None:
            mid = 0.5 * (a + b)
            _, frame_idx = self.tree.query(mid, k=1)
        frame_idx = np.atleast_1d(frame_idx)
        n, u = self._frames
        nf = n[frame_idx]
        uf = u[frame_idx]
        d = b - a
        cn = np.sum(d * nf, axis=-1)
        cu = np.sum(d * uf, axis=-1)
        trans = np.sqrt(cn**2 + cu**2)
        horiz = np.sqrt(np.maximum(np.sum(d * d, axis=-1) - trans**2, 0.0))
        return horiz, trans

    def chord_cost(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Anisotropic cost of straight chords, each in the frame of the node
        nearest its midpoint: the edge weights, and every segment
        ``metrics.path_length`` measures, use this one rule.

        The transverse part of the chord (components along the normal and
        the rotated normal at the frame node) is scaled by the anisotropy
        before recombining with the in-distribution part in the Euclidean
        norm, so anisotropy 1 gives exactly the chord length.
        """
        horiz, trans = self.chord_parts(a, b)
        lam = self.params["anisotropy"]
        return np.sqrt(horiz * horiz + (lam * trans) ** 2)

    def edge_components(self):
        """Upper-triangle edge list with weights and split chord components.

        Returns ``(ii, jj, w, horiz, trans)``: ``w`` holds the stored edge
        weights, and the components use the same midpoint frames.
        """
        coo = self.adjacency.tocoo()
        mask = coo.row < coo.col
        ii = coo.row[mask]
        jj = coo.col[mask]
        horiz, trans = self.chord_parts(self.nodes[ii], self.nodes[jj])
        return ii, jj, coo.data[mask], horiz, trans

    def node_normals(self) -> np.ndarray:
        return self._frames[0]

    # -- queries -------------------------------------------------------------

    def snap(self, points: np.ndarray) -> np.ndarray:
        """Indices of the nearest nodes."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        _, idx = self.tree.query(pts, k=1)
        return idx

    def rows_from(self, indices, columns=None) -> np.ndarray:
        """Dijkstra distance rows from the given node indices, cached.

        The missing rows run in one ``shortest_rows`` call, which spreads a
        large batch over the CPUs; ``dijkstra_counts`` records its work.
        With ``columns``, only those entries are gathered, row by row, and
        no full row is stacked: a 1-D ``columns`` takes the same columns
        from every row (a table), and ``columns[:, None]`` one column per
        row (the entries of aligned pairs).
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=int))
        missing = [int(i) for i in np.unique(indices) if int(i) not in self._rows]
        if missing:
            rows = shortest_rows(self.adjacency, missing,
                                 self.dijkstra_counts)
            for pos, i in enumerate(missing):
                self._rows[i] = rows[pos]
            self.row_counts["computed"] += len(missing)
        if columns is None:
            return np.stack([self._rows[int(i)] for i in indices])
        cols = np.atleast_1d(np.asarray(columns, dtype=int))
        cols = np.broadcast_to(cols, (indices.size, cols.shape[-1]))
        out = np.empty(cols.shape)
        for r, i in enumerate(indices.tolist()):
            out[r] = self._rows[i][cols[r]]
        return out

    def distance_nodes(self, i: int, j: int) -> float:
        return float(self.rows_from([i], columns=[j])[0, 0])

    def distance_local(self, p, q) -> float:
        """Short-range corrected distance.

        Takes the cheaper of a direct anisotropic chord and the best
        node-routed path entered and exited through the ``_LOCAL_K``
        nearest nodes of each endpoint. Resolves separations below the
        node spacing that plain snapping rounds away. One pair of
        ``distance_local_batch``.
        """
        return float(self.distance_local_batch(p, q)[0])

    def distance_local_batch(self, A, B) -> np.ndarray:
        """Vectorized short-range corrected distances for aligned batches."""
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        m = A.shape[0]
        direct = self.chord_cost(A, B)
        kq = min(_LOCAL_K, self.nodes.shape[0])
        _, ia = self.tree.query(A, k=kq)
        _, ib = self.tree.query(B, k=kq)
        ia = ia.reshape(m, kq)
        ib = ib.reshape(m, kq)
        cin = self.chord_cost(np.repeat(A, kq, axis=0),
                              self.nodes[ia.reshape(-1)]).reshape(m, kq)
        cout = self.chord_cost(self.nodes[ib.reshape(-1)],
                               np.repeat(B, kq, axis=0)).reshape(m, kq)
        uniq, inv = np.unique(ia.reshape(-1), return_inverse=True)
        rows = self.rows_from(uniq)
        Dmid = rows[inv.reshape(m, kq)[:, :, None], ib[:, None, :]]
        routed = np.min(cin[:, :, None] + Dmid + cout[:, None, :], axis=(1, 2))
        return np.minimum(direct, routed)

    def geodesic_nodes(self, i: int, j: int) -> np.ndarray:
        """Node indices of a shortest path from node ``i`` to node ``j``.

        Walks back from ``j`` over the cached distance row of ``i``: the
        predecessor of ``c`` is a neighbour ``k`` with
        ``row[k] + A[k, c] == row[c]``, compared exactly. Dijkstra sets
        ``row[c]`` to that very sum, and the adjacency is exactly symmetric,
        so row ``c`` of the CSR matrix holds the ``A[k, c]``. Ties go to the
        smallest index. No second Dijkstra runs and nothing is stored.
        """
        i, j = int(i), int(j)
        row = self.rows_from([i])[0]
        if not np.isfinite(row[j]):
            raise GraphDisconnected(f"no path between nodes {i} and {j}")
        A = self.adjacency
        path = [j]
        c = j
        while c != i:
            lo, hi = A.indptr[c], A.indptr[c + 1]
            nbr = A.indices[lo:hi]
            rk = row[nbr]
            # the strict decrease keeps the walk from cycling
            c = int(nbr[(rk + A.data[lo:hi] == row[c]) & (rk < row[c])].min())
            path.append(c)
        return np.array(path[::-1])

    def geodesic(self, p, q) -> tuple[np.ndarray, float]:
        """Node polyline and length of a shortest path between snapped points.

        The path is ``geodesic_nodes`` between the snapped nodes, so it
        reuses the source's cached distance row.
        """
        i, j = (int(v) for v in self.snap(np.stack([
            np.asarray(p, dtype=float), np.asarray(q, dtype=float)])))
        return self.nodes[self.geodesic_nodes(i, j)], self.distance_nodes(i, j)

    # -- scales --------------------------------------------------------------

    def edge_weight_stats(self) -> dict:
        w = self.adjacency.tocoo().data
        return {
            "median": float(np.median(w)),
            "max": float(w.max()),
            "min": float(w.min()),
            "n_edges": int(w.size // 2),
        }

    # -- persistence ---------------------------------------------------------

    def save(self, path: str):
        """Write the graph once and append its new distance rows.

        A cache is two files (``cache_files``). The graph file holds the
        nodes, the adjacency, ``params`` and the domain's boundary cloud,
        sampled here if the domain has none yet; it is written only when
        this graph was neither loaded from nor saved to ``path`` before,
        that is after a fresh build, and the row store is then replaced by
        one holding every cached row. Every later save appends only the
        rows cached since, as raw records: the int64 node index and the
        float64 row exactly as Dijkstra returned it. A store that has gone
        missing or that another graph's header now heads is replaced
        instead of appended to. Replaced files are written to temporary
        files next to them (named after the process) and renamed over
        them, and a failed append is cut back to the store's old length,
        so a failed save leaves the cache's bytes as they were.
        """
        graph_path, store_path = cache_files(path)
        header = self._store_header()
        fresh = self._cache != graph_path
        order = sorted(set(self._rows) - self._stored)
        if fresh or not _append(store_path, header,
                                self._records(order).tobytes()):
            order = sorted(self._rows)
            files = [(store_path, header + self._records(order).tobytes())]
            if fresh:
                A = self.adjacency.tocsr()
                files.insert(0, (graph_path, {
                    "nodes": self.nodes, "data": A.data,
                    "indices": A.indices, "indptr": A.indptr,
                    "shape": np.array(A.shape),
                    "meta": np.array(json.dumps(self.params, sort_keys=True)),
                    "cloud": self.domain.boundary_cloud()}))
            _replace(files)
        self._cache = graph_path
        self._stored = set(self._rows)
        self.row_counts["appended"] += len(order)
        self.row_counts["saved"] = len(self._stored)

    @classmethod
    def load(cls, path: str, domain: Domain, structure: StructureField,
             setup: Optional[str] = None) -> "BoundaryGraph":
        """Read a cache written by ``save``.

        The stored boundary cloud goes to ``domain`` (see
        ``Domain.set_boundary_cloud``), and the rows of the row store fill
        the row cache; they are read as raw records, with no decompression
        or checksum pass. A store that is missing, or whose header binds it
        to another graph file, gives no rows. With ``setup``, a graph file
        whose ``params["setup"]`` differs is refused before anything else
        is read. A graph file without a cloud (the old single-file layout),
        a torn record, a repeated row that is not bit-identical to its
        first copy, and rows that could not have come from Dijkstra on this
        graph (``_check_rows``) are refused as well (``ConfigError``).
        """
        graph_path, store_path = cache_files(path)
        with np.load(graph_path, allow_pickle=False) as z:
            if "cloud" not in z.files:
                raise ConfigError(f"graph cache {graph_path} has the old "
                                  "single-file layout; delete it and rerun")
            params = json.loads(str(z["meta"]))
            if setup is not None and params.get("setup") != setup:
                raise ConfigError(f"graph cache {graph_path} was built for "
                                  "another domain, structure or graph setup")
            nodes = z["nodes"]
            A = csr_matrix((z["data"], z["indices"], z["indptr"]),
                           shape=tuple(z["shape"]))
            cloud = z["cloud"]
        graph = cls(domain, structure, nodes, A, params)
        domain.set_boundary_cloud(cloud)
        graph._cache = graph_path
        n = nodes.shape[0]
        records = _read_store(store_path, graph._store_header(), n)
        if records is not None:
            row_index, rows = _unique_rows(store_path, records["index"],
                                           records["row"])
            _check_rows(store_path, row_index, rows, n)
            graph._rows = dict(zip(row_index.tolist(), rows))
            graph._stored = set(graph._rows)
            graph.row_counts["loaded"] = len(graph._rows)
        return graph

    def _store_header(self) -> bytes:
        """What heads a row store written for this graph: the setup hash,
        the node count, and a SHA-256 digest of the nodes and adjacency."""
        A = self.adjacency
        digest = hashlib.sha256()
        for arr in (self.nodes, A.data, A.indices.astype(np.int64),
                    A.indptr.astype(np.int64)):
            digest.update(np.ascontiguousarray(arr).tobytes())
        return _HEADER.pack(_STORE_MAGIC,
                            str(self.params.get("setup", "")).encode(),
                            self.nodes.shape[0], digest.digest())

    def _records(self, order: list) -> np.ndarray:
        rec = np.empty(len(order), dtype=_record_dtype(self.nodes.shape[0]))
        rec["index"] = order
        for pos, i in enumerate(order):
            rec["row"][pos] = self._rows[i]
        return rec


# a row store starts with ``_HEADER``: this magic, the setup hash (ASCII,
# padded with zeros), the node count and the graph's digest
_STORE_MAGIC = b"hkrows1\n"
_HEADER = struct.Struct("<8s64sq32s")


def cache_files(path: str) -> tuple[str, str]:
    """The graph file and the row store of a cache path: ``.npz`` is
    appended to a path that lacks it, and the store swaps it for ``.rows``."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    return path, path[:-len(".npz")] + ".rows"


def _record_dtype(n: int) -> np.dtype:
    return np.dtype([("index", "<i8"), ("row", "<f8", (n,))])


def _replace(files: list):
    """Write each ``(path, content)`` to a temporary file, then rename
    them all over their paths; ``content`` is bytes or the arrays of an
    npz file. Nothing is renamed unless every temporary file was written."""
    tmps = [f"{path}.{os.getpid()}.tmp" for path, _ in files]
    try:
        for tmp, (_, content) in zip(tmps, files):
            with open(tmp, "wb") as fh:
                if isinstance(content, bytes):
                    fh.write(content)
                else:
                    np.savez(fh, **content)
        for tmp, (path, _) in zip(tmps, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


def _append(path: str, header: bytes, payload: bytes) -> bool:
    """Append ``payload`` to the store at ``path`` if ``header`` heads it.

    Returns False, writing nothing, when the store is missing or headed
    by another graph. The payload goes in with ``O_APPEND``, so concurrent
    appends do not overwrite each other; a failed write is cut back to the
    store's old length.
    """
    try:
        fd = os.open(path, os.O_RDWR | os.O_APPEND)
    except FileNotFoundError:
        return False
    try:
        if os.pread(fd, len(header), 0) != header:
            return False
        size = os.fstat(fd).st_size
        try:
            view = memoryview(payload)
            while view:
                view = view[os.write(fd, view):]
        except BaseException:
            os.ftruncate(fd, size)
            raise
        return True
    finally:
        os.close(fd)


def _read_store(path: str, header: bytes, n: int) -> Optional[np.ndarray]:
    """The records of the store at ``path``, or None when it is missing or
    ``header`` does not head it. A torn last record is refused."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    with fh:
        if fh.read(len(header)) != header:
            return None
        dtype = _record_dtype(n)
        if (os.fstat(fh.fileno()).st_size - len(header)) % dtype.itemsize:
            raise ConfigError(f"graph cache {path} holds distance rows with "
                              "a torn last record")
        return np.fromfile(fh, dtype=dtype)


def _unique_rows(path: str, row_index: np.ndarray, rows: np.ndarray):
    """One copy of each stored row. Writers that share a cache may append
    the same row twice; the copies must be bit-identical."""
    uniq, first, inv = np.unique(row_index, return_index=True,
                                 return_inverse=True)
    if uniq.size == row_index.size:
        return row_index, rows
    dup = np.setdiff1d(np.arange(row_index.size), first)
    if np.any(rows[dup].view(np.uint64)
              != rows[first[inv[dup]]].view(np.uint64)):
        raise ConfigError(f"graph cache {path} holds distance rows with "
                          "a repeated row that differs from its first copy")
    return uniq, rows[first]


def _check_rows(path: str, row_index: np.ndarray, rows: np.ndarray, n: int):
    """Refuse a stored rows block that Dijkstra on ``n`` nodes cannot give."""
    k = row_index.size
    if (row_index.ndim != 1 or rows.shape != (k, n)
            or rows.dtype != np.float64
            or not np.issubdtype(row_index.dtype, np.integer)):
        problem = (f"shape {rows.shape} and type {rows.dtype} for {k} "
                   f"indices and {n} nodes")
    elif (np.unique(row_index).size != k or np.any(row_index < 0)
          or np.any(row_index >= n)):
        problem = "row indices that repeat or fall outside the nodes"
    elif np.any(rows[np.arange(k), row_index] != 0):
        problem = "a row whose own node is not at distance 0"
    elif not np.all(rows >= 0):
        problem = "negative or NaN distances"
    else:
        return
    raise ConfigError(f"graph cache {path} holds distance rows with {problem}")


def _farthest_point_subset(cand: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Greedy farthest-point thinning, started from a seeded candidate.

    Exactly the greedy rule: each step takes the first candidate of
    largest distance to the chosen set. A KD-tree over the candidates
    limits each step's distance update to the candidates it can change.
    """
    rng = np.random.default_rng(seed)
    m = cand.shape[0]
    if n >= m:
        return cand
    start = int(rng.integers(m))
    chosen = np.empty(n, dtype=int)
    chosen[0] = start
    mind = np.linalg.norm(cand - cand[start], axis=-1)
    tree = cKDTree(cand)
    for t in range(1, n):
        nxt = int(np.argmax(mind))
        chosen[t] = nxt
        # mind[nxt] is the largest minimum, so only candidates within it of
        # cand[nxt] can get smaller; the margin keeps any the tree's own
        # rounding would leave out. The update repeats the full loop's
        # expression, so every mind value, and each argmax, is unchanged.
        near = np.asarray(tree.query_ball_point(cand[nxt],
                                                mind[nxt] * (1 + 1e-9)),
                          dtype=int)
        mind[near] = np.minimum(
            mind[near], np.linalg.norm(cand[near] - cand[nxt], axis=-1))
    return cand[np.sort(chosen)]


# ---------------------------------------------------------------------------
# boundary maps and Lipschitz ratios
# ---------------------------------------------------------------------------

@dataclass
class BoundaryMap:
    """A map of the boundary to itself, with an on-boundary validity check."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "map"
    tol: float = 1e-8

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(points, dtype=float)), dtype=float)

    def validate(self, domain: Domain, points: np.ndarray) -> np.ndarray:
        img = self(points)
        r = np.abs(domain.rho(img))
        g = np.linalg.norm(domain.grad(img), axis=-1)
        offset = r / np.maximum(g, 1e-12)
        scale = domain.diameter_estimate()
        if np.any(offset > self.tol * scale):
            raise ImageOffBoundary(
                f"map image leaves the boundary by up to {float(offset.max()):.3e}"
            )
        return img


@dataclass
class LipschitzReport:
    ratio: float
    n_pairs: int
    floor: float


def lipschitz_details(graph: BoundaryGraph, graph_target: BoundaryGraph,
                      boundary_map: BoundaryMap, n_pairs: int = 4096,
                      seed: int = 0) -> LipschitzReport:
    """Largest observed expansion ratio of a boundary map in graph distance.

    Source pairs are node pairs of ``graph``; their images are validated
    against the target domain and snapped into ``graph_target``. Pairs
    closer than two median edge weights are excluded; at that range the
    snapped distances are dominated by discretization, not by the map.
    """
    img = boundary_map.validate(graph_target.domain, graph.nodes)
    si = graph_target.snap(img)
    m = graph.nodes.shape[0]
    floor = 2.0 * graph.edge_weight_stats()["median"]
    n_src = max(1, min(m, int(np.ceil(n_pairs / max(m - 1, 1)))))
    if n_src >= m:
        src = np.arange(m)
    else:
        rng = np.random.default_rng(seed)
        src = np.sort(rng.choice(m, size=n_src, replace=False))
    Dsrc = graph.rows_from(src)
    Dimg = graph_target.rows_from(si[src], columns=si)
    mask = Dsrc >= floor
    mask[np.arange(src.size), src] = False
    ratios = np.where(mask, Dimg / np.where(Dsrc > 0, Dsrc, np.inf), 0.0)
    return LipschitzReport(ratio=float(ratios.max()),
                           n_pairs=int(mask.sum()), floor=float(floor))
