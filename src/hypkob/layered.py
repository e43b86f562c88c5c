"""Layered shortest-path solver over shells of the boundary graph.

The solver replicates the boundary nodes on a geometric ladder of depth
levels and connects consecutive levels by exact vertical costs and each
level horizontally by depth-scaled chord costs. Dijkstra on this grid
gives an upper bound for either the collar geodesic metric or the interior
Finsler estimate, since every grid path is an admissible continuum path.

Queries arrive prepared: each point's foot, depth and snapped column come
from ``MetricFamily.as_prepared``, so ``MetricFamily.prepare`` is the one
place that projects and snaps a point, and a pool a sampler built is used
as it is. Query points attach as virtual nodes: a vertical stub to the
adjacent levels of their column, plus exact direct edges for query pairs
sharing one column. The collar mode exists mainly as an independent check
of the closed-form distance; the estimate mode is the production solver
for the interior Finsler metric and its only entry point for distances.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import coo_matrix

from .boundary import dijkstra_counts, shortest_rows
from .errors import ConfigError
from .metrics import MetricFamily

__all__ = ["LayeredSolver"]

# depth ratio of consecutive levels of the ladder
_LEVEL_RATIO = 1.25


class LayeredSolver:
    """Dijkstra over node-by-level shells with mode-specific edge rates.

    The levels run geometrically from ``eps / 1024`` up to the collar
    width ``eps`` (collar mode), or up to the square of 0.45 diameters,
    shrunk until every pushed node stays interior (estimate mode). Past
    the collar, an edge's cost is the estimate's speed at the midpoint of
    its two pushed nodes, whose projection is seeded with the edge's
    first boundary node. The grid's COO parts are kept, and each query
    appends its stub and same-column edges to them in one vectorised pass.

    The collar mode charges the graph's stored edge weights. The estimate
    mode owns no weights of its own: its collar levels, its rungs and its
    query stubs read ``kobayashi.kobayashi_rate`` and ``kobayashi.A_N``.

    ``counts`` records the ladder's levels, grid nodes and stored edges
    (``nnz``), and the Dijkstra sources its queries ran;
    ``dijkstra_counts`` the calls, rows and child rows of
    ``boundary.shortest_rows``.
    """

    def __init__(self, family: MetricFamily, mode: str = "collar"):
        if mode not in ("collar", "kobayashi"):
            raise ConfigError(f"unknown layered mode {mode!r}")
        graph = family.graph
        self.family = family
        self.graph = graph
        self.projection = family.projection
        self.mode = mode
        self.eps = family.eps
        t_min = self.eps / 1024.0
        if mode == "collar":
            t_max = self.eps
        else:
            half = 0.45 * graph.domain.diameter_estimate()
            t_max = max(self.eps, half * half)
            # the deep ladder must keep every pushed node strictly interior
            normals = graph.node_normals()
            while t_max > self.eps:
                probe = graph.nodes - t_max * normals
                if float(np.max(graph.domain.rho(probe))) < -1e-12:
                    break
                t_max *= 0.8
        n_levels = max(2, int(math.ceil(math.log(t_max / t_min)
                                        / math.log(_LEVEL_RATIO))) + 1)
        self.levels = np.geomspace(t_min, t_max, n_levels)
        self._assemble()

    # -- grid assembly -------------------------------------------------------

    def _vertical_cost(self, t_lo, t_hi):
        t_lo = np.asarray(t_lo, dtype=float)
        t_hi = np.asarray(t_hi, dtype=float)
        ratio = np.log(t_hi / t_lo)
        if self.mode == "collar":
            return 0.5 * ratio
        from .kobayashi import A_N
        return A_N * ratio

    def _horizontal_costs(self, t: float) -> np.ndarray:
        """Per-edge costs at one depth level."""
        ii, jj, w, u, z = self._edges
        if self.mode == "collar":
            return 2.0 * w / math.sqrt(t)
        from .kobayashi import kobayashi_rate, kobayashi_speed_batch
        if t <= self.eps * (1 + 1e-12):
            return kobayashi_rate(u, z, t, self.eps)
        nodes = self.graph.nodes
        normals = self.graph.node_normals()
        pa = nodes[ii] - t * normals[ii]
        pb = nodes[jj] - t * normals[jj]
        return kobayashi_speed_batch(self.projection,
                                     self.graph.structure,
                                     0.5 * (pa + pb), pb - pa,
                                     seed_feet=nodes[ii])

    def _assemble(self):
        m = self.graph.nodes.shape[0]
        L = self.levels.size
        self._m = m
        self._edges = self.graph.edge_components()
        ii, jj = self._edges[:2]
        rows, cols, data = [], [], []
        for k, t in enumerate(self.levels):
            base = k * m
            w = self._horizontal_costs(float(t))
            rows.append(ii + base)
            cols.append(jj + base)
            data.append(w)
        vcost = self._vertical_cost(self.levels[:-1], self.levels[1:])
        for k in range(L - 1):
            idx = np.arange(m)
            rows.append(k * m + idx)
            cols.append((k + 1) * m + idx)
            data.append(np.full(m, vcost[k]))
        rows, cols, data = (np.concatenate(v) for v in (rows, cols, data))
        # the COO parts with both directions of every edge; queries append
        # their own one-way edges to them
        self._parts = (np.concatenate([rows, cols]),
                       np.concatenate([cols, rows]),
                       np.concatenate([data, data]))
        self._n = L * m
        self.counts = {"levels": int(L), "grid_nodes": int(self._n),
                       "nnz": int(self._parts[2].size), "dijkstra_sources": 0}
        self.dijkstra_counts = dijkstra_counts()

    # -- queries -------------------------------------------------------------

    def _query_stubs(self, depths: np.ndarray, cols: np.ndarray):
        """(query, grid node, cost) from each query to its column's
        adjacent levels."""
        L = self.levels.size
        pos = np.searchsorted(self.levels, depths)
        q = np.concatenate([np.flatnonzero(pos > 0), np.flatnonzero(pos < L)])
        lvl = np.concatenate([pos[pos > 0] - 1, pos[pos < L]])
        s, t = depths[q], self.levels[lvl]
        cost = self._vertical_cost(np.minimum(s, t), np.maximum(s, t))
        return q, lvl * self._m + cols[q], cost

    def distances(self, points) -> np.ndarray:
        """Pairwise solver distances for a pool of interior points.

        A pool prepared by the solver's family is used as it is; bare
        coordinates, or another family's pool, are prepared once, and a
        point on the boundary is refused there (``PointOutsideDomain``).

        Each query is two virtual nodes, one that paths leave by and one
        that they arrive at, so no path passes through a third query and a
        pair's distance does not depend on the rest of the pool. The
        sources run in one ``boundary.shortest_rows`` call, so a large pool
        is spread over the CPUs.
        """
        P = self.family.as_prepared(points)
        feet, depth, cols = P.feet, P.depth, P.node
        if self.mode == "collar" and np.any(depth > self.eps * (1 + 1e-9)):
            raise ConfigError("collar mode queries must stay inside the collar")
        Q = len(P)
        n = self._n
        # query q leaves by node n + q and arrives at node n + Q + q
        out, into = n, n + Q
        sq, sg, sd = self._query_stubs(depth, cols)
        # exact vertical edges between queries sharing a column
        a, b = np.triu_indices(Q, k=1)
        same = cols[a] == cols[b]
        a, b = a[same], b[same]
        same = self.graph.domain.same_foot(feet[a], feet[b])
        a, b = a[same], b[same]
        vd = self._vertical_cost(np.minimum(depth[a], depth[b]),
                                 np.maximum(depth[a], depth[b]))
        rows, colsout, data = self._parts
        aug = coo_matrix(
            (np.concatenate([data, sd, sd, vd, vd]),
             (np.concatenate([rows, out + sq, sg, out + a, out + b]),
              np.concatenate([colsout, sg, into + sq, into + b, into + a]))),
            shape=(n + 2 * Q, n + 2 * Q)).tocsr()
        self.counts["dijkstra_sources"] += Q
        D = shortest_rows(aug, np.arange(out, out + Q), self.dijkstra_counts)
        D = D[:, into:into + Q]
        D = np.minimum(D, D.T)
        np.fill_diagonal(D, 0.0)
        return D
