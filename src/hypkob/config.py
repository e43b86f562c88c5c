"""Run configuration loading and workspace assembly for the front end.

A run configuration is a JSON mapping with the domain and structure
specs (inline or as paths relative to the configuration file), boundary
graph parameters, and the seeds for every sampler. Seeds are explicit;
nothing draws entropy at run time. The solver tolerances are constants of
their modules; a config that names a ``tolerances`` block is refused.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from ._util import config_hash
from .domain import Domain, HeightProjection, reach_details
from .structures import StructureField
from .boundary import BoundaryGraph, cache_files
from .metrics import MetricFamily
from .layered import LayeredSolver

__all__ = ["RunConfig", "Workspace", "load_config", "build_workspace"]

_GRAPH_DEFAULTS = {
    "n_nodes": 600,
    "k_neighbors": 10,
    "anisotropy": 8.0,
    "seed": 0,
}

_SEED_DEFAULTS = {
    "sampler": 0,
    "pairs": 0,
    "quadruples": 0,
    "orbits": 0,
}


@dataclass
class RunConfig:
    """Validated run configuration with resolved spec mappings."""

    domain_spec: dict
    structure_spec: dict
    graph: dict
    seeds: dict
    out_dir: str
    epsilon: Optional[float] = None
    map_spec: Optional[dict] = None
    raw: dict = field(default_factory=dict)

    def hash(self) -> str:
        return config_hash(self.raw)


def _is_number(val) -> bool:
    """A JSON number: ``true`` and ``false`` load as Python booleans, which
    are integers, but are not numbers here."""
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _resolve_spec(value, base_dir: str, label: str) -> dict:
    if isinstance(value, dict):
        return value
    if isinstance(value, str):
        path = value if os.path.isabs(value) else os.path.join(base_dir, value)
        if not os.path.exists(path):
            raise ConfigError(f"{label} spec file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{label} spec is not valid JSON: {exc}") from exc
    raise ConfigError(f"{label} spec must be a mapping or a path")


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON run configuration."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON mapping")
    base_dir = os.path.dirname(os.path.abspath(path))
    if "domain" not in raw:
        raise ConfigError("config needs a 'domain' entry")
    domain_spec = _resolve_spec(raw["domain"], base_dir, "domain")
    structure_spec = _resolve_spec(raw.get("structure", {"type": "standard"}),
                                   base_dir, "structure")
    graph = dict(_GRAPH_DEFAULTS)
    graph.update(raw.get("graph", {}))
    unknown = set(graph) - set(_GRAPH_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown graph parameters: {sorted(unknown)}")
    # every graph parameter takes a number
    for key in _GRAPH_DEFAULTS:
        if not _is_number(graph[key]):
            raise ConfigError(f"graph parameter {key!r} must be a number")
    if "tolerances" in raw:
        raise ConfigError("the config takes no 'tolerances' block: newton_tol "
                          "is fixed at 1e-10")
    seeds = dict(_SEED_DEFAULTS)
    seeds.update(raw.get("seeds", {}))
    for key, val in seeds.items():
        if not (isinstance(val, int) and not isinstance(val, bool)):
            raise ConfigError(f"seed {key!r} must be an integer")
    epsilon = raw.get("epsilon")
    if epsilon is not None and not (_is_number(epsilon) and epsilon > 0):
        raise ConfigError("epsilon must be positive when given")
    out_dir = raw.get("out_dir", "hypkob_out")
    if not os.path.isabs(out_dir):
        out_dir = os.path.join(base_dir, out_dir)
    map_spec = raw.get("map")
    if map_spec is not None and not isinstance(map_spec, dict):
        raise ConfigError("the map entry must be a mapping")
    return RunConfig(domain_spec=domain_spec, structure_spec=structure_spec,
                     graph=graph, seeds=seeds,
                     out_dir=out_dir, epsilon=float(epsilon) if epsilon else None,
                     map_spec=map_spec, raw=raw)


@dataclass
class Workspace:
    """Built objects shared by the front-end commands."""

    domain: Domain
    structure: StructureField
    projection: HeightProjection
    graph: Optional[BoundaryGraph]
    family: Optional[MetricFamily]
    epsilon: float
    # the graph file of the cache that holds ``graph`` (``.npz`` appended);
    # None without a cache, and for a refined graph, whose rows belong to
    # no cache
    graph_cache: Optional[str] = None
    # the estimate's solver, set by the command that builds one; its
    # ``counts`` go into the manifest
    layered: Optional[LayeredSolver] = None
    # wall seconds spent loading or building (and first saving) the graph,
    # refinement included
    graph_s: float = 0.0


def build_workspace(cfg: RunConfig, refine: int = 0,
                    graph_cache: Optional[str] = None,
                    with_graph: bool = True) -> Workspace:
    """Assemble domain, structure, projection, and boundary graph.

    A graph cache (see ``BoundaryGraph.save``) is loaded when its graph
    file is present, before the reach estimate, so the estimate and every
    projection use the boundary cloud it stores; after a fresh build the
    graph is saved to it. Refinement happens after loading, so a cache
    plus a refine count is a reproducible denser graph. The cache carries
    a hash of the domain spec, the structure spec and the graph block, and
    a cache whose hash differs or is missing is refused. It also holds the
    graph's distance rows; the workspace names the cache only while
    ``graph`` is the cached graph itself, so rows of a refined graph never
    reach it. Pointwise commands that never touch boundary distances skip
    the graph and its cache entirely.
    """
    domain = Domain.from_spec(cfg.domain_spec)
    structure = StructureField.from_spec(cfg.structure_spec, domain.dim)
    graph = None
    clock = time.perf_counter()
    if with_graph and graph_cache:
        graph_cache = cache_files(graph_cache)[0]
        setup = config_hash({"domain": cfg.domain_spec,
                             "structure": cfg.structure_spec,
                             "graph": cfg.graph})
        if os.path.exists(graph_cache):
            graph = BoundaryGraph.load(graph_cache, domain, structure,
                                       setup=setup)
    graph_s = time.perf_counter() - clock
    if cfg.epsilon is not None:
        eps = float(cfg.epsilon)
    else:
        eps = reach_details(domain, seed=cfg.seeds["sampler"]).epsilon
    projection = HeightProjection(domain, eps)
    if not with_graph:
        return Workspace(domain=domain, structure=structure,
                         projection=projection, graph=None, family=None,
                         epsilon=eps)
    clock = time.perf_counter()
    if graph is None:
        graph = BoundaryGraph.build(
            domain, structure,
            n_nodes=int(cfg.graph["n_nodes"]),
            k_neighbors=int(cfg.graph["k_neighbors"]),
            anisotropy=float(cfg.graph["anisotropy"]),
            seed=int(cfg.graph["seed"]),
        )
        if graph_cache:
            graph.params["setup"] = setup
            graph.save(graph_cache)
    for _ in range(int(refine)):
        graph = graph.refine()
    graph_s += time.perf_counter() - clock
    family = MetricFamily(projection, graph)
    return Workspace(domain=domain, structure=structure, projection=projection,
                     graph=graph, family=family, epsilon=eps,
                     graph_cache=None if int(refine) else graph_cache,
                     graph_s=graph_s)
