"""Rank-degree sampling of directed follow networks under simulated API rate
limits, with sample-quality evaluation and community/keyword analysis."""

from .graph import (
    DirectedGraph,
    PageRankResult,
    ProfileRecord,
    ProfileTable,
    UndirectedGraph,
    k_core,
    pagerank,
    read_edge_list,
    read_profiles,
    write_edge_list,
    write_profiles,
)
from .oracle import (
    ApiBudget,
    FriendsPage,
    NotFoundError,
    ProtectedError,
    RateLimiter,
    SimulatedClock,
    SimulatedOracle,
    build_simulated_oracle,
)
from .reference import RankDegreeResult, rank_degree
from .sampler import (
    Crawl,
    RunStats,
    SampleGraph,
    SamplerConfig,
    SeedPool,
    run_sample,
    select_target,
)

__version__ = "0.1.0"

__all__ = [
    "ApiBudget",
    "Crawl",
    "DirectedGraph",
    "FriendsPage",
    "NotFoundError",
    "PageRankResult",
    "ProfileRecord",
    "ProfileTable",
    "ProtectedError",
    "RankDegreeResult",
    "RateLimiter",
    "RunStats",
    "SampleGraph",
    "SamplerConfig",
    "SeedPool",
    "SimulatedClock",
    "SimulatedOracle",
    "UndirectedGraph",
    "build_simulated_oracle",
    "k_core",
    "pagerank",
    "rank_degree",
    "read_edge_list",
    "read_profiles",
    "run_sample",
    "select_target",
    "write_edge_list",
    "write_profiles",
]
