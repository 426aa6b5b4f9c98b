"""Each analysis and generator function checks the ranges of the settings it
reads, and its message starts with the parameter's name, so the CLI can name
the flag that set it."""

import math
import random
import re
from functools import partial

import pytest

from rankwalk.communities import community_graph, label_propagation
from rankwalk.evaluation import activity
from rankwalk.generate import (
    build_profiles,
    planted_blocks,
    preferential_attachment,
    reciprocal_er,
    two_class,
)
from rankwalk.graph import DirectedGraph, ProfileTable, UndirectedGraph, pagerank
from rankwalk.keywords import Doc, TokenDoc, extract_keywords, keywords_by_community, window_docs
from rankwalk.reference import rank_degree

from conftest import profile_record

GRAPH = DirectedGraph.from_edges([(1, 2), (2, 1), (2, 3)])
COMMUNITY = [TokenDoc(1, ["a", "b", "c"])]
REMAINDER = [TokenDoc(2, ["d"])]
DOCS = [Doc(1, 1.0, "a"), Doc(1, 2.0, "b")]
ACCOUNT = ProfileTable.from_records([profile_record(1, status_count=5)])[1]
RNG = random.Random(0)  # every call fails before it draws


RANGE_ERRORS = [
    (partial(pagerank, GRAPH, tolerance=math.nan), "tolerance must be > 0, got nan"),
    (partial(pagerank, GRAPH, tolerance=0.0), "tolerance must be > 0, got 0.0"),
    (partial(pagerank, GRAPH, max_iters=0), "max_iters must be >= 1, got 0"),
    (partial(label_propagation, GRAPH, max_iters=0), "max_iters must be >= 1, got 0"),
    (partial(community_graph, GRAPH, {1: 0, 2: 0, 3: 1}, min_size=0),
     "min_size must be >= 1, got 0"),
    (partial(community_graph, GRAPH, {1: 0, 2: 0, 3: 1}, min_weight=-1),
     "min_weight must be >= 0, got -1"),
    (partial(extract_keywords, COMMUNITY, REMAINDER, top_n=-1), "top_n must be >= 1, got -1"),
    (partial(extract_keywords, COMMUNITY, REMAINDER, top_n=0), "top_n must be >= 1, got 0"),
    (partial(extract_keywords, COMMUNITY, REMAINDER, min_user_frac=1.5),
     "min_user_frac must lie in [0, 1], got 1.5"),
    (partial(extract_keywords, COMMUNITY, REMAINDER, min_user_frac=math.nan),
     "min_user_frac must lie in [0, 1], got nan"),
    # no community has a remainder here, so only the check at entry sees the setting
    (partial(keywords_by_community, {}, {}, top_n=-1), "top_n must be >= 1, got -1"),
    (partial(keywords_by_community, {}, {}, top_n=0), "top_n must be >= 1, got 0"),
    (partial(keywords_by_community, {}, {}, min_user_frac=1.5),
     "min_user_frac must lie in [0, 1], got 1.5"),
    (partial(keywords_by_community, {}, {}, min_user_frac=math.nan),
     "min_user_frac must lie in [0, 1], got nan"),
    (partial(window_docs, DOCS, 0.0, 5.0, per_node_cap=-1), "per_node_cap must be >= 1, got -1"),
    (partial(window_docs, DOCS, 0.0, 5.0, per_node_cap=0), "per_node_cap must be >= 1, got 0"),
    (partial(window_docs, DOCS, math.nan, 5.0), "window_start must be <= 5.0, got nan"),
    (partial(window_docs, DOCS, 0.0, math.nan), "window_end must be >= 0.0, got nan"),
    (partial(window_docs, DOCS, 5.0, 0.0), "window_end must be >= 5.0, got 0.0"),
    (partial(window_docs, DOCS, window_start=math.nan), "window_start must be <= 2.0, got nan"),
    (partial(rank_degree, UndirectedGraph.from_directed(GRAPH), [1], -1),
     "sample_size must be >= 0, got -1"),
    (partial(activity, ACCOUNT, math.nan), "as_of must be finite, got nan"),
    (partial(activity, ACCOUNT, math.inf), "as_of must be finite, got inf"),
    (partial(preferential_attachment, 5, 0, RNG), "m must be >= 1, got 0"),
    (partial(preferential_attachment, 3, 3, RNG), "nodes must be >= 4 (m + 1 per block), got 3"),
    (partial(reciprocal_er, 0, 0.5, RNG), "nodes must be >= 1, got 0"),
    (partial(reciprocal_er, 5, 2.0, RNG), "p must lie in [0, 1], got 2.0"),
    (partial(reciprocal_er, 5, math.nan, RNG), "p must lie in [0, 1], got nan"),
    (partial(two_class, 1, 0.5, 2.0, 0.1, RNG), "nodes must be >= 2, got 1"),
    (partial(two_class, 10, 0.0, 2.0, 0.1, RNG), "p must lie in (0, 1], got 0.0"),
    (partial(two_class, 10, 1.5, 2.0, 0.1, RNG), "p must lie in (0, 1], got 1.5"),
    (partial(two_class, 10, math.nan, 2.0, 0.1, RNG), "p must lie in (0, 1], got nan"),
    (partial(two_class, 10, 0.5, 0.5, 0.1, RNG), "factor must be >= 1, got 0.5"),
    (partial(two_class, 10, 0.5, 2.0, 0.0, RNG), "high_fraction must lie in (0, 1), got 0.0"),
    (partial(two_class, 10, 0.5, 2.0, 1.0, RNG), "high_fraction must lie in (0, 1), got 1.0"),
    (partial(planted_blocks, 10, 0, 2, 0.1, RNG), "m must be >= 1, got 0"),
    (partial(planted_blocks, 10, 1, 0, 0.1, RNG), "blocks must be >= 1, got 0"),
    (partial(planted_blocks, 11, 3, 3, 0.1, RNG),
     "nodes must be >= 12 (m + 1 per block), got 11"),
    (partial(planted_blocks, 10, 1, 2, 2.0, RNG), "cross_fraction must lie in [0, 1], got 2.0"),
    (partial(build_profiles, 2, [(0, 1)], RNG, follower_noise=math.nan),
     "follower_noise must be >= 0, got nan"),
]


@pytest.mark.parametrize(
    "bound, message", RANGE_ERRORS, ids=[f"{b.func.__name__}: {m}" for b, m in RANGE_ERRORS]
)
def test_setting_out_of_range_is_rejected_by_the_function_that_reads_it(bound, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bound()
