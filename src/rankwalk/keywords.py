"""Per-community keyword extraction from token documents via the 2x2
chi-squared keyness statistic, with top-n and community-usage filters."""

from __future__ import annotations

import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .graph import (
    _INT64_END,
    NodeId,
    _check_fields,
    _compact_json,
    _gc_paused,
    _integer_id,
    _open_text,
    _read_json_lines,
)

_URL_RE = re.compile(r"https?://\S+")
_TOKEN_RE = re.compile(r"[#@]?\w+")


@dataclass(frozen=True, slots=True)
class Doc:
    """One raw text with its author and timestamp."""

    node: NodeId
    ts: float
    text: str


class DocTable(Sequence[Doc]):
    """A read-only snapshot of documents, stored as columns: what
    read_docs_jsonl returns, at ~26 B per document besides its text.

    Row i, in file order, is the text texts[i] of the author nodes[i] at time
    ts[i]. nodes is an array('q') of the ids; ts is a float64 array; texts
    is a list of str.
    table[i] and iteration build a Doc per document; loops over every
    document read the columns instead.
    """

    __slots__ = ("nodes", "ts", "texts", "_ts_view")

    def __init__(self, nodes: array, ts: np.ndarray, texts: list[str]) -> None:
        self.nodes = nodes
        self.ts = ts
        self.ts.flags.writeable = False
        self.texts = texts
        self._ts_view = memoryview(ts)  # indexing it gives a Python float

    @classmethod
    def from_docs(cls, docs: Sequence[Doc]) -> DocTable:
        """`docs` itself if it is a DocTable, else a DocTable of its Docs, each
        node an id by read_docs_jsonl's rule (_integer_id)."""
        if isinstance(docs, DocTable):
            return docs
        nodes = array("q", [_integer_id(doc.node, "node") for doc in docs])
        ts = np.fromiter((doc.ts for doc in docs), np.float64, len(docs))
        return cls(nodes, ts, [doc.text for doc in docs])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self.texts))[index]]
        return Doc(self.nodes[index], self._ts_view[index], self.texts[index])

    def __iter__(self) -> Iterator[Doc]:
        return map(Doc, self.nodes, self._ts_view, self.texts)

    def __len__(self) -> int:
        return len(self.texts)

    def __repr__(self) -> str:
        return f"DocTable(docs={len(self.texts)})"


@dataclass(slots=True)
class TokenDoc:
    """A node's normalized tokens: lowercase, stop-words removed."""

    node: NodeId
    tokens: list[str]


@dataclass(frozen=True)
class KeywordEntry:
    token: str
    chi2: float
    user_fraction: float


@dataclass
class KeywordResult:
    """Ranked keywords for one community, descending by chi-squared score."""

    community: int
    entries: list[KeywordEntry]


def chi_squared_keyness(a: int, b: int, c: int, d: int) -> float:
    """2x2 chi-squared: N*(ad - bc)^2 / ((a+b)(c+d)(a+c)(b+d)).

    a = token occurrences in the community corpus, b = all other community
    tokens, c/d = the same for the remainder corpus. Returns 0 when a token
    marginal (a+c or b+d) is empty.
    """
    if min(a, b, c, d) < 0:
        raise ValueError("counts must be non-negative")
    if a + b == 0 or c + d == 0:
        raise ValueError("both corpora must be non-empty")
    if a + c == 0 or b + d == 0:
        return 0.0
    n = a + b + c + d
    numerator = n * (a * d - b * c) ** 2
    denominator = (a + b) * (c + d) * (a + c) * (b + d)
    return numerator / denominator


def _tokens(
    text: str, stopwords: AbstractSet[str], share: Callable[[str, str], str]
) -> list[str]:
    """tokenize(), with each kept token passed through share(token, token)."""
    cleaned = _URL_RE.sub(" ", text.lower())
    return [
        share(token, token)
        for token in _TOKEN_RE.findall(cleaned)
        if token not in stopwords and not (token.isdigit() and len(token) < 4)
    ]


def tokenize(text: str, stopwords: AbstractSet[str]) -> list[str]:
    """Lowercase, drop URLs, take the [#@]?\\w+ tokens (keeping # and @
    prefixes), and drop stop-words and pure numbers shorter than 4 digits."""
    return _tokens(text, stopwords, {}.setdefault)


def window_docs(
    docs: Sequence[Doc],
    window_start: float | None = None,
    window_end: float | None = None,
    per_node_cap: int | None = None,
) -> DocTable:
    """Keep texts timestamped in [window_start, window_end], at most
    per_node_cap per node, newest first: a DocTable of the kept rows,
    ascending by node. A bound left out is the oldest or newest text's
    timestamp; the start must not lie past the end. No Doc is built."""
    table = DocTable.from_docs(docs)
    nodes, times, texts = table.nodes, table._ts_view, table.texts
    t0 = min(times, default=-math.inf) if window_start is None else window_start
    t1 = max(times, default=math.inf) if window_end is None else window_end
    if not t0 <= t1:  # NaN fails too
        # name a bound the caller gave: the start when it alone was given or is NaN
        if window_start is not None and (window_end is None or math.isnan(window_start)):
            raise ValueError(f"window_start must be <= {t1}, got {t0}")
        raise ValueError(f"window_end must be >= {t0}, got {t1}")
    if per_node_cap is not None and not per_node_cap >= 1:
        raise ValueError(f"per_node_cap must be >= 1, got {per_node_cap}")
    by_node: dict[NodeId, list[tuple[float, int]]] = {}
    for index, (node, ts) in enumerate(zip(nodes, times)):
        if t0 <= ts <= t1:
            by_node.setdefault(node, []).append((-ts, index))
    kept = [
        index for node in sorted(by_node) for _, index in sorted(by_node[node])[:per_node_cap]
    ]
    kept_nodes = array("q", map(nodes.__getitem__, kept))
    kept_times = np.fromiter(map(times.__getitem__, kept), np.float64, len(kept))
    return DocTable(kept_nodes, kept_times, [texts[index] for index in kept])


def tokenize_docs(
    docs: Sequence[Doc], stopwords: AbstractSet[str]
) -> list[TokenDoc]:
    """Aggregate raw texts into one TokenDoc per node, ascending by node: the
    tokenize() tokens of its texts in order, each distinct token one str
    object shared by all."""
    table = DocTable.from_docs(docs)
    share = {}.setdefault
    by_node: dict[NodeId, list[str]] = {}
    with _gc_paused():
        for node, text in zip(table.nodes, table.texts):
            tokens = by_node.get(node)
            if tokens is None:
                tokens = by_node[node] = []
            tokens += _tokens(text, stopwords, share)
        return [TokenDoc(node, by_node[node]) for node in sorted(by_node)]


# extract_keywords' defaults, which keywords_by_community passes on
TOP_N = 50
MIN_USER_FRAC = 0.05


def _check_settings(top_n: int, min_user_frac: float) -> None:
    if not top_n >= 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    if not 0.0 <= min_user_frac <= 1.0:
        raise ValueError(f"min_user_frac must lie in [0, 1], got {min_user_frac}")


def extract_keywords(
    community_docs: Sequence[TokenDoc],
    remainder_docs: Sequence[TokenDoc],
    top_n: int = TOP_N,
    min_user_frac: float = MIN_USER_FRAC,
) -> list[KeywordEntry]:
    """Keywords of a community corpus against a remainder corpus.

    Only community-overrepresented tokens qualify (strictly higher relative
    frequency). Tokens are ranked by chi-squared descending, ties
    lexicographic, truncated to top_n, and then tokens used by fewer than
    min_user_frac of the community's nodes are dropped.
    """
    _check_settings(top_n, min_user_frac)
    community_counts: Counter[str] = Counter()
    users_by_token: dict[str, set[NodeId]] = {}
    community_nodes: set[NodeId] = set()
    for doc in community_docs:
        community_nodes.add(doc.node)
        for token in doc.tokens:
            community_counts[token] += 1
            users_by_token.setdefault(token, set()).add(doc.node)
    remainder_counts: Counter[str] = Counter()
    for doc in remainder_docs:
        remainder_counts.update(doc.tokens)

    community_total = sum(community_counts.values())
    remainder_total = sum(remainder_counts.values())
    if community_total == 0:
        raise ValueError("community corpus is empty")
    if remainder_total == 0:
        raise ValueError("remainder corpus is empty")

    scored: list[tuple[float, str]] = []
    for token, a in community_counts.items():
        c = remainder_counts.get(token, 0)
        b = community_total - a
        d = remainder_total - c
        # positive keyness only: a/(a+b) > c/(c+d), cross-multiplied
        if a * (c + d) <= c * (a + b):
            continue
        scored.append((chi_squared_keyness(a, b, c, d), token))
    scored.sort(key=lambda item: (-item[0], item[1]))

    entries = []
    node_count = len(community_nodes)
    for chi2, token in scored[:top_n]:
        user_fraction = len(users_by_token[token]) / node_count
        if user_fraction < min_user_frac:
            continue
        entries.append(KeywordEntry(token, chi2, user_fraction))
    return entries


def keywords_by_community(
    docs_by_node: Mapping[NodeId, TokenDoc],
    assignment: Mapping[NodeId, int],
    communities: Iterable[int] | None = None,
    top_n: int = TOP_N,
    min_user_frac: float = MIN_USER_FRAC,
) -> list[KeywordResult]:
    """Run extraction per community; each community's remainder corpus is the
    union of all other analyzed communities' docs. The settings are checked
    here, so a bad one fails even where no community has a remainder."""
    _check_settings(top_n, min_user_frac)
    grouped: dict[int, list[TokenDoc]] = {}
    for node, doc in docs_by_node.items():
        community = assignment.get(node)
        if community is None:
            continue
        grouped.setdefault(community, []).append(doc)
    analyzed = sorted(grouped) if communities is None else sorted(set(communities) & set(grouped))
    results = []
    for community in analyzed:
        community_docs = grouped[community]
        remainder_docs = [
            doc for other in analyzed if other != community for doc in grouped[other]
        ]
        if not remainder_docs:
            continue
        entries = extract_keywords(community_docs, remainder_docs, top_n, min_user_frac)
        results.append(KeywordResult(community, entries))
    return results


# The JSON types each document field accepts; node must also pass _integer_id.
DOC_FIELDS: dict[str, tuple[type, ...]] = {"node": (int,), "ts": (int, float), "text": (str,)}
_DOC_SIGNATURES = frozenset(product(*DOC_FIELDS.values()))


def read_docs_jsonl(path) -> DocTable:
    """The documents of a JSONL file, in file order, one object a line: an id
    `node` in [0, 2**63), a finite number `ts` and a string `text`. A value
    of a JSON type that DOC_FIELDS does not allow is rejected, not coerced,
    and so are an id out of range and a `ts` that is not finite or too large
    for a float; the error is a ValueError("<path>: line N: <reason>")."""
    nodes = array("q")
    ts_column = array("d")
    texts: list[str] = []
    add_ts, add_text = ts_column.append, texts.append

    def add(record: dict) -> None:
        node, ts, text = record["node"], record["ts"], record["text"]
        if (type(node), type(ts), type(text)) not in _DOC_SIGNATURES:
            _check_fields(record, DOC_FIELDS)
        if not 0 <= node < _INT64_END:
            _integer_id(node, "node")
        ts = float(ts)  # an int too large for a float raises OverflowError
        if not math.isfinite(ts):
            raise ValueError(f"field 'ts' must be finite, got {ts}")
        nodes.append(node)
        add_ts(ts)
        add_text(text)

    _read_json_lines(path, add)
    return DocTable(nodes, np.frombuffer(ts_column, np.float64), texts)


def write_docs_jsonl(docs: Iterable[Doc], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for doc in docs:
            fh.write(_compact_json({"node": doc.node, "ts": doc.ts, "text": doc.text}) + "\n")


def read_stopwords(path) -> set[str]:
    """One word per line, UTF-8; blank lines ignored."""
    with _open_text(path) as fh:
        return {line.strip().lower() for line in fh if line.strip()}


def write_keywords_csv(results: Iterable[KeywordResult], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("community,rank,token,chi2,user_fraction\n")
        for result in results:
            for rank, entry in enumerate(result.entries, start=1):
                fh.write(
                    f"{result.community},{rank},{entry.token},{entry.chi2},{entry.user_fraction}\n"
                )
