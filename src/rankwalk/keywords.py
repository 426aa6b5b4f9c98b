"""Per-community keyword extraction from token documents via the 2x2
chi-squared keyness statistic, with top-n and community-usage filters."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import AbstractSet, Iterable, Mapping, Sequence

from .graph import NodeId, _check_fields, _integer_id, _read_json_lines

_URL_RE = re.compile(r"https?://\S+")
_TOKEN_RE = re.compile(r"[#@]?\w+")


@dataclass(frozen=True)
class Doc:
    """One raw text with its author and timestamp."""

    node: NodeId
    ts: float
    text: str


@dataclass
class TokenDoc:
    """A node's normalized tokens (lowercase, stop-words removed) plus the
    timestamps of the source texts."""

    node: NodeId
    tokens: list[str]
    timestamps: list[float] = field(default_factory=list)


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


def tokenize(text: str, stopwords: AbstractSet[str]) -> list[str]:
    """Lowercase, split on non-word boundaries keeping # and @ prefixes, drop
    stop-words, URLs, and pure numbers shorter than 4 digits."""
    cleaned = _URL_RE.sub(" ", text.lower())
    tokens = []
    for token in _TOKEN_RE.findall(cleaned):
        if token in stopwords:
            continue
        if token.isdigit() and len(token) < 4:
            continue
        tokens.append(token)
    return tokens


def window_docs(
    docs: Sequence[Doc],
    t0: float,
    t1: float,
    per_node_cap: int | None = None,
    cap_rule: str = "newest",
) -> list[Doc]:
    """Keep texts timestamped in [t0, t1], at most per_node_cap per node
    (newest first by default)."""
    if t1 < t0:
        raise ValueError(f"invalid window: t1={t1} < t0={t0}")
    if cap_rule not in ("newest", "oldest"):
        raise ValueError(f"unknown cap_rule {cap_rule!r}")
    by_node: dict[NodeId, list[tuple[int, Doc]]] = {}
    for index, doc in enumerate(docs):
        if t0 <= doc.ts <= t1:
            by_node.setdefault(doc.node, []).append((index, doc))
    kept: list[Doc] = []
    for node in sorted(by_node):
        entries = by_node[node]
        if cap_rule == "newest":
            entries.sort(key=lambda item: (-item[1].ts, item[0]))
        else:
            entries.sort(key=lambda item: (item[1].ts, item[0]))
        if per_node_cap is not None:
            entries = entries[:per_node_cap]
        kept.extend(doc for _, doc in entries)
    return kept


def tokenize_docs(
    docs: Sequence[Doc], stopwords: AbstractSet[str]
) -> list[TokenDoc]:
    """Aggregate raw texts into one TokenDoc per node."""
    by_node: dict[NodeId, TokenDoc] = {}
    for doc in docs:
        token_doc = by_node.setdefault(doc.node, TokenDoc(doc.node, [], []))
        token_doc.tokens.extend(tokenize(doc.text, stopwords))
        token_doc.timestamps.append(doc.ts)
    return [by_node[node] for node in sorted(by_node)]


def extract_keywords(
    community_docs: Sequence[TokenDoc],
    remainder_docs: Sequence[TokenDoc],
    top_n: int = 50,
    min_user_frac: float = 0.05,
) -> list[KeywordEntry]:
    """Keywords of a community corpus against a remainder corpus.

    Only community-overrepresented tokens qualify (strictly higher relative
    frequency). Tokens are ranked by chi-squared descending, ties
    lexicographic, truncated to top_n, and then tokens used by fewer than
    min_user_frac of the community's nodes are dropped.
    """
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
    top_n: int = 50,
    min_user_frac: float = 0.05,
) -> list[KeywordResult]:
    """Run extraction per community; each community's remainder corpus is the
    union of all other analyzed communities' docs."""
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


def read_docs_jsonl(path) -> list[Doc]:
    docs = []

    def add(record: dict) -> None:
        node, ts, text = record["node"], record["ts"], record["text"]
        if (type(node), type(ts), type(text)) not in _DOC_SIGNATURES:
            _check_fields(record, DOC_FIELDS)
        docs.append(Doc(_integer_id(node, "node"), float(ts), text))

    _read_json_lines(path, add)
    return docs


def write_docs_jsonl(docs: Iterable[Doc], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for doc in docs:
            fh.write(
                json.dumps(
                    {"node": doc.node, "ts": doc.ts, "text": doc.text}, separators=(",", ":")
                )
                + "\n"
            )


def read_stopwords(path) -> set[str]:
    """One word per line, UTF-8; blank lines ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        return {line.strip().lower() for line in fh if line.strip()}


def write_keywords_csv(results: Iterable[KeywordResult], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("community,rank,token,chi2,user_fraction\n")
        for result in results:
            for rank, entry in enumerate(result.entries, start=1):
                fh.write(
                    f"{result.community},{rank},{entry.token},{entry.chi2},{entry.user_fraction}\n"
                )
