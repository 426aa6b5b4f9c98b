import json
import random
import re
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankwalk import graph as graph_module
from rankwalk import keywords as keywords_module
from rankwalk.keywords import (
    Doc,
    DocTable,
    TokenDoc,
    chi_squared_keyness,
    extract_keywords,
    keywords_by_community,
    read_docs_jsonl,
    tokenize,
    tokenize_docs,
    window_docs,
    write_docs_jsonl,
)


def exact_chi2(a, b, c, d):
    n = a + b + c + d
    return Fraction(n * (a * d - b * c) ** 2, (a + b) * (c + d) * (a + c) * (b + d))


class TestChiSquaredKeyness:
    def test_equal_relative_frequencies_score_zero(self):
        assert chi_squared_keyness(5, 95, 50, 950) == 0.0

    def test_known_table(self):
        assert chi_squared_keyness(10, 90, 2, 998) == pytest.approx(
            80.91605392156863, abs=1e-9
        )

    def test_corpus_swap_symmetry(self):
        assert chi_squared_keyness(10, 90, 2, 998) == chi_squared_keyness(2, 998, 10, 90)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            chi_squared_keyness(-1, 2, 3, 4)

    def test_empty_token_marginal_scores_zero(self):
        assert chi_squared_keyness(0, 10, 0, 20) == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            chi_squared_keyness(0, 0, 1, 2)

    def test_non_negative_and_zero_iff_ad_equals_bc(self):
        rng = random.Random(1)
        for _ in range(200):
            a, b, c, d = (rng.randint(0, 30) for _ in range(4))
            if a + b == 0 or c + d == 0:
                continue
            score = chi_squared_keyness(a, b, c, d)
            assert score >= 0.0
            if a + c > 0 and b + d > 0:
                assert (score == 0.0) == (a * d == b * c)

    def test_scaling_property(self):
        rng = random.Random(2)
        for _ in range(50):
            a, b = rng.randint(0, 20), rng.randint(1, 20)
            c, d = rng.randint(0, 20), rng.randint(1, 20)
            m = rng.randint(2, 100)
            base = chi_squared_keyness(a, b, c, d)
            scaled = chi_squared_keyness(m * a, m * b, m * c, m * d)
            assert scaled == pytest.approx(m * base, rel=1e-12, abs=1e-12)


def doc(node, *tokens):
    return TokenDoc(node, list(tokens))


class TestExtractKeywords:
    def test_distinctive_token_retained_with_user_fraction(self):
        community = [doc(1, "zelda", "stream"), doc(2, "zelda")]
        remainder = [doc(10, "politik"), doc(11, "politik", "stream")]
        entries = extract_keywords(community, remainder)
        tokens = {e.token: e for e in entries}
        assert "zelda" in tokens
        assert tokens["zelda"].user_fraction == 1.0

    def test_rare_token_dropped_by_user_fraction(self):
        community = [doc(n, "filler") for n in range(99)] + [doc(99, "unicum", "filler")]
        remainder = [doc(1000, "other")] * 3
        entries = extract_keywords(community, remainder, min_user_frac=0.05)
        assert "unicum" not in {e.token for e in entries}

    def test_negative_keyness_excluded(self):
        # "common" is underrepresented in the community
        community = [doc(1, "common", "special", "special")]
        remainder = [doc(2, "common", "common", "common", "other")]
        entries = extract_keywords(community, remainder)
        tokens = {e.token for e in entries}
        assert "special" in tokens
        assert "common" not in tokens

    def test_matches_brute_force_over_full_vocabulary(self):
        rng = random.Random(3)
        vocabulary = [f"w{i}" for i in range(40)]
        community = [
            doc(n, *rng.choices(vocabulary, k=rng.randint(5, 30))) for n in range(12)
        ]
        remainder = [
            doc(100 + n, *rng.choices(vocabulary, k=rng.randint(5, 30))) for n in range(12)
        ]
        entries = extract_keywords(community, remainder, top_n=50, min_user_frac=0.0)

        comm_counts = Counter(t for d in community for t in d.tokens)
        rem_counts = Counter(t for d in remainder for t in d.tokens)
        comm_total = sum(comm_counts.values())
        rem_total = sum(rem_counts.values())
        expected = []
        for token, a in comm_counts.items():
            b = comm_total - a
            c = rem_counts.get(token, 0)
            d = rem_total - c
            if Fraction(a, a + b) <= Fraction(c, c + d):
                continue
            expected.append((float(exact_chi2(a, b, c, d)), token))
        expected.sort(key=lambda item: (-item[0], item[1]))
        assert [(e.chi2, e.token) for e in entries] == pytest.approx(
            [(s, t) for s, t in expected[:50]]
        )

    def test_top_n_truncates_before_user_filter(self):
        community = [doc(1, *(f"tok{i}" for i in range(20)))]
        remainder = [doc(2, "zzz")]
        entries = extract_keywords(community, remainder, top_n=5, min_user_frac=0.0)
        assert len(entries) == 5

    def test_monotone_filters(self):
        rng = random.Random(4)
        vocabulary = [f"w{i}" for i in range(30)]
        community = [doc(n, *rng.choices(vocabulary, k=15)) for n in range(10)]
        remainder = [doc(50 + n, *rng.choices(vocabulary, k=15)) for n in range(10)]
        base = extract_keywords(community, remainder, top_n=10, min_user_frac=0.1)
        stricter = extract_keywords(community, remainder, top_n=10, min_user_frac=0.3)
        assert {e.token for e in stricter} <= {e.token for e in base}
        wider = extract_keywords(community, remainder, top_n=25, min_user_frac=0.1)
        assert {e.token for e in base} <= {e.token for e in wider}

    def test_empty_corpora_rejected_naming_the_side(self):
        with pytest.raises(ValueError, match="community"):
            extract_keywords([], [doc(1, "x")])
        with pytest.raises(ValueError, match="remainder"):
            extract_keywords([doc(1, "x")], [])

    def test_deterministic_ordering(self):
        rng = random.Random(5)
        vocabulary = [f"w{i}" for i in range(20)]
        community = [doc(n, *rng.choices(vocabulary, k=10)) for n in range(5)]
        remainder = [doc(50 + n, *rng.choices(vocabulary, k=10)) for n in range(5)]
        first = extract_keywords(community, remainder)
        second = extract_keywords(community, remainder)
        assert first == second


class TestKeywordsByCommunity:
    def test_remainder_is_union_of_other_communities(self):
        docs = {
            1: doc(1, "alpha", "alpha"),
            2: doc(2, "alpha"),
            3: doc(3, "beta", "beta"),
            4: doc(4, "beta"),
            5: doc(5, "gamma", "gamma"),
        }
        assignment = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2}
        results = keywords_by_community(docs, assignment)
        by_community = {r.community: [e.token for e in r.entries] for r in results}
        assert by_community[0] == ["alpha"]
        assert by_community[1] == ["beta"]
        assert by_community[2] == ["gamma"]


class TestTokenize:
    def test_basic_split_keeps_hash_prefix(self):
        assert tokenize("E3 stream! #zelda", set()) == ["e3", "stream", "#zelda"]

    def test_stopwords_removed(self):
        assert tokenize("und zelda", {"und"}) == ["zelda"]

    def test_urls_dropped(self):
        assert tokenize("https://t.co/x zelda", set()) == ["zelda"]

    def test_short_pure_numbers_dropped(self):
        assert tokenize("im jahr 2019 um 12 uhr", set()) == ["im", "jahr", "2019", "um", "uhr"]

    def test_mentions_keep_prefix(self):
        assert tokenize("@user hallo", set()) == ["@user", "hallo"]


class TestWindowDocs:
    def docs(self):
        return [
            Doc(1, 10.0, "a"),
            Doc(1, 20.0, "b"),
            Doc(1, 30.0, "c"),
            Doc(2, 15.0, "d"),
            Doc(2, 45.0, "e"),
        ]

    def test_window_covering_everything_keeps_all(self):
        kept = window_docs(self.docs(), 0.0, 100.0)
        assert len(kept) == 5

    def test_cap_one_keeps_newest_per_node(self):
        kept = window_docs(self.docs(), 0.0, 100.0, per_node_cap=1)
        assert {(d.node, d.ts) for d in kept} == {(1, 30.0), (2, 45.0)}

    def test_matches_brute_force_filter(self, tmp_path):
        rng = random.Random(6)
        docs = [Doc(rng.randrange(5), rng.uniform(0, 100), f"t{i}") for i in range(200)]
        t0, t1 = 20.0, 80.0
        kept = window_docs(docs, t0, t1)
        expected = sorted(
            (d for d in docs if t0 <= d.ts <= t1), key=lambda d: (d.node, -d.ts)
        )
        assert sorted(kept, key=lambda d: (d.node, -d.ts, d.text)) == sorted(
            expected, key=lambda d: (d.node, -d.ts, d.text)
        )
        # a DocTable read back from the same docs keeps the same Docs in the same order
        write_docs_jsonl(docs, tmp_path / "docs.jsonl")
        table = read_docs_jsonl(tmp_path / "docs.jsonl")
        assert list(window_docs(table, t0, t1)) == list(kept)
        assert list(window_docs(table, per_node_cap=3)) == list(window_docs(docs, per_node_cap=3))

    def test_keeps_a_table_and_builds_no_doc(self, tmp_path, monkeypatch):
        """The windowed corpus is a DocTable of the kept rows, newest first per
        node, and tokenize_docs reads its columns: neither builds a Doc."""
        write_docs_jsonl(self.docs(), tmp_path / "docs.jsonl")
        for docs in (read_docs_jsonl(tmp_path / "docs.jsonl"), self.docs()):
            with monkeypatch.context() as mp:
                mp.setattr(keywords_module, "Doc", None)  # building a Doc would raise
                kept = window_docs(docs, 0.0, 40.0, per_node_cap=2)
                token_docs = tokenize_docs(kept, set())
            assert isinstance(kept, DocTable)
            assert list(kept.nodes) == [1, 1, 2] and kept.texts == ["c", "b", "d"]
            assert kept.ts.tolist() == [30.0, 20.0, 15.0] and not kept.ts.flags.writeable
            assert token_docs == [TokenDoc(1, ["c", "b"]), TokenDoc(2, ["d"])]

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            window_docs(self.docs(), 10.0, 5.0)

    @pytest.mark.parametrize("node, error, message", [
        (2**63, ValueError, "field 'node': expected an integer < 2**63, got 9223372036854775808"),
        (-1, TypeError, "field 'node': expected a JSON integer >= 0, got -1"),
        (True, TypeError, "field 'node': expected a JSON integer >= 0, got True"),
        (1.0, TypeError, "field 'node': expected a JSON integer >= 0, got 1.0"),
    ])
    def test_docs_take_read_docs_jsonls_id_rule(self, node, error, message):
        """A list of Docs becomes a DocTable by one constructor, which takes
        the ids read_docs_jsonl takes: window_docs and tokenize_docs give one
        answer for a node that is not an id."""
        docs = [Doc(1, 1.0, "a"), Doc(node, 1.0, "a")]
        for call in (lambda: window_docs(docs), lambda: tokenize_docs(docs, set())):
            with pytest.raises(error) as info:
                call()
            assert str(info.value) == message


class TestDocsIO:
    def test_jsonl_round_trip(self, tmp_path):
        docs = [Doc(1, 10.0, "hallo welt"), Doc(2, 20.0, "#zelda stream")]
        path = tmp_path / "docs.jsonl"
        write_docs_jsonl(docs, path)
        table = read_docs_jsonl(path)
        assert isinstance(table, DocTable)
        assert list(table) == docs
        assert [table[i] for i in range(len(table))] == docs
        assert table[-1] == docs[-1] and table[::-1] == docs[::-1]
        with pytest.raises(IndexError):
            table[2]

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"node": 1, "ts": 5.0}\n')
        with pytest.raises(ValueError, match="text"):
            read_docs_jsonl(path)

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("node", True, "expected int, got True"),
            ("node", -4, "expected a JSON integer >= 0, got -4"),
            ("ts", "1e9", "expected int or float, got '1e9'"),
            ("text", 5, "expected str, got 5"),
        ],
    )
    def test_field_of_another_json_type_is_not_coerced(self, tmp_path, field, value, expected):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"node": 1, "ts": 5.0, "text": "a", field: value}) + "\n")
        message = f"{path}: line 1: field {field!r}: {expected}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_docs_jsonl(path)

    @pytest.mark.parametrize("ts, shown", [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")])
    def test_non_finite_ts_rejected(self, tmp_path, ts, shown):
        path = tmp_path / "docs.jsonl"
        path.write_text(f'{{"node": 1, "ts": 5, "text": "a"}}\n\n{{"node": 2, "ts": {ts}, "text": "b"}}\n')
        message = f"{path}: line 3: field 'ts' must be finite, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_docs_jsonl(path)

    def test_tokenize_docs_groups_by_node(self):
        docs = [Doc(1, 10.0, "alpha beta"), Doc(1, 20.0, "gamma"), Doc(2, 5.0, "delta")]
        token_docs = tokenize_docs(docs, set())
        assert token_docs[0].node == 1
        assert token_docs[0].tokens == ["alpha", "beta", "gamma"]
        assert token_docs[1].tokens == ["delta"]


def reference_tokenize_docs(docs, stopwords):
    """tokenize_docs as first written: one findall over each whole text, a new
    str per token."""
    by_node = {}
    for doc in docs:
        token_doc = by_node.setdefault(doc.node, TokenDoc(doc.node, []))
        cleaned = re.sub(r"https?://\S+", " ", doc.text.lower())
        for token in re.findall(r"[#@]?\w+", cleaned):
            if token in stopwords:
                continue
            if token.isdigit() and len(token) < 4:
                continue
            token_doc.tokens.append(token)
    return [by_node[node] for node in sorted(by_node)]


# Case mappings that change length or depend on context (final sigma), digits
# that are \w but not ASCII, URL prefixes, and whitespace, some of it outside
# ASCII.
TEXT_PARTS = [
    "a", "b", "ab", "Zelda", "\u03a3", "\u0130", "\u00df", "\u00b2", "\u0663", "_", "1",
    "12", "2019", "#", "@", ".", "/", ":", "http://", "HTTPS://",
    " ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2028", "\u3000",
]
STOPWORDS = ["ab", "#ab", "zelda", "\u03c3", "ss", "i\u0307", "2019", "_"]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    docs=st.lists(
        st.builds(
            Doc,
            st.integers(0, 3),
            st.integers(0, 9).map(float),
            st.lists(st.sampled_from(TEXT_PARTS), max_size=12).map("".join),
        ),
        max_size=8,
    ),
    stopwords=st.sets(st.sampled_from(STOPWORDS)),
)
def test_tokenize_docs_equals_whole_text_reference(docs, stopwords):
    assert tokenize_docs(docs, stopwords) == reference_tokenize_docs(docs, stopwords)


def test_tokenize_docs_shares_one_str_per_distinct_token():
    docs = [
        Doc(1, 1.0, "Zelda zelda! #zelda"),
        Doc(2, 2.0, "(zelda) ZELDA, streams"),
        Doc(1, 3.0, "zelda? streams https://t.example/zelda"),
    ]
    first = {}
    for token_doc in tokenize_docs(docs, set()):
        for token in token_doc.tokens:
            assert first.setdefault(token, token) is token
    assert set(first) == {"zelda", "#zelda", "streams"}


def reference_read_docs_jsonl(path):
    """read_docs_jsonl as first written: a list of Doc objects. It accepted a
    ts that is not finite, so the properties below draw none."""
    docs = []

    def add(record):
        node, ts, text = record["node"], record["ts"], record["text"]
        if (type(node), type(ts), type(text)) not in keywords_module._DOC_SIGNATURES:
            graph_module._check_fields(record, keywords_module.DOC_FIELDS)
        docs.append(Doc(graph_module._integer_id(node, "node"), float(ts), text))

    graph_module._read_json_lines(path, add)
    return docs


DOC_IDS = st.one_of(st.integers(0, 30), st.integers(2**63 - 5, 2**63 - 1), st.integers(0, 2**63 - 1))
DOC_TIMES = st.one_of(
    st.integers(-(10**20), 10**20), st.floats(allow_nan=False, allow_infinity=False)
)
DOC_TEXTS = st.lists(st.sampled_from(TEXT_PARTS), max_size=12).map("".join)
BLANK_LINES = st.sampled_from([b"\n", b"  \n", b"\t\r\n"])
# A line no docs file may hold, each with the first fault the reader meets on it.
BAD_DOC_LINES = st.sampled_from([
    b'{"node": true, "ts": 1, "text": "a"}',
    b'{"node": "1", "ts": 1, "text": "a"}',
    b'{"node": 1.0, "ts": 1, "text": "a"}',
    b'{"node": 1, "ts": "1", "text": "a"}',
    b'{"node": 1, "ts": null, "text": "a"}',
    b'{"node": 1, "ts": false, "text": "a"}',
    b'{"node": 1, "ts": 1, "text": 5}',
    b'{"node": -1, "ts": 1, "text": "a"}',
    b'{"node": 9223372036854775808, "ts": 1, "text": "a"}',
    b'{"node": -1, "ts": 1e999999, "text": "a"}',
    b'{"node": 1, "ts": 1' + b"0" * 400 + b', "text": "a"}',
    b'{"node": 1, "ts": 1}',
    b'{"node": 1, "ts": 1, "text": "\xff"}',
    b'{"node": 1, "ts": 1, "text": "a"',
    b'{"node": 1, "ts": 1, "text": "a"} 5',
    b"[1]",
    b"NaN",
    b"\xef\xbb\xbf{}",
])


@st.composite
def doc_lines(draw):
    """The line of a valid document, its fields in any order, at times with
    an extra field and JSON's \\u escapes for every non-ASCII character."""
    record = {"node": draw(DOC_IDS), "ts": draw(DOC_TIMES), "text": draw(DOC_TEXTS)}
    if draw(st.booleans()):
        record["lang"] = "de"
    items = draw(st.permutations(list(record.items())))
    return json.dumps(dict(items), ensure_ascii=draw(st.booleans())).encode()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    lines=st.lists(st.one_of(doc_lines(), BLANK_LINES), max_size=8),
    faults=st.one_of(st.just([]), st.lists(BAD_DOC_LINES, min_size=1, max_size=2)),
    data=st.data(),
)
def test_read_docs_equals_list_reader(lines, faults, data, tmp_path_factory):
    """On a valid file the table holds, row by row, the Docs the list reader
    read; on a file with a fault it fails with the list reader's message."""
    for fault in faults:
        lines.insert(data.draw(st.integers(0, len(lines))), fault)
    path = tmp_path_factory.mktemp("docs") / "docs.jsonl"
    path.write_bytes(b"".join(line if line.endswith(b"\n") else line + b"\n" for line in lines))
    try:
        expected = reference_read_docs_jsonl(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            read_docs_jsonl(path)
        assert str(got.value) == str(exc)
        return
    assert not faults
    table = read_docs_jsonl(path)
    # repr tells -0.0 from 0.0 and an int ts from a float one, where == would not
    assert [repr(doc) for doc in table] == [repr(doc) for doc in expected]
    assert [repr(table[i]) for i in range(-len(table), len(table))] == [
        repr(doc) for doc in expected + expected
    ]
    assert list(table.nodes) == [doc.node for doc in expected]
    assert table.ts.dtype == np.float64 and table.ts.tolist() == [doc.ts for doc in expected]
    assert table.texts == [doc.text for doc in expected]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    docs=st.lists(
        st.builds(
            Doc,
            st.sampled_from([0, 1, 2**62, 2**63 - 2, 2**63 - 1]),
            DOC_TIMES.map(float),
            DOC_TEXTS,
        ),
        max_size=8,
    ),
    stopwords=st.sets(st.sampled_from(STOPWORDS)),
)
def test_tokenize_docs_over_the_read_table_equals_reference(docs, stopwords, tmp_path_factory):
    path = tmp_path_factory.mktemp("docs") / "docs.jsonl"
    write_docs_jsonl(docs, path)
    table = read_docs_jsonl(path)
    assert tokenize_docs(table, stopwords) == reference_tokenize_docs(docs, stopwords)


@pytest.mark.memory
def test_read_docs_keeps_under_48_bytes_per_doc_beyond_its_text(tmp_path):
    """The table keeps, besides each text, an 8 B id, an 8 B ts and an 8 B
    list slot, ~26 B a doc with the columns' spare room. A list of Doc
    objects kept ~116 B a doc besides its text: the Doc, a float, an int and
    the list slot."""
    rng = random.Random(7)
    docs = [
        Doc(node, rng.uniform(1.5e9, 1.6e9), f"#topic{node % 4} coffee news {rng.getrandbits(32)}")
        for node in range(10_000)
        for _ in range(2)
    ]
    path = tmp_path / "docs.jsonl"
    write_docs_jsonl(docs, path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = read_docs_jsonl(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert list(table) == docs
    texts = sum(sys.getsizeof(doc.text) for doc in table)
    assert (retained - texts) / len(docs) < 48
