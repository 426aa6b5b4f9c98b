import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from rankwalk.keywords import (
    Doc,
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

    def test_matches_brute_force_filter(self):
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

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            window_docs(self.docs(), 10.0, 5.0)


class TestDocsIO:
    def test_jsonl_round_trip(self, tmp_path):
        docs = [Doc(1, 10.0, "hallo welt"), Doc(2, 20.0, "#zelda stream")]
        path = tmp_path / "docs.jsonl"
        write_docs_jsonl(docs, path)
        assert read_docs_jsonl(path) == docs

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

    def test_tokenize_docs_groups_by_node(self):
        docs = [Doc(1, 10.0, "alpha beta"), Doc(1, 20.0, "gamma"), Doc(2, 5.0, "delta")]
        token_docs = tokenize_docs(docs, set())
        assert token_docs[0].node == 1
        assert token_docs[0].tokens == ["alpha", "beta", "gamma"]
        assert token_docs[0].timestamps == [10.0, 20.0]
        assert token_docs[1].tokens == ["delta"]
