"""Property-based tests (hypothesis) on core invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cgt import CGT, merge_bindings
from repro.core.expression import Expr, parse_expression
from repro.grammar.paths import PathSearchLimits, find_paths_between_apis
from repro.nlp.lemmatizer import lemmatize
from repro.nlp.tokenizer import tokenize
from repro.nlu.similarity import levenshtein, similarity_ratio
from repro.nlu.synonyms import default_synonyms

# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------

_names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,10}", fullmatch=True)
_literals = st.text(
    alphabet=string.ascii_letters + string.digits + ":;#*-+ ", min_size=1, max_size=8
)


def _exprs(depth=3):
    literal = st.builds(lambda v: Expr(v, (), True), _literals)
    if depth == 0:
        return st.builds(lambda n: Expr(n, ()), _names)
    return st.builds(
        lambda n, args: Expr(n, tuple(args)),
        _names,
        st.lists(st.one_of(literal, _exprs(depth - 1)), max_size=3),
    )


class TestExpressionProperties:
    @given(_exprs())
    @settings(max_examples=200)
    def test_render_parse_round_trip(self, expr):
        assert parse_expression(expr.render()) == expr

    @given(_exprs())
    def test_size_equals_api_count(self, expr):
        assert expr.size() == len(expr.apis())


# ----------------------------------------------------------------------
# Lemmatizer / tokenizer
# ----------------------------------------------------------------------

_words = st.from_regex(r"[a-z]{1,12}", fullmatch=True)


class TestNlpProperties:
    @given(_words)
    @settings(max_examples=300)
    def test_lemma_is_lowercase_and_deterministic(self, word):
        lemma = lemmatize(word)
        assert lemma == lemma.lower()
        assert lemmatize(word) == lemma

    @given(st.lists(_words, min_size=1, max_size=8))
    def test_tokenizer_on_plain_words(self, words):
        query = " ".join(words)
        assert [t.value for t in tokenize(query)] == words

    @given(_words, _words)
    def test_synonym_same_symmetric(self, a, b):
        table = default_synonyms()
        assert table.same(a, b) == table.same(b, a)


# ----------------------------------------------------------------------
# Similarity
# ----------------------------------------------------------------------

_short = st.text(alphabet="abcdef", max_size=8)


class TestSimilarityProperties:
    @given(_short, _short)
    def test_levenshtein_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(_short)
    def test_levenshtein_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(_short, _short)
    def test_levenshtein_bounds(self, a, b):
        d = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(_short, _short, _short)
    @settings(max_examples=100)
    def test_levenshtein_triangle(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(_short, _short)
    def test_ratio_in_unit_interval(self, a, b):
        assert 0.0 <= similarity_ratio(a, b) <= 1.0


# ----------------------------------------------------------------------
# Bindings and pruning
# ----------------------------------------------------------------------

_bindings = st.dictionaries(
    st.sampled_from(["s1", "s2", "s3"]), st.sampled_from(["x", "y"]), max_size=3
)


class TestBindingProperties:
    @given(_bindings, _bindings)
    def test_merge_is_conflict_safe(self, a, b):
        merged = merge_bindings(a, b)
        conflict = any(k in a and a[k] != v for k, v in b.items())
        if conflict:
            assert merged is None
        else:
            assert merged == {**a, **b}

    @given(_bindings)
    def test_merge_identity(self, a):
        assert merge_bindings(a, {}) == a
        assert merge_bindings({}, a) == a


# ----------------------------------------------------------------------
# Runtime invariants
# ----------------------------------------------------------------------

_texts = st.text(
    alphabet=string.ascii_letters + string.digits + " \n\t.,;:-!?",
    max_size=60,
)


class TestRuntimeProperties:
    @given(_texts, st.sampled_from(
        ["LINESCOPE", "WORDSCOPE", "SENTENCESCOPE", "PARAGRAPHSCOPE",
         "DOCUMENTSCOPE", "CHARSCOPE"]
    ))
    @settings(max_examples=150)
    def test_scope_split_round_trips(self, text, scope):
        from repro.runtime.textedit import TextDocument

        units, rejoin = TextDocument(text).split(scope)
        assert rejoin(units) == text

    @given(_texts)
    @settings(max_examples=60)
    def test_replace_execution_matches_python(self, text):
        from repro.runtime.textedit import execute_codelet

        result = execute_codelet(
            'REPLACE(SRCSTRING("a"), DSTSTRING("b"), '
            "ITERATIONSCOPE(DOCUMENTSCOPE()))",
            text,
        )
        assert result.text == text.replace("a", "b")

    @given(_texts)
    @settings(max_examples=60)
    def test_count_is_number_of_outputs(self, text):
        from repro.runtime.textedit import execute_codelet

        result = execute_codelet(
            "COUNT(NUMBERTOKEN(), ITERATIONSCOPE(LINESCOPE(), "
            "BCONDOCCURRENCE(ALL())))",
            text,
        )
        assert result.count == len(result.output)
        assert result.text == text  # counting never edits


# ----------------------------------------------------------------------
# Path search invariants
# ----------------------------------------------------------------------

_api_pairs = st.sampled_from(
    [
        ("INSERT", "STRING"),
        ("INSERT", "LINESCOPE"),
        ("INSERT", "NUMBERTOKEN"),
        ("DELETE", "NUMBERTOKEN"),
        ("ITERATIONSCOPE", "NUMBERTOKEN"),
        ("CONTAINS", "NUMBERTOKEN"),
        ("STRING", "INSERT"),  # reverse: no path
    ]
)


class TestPathProperties:
    @given(_api_pairs, st.integers(min_value=2, max_value=12))
    @settings(max_examples=60)
    def test_paths_are_simple_and_bounded(self, toy_graph, pair, max_len):
        src, dst = pair
        limits = PathSearchLimits(max_path_len=max_len)
        for p in find_paths_between_apis(toy_graph, src, dst, limits):
            assert len(set(p.nodes)) == len(p.nodes)
            assert len(p) <= max_len
            assert toy_graph.node(p.src).label == src
            assert toy_graph.node(p.dst).label == dst

    @given(_api_pairs)
    @settings(max_examples=30)
    def test_merged_single_source_paths_form_connected_graph(self, toy_graph, pair):
        src, dst = pair
        paths = find_paths_between_apis(toy_graph, src, dst)
        if not paths:
            return
        cgt = CGT.from_paths(paths)
        roots = cgt.roots()
        assert roots == [
            toy_graph.api_node(src).node_id
        ] or toy_graph.api_node(src).node_id in roots
