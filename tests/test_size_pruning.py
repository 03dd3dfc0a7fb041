"""Unit tests for size-based pruning (paper Sec. V-C)."""

import pytest

from repro.core.dggt import DggtConfig, DggtEngine
from repro.core.size_pruning import exact_tree_cost, exact_tree_cost_enc
from repro.errors import SynthesisError
from repro.grammar.graph import api_id
from repro.grammar.interning import interner_for
from repro.grammar.paths import find_paths_between_apis
from repro.synthesis.problem import CandidatePath, EndpointCandidate, build_problem
from tests.golden import suite_cases


def cand(name):
    return EndpointCandidate(node_id=api_id(name), api_name=name)


def cp(graph, src, dst, path_id):
    path = find_paths_between_apis(graph, src, dst)[0]
    return CandidatePath(path.with_id(path_id), cand(src), cand(dst))


def bounds(graph, combo, pred_sizes):
    """The engine's Sec. V-C (lower, upper) bounds of one combination,
    from the interned path sizes: the tree weighs at least its heaviest
    path, and merging deduplicates at least the shared governor API."""
    interner = interner_for(graph)
    sizes = [interner.size_of_enc(interner.path_ints(c.path.nodes)) for c in combo]
    src_weight = 1 if interner.is_api[interner.index[combo[0].src]] else 0
    pred_total = sum(pred_sizes)
    lower = max(sizes) + pred_total
    upper = sum(sizes) - (len(combo) - 1) * src_weight + pred_total
    return lower, upper


class TestBounds:
    def test_bounds_bracket_exact_cost(self, toy_graph):
        combo = [
            cp(toy_graph, "INSERT", "STRING", "2.1"),
            cp(toy_graph, "INSERT", "LINESCOPE", "3.1"),
            cp(toy_graph, "INSERT", "START", "4.1"),
        ]
        interner = interner_for(toy_graph)
        for c in combo:
            enc = interner.path_ints(c.path.nodes)
            assert interner.size_of_enc(enc) == c.path.size(toy_graph)
        lower, upper = bounds(toy_graph, combo, [0, 1, 1])
        encs = [interner.path_ints(c.path.nodes) for c in combo]
        exact = exact_tree_cost_enc(interner, encs) + 0 + 1 + 1
        assert lower <= exact <= upper

    def test_single_path_bounds_tight(self, toy_graph):
        combo = [cp(toy_graph, "INSERT", "STRING", "2.1")]
        lower, upper = bounds(toy_graph, combo, [0])
        assert lower == upper


class TestExactCost:
    def test_shared_prefix_deduplicated(self, toy_graph):
        # INSERT->LINESCOPE and INSERT->NUMBERTOKEN share INSERT and
        # ITERATIONSCOPE; sinks excluded.
        combo = [
            cp(toy_graph, "INSERT", "LINESCOPE", "2.1"),
            cp(toy_graph, "INSERT", "NUMBERTOKEN", "3.1"),
        ]
        # APIs excluding sinks: INSERT, ITERATIONSCOPE, CONTAINS
        assert exact_tree_cost(toy_graph, combo) == 3
        interner = interner_for(toy_graph)
        encs = [interner.path_ints(c.path.nodes) for c in combo]
        assert exact_tree_cost_enc(interner, encs) == 3

    def test_single_path_cost(self, toy_graph):
        combo = [cp(toy_graph, "INSERT", "STRING", "2.1")]
        assert exact_tree_cost(toy_graph, combo) == 1  # INSERT only


def _run_suite(domain, size_pruning):
    engine = DggtEngine(DggtConfig(size_pruning=size_pruning))
    results = []
    for _case_id, query in suite_cases("textediting"):
        try:
            out = engine.synthesize(build_problem(domain, query))
        except SynthesisError as exc:
            results.append((str(exc), None, None))
            continue
        results.append((out.codelet, out.size, out.stats))
    return results


@pytest.fixture(scope="module")
def suite_runs(textediting):
    """{size_pruning: per-query (codelet or error, size, stats)}."""
    return {flag: _run_suite(textediting, flag) for flag in (True, False)}


class TestPrune:
    """The engine's branch-and-bound over the TextEditing suite."""

    def test_dominated_combination_pruned(self, suite_runs):
        n_pruned = sum(s.pruned_by_size for _c, _z, s in suite_runs[True] if s)
        assert n_pruned > 0
        merged_on = sum(s.n_merged for _c, _z, s in suite_runs[True] if s)
        merged_off = sum(s.n_merged for _c, _z, s in suite_runs[False] if s)
        assert merged_on + n_pruned == merged_off

    def test_equal_bound_kept(self, suite_runs):
        # Lossless: a combination is skipped only when its lower bound is
        # strictly above an exact total, so no optimum is ever lost.
        assert [r[:2] for r in suite_runs[True]] == [
            r[:2] for r in suite_runs[False]
        ]
