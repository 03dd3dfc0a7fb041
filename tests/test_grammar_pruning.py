"""Unit tests for grammar-based pruning (paper Sec. V-A)."""

import pytest

from repro.core.grammar_pruning import (
    combination_conflicts,
    conflict_masks_for,
    conflict_pairs_for,
)
from repro.grammar.graph import api_id
from repro.grammar.interning import interner_for
from repro.grammar.paths import find_paths_between_apis
from repro.synthesis.problem import CandidatePath, EndpointCandidate


def cand(name):
    return EndpointCandidate(node_id=api_id(name), api_name=name)


def cp(graph, src, dst, path_id, index=0):
    paths = find_paths_between_apis(graph, src, dst)
    return CandidatePath(paths[index].with_id(path_id), cand(src), cand(dst))


def prune_combinations(graph, all_paths, combinations):
    """The engine's filter: per-path (bit, mask) records over all sibling
    paths, then a combination conflicts iff some member's mask hits the
    bits of the members before it.  Returns (kept, number pruned)."""
    interner = interner_for(graph)
    encs = [interner.path_ints(cp.path.nodes) for cp in all_paths]
    record_of = dict(zip(all_paths, conflict_masks_for(graph, encs)))
    kept, pruned = [], 0
    for combo in combinations:
        acc = 0
        conflict = False
        for cp in combo:
            bit, mask = record_of[cp]
            if mask & acc:
                conflict = True
                break
            acc |= bit
        if conflict:
            pruned += 1
        else:
            kept.append(combo)
    return kept, pruned


@pytest.fixture
def conflicting_paths(toy_graph):
    """Paths through exclusive pos_expr alternatives: POSITION vs START."""
    return [
        cp(toy_graph, "INSERT", "POSITION", "2.1"),
        cp(toy_graph, "INSERT", "START", "3.1"),
        cp(toy_graph, "INSERT", "STRING", "4.1"),
    ]


class TestConflictPairs:
    def test_exclusive_alternatives_conflict(self, toy_graph, conflicting_paths):
        pairs = conflict_pairs_for(toy_graph, conflicting_paths)
        assert frozenset(("2.1", "3.1")) in pairs

    def test_non_conflicting_paths(self, toy_graph, conflicting_paths):
        pairs = conflict_pairs_for(toy_graph, conflicting_paths)
        assert frozenset(("2.1", "4.1")) not in pairs
        assert frozenset(("3.1", "4.1")) not in pairs

    def test_no_paths_no_pairs(self, toy_graph):
        assert conflict_pairs_for(toy_graph, []) == set()


class TestCombinationFilter:
    def test_combination_conflicts(self):
        pairs = {frozenset(("a", "b"))}
        assert combination_conflicts(["a", "b", "c"], pairs)
        assert not combination_conflicts(["a", "c"], pairs)

    def test_prune_combinations(self, toy_graph, conflicting_paths):
        p_pos, p_start, p_str = conflicting_paths
        combos = [
            (p_pos, p_str),     # fine
            (p_pos, p_start),   # conflict: two pos_expr alternatives
            (p_start, p_str),   # fine
        ]
        kept, pruned = prune_combinations(toy_graph, conflicting_paths, combos)
        assert pruned == 1
        assert (p_pos, p_start) not in kept
        assert len(kept) == 2

    def test_prune_without_conflicts_is_noop(self, toy_graph):
        paths = [cp(toy_graph, "INSERT", "STRING", "2.1")]
        combos = [tuple(paths)]
        kept, pruned = prune_combinations(toy_graph, paths, combos)
        assert pruned == 0
        assert kept == combos

    def test_same_alternative_not_a_conflict(self, toy_graph):
        # Two paths through the SAME alternative do not conflict.
        a = cp(toy_graph, "INSERT", "LINESCOPE", "2.1")
        b = cp(toy_graph, "INSERT", "NUMBERTOKEN", "3.1")
        # both pass through iter_expr/cond branches without exclusive picks
        pairs = conflict_pairs_for(toy_graph, [a, b])
        assert frozenset(("2.1", "3.1")) not in pairs
