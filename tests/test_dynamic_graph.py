"""Unit tests for the dynamic grammar graph (paper Sec. IV-B.1, Fig. 5)."""

import pytest

from repro.core.dynamic_graph import InternedDynamicGraph
from repro.errors import SynthesisError
from repro.grammar.graph import api_id, literal_id
from repro.grammar.interning import interner_for
from repro.grammar.paths import find_paths
from repro.synthesis.problem import CandidatePath, EndpointCandidate


def api_cand(name, rank=0):
    return EndpointCandidate(node_id=api_id(name), api_name=name, rank=rank)


def lit_cand(slot, value, rank=0):
    return EndpointCandidate(node_id=literal_id(slot), value=value, rank=rank)


def cpath(graph, src_cand, dst_cand, index=0, path_id="1.1"):
    paths = find_paths(graph, src_cand.node_id, dst_cand.node_id)
    return CandidatePath(paths[index].with_id(path_id), src_cand, dst_cand)


@pytest.fixture
def dyng(toy_graph):
    return InternedDynamicGraph(interner_for(toy_graph))


def node_int(dyng, node_id):
    return dyng.interner.index[node_id]


def slot(dyng, dep_id, node_id):
    return dyng._slot[dyng.key_int(dep_id, node_int(dyng, node_id))]


def optimal(dyng, dep_id, node_id):
    """(edges, bindings, min_size, min_rank) at (dep_id, node_id)."""
    return dyng.optimal(dep_id, node_int(dyng, node_id))


def offer(dyng, gov_dep_id, cp, pred_dep_id):
    """Case I: extend the memo at (pred_dep_id, cp.dst) by ``cp``."""
    enc = dyng.interner.path_ints(cp.path.nodes)
    dyng.offer_path(gov_dep_id, cp, enc, slot(dyng, pred_dep_id, cp.dst))


def add_pcgt(dyng, gov_dep_id, gov_name, combo, preds, tree_cost, gov_rank=0):
    """Case II: fold the combo's path masks, then join ``preds``."""
    em = dm = onm = 0
    for cp in combo:
        m = dyng.interner.enc_masks(dyng.interner.path_ints(cp.path.nodes))
        em |= m[0]
        dm |= m[2]
        onm |= m[3]
    return dyng.add_pcgt(
        gov_dep_id,
        node_int(dyng, api_id(gov_name)),
        (em, dm, onm),
        combo,
        [slot(dyng, dep_id, node_id) for dep_id, node_id in preds],
        tree_cost,
        gov_rank,
    )


class TestLeaves:
    def test_api_leaf_min_size_one(self, dyng):
        dyng.add_leaf(3, api_cand("LINESCOPE"))
        assert optimal(dyng, 3, api_id("LINESCOPE"))[2] == 1

    def test_literal_leaf_min_size_zero(self, dyng):
        # The paper omits min_size-0 fields in Fig. 5 — literal leaves.
        dyng.add_leaf(2, lit_cand("str_val", ":"))
        assert optimal(dyng, 2, literal_id("str_val"))[2] == 0

    def test_leaf_rank_recorded(self, dyng):
        dyng.add_leaf(3, api_cand("WORDSCOPE", rank=2))
        assert optimal(dyng, 3, api_id("WORDSCOPE"))[3] == 2

    def test_missing_node_error(self, dyng):
        with pytest.raises(SynthesisError):
            optimal(dyng, 0, api_id("INSERT"))
        assert not dyng.has(0, node_int(dyng, api_id("INSERT")))


class TestOfferPath:
    def test_paper_worked_example_sizes(self, dyng, toy_graph):
        # Fig. 5: min_size(N_STRING) = 1 via path [STRING -> str_val].
        dyng.add_leaf(2, lit_cand("str_val", ":"))
        cp = cpath(toy_graph, api_cand("STRING"), lit_cand("str_val", ":"))
        offer(dyng, 1, cp, 2)
        _edges, bindings, size, _rank = optimal(dyng, 1, api_id("STRING"))
        assert size == 1
        assert bindings[literal_id("str_val")] == ":"

    def test_min_kept_across_offers(self, dyng, toy_graph):
        dyng.add_leaf(3, api_cand("NUMBERTOKEN"))
        short = cpath(toy_graph, api_cand("DELETE"), api_cand("NUMBERTOKEN"), 0)
        long_ = cpath(
            toy_graph, api_cand("DELETE"), api_cand("NUMBERTOKEN"), 1, "1.2"
        )
        sizes = sorted(p.path.size(toy_graph) for p in (short, long_))
        offer(dyng, 0, long_, 3)
        offer(dyng, 0, short, 3)
        assert optimal(dyng, 0, api_id("DELETE"))[2] == sizes[0] + 1

    def test_rank_breaks_ties(self, dyng, toy_graph):
        dyng.add_leaf(3, api_cand("LINESCOPE", rank=0))
        dyng.add_leaf(4, api_cand("WORDSCOPE", rank=1))
        # Same size via symmetric or-alternatives; rank decides.
        cp_good = cpath(toy_graph, api_cand("INSERT"), api_cand("LINESCOPE"))
        cp_bad = cpath(
            toy_graph, api_cand("INSERT"), api_cand("WORDSCOPE"), 0, "1.2"
        )
        offer(dyng, 0, cp_bad, 4)
        offer(dyng, 0, cp_good, 3)
        edges, _bindings, _size, rank = optimal(dyng, 0, api_id("INSERT"))
        assert rank == 0
        assert ("nt:iter_scope", api_id("LINESCOPE")) in edges

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_full_tie_prefers_smallest_edge_set(self, dyng, toy_graph, order):
        # Equal size, rank and edge count: the lexicographically smallest
        # sorted edge list wins, whichever option is offered first.
        dyng.add_leaf(3, api_cand("LINESCOPE"))
        dyng.add_leaf(4, api_cand("WORDSCOPE"))
        options = [
            (cpath(toy_graph, api_cand("INSERT"), api_cand("LINESCOPE")), 3),
            (cpath(toy_graph, api_cand("INSERT"), api_cand("WORDSCOPE")), 4),
        ]
        for i in order:
            offer(dyng, 0, *options[i])
        edges = optimal(dyng, 0, api_id("INSERT"))[0]
        assert ("nt:iter_scope", api_id("LINESCOPE")) in edges
        assert ("nt:iter_scope", api_id("WORDSCOPE")) not in edges

    def test_binding_conflict_returns_none(self, dyng, toy_graph):
        # Two words binding different values into the same literal slot:
        # the join is rejected and no node is created.
        dyng.add_leaf(1, lit_cand("str_val", ":"))
        dyng.add_leaf(2, lit_cand("str_val", "#"))
        colon = cpath(toy_graph, api_cand("STRING"), lit_cand("str_val", ":"))
        hash_ = cpath(
            toy_graph, api_cand("STRING"), lit_cand("str_val", "#"), 0, "1.2"
        )
        assert not add_pcgt(
            dyng, 0, "STRING", [colon, hash_],
            [(1, literal_id("str_val")), (2, literal_id("str_val"))],
            tree_cost=1,
        )
        # A pred subtree binding ":" conflicts with a path binding "#".
        offer(dyng, 5, colon, 1)
        assert not add_pcgt(
            dyng, 0, "STRING", [hash_],
            [(2, literal_id("str_val")), (5, api_id("STRING"))],
            tree_cost=1,
        )
        assert dyng.n_pcgt_nodes == 0
        assert not dyng.has(0, node_int(dyng, api_id("STRING")))


class TestPcgt:
    def test_pcgt_combines_children(self, dyng, toy_graph):
        dyng.add_leaf(1, lit_cand("str_val", ":"))
        cp_str = cpath(toy_graph, api_cand("STRING"), lit_cand("str_val", ":"))
        offer(dyng, 1, cp_str, 1)

        dyng.add_leaf(2, api_cand("LINESCOPE"))
        cp1 = cpath(toy_graph, api_cand("INSERT"), api_cand("STRING"), 0, "2.1")
        cp2 = cpath(toy_graph, api_cand("INSERT"), api_cand("LINESCOPE"), 0, "3.1")
        created = add_pcgt(
            dyng, 0, "INSERT", [cp1, cp2],
            [(1, api_id("STRING")), (2, api_id("LINESCOPE"))],
            tree_cost=2,  # INSERT + ITERATIONSCOPE (sinks excluded)
        )
        assert created
        assert dyng.n_pcgt_nodes == 1
        _edges, bindings, size, _rank = optimal(dyng, 0, api_id("INSERT"))
        # 2 (tree) + 1 (STRING subtree) + 1 (LINESCOPE leaf) = 4
        assert size == 4
        assert bindings[literal_id("str_val")] == ":"

    def test_cross_level_conflict_rejected(self, dyng, toy_graph):
        # Force a pred whose subtree uses an or-alternative the new path
        # also needs differently: occ_arg -> NUMBERTOKEN vs occ_arg -> occ_val.
        dyng.add_leaf(2, api_cand("NUMBERTOKEN"))
        cp_inner = cpath(
            toy_graph, api_cand("CONTAINS"), api_cand("NUMBERTOKEN")
        )
        offer(dyng, 1, cp_inner, 2)
        clash = cpath(
            toy_graph, api_cand("CONTAINS"), lit_cand("occ_val", "x"), 0, "9.1"
        )
        dyng.add_leaf(3, lit_cand("occ_val", "x"))
        created = add_pcgt(
            dyng, 0, "CONTAINS", [clash],
            [(3, literal_id("occ_val")), (1, api_id("CONTAINS"))],
            tree_cost=1,
        )
        assert not created  # occ_arg would take two alternatives

    def test_optimal_unpacks(self, dyng):
        dyng.add_leaf(0, api_cand("INSERT", rank=3))
        edges, bindings, size, rank = optimal(dyng, 0, api_id("INSERT"))
        assert edges == frozenset()
        assert bindings == {}
        assert size == 1 and rank == 3

    def test_len_counts_memo_nodes(self, dyng):
        dyng.add_leaf(0, api_cand("INSERT"))
        dyng.add_leaf(0, api_cand("INSERT", rank=1))  # same node, no growth
        dyng.add_leaf(1, api_cand("INSERT"))
        assert len(dyng) == 2
