"""Size-based pruning (paper Sec. V-C).

For a path combination ``c = {p_1, ..., p_n}`` the merged size is bounded::

    len(union of APIs in the p_i)  <=  size(c)  <=  sum(size(p_i)) - (n - 1)

— the upper bound holds because the paths of one combination share at least
their first node (the common governor API); the lower bound because merging
can at best deduplicate every common API.

Our bounds additionally fold in the ``min_size`` of each path's sink node in
the dynamic grammar graph, so the pruning stays *lossless* with respect to
the full partial-CGT cost (tree + already-memoized subtrees): a combination
is pruned only when its optimistic total exceeds the exact total of an
already-merged valid combination.  The engine computes the bounds inline
(``DggtEngine._process_sibling_group``); this module holds the exact
merged-tree cost they bracket.
"""

from __future__ import annotations

from typing import Sequence, Set

from repro.grammar.graph import GrammarGraph, NodeKind
from repro.grammar.interning import GraphInterner, IntPath
from repro.synthesis.problem import CandidatePath


def exact_tree_cost(
    graph: GrammarGraph,
    combo: Sequence[CandidatePath],
) -> int:
    """Exact merged-tree semantic weight excluding the sink nodes (whose
    cost is carried by their dynamic-graph nodes).  The shared source — the
    governor word's endpoint — always counts 1 when it is an API; interior
    generic catch-alls weigh 0."""
    nodes: Set[str] = set()
    sinks: Set[str] = set()
    for cp in combo:
        nodes.update(cp.path.nodes)
        sinks.add(cp.dst)
    src = combo[0].path.nodes[0]
    total = sum(graph.api_weight(n) for n in nodes - sinks - {src})
    if src not in sinks and graph.node(src).kind is NodeKind.API:
        total += 1
    return total


def exact_tree_cost_enc(
    interner: GraphInterner,
    combo_encs: Sequence[IntPath],
) -> int:
    """:func:`exact_tree_cost` over interned path encodings.

    Sources/sinks are the encodings' endpoint ints; node sets are the
    memoized per-encoding bitmasks, so the set algebra is bigint ops and
    only nodes with non-zero weight are touched.  Value-identical to the
    string version; the engine inlines this algebra in its merge loop.
    """
    enc_masks = interner.enc_masks
    nodes = 0
    sinks = 0
    for enc in combo_encs:
        nodes |= enc_masks(enc)[4]
        sinks |= 1 << enc[-1]
    src = combo_encs[0][0]
    weight = interner.weight
    rem = nodes & ~sinks & ~(1 << src) & interner.weight_mask
    total = 0
    while rem:
        low = rem & -rem
        total += weight[low.bit_length() - 1]
        rem ^= low
    if not (sinks >> src) & 1 and interner.is_api[src]:
        total += 1
    return total
