"""Grammar-based pruning (paper Sec. V-A).

"Given a set of 'or' edges that share the same non-terminal node, only one
of the 'or' edges should be selected at a time to produce the CGT."  Two
candidate paths form a *conflict paths pair* when merging them would select
two alternatives of one choice rule; any combination containing a conflict
pair is grammar-incorrect and is pruned before the (expensive) merge.

The implementation follows the paper's recipe: merge the candidate paths of
the sibling edges into an all-path prefix structure recording path ids per
edge (that is the :class:`~repro.grammar.path_voted.PathVotedGraph`), find
the conflict "or" edges, expand them into conflict path pairs, and filter
the combinations.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.grammar.graph import GrammarGraph
from repro.grammar.interning import IntPath, interner_for
from repro.grammar.path_cache import PathCache
from repro.grammar.path_voted import (
    PathVotedGraph,
    conflict_enc_pairs,
    conflict_mask_records,
)
from repro.synthesis.problem import CandidatePath


def conflict_pairs_for(
    graph: GrammarGraph,
    candidate_paths: Iterable[CandidatePath],
) -> Set[FrozenSet[str]]:
    """All conflict path pairs among the given candidate paths, over the
    caller's path ids: the string-level form of
    :func:`conflict_masks_for`."""
    voted = PathVotedGraph(graph, (cp.path for cp in candidate_paths))
    return voted.conflict_path_pairs()


def conflict_masks_for(
    graph: GrammarGraph,
    encs: Sequence[IntPath],
    cache: Optional[PathCache] = None,
) -> List[Tuple[int, int]]:
    """Per-path ``(bit, mask)`` conflict records for interned encodings —
    the bitmask form of :func:`conflict_pairs_for` the DGGT engine
    consumes.  A combination conflicts iff, scanning members while
    accumulating bits, a member's mask intersects the accumulated set.
    With a domain :class:`PathCache`, the pair analysis is memoized
    across queries."""
    if cache is not None:
        return cache.conflict_masks(encs)
    pairs = conflict_enc_pairs(interner_for(graph), set(encs))
    return conflict_mask_records(encs, pairs)


def combination_conflicts(
    combo_ids: Sequence[str],
    pairs: Set[FrozenSet[str]],
) -> bool:
    """True when the combination contains any conflict pair."""
    n = len(combo_ids)
    for i in range(n):
        for j in range(i + 1, n):
            if frozenset((combo_ids[i], combo_ids[j])) in pairs:
                return True
    return False
