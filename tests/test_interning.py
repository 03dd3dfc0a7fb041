"""Unit coverage of the integer-interned DGGT core.

The interned engine's correctness rests on a handful of local invariants
— order-preserving int assignment, the bitmask validity algebra agreeing
with the string-level set/CGT checks, and the int-space path search
emitting the recorded output of the original recursive search
(``tests/dggt_golden.jsonl``).  Each is pinned here in isolation so a
violation fails a unit test, not a 3392-record suite sweep.
"""

from __future__ import annotations

import pickle
from itertools import product

import pytest

from repro.core.cgt import CGT
from repro.core.dggt import merge_valid_enc
from repro.core.grammar_pruning import (
    combination_conflicts,
    conflict_masks_for,
    conflict_pairs_for,
)
from repro.core.size_pruning import exact_tree_cost, exact_tree_cost_enc
from repro.errors import CacheSnapshotError
from repro.grammar.graph import api_id
from repro.grammar.interning import SENTINEL_DIST, interner_for
from repro.grammar.path_cache import (
    SNAPSHOT_FORMAT_VERSION,
    read_snapshot,
    write_snapshot,
)
from repro.grammar.paths import GrammarPath, find_paths
from repro.synthesis.problem import CandidatePath, EndpointCandidate
from tests.golden import (
    LIMIT_SETS,
    assert_matches_golden,
    golden_paths,
    path_records,
)


def _api_int(interner, name):
    return interner.index[api_id(name)]


# ---------------------------------------------------------------------------
# Order preservation: the invariant every tie-break relies on
# ---------------------------------------------------------------------------


class TestOrderPreservation:
    def test_node_ints_sorted_by_node_id(self, toy_graph):
        interner = interner_for(toy_graph)
        assert list(interner.node_ids) == sorted(interner.node_ids)
        for node_id, i in interner.index.items():
            assert interner.node_ids[i] == node_id

    def test_edge_codes_order_isomorphic(self, toy_graph):
        interner = interner_for(toy_graph)
        n = interner.n
        edges = [
            (pred, node)
            for node in range(n)
            for pred in interner.preds[node]
        ]
        by_code = sorted(edges, key=lambda e: e[0] * n + e[1])
        by_string = sorted(
            edges,
            key=lambda e: (
                interner.node_ids[e[0]], interner.node_ids[e[1]]
            ),
        )
        assert by_code == by_string

    def test_path_encoding_round_trip(self, textediting):
        interner = interner_for(textediting.graph)
        for path in find_paths(
            textediting.graph, api_id("INSERT"), api_id("NUMBERTOKEN"),
            textediting.path_limits,
        ):
            enc = interner.path_ints(path.nodes)
            assert interner.decode_nodes(enc) == path.nodes
            assert interner.path_ints(path.nodes) is enc  # memoized


# ---------------------------------------------------------------------------
# Search identity: int-space DFS == the recorded recursive DFS, byte for byte
# ---------------------------------------------------------------------------


class TestSearchIdentity:
    def test_all_api_pairs_on_toy_graph(self, toy_graph):
        assert_matches_golden(
            path_records(toy_graph, "default"),
            golden_paths("default"),
            "toy path search, default limits",
        )

    @pytest.mark.parametrize(
        "limits_kwargs",
        [
            {"max_paths": 2},
            {"max_visits": 5},
            {"max_visits": 17, "max_paths": 3},
            {"max_path_len": 4},
        ],
    )
    def test_caps_reconcile_identically(self, toy_graph, limits_kwargs):
        """Tight visit/path caps exercise the tagged-cap reconciliation:
        the iterative search may overshoot within a round but must report
        exactly what a mid-recursion cap cuts off."""
        (label,) = [k for k, v in LIMIT_SETS.items() if v == limits_kwargs]
        assert_matches_golden(
            path_records(toy_graph, label),
            golden_paths(label),
            f"toy path search, {label}",
        )

    def test_find_paths_decodes_search(self, toy_graph):
        """The public wrapper returns the golden paths for a pair."""
        src, dst = api_id("INSERT"), api_id("CONTAINS")
        (record,) = [r for r in golden_paths("default") if r[2:4] == [src, dst]]
        assert [list(p.nodes) for p in find_paths(toy_graph, src, dst)] == record[4]

    def test_sentinel_terminates_rows(self, toy_graph):
        interner = interner_for(toy_graph)
        src = _api_int(interner, "INSERT")
        lookup = interner.sorted_preds(src)
        for node in range(interner.n):
            dists, preds = lookup(node)
            assert dists[-1] == SENTINEL_DIST
            assert len(dists) == len(preds) + 1
            assert list(dists[:-1]) == sorted(dists[:-1])


# ---------------------------------------------------------------------------
# Bitmask validity algebra vs. the string-level set/CGT checks
# ---------------------------------------------------------------------------


def _cand(node_id):
    return EndpointCandidate(node_id=node_id, api_name=node_id)


def _combos(graph, src, dsts, per_pair=4):
    """Small cross-products of real paths sharing one source."""
    groups = []
    for group_index, dst in enumerate(dsts):
        paths = find_paths(graph, src, dst)[:per_pair]
        assert paths, f"no paths {src} -> {dst}"
        groups.append(
            [
                CandidatePath(
                    GrammarPath(f"{group_index}.{k}", p.nodes),
                    _cand(src), _cand(dst),
                )
                for k, p in enumerate(paths)
            ]
        )
    return list(product(*groups))


class TestMaskAlgebra:
    def test_enc_masks_shape(self, toy_graph):
        interner = interner_for(toy_graph)
        for path in find_paths(
            toy_graph, api_id("INSERT"), api_id("NUMBERTOKEN")
        ):
            enc = interner.path_ints(path.nodes)
            em, nm, dm, onm, nm_all = interner.enc_masks(enc)
            assert em.bit_count() == len(enc) - 1  # simple path: all distinct
            expected_nodes = 0
            for node in enc:
                expected_nodes |= 1 << node
            assert nm == expected_nodes
            assert nm_all == expected_nodes
            assert dm == nm & ~(1 << enc[0])

    def test_merge_validity_matches_cgt(self, toy_graph):
        interner = interner_for(toy_graph)
        src = api_id("INSERT")
        # Disjoint subtrees (valid merges) plus two alternatives of the
        # same choice rule (or-conflicting, hence invalid merges).
        combos = _combos(
            toy_graph, src,
            [api_id("NUMBERTOKEN"), api_id("LINESCOPE"), api_id("STRING")],
        ) + _combos(
            toy_graph, src, [api_id("POSITION"), api_id("START")]
        )
        assert combos
        agree_valid = agree_invalid = 0
        for combo in combos:
            tree = CGT.from_paths(cp.path for cp in combo)
            string_valid = tree.is_tree() and not tree.or_conflicts(toy_graph)
            encs = tuple(interner.path_ints(cp.path.nodes) for cp in combo)
            assert merge_valid_enc(interner, encs) == string_valid
            if string_valid:
                agree_valid += 1
                assert exact_tree_cost_enc(interner, encs) == exact_tree_cost(
                    toy_graph, combo
                )
            else:
                agree_invalid += 1
        # The sample must exercise both branches to mean anything.
        assert agree_valid and agree_invalid

    def test_conflict_masks_match_pairs(self, toy_graph):
        interner = interner_for(toy_graph)
        src = api_id("INSERT")
        paths = []
        for dst in ("POSITION", "START", "STARTFROM", "NUMBERTOKEN"):
            for k, p in enumerate(find_paths(toy_graph, src, api_id(dst))[:3]):
                paths.append(
                    CandidatePath(
                        GrammarPath(f"{dst}.{k}", p.nodes),
                        _cand(src), _cand(api_id(dst)),
                    )
                )
        pairs = conflict_pairs_for(toy_graph, paths)
        assert pairs, "sample must contain at least one or-conflict"
        encs = [interner.path_ints(cp.path.nodes) for cp in paths]
        records = conflict_masks_for(toy_graph, encs)
        for i in range(len(paths)):
            for j in range(len(paths)):
                if i == j:
                    continue
                expected = combination_conflicts(
                    [paths[i].path_id, paths[j].path_id], pairs
                )
                bit_i, _mask_i = records[i]
                _bit_j, mask_j = records[j]
                assert bool(mask_j & bit_i) == expected, (i, j)


# ---------------------------------------------------------------------------
# Snapshot format bump: v1 files must be rejected, not mis-loaded
# ---------------------------------------------------------------------------


class TestSnapshotVersioning:
    def test_current_version_is_2(self):
        assert SNAPSHOT_FORMAT_VERSION == 2

    def test_v1_snapshot_rejected(self, tmp_path, toy_domain):
        path = tmp_path / "toy.dggtcache"
        write_snapshot(toy_domain.path_cache, path, "toy")
        payload = pickle.loads(path.read_bytes())
        payload["format_version"] = 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(CacheSnapshotError, match="format version"):
            read_snapshot(path)


# ---------------------------------------------------------------------------
# Slotted hot records: no __dict__, and they must survive the pickle pipe
# of the process-pool backend
# ---------------------------------------------------------------------------


class TestSlottedRecords:
    def _records(self):
        endpoint = EndpointCandidate(
            node_id="api:INSERT", api_name="INSERT", rank=1
        )
        path = CandidatePath(
            GrammarPath("1.0", ("api:INSERT", "nt:x", "api:STRING")),
            endpoint,
            EndpointCandidate(node_id="lit:str_val", value="x"),
        )
        return endpoint, path

    def test_no_instance_dict(self):
        for record in self._records():
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_pickle_round_trip(self):
        for record in self._records():
            clone = pickle.loads(pickle.dumps(record))
            assert clone == record
