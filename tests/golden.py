"""Golden outputs of the DGGT engine and the reversed path search.

``tests/dggt_golden.jsonl`` freezes what the engine produced over every
bundled suite (textediting 200, astmatcher 100, spreadsheet 55,
stringxform 69) under all eight ``(grammar_pruning, size_pruning,
orphan_relocation)`` combinations, with no deadline: 3392 suite records
of ok/fail status, codelet or error, size, and the ten non-cache
``SynthesisStats`` counters.  It also freezes the reversed all-path
search's output for every toy-grammar API pair (``tests/conftest.py``)
under the default limits and four tight-cap limit sets, which exercise
the search's visit-cap reconciliation.

The file was first written by the original object engine and its
recursive string-space search, after checking that the integer-interned
engine agreed with it record for record; its header names the commit
and engine that produced it.  ``tests/test_interned_equivalence.py`` and
``tests/test_interning.py`` hold the engine and the search to it.

Regenerate only for an intended output change, and justify the change
in CHANGES.md::

    PYTHONPATH=src python -m tests.golden
"""

from __future__ import annotations

import functools
import itertools
import json
import subprocess
import sys
from pathlib import Path

from repro.core.dggt import DggtConfig, DggtEngine
from repro.errors import SynthesisError
from repro.grammar.interning import interner_for
from repro.grammar.paths import PathSearchLimits, _search_enc
from repro.synthesis.problem import build_problem
from repro.synthesis.result import SynthesisStats

GOLDEN_PATH = Path(__file__).resolve().parent / "dggt_golden.jsonl"

DOMAINS = ("textediting", "astmatcher", "spreadsheet", "stringxform")

#: (grammar_pruning, size_pruning, orphan_relocation), labelled "101" etc.
COMBOS = list(itertools.product((True, False), repeat=3))

#: Path-search limit sets: the defaults plus four tight caps.
LIMIT_SETS = {
    "default": {},
    "max_paths=2": {"max_paths": 2},
    "max_visits=5": {"max_visits": 5},
    "max_visits=17,max_paths=3": {"max_visits": 17, "max_paths": 3},
    "max_path_len=4": {"max_path_len": 4},
}

COUNTER_NAMES = [
    key
    for key in SynthesisStats().as_dict()
    if key not in SynthesisStats.CACHE_FIELDS
]


def combo_label(combo):
    return "".join("1" if flag else "0" for flag in combo)


def combo_config(combo):
    grammar_pruning, size_pruning, orphan_relocation = combo
    return DggtConfig(
        grammar_pruning=grammar_pruning,
        size_pruning=size_pruning,
        orphan_relocation=orphan_relocation,
    )


def suite_cases(domain_name):
    """The bundled (case_id, query) pairs of one domain, in suite order."""
    if domain_name == "textediting":
        from repro.domains.textediting.queries import TEXTEDITING_QUERIES as cases
    elif domain_name == "astmatcher":
        from repro.domains.astmatcher.queries import ASTMATCHER_QUERIES as cases
    else:
        from repro.packs import builtin_pack_root, load_pack

        cases = load_pack(builtin_pack_root() / domain_name).examples
    return [(case.case_id, case.query) for case in cases]


def outcome_record(synthesize, query):
    """[status, codelet or "ErrorType: message", size, counters]."""
    try:
        out = synthesize(query)
    except SynthesisError as exc:
        return ["fail", f"{type(exc).__name__}: {exc}", None, None]
    stats = out.stats.as_dict()
    return ["ok", out.codelet, out.size, [stats[key] for key in COUNTER_NAMES]]


def engine_synthesizer(domain, combo):
    """query -> outcome: the engine on a freshly built problem, no deadline."""
    engine = DggtEngine(combo_config(combo))

    def synthesize(query):
        return engine.synthesize(build_problem(domain, query))

    return synthesize


def suite_records(domain, domain_name, combo, synthesize=None):
    """The records of one domain under one combo, in suite order.

    ``synthesize`` defaults to :func:`engine_synthesizer`.  Cache contents
    never change a record, so one domain can serve every combo."""
    synthesize = synthesize or engine_synthesizer(domain, combo)
    label = combo_label(combo)
    return [
        ["suite", domain_name, case_id, label] + outcome_record(synthesize, query)
        for case_id, query in suite_cases(domain_name)
    ]


def toy_api_pairs(graph):
    apis = [n.node_id for n in graph.nodes() if n.node_id.startswith("api:")]
    return [(src, dst) for src, dst in itertools.product(apis, apis) if src != dst]


def path_records(graph, limit_label):
    """The reversed search over every toy API pair under one limit set."""
    interner = interner_for(graph)
    limits = PathSearchLimits(**LIMIT_SETS[limit_label])
    records = []
    for src, dst in toy_api_pairs(graph):
        encs = _search_enc(interner, interner.index[src], interner.index[dst], limits)
        paths = [list(interner.decode_nodes(enc)) for enc in encs]
        records.append(["paths", limit_label, src, dst, paths])
    return records


@functools.lru_cache(maxsize=1)
def load_golden():
    """(header, records) of the golden file, parsed once per process."""
    lines = GOLDEN_PATH.read_text(encoding="utf-8").splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def golden_suite(domain_name, combo):
    label = combo_label(combo)
    return [
        r for r in load_golden()[1]
        if r[0] == "suite" and r[1] == domain_name and r[3] == label
    ]


def golden_paths(limit_label):
    return [r for r in load_golden()[1] if r[0] == "paths" and r[1] == limit_label]


def assert_matches_golden(actual, expected, what):
    """Fail on the first record that differs, printing both versions."""
    assert expected, f"{what}: no golden records"
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, (
            f"{what}: record {index} differs from {GOLDEN_PATH.name}\n"
            f"  golden: {json.dumps(want)}\n"
            f"  actual: {json.dumps(got)}"
        )
    assert len(actual) == len(expected), (
        f"{what}: {len(actual)} records, golden has {len(expected)}"
    )


def write_golden(engine_description):
    """Rewrite the golden file from the current engine and search."""
    from repro.domains import load_domain
    from repro.grammar.bnf import parse_bnf
    from repro.grammar.graph import GrammarGraph
    from tests.conftest import TOY_APIS, TOY_BNF

    toy_graph = GrammarGraph(parse_bnf(TOY_BNF), api_names=TOY_APIS)
    records = []
    for label in LIMIT_SETS:
        records.extend(path_records(toy_graph, label))
    for domain_name in DOMAINS:
        domain = load_domain(domain_name, fresh=True)
        for combo in COMBOS:
            records.extend(suite_records(domain, domain_name, combo))
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        cwd=GOLDEN_PATH.parent,
    ).stdout.strip()
    header = {
        "golden": "dggt-outputs/v1",
        "commit": commit,
        "engine": engine_description,
        "combos": "grammar_pruning,size_pruning,orphan_relocation",
        "counters": COUNTER_NAMES,
        "limit_sets": LIMIT_SETS,
        "n_suite_records": sum(1 for r in records if r[0] == "suite"),
    }
    lines = [json.dumps(header)] + [
        json.dumps(record, separators=(",", ":")) for record in records
    ]
    GOLDEN_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_golden(sys.argv[1] if len(sys.argv) > 1 else "DggtEngine")
