"""The DGGT engine against its golden outputs (``tests/golden.py``).

The integer-interned engine replaced the original object engine as a
pure representation change.  Before the object engine was deleted, its
outputs over every bundled suite and every ``DggtConfig`` ablation
combination were frozen into ``tests/dggt_golden.jsonl``; these tests
hold the engine to that file — codelets, sizes, failures and the
non-cache ``SynthesisStats`` counters, record for record — and pin the
timeout edge cases as plain assertions.
"""

from __future__ import annotations

import pytest

from repro.core.dggt import DggtEngine
from repro.errors import SynthesisTimeout
from repro.synthesis.deadline import Deadline
from repro.synthesis.pipeline import Synthesizer
from repro.synthesis.problem import build_problem
from tests.golden import (
    COMBOS,
    DOMAINS,
    assert_matches_golden,
    combo_config,
    golden_suite,
    load_golden,
    suite_cases,
    suite_records,
)

_SHARED_DOMAINS = {}


def _shared_domain(domain_name):
    """One fresh domain per suite, shared across every combo: path
    searches and merge-cache entries are config-independent, so sharing
    only removes redundant cold work, never signal."""
    from repro.domains import load_domain

    if domain_name not in _SHARED_DOMAINS:
        _SHARED_DOMAINS[domain_name] = load_domain(domain_name, fresh=True)
    return _SHARED_DOMAINS[domain_name]


def test_golden_header_names_producer():
    header, records = load_golden()
    assert header["commit"] and header["engine"]
    assert sum(1 for r in records if r[0] == "suite") == header["n_suite_records"] == 3392


class TestFullSuiteEquivalence:
    """The served entry point (``Synthesizer`` with the default config,
    outcome cache off) reproduces the full system's golden records."""

    @pytest.mark.parametrize("domain_name", DOMAINS)
    def test_byte_identical_over_full_suite(self, domain_name):
        full_system = (True, True, True)
        domain = _shared_domain(domain_name)
        synthesizer = Synthesizer(domain, cache_outcomes=False)
        actual = suite_records(
            domain, domain_name, full_system, synthesize=synthesizer.synthesize
        )
        assert_matches_golden(
            actual, golden_suite(domain_name, full_system), domain_name
        )


class TestAblationEquivalence:
    """Every pruning/relocation toggle combination over every full suite."""

    @pytest.mark.parametrize("domain_name", DOMAINS)
    @pytest.mark.parametrize("combo", COMBOS)
    def test_all_toggle_combos(self, domain_name, combo):
        domain = _shared_domain(domain_name)
        assert_matches_golden(
            suite_records(domain, domain_name, combo),
            golden_suite(domain_name, combo),
            f"{domain_name} {combo_config(combo)}",
        )


class TestDeadlineEdgeCases:
    def test_zero_budget_same_failure(self, textediting):
        engine = DggtEngine()
        for _case_id, query in suite_cases("textediting")[:5]:
            problem = build_problem(textediting, query)
            with pytest.raises(SynthesisTimeout):
                engine.synthesize(problem, deadline=Deadline(0.0))

    def test_expired_deadline_raises_identically(self, textediting):
        problem = build_problem(textediting, "print every line")
        with pytest.raises(SynthesisTimeout):
            DggtEngine().synthesize(problem, deadline=Deadline(0.0))
