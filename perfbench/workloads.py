"""Seeded inputs for the three benchmark workloads.

Everything a run sends is derived here from the ``--seed`` argument: the
query order of every workload, including the order of the derived
input->output examples.  The server only ever sees the
generated requests.

Why each workload exists (the same reasons are in ``BENCHMARK.json``):

* ``cold_suites`` -- first sight after a fresh start: every bundled query
  once, on an empty cache dir, so ``word_to_api`` and ``edge_to_path`` do
  nearly all the synthesis work and the outcome cache never hits.
* ``cold_deadline`` -- the same cold server and query mix (every second
  case of each suite, 213 queries, to fit the benchmark's time budget), but
  every request carries a 20 ms budget.  It is the only workload on which
  budgets bind, so it is the one that measures deadline enforcement
  inside ``word_to_api`` and the path search.
* ``verify_examples`` -- two pre-fork workers started from snapshots, and
  every case that has an executor carries one input->output example; an
  unmeasured pass of the ASTMatcher cases runs first.
  Examples bypass the outcome cache, so each request re-runs the pipeline
  on warm path caches and adds top-K generation and the sandboxed
  verifier.  It is also the workload on the multi-worker path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: Suite order used everywhere a deterministic base order is needed.
DOMAINS = ("textediting", "astmatcher", "spreadsheet", "stringxform")

#: Domains whose executors can check an input->output example
#: (spreadsheet has none).
EXAMPLE_DOMAINS = ("astmatcher", "textediting", "stringxform")

#: C++ source every ASTMatcher example runs on.
CPP_FIXTURE = HERE / "fixtures" / "matcher_sample.cpp"
#: Seed of the generated TextEditing and StringXform example inputs.
INPUT_SEED = 0


@dataclass(frozen=True)
class Case:
    """One suite query with its authored ground truth."""

    case_id: str
    domain: str
    query: str
    ground_truth: str


@dataclass(frozen=True)
class Request:
    """One request the load generator sends."""

    case: Case
    timeout: Optional[float] = None
    example: Optional[Tuple[str, str]] = None


@dataclass(frozen=True)
class Workload:
    """How one workload runs; see the module docstring for why."""

    name: str
    #: ``repro serve --workers``.
    workers: int
    #: Domains ``repro cache warm`` builds snapshots for before boot
    #: (empty: the server starts on an empty cache dir and serves every
    #: domain).
    snapshot_domains: Tuple[str, ...] = ()
    #: Per-request budget in seconds (None: the server default, 20 s).
    #: When set, the budget binds: timeout answers are expected.
    timeout: Optional[float] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cold_suites", 1),
        Workload("cold_deadline", 1, timeout=0.02),
        Workload("verify_examples", 2, EXAMPLE_DOMAINS),
    )
}


def load_suites() -> List[Case]:
    """Every bundled suite case (textediting 200, astmatcher 100,
    spreadsheet 55, stringxform 69), in a fixed order."""
    from repro.domains.astmatcher.queries import ASTMATCHER_QUERIES
    from repro.domains.textediting.queries import TEXTEDITING_QUERIES
    from repro.packs import load_pack, pack_factories

    factories = pack_factories()
    by_domain = {
        "textediting": TEXTEDITING_QUERIES,
        "astmatcher": ASTMATCHER_QUERIES,
        "spreadsheet": load_pack(factories["spreadsheet"].root).examples,
        "stringxform": load_pack(factories["stringxform"].root).examples,
    }
    return [
        Case(c.case_id, domain, c.query, c.ground_truth)
        for domain in DOMAINS
        for c in by_domain[domain]
    ]


def shuffled(items: Sequence, seed: int) -> list:
    order = list(items)
    random.Random(f"order:{seed}").shuffle(order)
    return order


def every_other_case(cases: Sequence[Case]) -> List[Case]:
    """Every second case of each suite in authored order: half of every
    template family, the same half on every run."""
    return [
        c for domain in DOMAINS
        for c in [c for c in cases if c.domain == domain][::2]
    ]


# ----------------------------------------------------------------------
# Derived input->output examples
# ----------------------------------------------------------------------

_TE_WORDS = (
    "foo", "bar", "colour", "color", "Mr", "Mister", "TODO", "DONE",
    "hte", "the", "and", "four", "alpha", "beta", "gamma", "delta",
    "report", "total", "value", "item", "list", "note",
)
_TE_MARKS = (":", ";", ",", "-", "--", "->", "#", "*", "**", "&", "~",
             "|", "^", ">", ">>", "\"q\"", "\t")


def textediting_input(seed: int) -> str:
    """A small document (paragraphs of lines of sentences) that mixes the
    words, numerals and punctuation the TextEditing suite talks about."""
    rng = random.Random(f"te-input:{seed}")
    paragraphs = []
    for _ in range(3):
        lines = []
        for _ in range(rng.randint(2, 4)):
            sentences = []
            for _ in range(rng.randint(1, 2)):
                words = []
                for _ in range(rng.randint(3, 7)):
                    roll = rng.random()
                    if roll < 0.2:
                        words.append(str(rng.randint(0, 999)))
                    elif roll < 0.4:
                        words.append(rng.choice(_TE_MARKS))
                    else:
                        words.append(rng.choice(_TE_WORDS))
                sentence = " ".join(words)
                sentences.append(sentence[:1].upper() + sentence[1:] + ".")
            lines.append(" ".join(sentences))
        paragraphs.append("\n".join(lines))
    return "\n\n".join(paragraphs)


_SX_PIECES = (
    "foo", "bar", "http", "https", "ab", "Hello", "WORLD", "x", "a1b2",
    "42", " ", "  ", "_", "-", "--", ".", ",", ", ", ";", ";;", ":",
    "/", "'", "\"", "\t", "\n", "#", "*", "!", "e", "io",
)


def stringxform_input(seed: int) -> str:
    """A short string mixing cases, digits, whitespace runs and the
    separators the StringXform suite talks about."""
    rng = random.Random(f"sx-input:{seed}")
    return "".join(rng.choice(_SX_PIECES) for _ in range(24))


def example_inputs() -> Dict[str, str]:
    """The input every example of a domain runs on.  Generated from a
    fixed seed, not the run's: with per-run inputs the executor work, and
    with it the latency, moved with the seed (p50 spread 7% over five
    seeds, against 0.7% with fixed inputs)."""
    return {
        "textediting": textediting_input(INPUT_SEED),
        "stringxform": stringxform_input(INPUT_SEED),
        "astmatcher": CPP_FIXTURE.read_text(encoding="utf-8"),
    }


def derive_examples(
    cases: Sequence[Case],
) -> Tuple[List[Request], List[str]]:
    """One example per case of :data:`EXAMPLE_DOMAINS`: the output comes
    from running the authored ground truth through the domain's executor
    on the domain's input.  Returns the requests and the ids of cases
    whose ground truth failed to execute (they are reported, and sent
    without an example so the failure cannot go unseen)."""
    from repro.verify.executors import get_executor

    inputs = example_inputs()
    requests, failed = [], []
    for case in cases:
        if case.domain not in EXAMPLE_DOMAINS:
            continue
        text = inputs[case.domain]
        try:
            output = get_executor(case.domain)(case.ground_truth, text)
        except Exception:  # any runtime failure of the authored truth
            failed.append(case.case_id)
            requests.append(Request(case))
            continue
        requests.append(Request(case, example=(text, output)))
    return requests, failed


# ----------------------------------------------------------------------
# Per-workload request lists
# ----------------------------------------------------------------------


@dataclass
class Plan:
    """What one run sends: an unmeasured warm-up and the measured list."""

    warmup: List[Request]
    measured: List[Request]
    gt_failures: List[str]


def plan(workload: Workload, seed: int) -> Plan:
    """The seeded request lists of one run."""
    cases = load_suites()
    if workload.name == "verify_examples":
        requests, failed = derive_examples(cases)
        # Examples bypass the outcome cache, so a second pass differs from
        # the first only where top-K exclusion searches missed the
        # snapshot: on ASTMatcher.  TextEditing and StringXform measured
        # the same on both passes, so only ASTMatcher is warmed.
        warmup = [r for r in shuffled(requests, seed + 1)
                  if r.case.domain == "astmatcher"]
        return Plan(warmup, shuffled(requests, seed), failed)
    if workload.timeout is not None:
        cases = every_other_case(cases)
    measured = [Request(c, timeout=workload.timeout)
                for c in shuffled(cases, seed)]
    return Plan([], measured, [])
