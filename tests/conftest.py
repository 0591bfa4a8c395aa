"""Shared pytest plumbing.

The ``tier1`` hypothesis profile fixes how property tests draw examples.
The acceptance tests register one human-readable line per criterion; the
terminal-summary hook prints them after the run regardless of capture
settings, so the pass/fail ledger is always visible.
"""

from __future__ import annotations

from hypothesis import settings

# Property tests draw the same examples on every run: derandomised, with a
# fixed example count and no example database, so tier-1 is repeatable and
# its time bounded.
settings.register_profile(
    "tier1", derandomize=True, max_examples=30, database=None, deadline=None
)
settings.load_profile("tier1")

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, passed: bool, detail: str) -> None:
    word = "PASS" if passed else "FAIL"
    _ACCEPTANCE_LINES.append(f"criterion {number:2d} {word}  {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
