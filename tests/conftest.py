"""Shared test plumbing: the hypothesis profiles and the acceptance-criteria
report.

HYPOTHESIS_PROFILE=ci selects derandomized draws, so a failure on CI
reproduces locally with the same setting, and prints the blob that
replays it; other runs keep hypothesis's default profile.

test_acceptance.py records one line per shipped claim through the
`criterion` fixture; the summary hook prints them all, pass and fail
alike, after the run.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_criteria: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, title: str, passed: bool,
                     detail: str) -> None:
    _criteria.append((number, title, passed, detail))


@pytest.fixture
def criterion():
    return record_criterion


def pytest_terminal_summary(terminalreporter):
    if not _criteria:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, passed, detail in sorted(_criteria):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"[{status}] {number:2d}. {title} ({detail})")
