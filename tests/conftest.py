"""Shared test plumbing: the acceptance-criterion result board, and a
fixture that holds the interpreter's limit on integer digits at its default.

Acceptance tests record one line per criterion; the terminal summary prints
them all at the end of the run so the verdicts are visible in one block.
"""

import sys

import pytest

_CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    _CRITERION_LINES[number] = f"criterion {number:2d}: {verdict} - {detail}"


@pytest.fixture
def criteria_board():
    return record_criterion


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit on the digits of an int -> str
    conversion, 4300, for the test and restored after it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[number])
