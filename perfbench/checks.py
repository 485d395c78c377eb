"""Output checks.  A wrong output is not an error to count: it fails the run."""

from __future__ import annotations


class WrongOutput(AssertionError):
    """The program answered, but the answer is wrong."""


def check_feasible(report, what: str) -> None:
    """`report` is verify_schedule's verdict on a schedule a solver produced."""
    if not report.feasible:
        raise WrongOutput(f"{what}: verify_schedule rejects it: {list(report.violations)}")


def check_dp_count(dp: int, greedy: int, exact: int | None = None) -> None:
    """The exact DP lies in [greedy, 2*greedy] and equals brute force when known."""
    if not greedy <= dp <= 2 * greedy:
        raise WrongOutput(f"dp count {dp} outside [greedy, 2*greedy] = [{greedy}, {2 * greedy}]")
    if exact is not None and dp != exact:
        raise WrongOutput(f"dp count {dp} differs from exact count {exact}")


def check_rewrite(text: str, rewritten: str, what: str) -> None:
    """Parsing a file the program wrote and writing it again reproduces it."""
    if rewritten != text:
        at = next((i for i, (a, b) in enumerate(zip(text, rewritten)) if a != b),
                  min(len(text), len(rewritten)))
        raise WrongOutput(f"{what}: re-write differs from the original at byte {at}")


def check_same_render(first: str, second: str) -> None:
    """Two renders of the same instance and schedule are byte-identical."""
    if first != second:
        raise WrongOutput("two renders of the same input differ")
