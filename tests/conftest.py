"""Shared pytest wiring: the acceptance suite registers one verdict per
criterion here, and the terminal summary prints them uncaptured. Also the
helpers the file-writing tests share."""

import os

import pytest

# Not the usual 022, so a test can tell a mode derived from the umask from a
# fixed one.
TEST_UMASK = 0o027

CRITERION_RESULTS: list[tuple[int, str, str]] = []


def record_criterion(number: int, title: str, verdict: str) -> None:
    CRITERION_RESULTS.append((number, title, verdict))


@pytest.fixture
def umask():
    """Run the test under TEST_UMASK; yields the mode a new file should get."""
    old = os.umask(TEST_UMASK)
    try:
        yield 0o666 & ~TEST_UMASK
    finally:
        os.umask(old)


def fail_on_second(items):
    """Yield the first of `items`, then raise: a failure in the middle of a write."""
    yield next(iter(items))
    raise RuntimeError("injected failure")


def assert_kept(path, previous: bytes) -> None:
    """A failed write left `path` with its previous bytes and no temp file."""
    assert path.read_bytes() == previous
    assert list(path.parent.glob("*.tmp")) == []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, verdict in sorted(CRITERION_RESULTS):
        terminalreporter.write_line(f"criterion {number} ({title}): {verdict}")
