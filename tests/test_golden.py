"""CLI output is pinned byte for byte by the files under tests/golden/."""

import pytest

from _golden import CASES, expected, pinned_names, run_case


def test_every_pinned_case_runs():
    """A case whose input is missing from the tree, or a pinned file
    without a case, fails here rather than shrinking the suite."""
    assert set(CASES) == pinned_names()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert run_case(name) == expected(name)
