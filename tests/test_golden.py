"""CLI output is pinned byte for byte by the files under tests/golden/."""

import pytest

from _golden import CASES, expected, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    assert run_case(name) == expected(name)
