"""Run the doctest examples embedded in the repro public API.

The docstrings of the core framework carry executable examples keyed to
the paper's equations (eqs. 1–8), and ``repro.topology.ip`` shows its
address helpers; CI also runs them directly via
``pytest --doctest-modules src/repro``, but folding them into the
tier-1 suite keeps them green for plain ``pytest`` runs too.
"""

import doctest

import pytest

import repro.core.bias
import repro.core.partitions
import repro.core.preference
import repro.core.views
import repro.topology.ip

DOCTEST_MODULES = [
    repro.core.bias,
    repro.core.partitions,
    repro.core.preference,
    repro.core.views,
    repro.topology.ip,
]


@pytest.mark.parametrize("module", DOCTEST_MODULES, ids=lambda m: m.__name__)
def test_core_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    tried = result.attempted
    # Modules listed here are expected to actually carry examples —
    # a zero-test module means a doctest was deleted without updating
    # this list (views has none yet; it rides along for future examples).
    if module is not repro.core.views:
        assert tried > 0
