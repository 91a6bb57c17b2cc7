"""Execute the doctest examples embedded in public docstrings.

Keeps the documentation honest: every ``>>>`` example in the library is
a real, passing test. Modules are loaded by name via importlib because
several packages re-export functions whose names shadow their defining
submodules (e.g. ``repro.matching.hopcroft_karp``).
"""

from __future__ import annotations

import doctest
import importlib

import pytest

import repro

MODULE_NAMES = [
    "repro.graphs.base",
    "repro.graphs.grid",
    "repro.graphs.cartesian",
    "repro.matching.bottleneck",
    "repro.matching.hopcroft_karp",
    "repro.perm.partial",
    "repro.perm.permutation",
    "repro.routing.exact",
    "repro.circuit.circuit",
    "repro.service.cache",
    "repro.service.service",
    "repro.service.telemetry",
    "repro.service.aio",
    "repro.service.cluster",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    failures, tests = doctest.testmod(
        module, verbose=False, optionflags=doctest.ELLIPSIS
    )
    assert failures == 0
    assert tests > 0  # the module genuinely carries examples


def test_package_docstring_example():
    failures, _ = doctest.testmod(repro, verbose=False)
    assert failures == 0
