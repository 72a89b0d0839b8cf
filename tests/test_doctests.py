"""Run the docstring examples of the core public modules as tests."""

import doctest

import pytest

import repro.compression.qsgd
import repro.compression.zipml
import repro.core.compressor
import repro.core.quantizer

MODULES = [
    repro.core.quantizer,
    repro.core.compressor,
    repro.compression.zipml,
    repro.compression.qsgd,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} has no doctest examples"
    assert results.failed == 0
