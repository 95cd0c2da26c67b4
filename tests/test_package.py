import pytest

import multiset_eulerian
from multiset_eulerian import combinatorics, lattice, numbers, qpoly, verify


def test_public_names_resolve_once():
    names = multiset_eulerian.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(multiset_eulerian, name) is not None


def test_each_public_name_is_declared_once():
    # a name is declared in the __all__ of the module that defines it, and
    # the package exports the modules' lists in order, with nothing added
    modules = (combinatorics, lattice, numbers, qpoly, verify)
    declared = []
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
        declared += module.__all__
    assert len(declared) == len(set(declared))
    assert multiset_eulerian.__all__ == declared


@pytest.mark.parametrize(
    "name",
    [
        "SuiteResult",
        "check_decomposition",
        "classify_points",
        "eulerian_closed",
        "lah_ordered",
        "run_suite",
        "solve_from_identity",
        "stirling2_closed",
    ],
)
def test_no_route_switch_or_per_entry_helper(name):
    # each route of a row is one function returning the whole row,
    # check_identity is the one way into the decomposition oracles,
    # SuiteRun over suite_jobs the one way to run a suite, and
    # classify_new_points the one dilation classifier
    assert name not in multiset_eulerian.__all__
    for module in (multiset_eulerian, lattice, numbers, verify):
        assert not hasattr(module, name)
