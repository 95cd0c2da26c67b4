import pytest

import multiset_eulerian
from multiset_eulerian import numbers, verify


def test_public_names_resolve_once():
    names = multiset_eulerian.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(multiset_eulerian, name) is not None


@pytest.mark.parametrize(
    "name",
    [
        "check_decomposition",
        "eulerian_closed",
        "lah_ordered",
        "solve_from_identity",
        "stirling2_closed",
    ],
)
def test_no_route_switch_or_per_entry_helper(name):
    # each route of a row is one function returning the whole row, and
    # check_identity is the one way into the decomposition oracles
    assert name not in multiset_eulerian.__all__
    for module in (multiset_eulerian, numbers, verify):
        assert not hasattr(module, name)
