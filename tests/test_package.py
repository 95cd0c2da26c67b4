import pickle

import pytest

import multiset_eulerian
from multiset_eulerian import combinatorics, lattice, numbers, qpoly, verify
from multiset_eulerian import Shape, b_polynomials, check_identity


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


def _records():
    """One value of each record type; the row and the records carry
    q-polynomials, as the reports sent over the worker pipes do."""
    shape = Shape((2, 1))
    report = check_identity("stirling2_q", Shape((1, 1)), 1)
    return [shape, b_polynomials(shape), report.records[1], report]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
class TestRecordTypes:
    """The four record types are named tuples: immutable, picklable, and
    equal to the plain tuple of their fields."""

    @pytest.mark.parametrize("protocol", [None, pickle.HIGHEST_PROTOCOL])
    def test_pickle_round_trip(self, record, protocol):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert copy == record and type(copy) is type(record)

    def test_immutable(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_tuple_semantics(self, record):
        fields = tuple(getattr(record, name) for name in record._fields)
        assert record == fields and hash(record) == hash(fields)
        assert len(record) == len(record._fields)
        assert tuple(iter(record)) == fields


def test_shape_is_a_one_field_tuple():
    shape = Shape((2, 1))
    assert repr(shape) == "Shape(parts=(2, 1))"
    assert shape == ((2, 1),) and len(shape) == 1
    assert list(shape) == [(2, 1)]
