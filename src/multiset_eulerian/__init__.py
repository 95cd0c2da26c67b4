"""Exact Eulerian and ordered Stirling combinatorics over multisets.

The package computes descent, partition and segmentation statistics of
multiset permutations together with their q-analogs, relates them to
lattice points of dilated order-simplex products, and verifies the
resulting identities by independent routes with exact arithmetic
throughout.
"""

from .combinatorics import (
    Chain,
    Shape,
    Word,
    chain_block_sizes,
    chain_major_index,
    descent_set,
    format_chain,
    format_word,
    iter_all_chains,
    iter_chains,
    iter_permutations,
    iter_shapes,
    major_index,
)
from .lattice import (
    chain_region_count,
    chain_weight_sum,
    classify_first,
    classify_new_points,
    classify_second,
    coordinate_sum,
    f1,
    f2,
    iter_points,
    point_count,
    region_gf,
    region_point_count,
    validate_point,
)
from .numbers import (
    Row,
    a_polynomials,
    b_polynomials,
    c_polynomials,
    c_polynomials_closed,
    eulerian_row_closed,
    eulerian_row_enum,
    eulerian_row_solve,
    lah_row,
    stirling2_row_closed,
    stirling2_row_enum,
    stirling2_row_solve,
)
from .qpoly import QPolynomial, binomial, multinomial, q_binomial
from .verify import (
    CheckRecord,
    IdentityId,
    IdentityReport,
    JobError,
    SuiteRun,
    check_identity,
    suite_jobs,
)

__version__ = "0.1.0"

__all__ = [
    "Chain",
    "CheckRecord",
    "IdentityId",
    "IdentityReport",
    "JobError",
    "QPolynomial",
    "Row",
    "Shape",
    "SuiteRun",
    "Word",
    "a_polynomials",
    "b_polynomials",
    "binomial",
    "c_polynomials",
    "c_polynomials_closed",
    "chain_block_sizes",
    "chain_major_index",
    "chain_region_count",
    "chain_weight_sum",
    "check_identity",
    "classify_first",
    "classify_new_points",
    "classify_second",
    "coordinate_sum",
    "descent_set",
    "eulerian_row_closed",
    "eulerian_row_enum",
    "eulerian_row_solve",
    "f1",
    "f2",
    "format_chain",
    "format_word",
    "iter_all_chains",
    "iter_chains",
    "iter_permutations",
    "iter_points",
    "iter_shapes",
    "lah_row",
    "major_index",
    "multinomial",
    "point_count",
    "q_binomial",
    "region_gf",
    "region_point_count",
    "stirling2_row_closed",
    "stirling2_row_enum",
    "stirling2_row_solve",
    "suite_jobs",
    "validate_point",
]
