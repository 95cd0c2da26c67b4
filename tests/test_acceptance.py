"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Every comparison is exact; there are no tolerances.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import math
import subprocess
import sys

from multiset_eulerian.combinatorics import Shape, iter_all_chains, iter_shapes
from multiset_eulerian.lattice import f1, f2, chain_weight_sum
from multiset_eulerian.numbers import (
    a_polynomials,
    b_polynomials,
    c_polynomials,
    c_polynomials_closed,
    eulerian_row_closed,
    eulerian_row_enum,
    eulerian_row_solve,
    lah_row,
    stirling2_row_as_printed,
    stirling2_row_closed,
    stirling2_row_enum,
    stirling2_row_solve,
)
from multiset_eulerian.verify import IdentityId, check_identity
from oracles import f2_enumerated, stirling_second


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num:02d} ({name}) failed"


def test_01_classical_reduction():
    ok = eulerian_row_enum(Shape((1, 1, 1))).values == (1, 4, 1)
    ok = ok and eulerian_row_enum(Shape((1, 1, 1, 1))).values == (1, 11, 11, 1)
    for l in (3, 4):
        row = stirling2_row_enum(Shape((1,) * l))
        for k in range(1, l + 1):
            ok = ok and row.value(k) == math.factorial(k) * stirling_second(l, k)
    ok = ok and lah_row(Shape((1, 1, 1))).value(2) == 12
    ok = ok and stirling2_row_enum(Shape((1, 1, 1))).value(2) == 6
    ok = ok and 12 == 6 * math.factorial(2)
    _report(1, "classical-reduction", ok)


def test_02_triple_agreement():
    ok = True
    for shape in iter_shapes(8, 4):
        enum = eulerian_row_enum(shape).values
        ok = ok and eulerian_row_closed(shape).values == enum
        ok = ok and eulerian_row_solve(shape).values == enum
        senum = stirling2_row_enum(shape).values
        ok = ok and stirling2_row_closed(shape).values == senum
        ok = ok and stirling2_row_solve(shape).values == senum
        if not ok:
            break
    _report(2, "triple-agreement", ok)


def test_03_closed_variant_discrepancy():
    ok = stirling2_row_as_printed(Shape((1, 1))).value(2) == 7
    ok = ok and stirling2_row_enum(Shape((1, 1))).value(2) == 2
    ok = ok and stirling2_row_as_printed(Shape((2, 1))).value(2) == 11
    ok = ok and stirling2_row_enum(Shape((2, 1))).value(2) == 4
    _report(3, "closed-variant-discrepancy", ok)


def test_04_integer_identity_suite():
    ok = True
    for identity in ("worpitzky", "stirling2", "lah"):
        for shape in iter_shapes(8, 4):
            ok = ok and check_identity(identity, shape, 12).passed
            if not ok:
                break
    _report(4, "integer-identity-suite", ok)


def test_05_q_eulerian_identity_suite():
    ok = True
    for shape in iter_shapes(6, 4):
        ok = ok and check_identity("carlitz_q", shape, 8).passed
        fam = a_polynomials(shape)
        row = eulerian_row_enum(shape)
        d = shape.size
        for i in range(1, d + 1):
            ok = ok and fam.value(i)(1) == row.value(d - i)
        if not ok:
            break
    _report(5, "q-eulerian-identity-suite", ok)


def test_06_decomposition_oracles():
    ok = True
    for shape in iter_shapes(6):
        ok = ok and check_identity(IdentityId.DECOMP_FIRST, shape, 6).passed
        ok = ok and check_identity(IdentityId.DECOMP_SECOND, shape, 6).passed
        if not ok:
            break
    _report(6, "decomposition-oracles", ok)


def test_07_corrected_chain_q_identity():
    ok = True
    for shape in iter_shapes(6):
        chains = list(iter_all_chains(shape))
        for n in range(9):
            total = sum(
                (chain_weight_sum(c, n) for c in chains), start=f1(shape, n) * 0
            )
            ok = ok and total == f1(shape, n)
        if not ok:
            break
    for shape in iter_shapes(5):
        for n in range(6):
            ok = ok and f2(shape, n) == f2_enumerated(shape, n)
        if not ok:
            break
    _report(7, "corrected-chain-q-identity", ok)


def test_08_q_identity_counterexamples():
    s_report = check_identity("stirling2_q", Shape((1, 1)), 1)
    ce = s_report.counterexample
    ok = s_report.status == "fail" and ce.n == 1
    ok = ok and ce.lhs.coeffs == (1, 2, 1) and ce.rhs.coeffs == (1, 3)
    l_report = check_identity("lah_q", Shape((1, 1)), 1)
    ce = l_report.counterexample
    ok = ok and l_report.status == "fail" and ce.n == 1
    ok = ok and ce.lhs.coeffs == (2, 2, 2) and ce.rhs.coeffs == (2, 4)
    for report in (s_report, l_report):
        for record in report.records:
            ok = ok and record.lhs(1) == record.rhs(1)
    ok = ok and check_identity("stirling2", Shape((1, 1)), 8).passed
    ok = ok and check_identity("lah", Shape((1, 1)), 8).passed
    _report(8, "q-identity-counterexamples", ok)


def test_09_q_family_consistency():
    ok = True
    for shape in iter_shapes(6):
        stirling = stirling2_row_enum(shape)
        lah = lah_row(shape)
        b_fam = b_polynomials(shape)
        c_fam = c_polynomials(shape)
        for k in range(1, shape.size + 1):
            ok = ok and b_fam.value(k)(1) == stirling.value(k)
            ok = ok and c_fam.value(k)(1) == lah.value(k)
        if not ok:
            break
    for shape in iter_shapes(7):
        ok = ok and c_polynomials(shape).values == c_polynomials_closed(shape).values
        if not ok:
            break
    _report(9, "q-family-consistency", ok)


def test_10_determinism():
    base = [
        sys.executable,
        "-m",
        "multiset_eulerian",
        "verify",
        "--dmax",
        "5",
        "--nmax",
        "6",
        "--q",
    ]
    one = subprocess.run(
        base + ["--workers", "1"], capture_output=True, timeout=300
    )
    eight = subprocess.run(
        base + ["--workers", "8"], capture_output=True, timeout=300
    )
    ok = one.returncode == 0 and eight.returncode == 0
    ok = ok and one.stdout == eight.stdout and len(one.stdout) > 0
    _report(10, "determinism", ok)
