"""Exact linear algebra: frozen examples plus algebraic property tests."""

import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ccc.errors import InvalidArgument
from ccc.exactlin import (
    ceil_div,
    ceil_frac,
    cone_basis,
    lattice_rank,
    linear_feasible,
    pair,
    solve_square,
)

F = Fraction

ints = st.integers(min_value=-50, max_value=50)
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def test_ceil_div_examples():
    assert ceil_div(3, 2) == 2
    assert ceil_div(-3, 2) == -1
    assert ceil_div(4, 2) == 2


def test_ceil_div_rejects_nonpositive_divisor():
    with pytest.raises(InvalidArgument):
        ceil_div(1, 0)
    with pytest.raises(InvalidArgument):
        ceil_div(1, -2)


@given(ints, st.integers(min_value=1, max_value=50))
def test_ceil_div_brackets_the_quotient(p, q):
    c = ceil_div(p, q)
    assert (c - 1) * q < p <= c * q


@given(rationals)
def test_ceil_floor_frac_consistency(x):
    assert ceil_frac(x) - 1 < x <= ceil_frac(x)


def test_pair_examples():
    assert pair((F(1, 3), F(0)), (3, 0)) == 1
    assert pair((F(0), F(0)), (7, -4)) == 0
    assert pair((F(1, 2), F(1, 2)), (1, -1)) == 0


def test_pair_dimension_mismatch():
    with pytest.raises(InvalidArgument):
        pair((F(1),), (1, 2))


@given(
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(rationals, min_size=3, max_size=3),
    st.lists(ints, min_size=3, max_size=3),
)
def test_pair_is_bilinear(x, y, v):
    assert pair(tuple(a + b for a, b in zip(x, y)), v) == pair(x, v) + pair(y, v)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.tuples(
            st.lists(st.one_of(ints, rationals), min_size=k, max_size=k),
            st.lists(ints, min_size=k, max_size=k),
        )
    )
)
def test_pair_matches_fraction_sum(case):
    x, v = case
    value = pair(x, v)
    assert type(value) is Fraction
    assert value == sum((Fraction(a) * b for a, b in zip(x, v)), Fraction(0))


def cone_coefficients(target, generators):
    """The coefficients of target over n independent generators of length n.

    build_contraction's route: solve_square on the generators as columns.
    """
    return solve_square(list(zip(*generators)), target)


def test_cone_coefficients_examples():
    assert cone_coefficients((1, 1), [(1, 0), (0, 1)]) == [F(1), F(1)]
    assert cone_coefficients((0, -1), [(1, 0), (-1, -2)]) == [F(1, 2), F(1, 2)]
    assert cone_coefficients((-1, 0), [(1, 0), (0, 1)]) == [F(-1), F(0)]


def test_solve_square_refuses_dependent_generators():
    with pytest.raises(InvalidArgument, match="^matrix is singular$"):
        cone_coefficients((1, 1), [(1, 0), (-1, 0)])


@given(
    st.lists(rationals, min_size=2, max_size=2),
)
def test_cone_coefficients_round_trip(coeffs):
    gens = [(2, 1), (-1, 3)]
    target = tuple(coeffs[0] * a + coeffs[1] * b for a, b in zip(*gens))
    assert cone_coefficients(target, gens) == coeffs


def test_lattice_rank_examples():
    assert lattice_rank([[1, 0], [0, 1]]) == 2
    assert lattice_rank([[1, 0], [2, 0]]) == 1
    assert lattice_rank([[1, 0], [-1, -2], [0, 1]]) == 2


def test_matrix_inverse_round_trip():
    m = ((1, 2), (3, 5))
    inv = cone_basis(m, 2).inverse
    product = [
        [sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert product == [[1, 0], [0, 1]]


def test_cone_basis_rejects_dependent_rows():
    with pytest.raises(InvalidArgument):
        cone_basis(((1, 2), (-2, -4)), 2)


def _greedy_completion(rows, dim):
    out = list(rows)
    for k in range(dim):
        unit = tuple(int(j == k) for j in range(dim))
        if lattice_rank(out + [unit]) > lattice_rank(out):
            out.append(unit)
    return tuple(out)


def _leibniz_det(m):
    def sign(perm):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        return -1 if inversions % 2 else 1

    n = len(m)
    return sum(
        sign(perm) * prod(m[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


@st.composite
def independent_rows(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=0, max_value=dim))
    entry = st.integers(min_value=-3, max_value=3)
    rows = tuple(
        tuple(draw(entry) for _ in range(dim)) for _ in range(count)
    )
    assume(lattice_rank(rows) == count)
    return rows, dim


@given(independent_rows())
def test_cone_basis_completes_inverts_and_measures(case):
    rows, dim = case
    basis = cone_basis(rows, dim)
    assert basis.rows == _greedy_completion(rows, dim)
    identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
    assert [
        [sum(basis.rows[i][k] * basis.inverse[k][j] for k in range(dim)) for j in range(dim)]
        for i in range(dim)
    ] == identity
    assert basis.det == _leibniz_det(basis.rows)


def test_linear_feasible_basics():
    # x > 0 and x < 1 (written as -x > -1)
    assert linear_feasible([((F(1),), F(0), True), ((F(-1),), F(-1), True)], 1)
    # x > 0 and x < 0
    assert not linear_feasible([((F(1),), F(0), True), ((F(-1),), F(0), True)], 1)
    # x >= 0 and x <= 0 meets at the point 0
    assert linear_feasible([((F(1),), F(0), False), ((F(-1),), F(0), False)], 1)
    # x >= 1 and x > 1 - strictness wins on the shared answer set
    assert linear_feasible([], 2)


def test_linear_feasible_open_square_with_slab():
    cons = [
        ((F(1), F(0)), F(0), True),
        ((F(0), F(1)), F(0), True),
        ((F(-1), F(0)), F(-1), True),
        ((F(0), F(-1)), F(-1), True),
    ]
    assert linear_feasible(cons, 2)
    # adding x + y > 2 empties the open unit square
    assert not linear_feasible(cons + [((F(1), F(1)), F(2), True)], 2)
    # x + y >= 2 touches only the excluded corner, still empty for the open square
    assert not linear_feasible(cons + [((F(1), F(1)), F(2), False)], 2)


@given(st.lists(st.tuples(ints, ints, ints), min_size=1, max_size=4))
def test_linear_feasible_grid_witness_implies_feasible(raw):
    cons = [((F(a), F(b)), F(c), False) for a, b, c in raw]
    witness = any(
        all(a * x + b * y >= c for (a, b), c, _ in cons)
        for x in range(-6, 7)
        for y in range(-6, 7)
    )
    if witness:
        assert linear_feasible(cons, 2)


_POSITIVE = st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12)


@given(
    point=st.tuples(rationals, rationals, rationals),
    rows=st.lists(
        st.tuples(st.tuples(rationals, rationals, rationals), st.booleans(), _POSITIVE),
        min_size=2,
        max_size=5,
    ),
    picks=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    weights=st.tuples(_POSITIVE, _POSITIVE),
    push=_POSITIVE,
    strict=st.booleans(),
)
def test_linear_feasible_rational_systems_both_ways(point, rows, picks, weights, push, strict):
    # strict rows hold at the point with slack, the others with equality
    cons = []
    for coeffs, row_strict, slack in rows:
        value = sum(c * x for c, x in zip(coeffs, point))
        cons.append((coeffs, value - slack if row_strict else value, row_strict))
    assert linear_feasible(cons, 3)
    # a positive combination of two rows holds on the system; its negation
    # pushed past the combined bound contradicts it
    (ci, ri, _), (cj, rj, _) = (cons[k % len(cons)] for k in picks)
    wi, wj = weights
    combined = tuple(wi * a + wj * b for a, b in zip(ci, cj))
    bound = wi * ri + wj * rj
    assert not linear_feasible(cons + [(tuple(-c for c in combined), push - bound, strict)], 3)
