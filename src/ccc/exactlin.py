"""Exact integer/rational linear algebra shared by all geometric modules.

Vectors are plain tuples: lattice vectors are tuples of ``int``, rational
vectors tuples of ``Fraction``. Everything is a pure function on immutable
values and all arithmetic is arbitrary precision; no floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .errors import InvalidArgument

Rational = Fraction
LatticeVector = tuple[int, ...]
RationalVector = tuple[Fraction, ...]


def ceil_div(p: int, q: int) -> int:
    """Exact ceiling of p/q for integers, q > 0."""
    if q <= 0:
        raise InvalidArgument(f"ceil_div requires a positive divisor, got {q}")
    return -((-p) // q)


def ceil_frac(x: Fraction | int) -> int:
    """Exact ceiling of a rational.

    An ``int`` or a ``Fraction`` is read through its numerator and
    denominator as it stands; only other rationals are made a ``Fraction``.
    """
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return -(-x.numerator // x.denominator)


def pair(x: Sequence[Fraction | int], v: Sequence[int]) -> Fraction:
    """Natural pairing sum(x_i * v_i), exact.

    The numerator is summed over a running common denominator of the
    coordinates, so only the result is built as a Fraction.
    """
    if len(x) != len(v):
        raise InvalidArgument(f"pairing dimension mismatch: {len(x)} vs {len(v)}")
    num, den = 0, 1
    for a, b in zip(x, v):
        d = a.denominator
        if den % d:
            common = lcm(den, d)
            num *= common // den
            den = common
        num += a.numerator * (den // d) * b
    return Fraction(num, den)


def is_primitive(v: Sequence[int]) -> bool:
    """True iff the integer vector is nonzero with coprime coordinates."""
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return g == 1


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Reduced row echelon form.

    Returns (matrix, pivot column indices, signed product of the pivots);
    the product is the determinant when the leading square block is
    nonsingular.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    det = Fraction(1)
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            det = -det
        inv = mat[r][c]
        det *= inv
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots, det


def lattice_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of a list of row vectors."""
    rows = [[Fraction(c) for c in row] for row in matrix]
    if not rows:
        return 0
    _, pivots, _ = _rref(rows)
    return len(pivots)


class ConeBasis(NamedTuple):
    """Cone generators completed to a basis, with its exact inverse and determinant.

    ``inverse`` is the matrix whose columns are the dual basis: the chart
    lattice of the cone is spanned by them.
    """

    rows: tuple[LatticeVector, ...]
    inverse: tuple[RationalVector, ...]
    det: int


@lru_cache(maxsize=1 << 10)
def cone_basis(rows: tuple[LatticeVector, ...], dim: int) -> ConeBasis:
    """Complete independent integer rows to a basis of Z^dim and invert it.

    The standard basis vectors adjoined are the greedy choice in coordinate
    order: e_k is adjoined exactly when it raises the rank of the rows and
    the units before it.  Those are the non-pivot columns of the rows
    reduced over the reversed coordinates.  Memoized, so rows is a tuple
    of integer tuples.
    """
    _, pivots, _ = _rref([[Fraction(c) for c in reversed(row)] for row in rows])
    if len(pivots) != len(rows):
        raise InvalidArgument("cone_basis requires independent rows")
    taken = {dim - 1 - c for c in pivots}
    full = rows + tuple(
        tuple(int(j == k) for j in range(dim)) for k in range(dim) if k not in taken
    )
    mat, _, det = _rref(
        [[Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(dim)]
         for i, row in enumerate(full)]
    )
    return ConeBasis(rows=full, inverse=tuple(tuple(row[dim:]) for row in mat), det=int(det))


def solve_square(rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]) -> list[Fraction]:
    """Solve a nonsingular square system rows * x = rhs exactly."""
    n = len(rows)
    aug = [[Fraction(c) for c in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    mat, pivots, _ = _rref(aug)
    if pivots != list(range(n)):
        raise InvalidArgument("matrix is singular")
    return [mat[i][n] for i in range(n)]


def cone_coefficients(
    target: Sequence[Fraction | int], generators: Sequence[Sequence[int]]
) -> list[Fraction] | None:
    """Unique coefficients of target over independent generators, or None off-span.

    One reduction of [generators^T | target]: a generator column without a
    pivot means dependence, a pivot in the target column means off-span.
    """
    n = len(generators)
    if any(len(g) != len(target) for g in generators):
        raise InvalidArgument("cone_coefficients needs generators of the target's length")
    mat, pivots, _ = _rref(
        [[Fraction(g[i]) for g in generators] + [Fraction(c)] for i, c in enumerate(target)]
    )
    if pivots[:n] != list(range(n)):
        raise InvalidArgument("cone_coefficients requires independent generators")
    if n in pivots:
        return None
    return [mat[k][n] for k in range(n)]


Constraint = tuple[tuple[Fraction, ...], Fraction, bool]
# (coeffs, rhs, strict) encodes sum(coeffs * x) >= rhs, or > rhs when strict.


def _primitive(coeffs: Sequence[int], rhs: int, strict: bool) -> tuple:
    """The integer constraint divided by the gcd of its coefficients and rhs.

    Two constraints are positive multiples of each other exactly when their
    primitive forms agree, so the forms deduplicate the system.
    """
    g = gcd(rhs, *coeffs)
    if g > 1:
        return tuple(c // g for c in coeffs), rhs // g, strict
    return tuple(coeffs), rhs, strict


def _integer_constraint(coeffs: Sequence[Fraction | int], rhs: Fraction | int, strict: bool) -> tuple:
    """A rational constraint scaled by the lcm of its denominators, in primitive form."""
    den = lcm(rhs.denominator, *(c.denominator for c in coeffs))
    return _primitive(
        [c.numerator * (den // c.denominator) for c in coeffs],
        rhs.numerator * (den // rhs.denominator),
        strict,
    )


def linear_feasible(constraints: Sequence[Constraint], dim: int) -> bool:
    """Exact feasibility of a system of rational linear inequalities.

    Fourier-Motzkin elimination; strictness propagates through combinations.
    Each constraint is scaled to a primitive integer row once, and every
    combination is an integer one reduced to primitive form again, so the
    elimination never builds a fraction.  Intended for the small systems
    arising from cones and support polyhedra.
    """
    current = {_integer_constraint(coeffs, rhs, strict) for coeffs, rhs, strict in constraints}
    for var in range(dim):
        lowers: list[tuple] = []
        uppers: list[tuple] = []
        keep: set[tuple] = set()
        for con in current:
            a = con[0][var]
            if a > 0:
                lowers.append(con)
            elif a < 0:
                uppers.append(con)
            else:
                keep.add(con)
        for lc, lr, ls in lowers:
            for uc, ur, us in uppers:
                # x_var >= (lr - rest_l)/la and x_var <= (rest_u - ur)/ua, with
                # ua = -uc[var]; the two multipliers are reduced by their gcd
                la, ua = lc[var], -uc[var]
                g = gcd(la, ua)
                la, ua = la // g, ua // g
                coeffs = [lcx * ua + ucx * la for lcx, ucx in zip(lc, uc)]
                coeffs[var] = 0
                keep.add(_primitive(coeffs, lr * ua + ur * la, ls or us))
        current = keep
    for coeffs, rhs, strict in current:
        if strict:
            if not rhs < 0:
                return False
        elif not rhs <= 0:
            return False
    return True
