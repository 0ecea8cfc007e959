"""Exact integer/rational linear algebra shared by all geometric modules.

Vectors are plain tuples: lattice vectors are tuples of ``int``, rational
vectors tuples of ``Fraction``. Everything is a pure function on immutable
values and all arithmetic is arbitrary precision; no floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import InvalidArgument

Rational = Fraction
LatticeVector = tuple[int, ...]
RationalVector = tuple[Fraction, ...]


def ceil_div(p: int, q: int) -> int:
    """Exact ceiling of p/q for integers, q > 0."""
    if q <= 0:
        raise InvalidArgument(f"ceil_div requires a positive divisor, got {q}")
    return -((-p) // q)


def floor_div(p: int, q: int) -> int:
    """Exact floor of p/q for integers, q > 0."""
    if q <= 0:
        raise InvalidArgument(f"floor_div requires a positive divisor, got {q}")
    return p // q


def ceil_frac(x: Fraction | int) -> int:
    """Exact ceiling of a rational."""
    x = Fraction(x)
    return ceil_div(x.numerator, x.denominator)


def floor_frac(x: Fraction | int) -> int:
    """Exact floor of a rational."""
    x = Fraction(x)
    return floor_div(x.numerator, x.denominator)


def pair(x: Sequence[Fraction | int], v: Sequence[int]) -> Fraction:
    """Natural pairing sum(x_i * v_i), exact."""
    if len(x) != len(v):
        raise InvalidArgument(f"pairing dimension mismatch: {len(x)} vs {len(v)}")
    return sum((Fraction(a) * b for a, b in zip(x, v)), Fraction(0))


def is_primitive(v: Sequence[int]) -> bool:
    """True iff the integer vector is nonzero with coprime coordinates."""
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return g == 1


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def lattice_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of a list of row vectors."""
    rows = [[Fraction(c) for c in row] for row in matrix]
    if not rows:
        return 0
    _, pivots = _rref(rows)
    return len(pivots)


def complete_to_basis(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[int, ...]]:
    """Extend independent integer rows to a full-rank square list.

    Standard basis vectors are adjoined greedily in coordinate order, so the
    output is deterministic.
    """
    out = [tuple(int(c) for c in row) for row in rows]
    rank = lattice_rank(out)
    if rank != len(out):
        raise InvalidArgument("complete_to_basis requires independent rows")
    for k in range(dim):
        if rank == dim:
            break
        unit = tuple(1 if j == k else 0 for j in range(dim))
        if lattice_rank(out + [unit]) > rank:
            out.append(unit)
            rank += 1
    if rank != dim:
        raise InvalidArgument("rows could not be completed to a basis")
    return out


def matrix_inverse(rows: Sequence[Sequence[Fraction | int]]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix, or InvalidArgument if singular."""
    n = len(rows)
    aug = [
        [Fraction(c) for c in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    mat, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise InvalidArgument("matrix is singular")
    return [row[n:] for row in mat[:n]]


def solve_square(rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int]) -> list[Fraction]:
    """Solve a nonsingular square system rows * x = rhs exactly."""
    n = len(rows)
    aug = [[Fraction(c) for c in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    mat, pivots = _rref(aug)
    if pivots != list(range(n)):
        raise InvalidArgument("matrix is singular")
    return [mat[i][n] for i in range(n)]


def cone_coefficients(
    target: Sequence[Fraction | int], generators: Sequence[Sequence[int]]
) -> list[Fraction] | None:
    """Unique coefficients of target over independent generators, or None off-span."""
    if not generators:
        return [] if all(Fraction(c) == 0 for c in target) else None
    gram = [
        [Fraction(sum(a * b for a, b in zip(gi, gj))) for gj in generators]
        for gi in generators
    ]
    try:
        coeffs = solve_square(gram, [pair(target, g) for g in generators])
    except InvalidArgument:
        raise InvalidArgument("cone_coefficients requires independent generators")
    recombined = [Fraction(0)] * len(generators[0])
    for ck, gen in zip(coeffs, generators):
        for i, c in enumerate(gen):
            recombined[i] += ck * c
    if tuple(recombined) != tuple(Fraction(c) for c in target):
        return None
    return coeffs


Constraint = tuple[tuple[Fraction, ...], Fraction, bool]
# (coeffs, rhs, strict) encodes sum(coeffs * x) >= rhs, or > rhs when strict.


def _normalize_constraint(coeffs: Sequence[Fraction], rhs: Fraction, strict: bool) -> Constraint:
    lead = next((c for c in coeffs if c != 0), None)
    if lead is None:
        return tuple(coeffs), rhs, strict
    scale = abs(lead)
    return tuple(c / scale for c in coeffs), rhs / scale, strict


def linear_feasible(constraints: Sequence[Constraint], dim: int) -> bool:
    """Exact feasibility of a system of rational linear inequalities.

    Fourier-Motzkin elimination; strictness propagates through combinations.
    Intended for the small systems arising from cones and support polyhedra.
    """
    current = {
        _normalize_constraint([Fraction(c) for c in coeffs], Fraction(rhs), strict)
        for coeffs, rhs, strict in constraints
    }
    for var in range(dim):
        lowers: list[Constraint] = []
        uppers: list[Constraint] = []
        keep: set[Constraint] = set()
        for coeffs, rhs, strict in current:
            a = coeffs[var]
            if a > 0:
                lowers.append((coeffs, rhs, strict))
            elif a < 0:
                uppers.append((coeffs, rhs, strict))
            else:
                keep.add((coeffs, rhs, strict))
        for lc, lr, ls in lowers:
            for uc, ur, us in uppers:
                # x_var >= (lr - rest_l)/la and x_var <= (rest_u - ur)/(-ua)
                la, ua = lc[var], uc[var]
                coeffs = [lcx * (-ua) + ucx * la for lcx, ucx in zip(lc, uc)]
                rhs = lr * (-ua) + ur * la
                coeffs[var] = Fraction(0)
                keep.add(_normalize_constraint(coeffs, rhs, ls or us))
        current = keep
    for coeffs, rhs, strict in current:
        if strict:
            if not rhs < 0:
                return False
        elif not rhs <= 0:
            return False
    return True
