"""Theta indices, shifted dual cones, their partial order, and skeleton data.

A theta index (sigma, t) names a cone of a stacky fan together with integer
thresholds t_k, one per ray.  Its support is the translated dual cone
{x : <x, v_k> >= t_k / r_k}; inclusion of supports is the partial order that
drives every hom computation downstream.
"""

from __future__ import annotations

import itertools
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import floor, gcd
from typing import NamedTuple

from .errors import InvalidArgument
from .exactlin import Rational, RationalVector, linear_feasible, pair, solve_square
from .stackyfan import Cone, StackyFan


class ThetaIndex(namedtuple("ThetaIndex", "fan cone t")):
    """A cone of a StackyFan plus one integer threshold per ray of the cone."""

    def __new__(cls, fan: StackyFan, cone: Cone, t: tuple[int, ...]):
        t = tuple(int(x) for x in t)
        if not fan.has_cone(cone):
            raise InvalidArgument(f"cone {cone.ray_indices} is not in the fan")
        if len(t) != cone.dim:
            raise InvalidArgument(
                f"theta has {len(t)} thresholds for a {cone.dim}-dimensional cone"
            )
        return super().__new__(cls, fan, cone, t)

    @cached_property
    def thresholds(self) -> dict[int, int]:
        """Ray index -> threshold, built on first use and kept.

        Not a field, so it stays out of eq, hash and repr.  Callers that
        change the map work on a copy.
        """
        return dict(zip(self.cone.ray_indices, self.t))


# one linear condition <x, normal> >= threshold, strict when the flag is set
Constraint = tuple[tuple[int, ...], Rational, bool]


class Polyhedron(NamedTuple):
    """Finitely many closed or open half-space constraints in M_R."""

    dim: int
    constraints: tuple[Constraint, ...]

    def contains(self, x: RationalVector) -> bool:
        return self.holds(pair(x, normal) for normal, _, _ in self.constraints)

    def holds(self, values) -> bool:
        """Membership of a point given as its pairings, one per constraint in order.

        A sweep that pairs each probe once with a fixed set of normals
        decides every polyhedron over those normals here, without
        re-pairing; ``contains`` pairs on the fly and decides here too.
        """
        for value, (_, threshold, strict) in zip(values, self.constraints):
            if value < threshold or (strict and value == threshold):
                return False
        return True

    def on_boundary(self, x: RationalVector) -> bool:
        """True when some constraint holds with equality at x."""
        return any(pair(x, normal) == threshold for normal, threshold, _ in self.constraints)

    def canonical(self) -> tuple[Constraint, ...]:
        """Constraints with primitive normals, deduplicated and sorted."""
        out = set()
        for normal, threshold, strict in self.constraints:
            g = gcd(*(abs(c) for c in normal))
            if g == 0:
                raise InvalidArgument("zero normal in constraint")
            out.add((tuple(c // g for c in normal), Fraction(threshold) / g, strict))
        return tuple(sorted(out))


def support(theta: ThetaIndex, open: bool = False) -> Polyhedron:
    """The (open or closed) translated dual cone carrying the theta sheaf."""
    fan = theta.fan
    cons = []
    for k, i in enumerate(theta.cone.ray_indices):
        cons.append((fan.v(i), Fraction(theta.t[k], fan.weight(i)), open))
    return Polyhedron(dim=fan.dim, constraints=tuple(cons))


def leq(theta1: ThetaIndex, theta2: ThetaIndex) -> bool:
    """Support inclusion support(theta1) <= support(theta2).

    For a simplicial fan the second dual cone contains the first exactly
    when the second cone is a face of the first and, on each of its rays,
    the first threshold is at least the second.  Both thetas share the fan,
    so they share the weights r_i, and t1_i / r_i >= t2_i / r_i compares
    the integer thresholds.  Thetas of one parsed fan hold the same fan
    object, so the identity test spares the fan comparison, and each theta
    keeps its threshold map, so a sweep builds it once per theta.
    """
    if theta1.fan is not theta2.fan and theta1.fan != theta2.fan:
        raise InvalidArgument("theta indices live in different fans")
    t1 = theta1.thresholds
    for i, t in theta2.thresholds.items():
        if i not in t1 or t1[i] < t:
            return False
    return True


class HomResult(namedtuple("HomResult", "value reason")):
    """Outcome of a hom computation between two theta indices: value "C0" or "Zero"."""

    __slots__ = ()

    def __new__(cls, value: str, reason: str):
        if value not in ("C0", "Zero"):
            raise InvalidArgument(f"bad hom value {value!r}")
        if reason not in ("inclusion", "non-inclusion", "contractible-difference"):
            raise InvalidArgument(f"bad hom reason {reason!r}")
        if (value == "C0") != (reason == "inclusion"):
            raise InvalidArgument("C0 exactly when the reason is inclusion")
        return super().__new__(cls, value, reason)


# the hom results, shared by every route that returns one
HOM_INCLUSION = HomResult(value="C0", reason="inclusion")
HOM_NON_INCLUSION = HomResult(value="Zero", reason="non-inclusion")
HOM_CONTRACTIBLE_DIFFERENCE = HomResult(value="Zero", reason="contractible-difference")


def hom_constructible(theta1: ThetaIndex, theta2: ThetaIndex) -> HomResult:
    """Hom between two theta sheaves: C[0] on support inclusion, else zero."""
    return HOM_INCLUSION if leq(theta1, theta2) else HOM_NON_INCLUSION


class LagrangianPiece(NamedTuple):
    """One piece base x (-sigma) of a 1-D skeleton: base t / b_i, or None for the zero section."""

    base: Fraction | None
    fiber_cone: Cone
    t: tuple[int, ...]


def check_window(window: int, least: int = 0) -> None:
    """Refuse windows whose sweep would be (nearly) empty and pass vacuously."""
    if window < least:
        raise InvalidArgument(f"window must be >= {least}")


def window_thetas(fan: StackyFan, window: int) -> list[ThetaIndex]:
    """Every theta on every cone of the fan with thresholds in [-window, window]."""
    check_window(window)
    return [
        ThetaIndex(fan=fan, cone=cone, t=t)
        for cone in fan.all_cones
        for t in itertools.product(range(-window, window + 1), repeat=cone.dim)
    ]


# the most pieces one skeleton holds; the default figures draw 11 (p13) and 7 (p1)
MAX_SKELETON_PIECES = 1 << 12


def lambda_skeleton(fan: StackyFan, char_window: int, box: Rational) -> list[LagrangianPiece]:
    """The zero section and every piece of a 1-D fan with |t| <= char_window and base in the box.

    Ray i's piece at threshold t has the base point t / b_i, and |b_i| = r_i,
    so it lies in the box exactly when |t| <= box * r_i.  The pieces come in
    (cone, t) order; more than ``MAX_SKELETON_PIECES`` are refused, counted first.
    """
    check_window(char_window)
    if box <= 0:
        raise InvalidArgument("box must be positive")
    reach = {
        cone: min(char_window, floor(box * fan.weight(cone.ray_indices[0])))
        for cone in fan.all_cones
        if cone.dim
    }
    count = 1 + sum(2 * r + 1 for r in reach.values())
    if count > MAX_SKELETON_PIECES:
        raise InvalidArgument(
            f"the skeleton has {count} pieces, over the cap of {MAX_SKELETON_PIECES}; "
            "use a smaller window or box"
        )
    pieces = [LagrangianPiece(base=None, fiber_cone=Cone(()), t=())]
    for cone, r in reach.items():
        (b,) = fan.b(cone.ray_indices[0])
        pieces += [
            LagrangianPiece(base=Fraction(t, b), fiber_cone=cone, t=(t,)) for t in range(-r, r + 1)
        ]
    return pieces


def ample_polytope(fan: StackyFan, c) -> tuple[Polyhedron, bool]:
    """The polytope {<x, b_i> >= -c_i} and whether c is Q-ample.

    Q-ampleness here is the vertex criterion: the polytope is bounded and
    full-dimensional, and for each maximal cone the vertex cut out by its ray
    equalities satisfies every other constraint strictly.
    """
    c = tuple(int(x) for x in c)
    if len(c) != len(fan.rays):
        raise InvalidArgument(f"expected {len(fan.rays)} coefficients, got {len(c)}")
    cons = tuple((fan.b(i), Fraction(-c[i]), False) for i in range(len(fan.rays)))
    poly = Polyhedron(dim=fan.dim, constraints=cons)
    return poly, _q_ample(fan, c, poly)


def _q_ample(fan: StackyFan, c, poly: Polyhedron) -> bool:
    n = fan.dim
    # bounded: the recession cone admits no direction with any nonzero coordinate
    recession = [(nrm, 0, False) for nrm, _, _ in poly.constraints]
    for j in range(n):
        for sign in (1, -1):
            unit = tuple(sign if k == j else 0 for k in range(n))
            if linear_feasible(recession + [(unit, 1, False)], n):
                return False
    # full-dimensional: all constraints simultaneously strict
    if not linear_feasible([(nrm, thr, True) for nrm, thr, _ in poly.constraints], n):
        return False
    # strict convexity at each maximal cone's vertex
    for sigma in fan.max_cones:
        if sigma.dim != n:
            return False
        rows = [fan.b(i) for i in sigma.ray_indices]
        vertex = solve_square(rows, [-c[i] for i in sigma.ray_indices])
        for j in range(len(fan.rays)):
            if j in sigma.ray_indices:
                continue
            if pair(vertex, fan.b(j)) <= -c[j]:
                return False
    return True


def minkowski_sum(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    """Minkowski sum for operands sharing one constraint per common normal."""
    from .errors import UnsupportedOperation

    if p.dim != q.dim:
        raise UnsupportedOperation("summands live in different dimensions")

    def keyed(poly):
        out = {}
        for normal, threshold, strict in poly.canonical():
            key = (normal, strict)
            if key in out:
                raise UnsupportedOperation(f"repeated normal {normal} in summand")
            out[key] = threshold
        return out

    kp, kq = keyed(p), keyed(q)
    if set(kp) != set(kq):
        raise UnsupportedOperation("summands have different normal sets")
    cons = tuple(
        (normal, kp[(normal, strict)] + kq[(normal, strict)], strict)
        for normal, strict in sorted(kp)
    )
    return Polyhedron(dim=p.dim, constraints=cons)


def parse_theta(fan: StackyFan, text: str) -> ThetaIndex:
    """Parse the CLI form "cone=<indices>;t=<ints>" (zero cone: "cone=;t=")."""
    text = text.strip()
    if not text.startswith("cone=") or ";t=" not in text:
        raise InvalidArgument(f"malformed theta {text!r}, expected 'cone=...;t=...'")
    cone_part, t_part = text[len("cone=") :].split(";t=", 1)
    try:
        indices = tuple(int(x) for x in cone_part.split(",")) if cone_part else ()
        t = tuple(int(x) for x in t_part.split(",")) if t_part else ()
    except ValueError as exc:
        raise InvalidArgument(f"malformed theta {text!r}: {exc}") from None
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise InvalidArgument("theta ray indices must be strictly increasing")
    return ThetaIndex(fan=fan, cone=Cone(indices), t=t)


def format_int(n: int) -> str:
    """n in decimal, refused past Python's digit limit for integer strings."""
    try:
        return str(n)
    except ValueError:  # the only ValueError str(int) raises
        limit = sys.get_int_max_str_digits()
        raise InvalidArgument(
            f"an integer of the report has more than {limit} digits, "
            "Python's limit for integer strings"
        ) from None


def format_theta(theta: ThetaIndex) -> str:
    cone_part = ",".join(str(i) for i in theta.cone.ray_indices)
    t_part = ",".join(map(format_int, theta.t))
    return f"cone={cone_part};t={t_part}"
