"""Stacky fans and the combinatorial setups behind the three transforms.

A stacky fan is a simplicial fan together with a positive integer weight on
each ray.  The weighted generator of ray i is b_i = weight_i * v_i with v_i
primitive.  Cones are named by sorted tuples of ray indices; the face closure
always contains the zero cone ().
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple

from .errors import InvalidArgument, ValidationError
from .exactlin import (
    LatticeVector,
    cone_coefficients,
    is_primitive,
    lattice_rank,
    linear_feasible,
)


def _is_int(x) -> bool:
    # JSON booleans are Python ints; they are not integers of a document
    return isinstance(x, int) and not isinstance(x, bool)


class WeightedRay(namedtuple("WeightedRay", "v weight")):
    """A primitive lattice direction v together with a positive weight.

    The weighted generator b = weight * v is kept once, in the instance
    dict; it is derived, so it takes no part in equality, hashing or repr.
    """

    def __new__(cls, v: LatticeVector, weight: int):
        v = tuple(int(c) for c in v)
        if not is_primitive(v):
            raise ValidationError(f"ray {v} is not primitive")
        if not _is_int(weight) or weight < 1:
            raise ValidationError(f"ray weight {weight!r} must be a positive integer")
        self = super().__new__(cls, v, weight)
        self.b = tuple(weight * c for c in v)
        return self


class Cone(namedtuple("Cone", "ray_indices")):
    """A simplicial cone, named by the sorted indices of its rays; ordered by them."""

    __slots__ = ()

    def __new__(cls, ray_indices: tuple[int, ...]):
        idx = tuple(sorted(ray_indices))
        if len(set(idx)) != len(idx):
            raise ValidationError(f"repeated ray index in cone {ray_indices}")
        return super().__new__(cls, idx)

    @property
    def dim(self) -> int:
        return len(self.ray_indices)


def faces(sigma: Cone) -> list[Cone]:
    """All faces of a simplicial cone: the power set of its ray indices."""
    out = []
    for k in range(sigma.dim + 1):
        for sub in itertools.combinations(sigma.ray_indices, k):
            out.append(Cone(sub))
    return out


class StackyFan(NamedTuple):
    """A validated stacky fan: weighted rays plus a simplicial fan on them."""

    dim: int
    rays: tuple[WeightedRay, ...]
    max_cones: tuple[Cone, ...]
    all_cones: tuple[Cone, ...] = ()
    # the tuple hash, bound by name so that perfbench's tracer can count it
    __hash__ = tuple.__hash__

    def v(self, i: int) -> LatticeVector:
        return self.rays[i].v

    def b(self, i: int) -> LatticeVector:
        return self.rays[i].b

    def weight(self, i: int) -> int:
        return self.rays[i].weight

    def has_cone(self, sigma: Cone) -> bool:
        return sigma in self.all_cones


def _relint_meets(fan_rays, sigma: Cone, tau: Cone) -> bool:
    """Whether the relative interiors of two cones share a point.

    Decided exactly in coefficient space: a common point means
    sum(lam_s v_s) = sum(mu_t v_t) with all lam, mu > 0, which is a
    homogeneous feasibility problem.
    """
    dim = len(fan_rays[0].v)
    ns, nt = sigma.dim, tau.dim
    nvars = ns + nt
    cons = []
    for k in range(nvars):
        cons.append((tuple(int(j == k) for j in range(nvars)), 0, True))
    for coord in range(dim):
        row = [0] * nvars
        for k, i in enumerate(sigma.ray_indices):
            row[k] = fan_rays[i].v[coord]
        for k, i in enumerate(tau.ray_indices):
            row[ns + k] -= fan_rays[i].v[coord]
        cons.append((tuple(row), 0, False))
        cons.append((tuple(-c for c in row), 0, False))
    return linear_feasible(cons, nvars)


def make_fan(dim: int, rays, max_cones) -> StackyFan:
    """Assemble and validate a stacky fan.

    Checks simpliciality of every listed cone, full rank of the ray table,
    and the fan axiom that distinct faces have disjoint relative interiors.

    Raises:
        ValidationError: on any violated axiom, with the offending location.
    """
    rays = tuple(rays)
    if dim < 1:
        raise ValidationError(f"fan dimension {dim} must be >= 1")
    if not rays:
        raise ValidationError("fan has no rays")
    for i, ray in enumerate(rays):
        if len(ray.v) != dim:
            raise ValidationError(f"ray {i} has {len(ray.v)} coordinates, expected {dim}")
    if lattice_rank([r.b for r in rays]) != dim:
        raise ValidationError("ray generators do not span: rank deficiency")

    cones = []
    for sigma in max_cones:
        sigma = sigma if isinstance(sigma, Cone) else Cone(tuple(sigma))
        for i in sigma.ray_indices:
            if not 0 <= i < len(rays):
                raise ValidationError(f"cone {sigma.ray_indices} references missing ray {i}")
        vs = [rays[i].v for i in sigma.ray_indices]
        if vs and lattice_rank(vs) != len(vs):
            raise ValidationError(f"cone {sigma.ray_indices} has dependent rays")
        cones.append(sigma)
    if len(set(cones)) != len(cones):
        raise ValidationError("duplicate maximal cone")
    used = {i for sigma in cones for i in sigma.ray_indices}
    unused = [i for i in range(len(rays)) if i not in used]
    if unused:
        raise ValidationError(f"rays {unused} lie in no listed cone")

    closure = set()
    for sigma in cones:
        closure.update(faces(sigma))
    all_cones = tuple(sorted(closure, key=lambda c: (c.dim, c.ray_indices)))

    nonzero = [c for c in all_cones if c.dim > 0]
    for sigma, tau in itertools.combinations(nonzero, 2):
        if _relint_meets(rays, sigma, tau):
            raise ValidationError(
                f"cones {sigma.ray_indices} and {tau.ray_indices} overlap: "
                "intersection is not a common face"
            )
    return StackyFan(dim=dim, rays=rays, max_cones=tuple(cones), all_cones=all_cones)


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list")
    return value


def _int_list(value, what: str) -> tuple[int, ...]:
    if not all(_is_int(c) for c in _list(value, what)):
        raise ValidationError(f"{what} must be a list of integers")
    return tuple(value)


def _parse_ray(entry, what: str) -> WeightedRay:
    if not isinstance(entry, dict) or "v" not in entry:
        raise ValidationError(f"{what} must be an object with a 'v' key")
    return WeightedRay(v=_int_list(entry["v"], f"{what} 'v'"), weight=entry.get("weight", 1))


def parse_stacky_fan(data: dict) -> StackyFan:
    """Build a validated StackyFan from its document form.

    Schema: {"dim": n, "rays": [{"v": [ints], "weight": int>=1}, ...],
    "max_cones": [[ray indices], ...]}.  The weight key may be omitted and
    defaults to 1.
    """
    if not isinstance(data, dict):
        raise ValidationError("fan document must be an object")
    for key in ("dim", "rays", "max_cones"):
        if key not in data:
            raise ValidationError(f"fan document missing key {key!r}")
    dim = data["dim"]
    if not _is_int(dim):
        raise ValidationError("dim must be an integer")
    rays = [_parse_ray(entry, f"ray {i}") for i, entry in enumerate(_list(data["rays"], "rays"))]
    cones = _list(data["max_cones"], "max_cones")
    return make_fan(dim, rays, [_int_list(c, f"max cone {k}") for k, c in enumerate(cones)])


def is_complete(fan: StackyFan) -> bool:
    """Whether the fan's support is all of N_R.

    Criterion: every maximal cone is full-dimensional, every ridge (a face of
    codimension one inside a maximal cone) lies in exactly two maximal cones,
    and the resulting adjacency graph is connected.
    """
    if not fan.max_cones:
        return False
    if any(c.dim != fan.dim for c in fan.max_cones):
        return False
    ridge_owners: dict[tuple[int, ...], list[int]] = {}
    for ci, sigma in enumerate(fan.max_cones):
        for ridge in itertools.combinations(sigma.ray_indices, fan.dim - 1):
            ridge_owners.setdefault(ridge, []).append(ci)
    if any(len(owners) != 2 for owners in ridge_owners.values()):
        return False
    # walk the adjacency graph
    seen = {0}
    stack = [0]
    adj: dict[int, set[int]] = {i: set() for i in range(len(fan.max_cones))}
    for a, b in ridge_owners.values():
        adj[a].add(b)
        adj[b].add(a)
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(fan.max_cones)


class SameBaseSetup(namedtuple("SameBaseSetup", "base r s t m n fan_r fan_s fan_t")):
    """Two weightings r, s of one base fan, refined by t_i = lcm(r_i, s_i).

    The discrepancy comparison is derived on first use and, like that of
    ContractionSetup, takes no part in equality, hashing or repr.  The
    fields are base (a StackyFan), the weight tuples r, s, t, m = t / r and
    n = t / s, and the reweighted fans fan_r, fan_s and fan_t.
    """

    @cached_property
    def discrepancy(self) -> str:
        """r compared with s componentwise: ">=", "<=", "=" or "incomparable"."""
        ge = all(a >= b for a, b in zip(self.r, self.s))
        le = all(a <= b for a, b in zip(self.r, self.s))
        if ge and le:
            return "="
        if ge:
            return ">="
        return "<=" if le else "incomparable"


def _reweight(fan: StackyFan, weights) -> StackyFan:
    rays = tuple(WeightedRay(v=ray.v, weight=w) for ray, w in zip(fan.rays, weights))
    return StackyFan(dim=fan.dim, rays=rays, max_cones=fan.max_cones, all_cones=fan.all_cones)


def build_same_base(fan: StackyFan, r, s) -> SameBaseSetup:
    """Set up the same-coarse-base transform data for weight lists r and s."""
    r = tuple(r)
    s = tuple(s)
    for name, w in (("r", r), ("s", s)):
        if len(w) != len(fan.rays):
            raise InvalidArgument(f"weights {name} have length {len(w)}, expected {len(fan.rays)}")
        if any(not _is_int(x) or x < 1 for x in w):
            raise InvalidArgument(f"weights {name} must be positive integers")
    t = tuple(lcm(a, b) for a, b in zip(r, s))
    m = tuple(ti // ri for ti, ri in zip(t, r))
    n = tuple(ti // si for ti, si in zip(t, s))
    return SameBaseSetup(
        base=fan,
        r=r,
        s=s,
        t=t,
        m=m,
        n=n,
        fan_r=_reweight(fan, r),
        fan_s=_reweight(fan, s),
        fan_t=_reweight(fan, t),
    )


class ContractionSetup(
    namedtuple("ContractionSetup", "n n_prime extra alpha perm sigma1 sigma2")
):
    """Data of a weighted-blowup contraction.

    The extra ray v_{n+1} = sum a_i v_i (a_i > 0 for i < n_prime after
    reindexing) subdivides the cone on the first n_prime rays, and
    alpha_i = r_{n+1} a_i / r_i writes its weighted generator in the block:
    b_{n+1} = sum alpha_i b_i.  sigma2 is the fan of the contracted model,
    sigma1 the subdivided one; perm records the reindexing.

    The discrepancy comparison and the integer block weights are derived
    once, on first use; like the kept hash they live outside the fields,
    so they take no part in equality, hashing or repr.  perm maps each new
    index to its index in the input ray list.
    """

    @cached_property
    def _hash(self) -> int:
        # the hash of the fields walks both fans, and every chart lookup
        # hashes the setup, so it is computed once and kept
        return tuple.__hash__(self)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def discrepancy(self) -> str:
        """sum(alpha) compared with 1: ">=", "<=" or "="."""
        total = sum(self.alpha)
        if total == 1:
            return "="
        return ">=" if total > 1 else "<="

    @cached_property
    def scaled_alpha(self) -> tuple[int, tuple[int, ...]]:
        """(D, (D * alpha_i)): the block weights over their common denominator D."""
        scale = lcm(*(a.denominator for a in self.alpha))
        return scale, tuple(int(a * scale) for a in self.alpha)

    @property
    def extra_index(self) -> int:
        return self.n

    @property
    def i_prime(self) -> tuple[int, ...]:
        return tuple(range(self.n_prime))


def build_contraction(rays, extra: WeightedRay) -> ContractionSetup:
    """Construct the contraction setup from n independent rays and one extra.

    The extra ray must be a positive combination of at least two of the input
    rays; inputs are reindexed so those carry the leading indices.

    Raises:
        InvalidArgument: extra ray outside the open span, or degenerate
            (a multiple of a single input ray).
    """
    rays = tuple(rays)
    n = len(rays)
    if n < 2:
        raise InvalidArgument("need at least two rays")
    dim = len(rays[0].v)
    for i, ray in enumerate(rays):
        if len(ray.v) != dim:
            raise InvalidArgument(f"ray {i} has {len(ray.v)} coordinates, expected {dim}")
    if dim != n:
        raise InvalidArgument(f"{n} rays of dimension {dim}: rays must be a basis")
    if lattice_rank([r.v for r in rays]) != n:
        raise InvalidArgument("ray directions are dependent")
    if len(extra.v) != dim:
        raise InvalidArgument("extra ray has wrong dimension")

    a_full = cone_coefficients(extra.v, [r.v for r in rays])
    if a_full is None or any(c < 0 for c in a_full):
        raise InvalidArgument("extra ray is not in the nonnegative span of the rays")
    positive = [i for i, c in enumerate(a_full) if c > 0]
    if len(positive) < 2:
        raise InvalidArgument("extra ray must involve at least two rays")
    perm = tuple(positive + [i for i, c in enumerate(a_full) if c == 0])
    rays = tuple(rays[i] for i in perm)
    n_prime = len(positive)
    alpha = tuple(
        Fraction(extra.weight, rays[k].weight) * a_full[i] for k, i in enumerate(positive)
    )
    # b_{n+1} = sum alpha_i b_i must hold on the nose
    rhs = tuple(sum(alpha[i] * rays[i].b[k] for i in range(n_prime)) for k in range(dim))
    if extra.b != rhs:
        raise ValidationError("internal: weighted extra ray does not recombine")

    sigma2 = make_fan(dim, rays, [tuple(range(n))])
    max1 = [tuple(j for j in range(n + 1) if j != i) for i in range(n_prime)]
    sigma1 = make_fan(dim, rays + (extra,), max1)
    return ContractionSetup(
        n=n, n_prime=n_prime, extra=extra, alpha=alpha, perm=perm, sigma1=sigma1, sigma2=sigma2
    )


def parse_contraction(data: dict) -> ContractionSetup:
    """Build a ContractionSetup from {"rays": [...], "extra": {...}}."""
    if not isinstance(data, dict) or "rays" not in data or "extra" not in data:
        raise ValidationError("contraction document needs 'rays' and 'extra'")
    rays = [_parse_ray(entry, f"ray {i}") for i, entry in enumerate(_list(data["rays"], "rays"))]
    return build_contraction(rays, _parse_ray(data["extra"], "extra ray"))


def parse_same_base(data: dict) -> SameBaseSetup:
    """Build a SameBaseSetup from {"fan": {...}, "r": [...], "s": [...]}."""
    if not isinstance(data, dict) or any(k not in data for k in ("fan", "r", "s")):
        raise ValidationError("same-base document needs 'fan', 'r' and 's'")
    r, s = _int_list(data["r"], "weights r"), _int_list(data["s"], "weights s")
    return build_same_base(parse_stacky_fan(data["fan"]), r, s)


def j_image(setup: ContractionSetup, J) -> tuple[int, ...]:
    """The index set J' of the smallest contracted cone containing sigma_J."""
    J = tuple(sorted(J))
    if setup.extra_index not in J:
        return J
    return tuple(sorted((set(J) - {setup.extra_index}) | set(setup.i_prime)))
