"""Arithmetic and subgroup computations in groups Z^n x|_A Z.

The group law is ``(v, t) * (w, s) = (v + A^t w, t + s)`` for a holonomy
matrix A in GL(n, Z).  Subgroups are restricted to the box shape
``L x| mZ`` with L a full-rank A-invariant sublattice: every subgroup in the
Sol3 tower construction has this shape, and shapes outside the family are
rejected with an explicit error.

Includes the Sol3 lattice family (holonomy [[5, 2], [2, 1]]) and the
length-k tower certificate built from normalizer and quotient computations.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import json_field, parse_int
from .certificates import (
    KIND_SOL3,
    ChainLevel,
    SeriesCertificate,
    length_lower_bound,
    sealed,
)
from .errors import (
    DimensionMismatch,
    InvalidParameters,
    NotASubgroup,
    NotNormal,
    NotAbelianQuotient,
    QuotientTooLarge,
    Record,
    SelfCheckFailed,
    UnsupportedSubgroupShape,
)
from .linalg import (
    AbelianStructure,
    IntMatrix,
    Lattice,
    _cokernel,
    cyclotomic_kernels,
    finite_order,
    full_index,
    lattice_index,
    maps_into,
    nullity,
    power_mod,
    preimage_lattice,
)

Vec = tuple[int, ...]


class SemidirectGroup:
    """The ambient group Z^n x|_A Z for a fixed unimodular holonomy A."""

    __slots__ = ("n", "A", "_powers")

    def __init__(self, A: IntMatrix):
        if A.rows != A.cols:
            raise DimensionMismatch("holonomy matrix must be square")
        if abs(A.det()) != 1:
            raise InvalidParameters("holonomy matrix must lie in GL(n, Z)")
        self.n = A.rows
        self.A = A
        self._powers: dict[int, IntMatrix] = {0: IntMatrix.identity(self.n), 1: A}

    def power(self, t: int) -> IntMatrix:
        """A^t with negative exponents via the exact integer inverse."""
        if t not in self._powers:
            self._powers[t] = self.A.power(t)
        return self._powers[t]

    def element(self, v, t: int) -> "SemidirectElement":
        v = tuple(int(x) for x in v)
        if len(v) != self.n:
            raise DimensionMismatch("vector length %d != rank %d" % (len(v), self.n))
        return SemidirectElement(self, v, int(t))

    def identity(self) -> "SemidirectElement":
        return SemidirectElement(self, (0,) * self.n, 0)

    def is_sol3_type(self) -> bool:
        """Trace condition for lattices of Sol3 (trace of the holonomy > 2)."""
        return self.n == 2 and sum(self.A.data[i][i] for i in range(2)) > 2

    def holonomy_order(self):
        """Multiplicative order of A, or None when infinite."""
        return finite_order(self.A)

    def __eq__(self, other):
        return isinstance(other, SemidirectGroup) and self.A == other.A

    def __hash__(self):
        return hash(self.A)

    def __repr__(self):
        return "SemidirectGroup(%r)" % (self.A,)


class SemidirectElement(Record):
    """Group element (v, t) in normal-form coordinates."""

    __slots__ = _fields = ("group", "v", "t")

    def __init__(self, group: SemidirectGroup, v: Vec, t: int):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "t", t)

    def is_identity(self) -> bool:
        return self.t == 0 and all(x == 0 for x in self.v)


def _same_parent(g: SemidirectElement, h: SemidirectElement) -> SemidirectGroup:
    if g.group != h.group:
        raise DimensionMismatch("elements of different semidirect groups")
    return g.group


def mul(g: SemidirectElement, h: SemidirectElement) -> SemidirectElement:
    """(v, t)(w, s) = (v + A^t w, t + s)."""
    G = _same_parent(g, h)
    w = G.power(g.t).apply(h.v)
    return SemidirectElement(G, tuple(a + b for a, b in zip(g.v, w)), g.t + h.t)


def inv(g: SemidirectElement) -> SemidirectElement:
    """(v, t)^-1 = (-A^-t v, -t)."""
    G = g.group
    w = G.power(-g.t).apply(g.v)
    return SemidirectElement(G, tuple(-x for x in w), -g.t)


def conj(g: SemidirectElement, h: SemidirectElement) -> SemidirectElement:
    """g h g^-1 = ((Id - A^s) v + A^t w, s) by the closed formula."""
    G = _same_parent(g, h)
    s = h.t
    left = (IntMatrix.identity(G.n) - G.power(s)).apply(g.v)
    right = G.power(g.t).apply(h.v)
    return SemidirectElement(G, tuple(a + b for a, b in zip(left, right)), s)


class SemidirectLattice:
    """Subgroup of the box shape L x| mZ with L full rank and A-invariant."""

    __slots__ = ("parent", "L", "m")

    def __init__(self, parent: SemidirectGroup, L: Lattice, m: int):
        if L.ambient_dim != parent.n:
            raise DimensionMismatch("sublattice ambient dimension mismatch")
        if not L.is_full_rank():
            raise UnsupportedSubgroupShape("fiber sublattice must be full rank")
        if m < 1:
            raise InvalidParameters("translation index m must be >= 1")
        # A is unimodular, so A L inside L already means A L = L.
        if not maps_into(parent.A, L, L):
            raise UnsupportedSubgroupShape("fiber sublattice is not A-invariant")
        self.parent = parent
        self.L = L
        self.m = m

    def __eq__(self, other):
        return (
            isinstance(other, SemidirectLattice)
            and self.parent == other.parent
            and self.L == other.L
            and self.m == other.m
        )

    def __hash__(self):
        return hash((self.parent, self.L, self.m))

    def __repr__(self):
        return "SemidirectLattice(L=%r, m=%d)" % (self.L, self.m)

    def generators(self) -> list[SemidirectElement]:
        gens = [self.parent.element(row, 0) for row in self.L.basis.data]
        gens.append(self.parent.element((0,) * self.parent.n, self.m))
        return gens

    def contains(self, g: SemidirectElement) -> bool:
        if g.group != self.parent:
            raise DimensionMismatch("element of a different parent group")
        return g.t % self.m == 0 and self.L.contains(g.v)

    def is_subgroup_of(self, other: "SemidirectLattice") -> bool:
        if self.parent != other.parent:
            raise DimensionMismatch("different parent groups")
        return self.m % other.m == 0 and self.L.is_sublattice_of(other.L)

    def to_json(self) -> dict:
        return {
            "type": "semidirect",
            "n": self.parent.n,
            "matrix": self.parent.A.to_json(),
            "sublattice": self.L.to_json(),
            "m": self.m,
        }

    @staticmethod
    def from_json(obj: dict) -> "SemidirectLattice":
        if not isinstance(obj, dict) or obj.get("type") != "semidirect":
            raise InvalidParameters("not a semidirect group description")
        n = parse_int(json_field(obj, "n"))
        group = SemidirectGroup(IntMatrix.from_json(json_field(obj, "matrix")))
        if group.n != n:
            raise DimensionMismatch("matrix size does not match declared rank")
        L = Lattice.from_json(n, obj["sublattice"]) if "sublattice" in obj else Lattice.standard(n)
        return SemidirectLattice(group, L, parse_int(obj.get("m", 1)))


def group_index(G: SemidirectLattice, S: SemidirectLattice):
    """[G : S], or None when infinite (never here: both fibers full rank)."""
    if not S.is_subgroup_of(G):
        raise NotASubgroup("S is not contained in G")
    fiber = lattice_index(G.L, S.L)
    return None if fiber is None else fiber * (S.m // G.m)


def normalizer(G: SemidirectLattice, S: SemidirectLattice) -> SemidirectLattice:
    """N_G(S) = {(v, t) in G : (Id - A) v in S.L} x| Z.

    The "for all s" condition collapses to s = 1 because S.L is A-invariant:
    Id - A^s factors as (Id + A + ... + A^(s-1))(Id - A), and negative s
    follow by multiplying with the unimodular A^s.
    """
    if G.parent != S.parent:
        raise DimensionMismatch("different parent groups")
    if G.m != 1 or S.m != 1:
        raise InvalidParameters("normalizer requires full translation parts (m = 1)")
    if not S.is_subgroup_of(G):
        raise NotASubgroup("S is not contained in G")
    A = G.parent.A
    condition = preimage_lattice(IntMatrix.identity(G.parent.n) - A, S.L)
    LN = condition.intersect(G.L)
    result = SemidirectLattice(G.parent, LN, 1)
    _check_normal(result, S)
    return result


def _twist_maps_into(G: SemidirectLattice, k: int, S: SemidirectLattice) -> bool:
    """Is (Id - A^k) G.L inside S.L?  d Z^n lies in S.L for d = [Z^n : S.L],
    so A^k is needed only modulo d, however large k is."""
    M = IntMatrix.identity(G.parent.n) - power_mod(G.parent.A, k, full_index(S.L))
    return maps_into(M, G.L, S.L)


def _check_normal(G: SemidirectLattice, S: SemidirectLattice) -> None:
    """S <= G and S is normal in G, that is (Id - A^(S.m)) G.L lies in S.L.

    (v, t) conjugates (w, s) to ((Id - A^s) v + A^t w, s).  A^t w stays in
    the A-invariant S.L, and s runs over multiples of S.m, where Id - A^s
    is Id - A^(S.m) times a polynomial in A and A^-1.
    """
    if not S.is_subgroup_of(G):
        raise NotASubgroup("S is not contained in G")
    if not _twist_maps_into(G, S.m, S):
        raise NotNormal("conjugate of a generator of S leaves S")


def quotient(G: SemidirectLattice, S: SemidirectLattice) -> AbelianStructure:
    """Invariant factors of the abelian quotient G/S.

    With S normal, G/S is abelian iff the commutators of G's generators lie
    in S.  Two fiber generators commute, and (v, 0) with (0, G.m) gives
    ((Id - A^(G.m)) v, 0), so the test is (Id - A^(G.m)) G.L inside S.L.
    The structure then comes from the coordinate kernel: (v, t) in G maps to
    (coords of v in G.L, t/m) and S's image is the relation lattice.
    """
    _check_normal(G, S)
    if not _twist_maps_into(G, G.m, S):
        raise NotAbelianQuotient("commutator of generators of G is not in S")
    n = G.parent.n
    rows = [list(G.L.coords_of(row)) + [0] for row in S.L.basis.data]
    rows.append([0] * n + [S.m // G.m])
    return _cokernel(n + 1, rows)


def intermediates(
    G: SemidirectLattice, S: SemidirectLattice, max_quotient: int = 10**4
) -> list[SemidirectLattice]:
    """All subgroups strictly between S and G (S normal, G/S finite).

    One closure under right multiplication lists the finite quotient G/S and
    each subgroup <P, x> grown from a subgroup P found before; the subgroups
    are then pulled back, and a pullback that is not of the box shape
    L x| mZ raises :class:`UnsupportedSubgroupShape`.
    """
    _check_normal(G, S)
    index = group_index(G, S)
    if index is None:
        raise QuotientTooLarge("quotient is infinite")
    if index > max_quotient:
        raise QuotientTooLarge("quotient order %d exceeds guard %d" % (index, max_quotient))

    parent = G.parent
    zero = (0,) * parent.n

    @lru_cache(maxsize=None)
    def emul(x, y):
        """x y in G/S, a coset written (S.L.reduce(v), t mod S.m)."""
        (v, t), (w, s) = x, y
        moved = parent.power(t).apply(w)
        return S.L.reduce(tuple(a + b for a, b in zip(v, moved))), (t + s) % S.m

    def close(start, gens) -> frozenset:
        """Right multiples of ``start`` by words in ``gens``: in the finite
        group G/S, the subgroup ``gens`` generate once ``start`` lies in it."""
        out = set(start)
        frontier = list(start)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = emul(x, g)
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        return frozenset(out)

    e = (zero, 0)
    elements = close({e}, [(row, 0) for row in G.L.basis.data] + [(zero, G.m)])
    if len(elements) != index:
        raise SelfCheckFailed(
            "enumerated %d cosets for a quotient of order %d" % (len(elements), index)
        )

    # One generating tuple per subgroup.  <P, x> is <P, y> for every y in
    # the coset xP, so one x per coset is enough.
    found = {frozenset([e]): ()}
    frontier = [frozenset([e])]
    while frontier:
        P = frontier.pop()
        gens = found[P]
        tried = set(P)
        for x in elements:
            if x in tried:
                continue
            tried |= close({x}, gens)
            Q = close(P, gens + (x,))
            if Q not in found:
                found[Q] = gens + (x,)
                frontier.append(Q)

    results = []
    for H in found:
        if not 1 < len(H) < index:
            continue
        m_H = math.gcd(S.m, *(t for _, t in H))
        L_H = S.L.sum(Lattice.from_rows(parent.n, [v for v, t in H if t == 0]))
        try:
            candidate = SemidirectLattice(parent, L_H, m_H)
        except UnsupportedSubgroupShape:
            raise UnsupportedSubgroupShape(
                "intermediate subgroup is not of the shape L x| mZ"
            )
        # The pullback equals the box candidate only if the candidate has
        # exactly |H| cosets of S and every H coset lies inside it; diagonal
        # subgroups of a mixed fiber/translation quotient fail here.
        if group_index(candidate, S) != len(H) or not all(candidate.L.contains(v) for v, _ in H):
            raise UnsupportedSubgroupShape(
                "intermediate subgroup is not of the shape L x| mZ"
            )
        results.append(candidate)
    results.sort(key=lambda sl: (sl.m, sl.L.basis.data))
    return results


def _split(G: SemidirectLattice) -> tuple[dict[int, IntMatrix], int, int, int]:
    """cyc(A), the center rank of :func:`center_rank` and the sums of
    k_d = dim ker Phi_d(A) over the d that divide m and over the rest
    (README, "One cyclotomic split")."""
    cyc = cyclotomic_kernels(G.parent.A)
    k = {d: nullity(X) for d, X in cyc.items()}
    fixed = sum(k[d] for d in k if G.m % d == 0)
    rest = sum(k.values()) - fixed
    return cyc, fixed + (fixed + rest == G.parent.n), fixed, rest


def center_rank(G: SemidirectLattice) -> tuple[int, AbelianStructure]:
    """Rank and structure of the center of L x| mZ.

    (v, t) is central iff A^t = Id (so t ranges over a subgroup of mZ that
    is nonzero only for finite holonomy order) and A^m v = v; L has full
    rank, so those v have the rank of the sum of the ker Phi_d(A), d | m.
    """
    rank = _split(G)[1]
    return rank, AbelianStructure(rank, ())


def center_ranks(G: SemidirectLattice) -> tuple[int, int]:
    """Ranks of the centers of G and of G/Z(G), from one cyclotomic split.

    v is central modulo the center iff (A^m - Id)^2 v = 0: the sum of the
    ker Phi_d(A)^2, d | m.  For A of infinite order the translations add one
    iff A^m has finite order on Z^n / ker(A^m - Id), that is iff those
    kernels and the ker Phi_d(A) of the other d fill Q^n."""
    cyc, rank, fixed, rest = _split(G)
    fixed2 = sum(nullity(X * X) for d, X in cyc.items() if G.m % d == 0)
    extra = fixed + rest < G.parent.n and rest + fixed2 == G.parent.n
    return rank, fixed2 - fixed + extra


# ---------------------------------------------------------------------------
# The Sol3 family
# ---------------------------------------------------------------------------

SOL3_MATRIX = IntMatrix([[5, 2], [2, 1]])


def sol3_group() -> SemidirectGroup:
    return SemidirectGroup(SOL3_MATRIX)


def sol3_gamma(k: int, group: SemidirectGroup | None = None) -> SemidirectLattice:
    """Gamma_k = 2^k Z^2 x| Z inside the Sol3 lattice."""
    if k < 0:
        raise InvalidParameters("k must be >= 0")
    group = group or sol3_group()
    return SemidirectLattice(group, Lattice.scaled(2, 2**k), 1)


def tower_certificate(gamma: SemidirectLattice, subs, group_ref: dict) -> SeriesCertificate:
    """Certificate for a normalizer chain gamma = S_0 >= S_1 >= ... >= S_k.

    Verifies N_gamma(S_j) = S_{j-1} at every level and records the abelian
    quotient S_{j-1}/S_j.  Every subnormal series from S_k up to gamma then
    has quotients of order at most the largest level index, which bounds its
    length from below.
    """
    levels = []
    prev = gamma
    for j, sub in enumerate(subs, 1):
        if normalizer(gamma, sub) != prev:
            raise NotNormal("normalizer chain broke at level %d" % j)
        q = quotient(prev, sub)
        levels.append(
            ChainLevel(subgroup=sub.to_json(), quotient=q, index=q.order(), normality_verified=True)
        )
        prev = sub
    total = math.prod(level.index for level in levels)
    max_q = max((level.index for level in levels), default=1)
    return sealed(KIND_SOL3, group_ref, levels, total, length_lower_bound(total, max_q))


def sol3_tower(k: int) -> SeriesCertificate:
    """Certificate for the length-k Sol3 tower Gamma >= Gamma_1 >= ... >= Gamma_k.

    Each Gamma_{j-1}/Gamma_j has type [2, 2]: every normalizer has index 4
    over its level, so any subnormal series from Gamma_k to Gamma has
    quotients of order at most 4, hence length at least k.
    """
    if k < 0:
        raise InvalidParameters("k must be >= 0")
    group = sol3_group()
    gamma = sol3_gamma(0, group)
    subs = [sol3_gamma(j, group) for j in range(1, k + 1)]
    return tower_certificate(gamma, subs, dict(gamma.to_json(), k=k))


def scaling_map_check(c: int, target: SemidirectLattice) -> bool:
    """Does (v, t) |-> (c v, t) define an isomorphism Gamma -> target?

    c Id commutes with A, so the map respects the group law
    (v, t)(w, s) = (v + A^t w, t + s) for every c.  It is injective iff
    c != 0, and onto the target iff c Z^n is the target lattice (HNF
    equality) and the target's translation index is 1.
    """
    return c != 0 and target.m == 1 and Lattice.scaled(target.parent.n, c) == target.L


def scaling_iso_check(k: int) -> bool:
    """Verify f_k(v, t) = (2^k v, t) is an isomorphism Gamma -> Gamma_k."""
    if k < 0:
        raise InvalidParameters("k must be >= 0")
    return scaling_map_check(2**k, sol3_gamma(k))
