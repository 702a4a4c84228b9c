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

import itertools
import math

import nilcert  # certificates through the package: verbs that build none never compile it

from .arith import canonical_json, json_field, parse_int
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
    _combine,
    _span,
    cyclotomic_kernels,
    finite_order,
    full_index,
    hstack,
    is_unimodular,
    maps_into,
    nullity,
    power_mod,
    preimage_lattice,
    vstack,
)

Vec = tuple[int, ...]


class SemidirectGroup:
    """The ambient group Z^n x|_A Z for a fixed unimodular holonomy A."""

    __slots__ = ("n", "A", "_powers")

    def __init__(self, A: IntMatrix):
        if A.rows != A.cols:
            raise DimensionMismatch("holonomy matrix must be square")
        if not is_unimodular(A):
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

    For S <= G, G.m divides S.m, so Id - A^(S.m) is Id - A^(G.m) times a
    polynomial in A and the abelian test implies normality; :func:`_check_normal`
    runs only on failure, to report a non-subgroup or non-normal S first.
    """
    if not (S.is_subgroup_of(G) and _twist_maps_into(G, G.m, S)):
        _check_normal(G, S)
        raise NotAbelianQuotient("commutator of generators of G is not in S")
    n = G.parent.n
    rows = [list(G.L.coords_of(row)) + [0] for row in S.L.basis.data]
    rows.append([0] * n + [S.m // G.m])
    return _cokernel(n + 1, rows)


def _divisors(k: int) -> list[int]:
    """The divisors of ``k >= 1`` in increasing order."""
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return sorted(set(small + [k // d for d in small]))


def _between(sup: Lattice, sub: Lattice) -> list[Lattice]:
    """Every lattice between the full-rank ``sub`` and ``sup``, from its
    canonical Hermite basis in the coordinates of ``sup``, bottom-up.

    With r the Hermite basis of ``sub`` in those coordinates, row k has a
    pivot h dividing r_kk and entries reduced modulo the later pivots; it
    is kept when r_k - (r_kk / h) row lies in the span of the later rows.
    """
    n = sup.ambient_dim
    r = _span(n, [sup.coords_of(row) for row in sub.basis.data]).basis.data
    found = [Lattice.zero(n)]
    for k in reversed(range(n)):
        grown = []
        for later in found:
            entries = [range(row[j]) for j, row in enumerate(later.basis.data, k + 1)]
            for h in _divisors(r[k][k]):
                q = r[k][k] // h
                for tail in itertools.product(*entries):
                    row = (0,) * k + (h,) + tail
                    if later.contains([a - q * b for a, b in zip(r[k], row)]):
                        grown.append(Lattice(n, IntMatrix._trusted((row,) + later.basis.data, n)))
        found = grown
    return [_span(n, [_combine(row, sup.basis.data) for row in L.basis.data]) for L in found]


def intermediates(
    G: SemidirectLattice, S: SemidirectLattice, max_quotient: int = 10**4
) -> list[SemidirectLattice]:
    """All subgroups strictly between S and G (S normal, G/S finite).

    Each subgroup of G/S is <L'/S.L, (c, m')> for a lattice L' between S.L
    and G.L, a multiple m' of G.m dividing S.m and c in G.L.  All of them
    are boxes L' x| m'Z iff every such L' is A-invariant and the norm
    N = sum_(i < S.m/G.m) A^(G.m i) is injective on G.L/S.L (README,
    "``intermediates`` from the fibre lattices"); otherwise this raises
    :class:`UnsupportedSubgroupShape`.
    """
    _check_normal(G, S)
    # Both fibres have full rank, so [G.L : S.L] = [Z^n : S.L] / [Z^n : G.L].
    d = full_index(S.L)
    index = d // full_index(G.L) * (S.m // G.m)
    if index > max_quotient:
        raise QuotientTooLarge("quotient order %d exceeds guard %d" % (index, max_quotient))

    parent, n = G.parent, G.parent.n
    lattices = _between(G.L, S.L)
    if len(set(lattices)) != len(lattices) or not {S.L, G.L} <= set(lattices):
        raise SelfCheckFailed("the lattices between S.L and G.L miss an end or repeat")
    # N modulo d = [Z^n : S.L] is the top right block of
    # [[A^(G.m), Id], [0, Id]]^(S.m/G.m), and d Z^n lies in S.L.
    I = IntMatrix.identity(n)
    B, O = power_mod(parent.A, G.m, d), IntMatrix.zeros(n, n)
    N = power_mod(vstack([hstack(n, [B, I]), hstack(n, [O, I])]), S.m // G.m, d)
    zero = (0,) * n
    norm = _span(n, [N.apply(zero + row)[:n] for row in G.L.basis.data] + list(S.L.basis.data))
    shape = UnsupportedSubgroupShape("intermediate subgroup is not of the shape L x| mZ")
    if norm != G.L:
        raise shape
    multiples = [G.m * e for e in _divisors(S.m // G.m)]
    try:
        boxes = [SemidirectLattice(parent, L, m) for L in lattices for m in multiples]
    except UnsupportedSubgroupShape:
        raise shape from None
    results = [H for H in boxes if H != S and H != G]
    results.sort(key=lambda sl: (sl.m, sl.L.basis.data))
    return results


def _split(G: SemidirectLattice) -> tuple[dict[int, tuple[IntMatrix, int]], int, int, int]:
    """cyc(A), the center rank of :func:`center_rank` and the sums of
    k_d = dim ker Phi_d(A) over the d that divide m and over the rest
    (README, "One cyclotomic split")."""
    cyc = cyclotomic_kernels(G.parent.A)
    fixed = sum(k for d, (_, k) in cyc.items() if G.m % d == 0)
    rest = sum(k for _, k in cyc.values()) - fixed
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
    fixed2 = sum(nullity(X * X) for d, (X, _) in cyc.items() if G.m % d == 0)
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


def tower_certificate(
    gamma: SemidirectLattice, subs, group_ref: str
) -> nilcert.certificates.SeriesCertificate:
    """Certificate for a normalizer chain gamma = S_0 >= S_1 >= ... >= S_k.

    Verifies N_gamma(S_j) = S_{j-1} at every level and records the abelian
    quotient S_{j-1}/S_j.  Every subnormal series from S_k up to gamma then
    has quotients of order at most the largest level index, which bounds its
    length from below.  ``subs`` pairs each S_j with the canonical JSON text
    of its description, and ``group_ref`` is the text of gamma's.
    """
    certificates = nilcert.certificates
    levels = []
    prev = gamma
    for j, (sub, text) in enumerate(subs, 1):
        if normalizer(gamma, sub) != prev:
            raise NotNormal("normalizer chain broke at level %d" % j)
        q = quotient(prev, sub)
        levels.append(
            certificates.ChainLevel(subgroup=text, quotient=q, index=q.order(), normality_verified=True)
        )
        prev = sub
    total = math.prod(level.index for level in levels)
    max_q = max((level.index for level in levels), default=1)
    bound = certificates.length_lower_bound(total, max_q)
    return certificates.sealed(certificates.KIND_SOL3, group_ref, levels, total, bound)


def sol3_tower(k: int) -> nilcert.certificates.SeriesCertificate:
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
    texts = [canonical_json(sub.to_json()) for sub in subs]
    return tower_certificate(gamma, zip(subs, texts), canonical_json(dict(gamma.to_json(), k=k)))


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
