"""Element-wise oracle for the box-group checks of ``nilcert.semidirect``.

The library decides invariance, normality and abelianness of box subgroups
``L x| mZ`` by lattice containments.  This module keeps the same checks
written out on group elements, in their defining order:

- a fiber lattice is A-invariant when the span of ``A L`` equals ``L``;
- S is normal in G when every generator of S, conjugated by every
  generator of G and by its inverse, stays in S;
- G/S is abelian when the commutator of every pair of G's generators lies
  in S.

:func:`generators`, :func:`contains` and :func:`group_index` are the element
helpers these checks run on; the library keeps none of them.

:func:`elementwise` installs them in place of the library's, so a verb run
inside it (the constructor, ``quotient``, ``normalizer``, ``intermediates``)
takes the element-wise route end to end.

It also keeps the holonomy routines as they were before the cyclotomic
split of ``linalg.cyclotomic_kernels``: the walk over the powers of A up to
M(n), the centre ranks from the exact power ``A^m`` and an induced Smith
basis, and the nilpotency criterion's exact ``P^order``; and E(n), the
lcm of the root-of-unity orders of degree at most n, with which the tests
pick translation indices that every such order divides.

And it keeps two element-wise ``intermediates``, from before the lattice
enumeration of the library.  :func:`intermediates` lists the quotient by a
Smith-form coset product, builds its full Cayley table and closes every new
element against every element found; :func:`closure_intermediates` grows
each subgroup of G/S by right multiplication from a generating tuple, with
a memoised coset product.
"""

import contextlib
import itertools
import math
from functools import lru_cache

from linalg_oracle import det
from nilcert import semidirect
from nilcert.arith import is_prime, minkowski_bound
from nilcert.errors import (
    DimensionMismatch,
    InfiniteOrder,
    InvalidParameters,
    NotAnAutomorphism,
    NotAbelianQuotient,
    NotASubgroup,
    NotNormal,
    QuotientTooLarge,
    SelfCheckFailed,
    UnsupportedSubgroupShape,
)
from nilcert.linalg import (
    IntMatrix,
    Lattice,
    maps_into,
    preimage_lattice,
    lattice_index,
    quotient_structure,
    quotient_with_generators,
    snf,
    unimodular_inverse,
)
from nilcert.nilpotent2 import isolator
from nilcert.semidirect import SemidirectLattice, conj, inv, mul, sol3_group


def commutator(g, h):
    """[g, h] = g h g^-1 h^-1."""
    return mul(conj(g, h), inv(h))


def generators(B):
    """The fibre basis rows (v, 0) of L x| mZ, then (0, m)."""
    gens = [B.parent.element(row, 0) for row in B.L.basis.data]
    gens.append(B.parent.element((0,) * B.parent.n, B.m))
    return gens


def contains(B, g):
    """Is the element g in L x| mZ?"""
    if g.group != B.parent:
        raise DimensionMismatch("element of a different parent group")
    return g.t % B.m == 0 and B.L.contains(g.v)


def group_index(G, S):
    """[G : S], or None when infinite (never here: both fibers full rank)."""
    if not S.is_subgroup_of(G):
        raise NotASubgroup("S is not contained in G")
    fiber = lattice_index(G.L, S.L)
    return None if fiber is None else fiber * (S.m // G.m)


def box_init(self, parent, L, m):
    if L.ambient_dim != parent.n:
        raise DimensionMismatch("sublattice ambient dimension mismatch")
    if not L.is_full_rank():
        raise UnsupportedSubgroupShape("fiber sublattice must be full rank")
    if m < 1:
        raise InvalidParameters("translation index m must be >= 1")
    image = Lattice.from_rows(parent.n, [parent.A.apply(row) for row in L.basis.data])
    if image != L:
        raise UnsupportedSubgroupShape("fiber sublattice is not A-invariant")
    self.parent = parent
    self.L = L
    self.m = m


def check_normal(G, S):
    if not S.is_subgroup_of(G):
        raise NotASubgroup("S is not contained in G")
    for g in generators(G):
        for s in generators(S):
            if not (contains(S, conj(g, s)) and contains(S, conj(inv(g), s))):
                raise NotNormal("conjugate of a generator of S leaves S")


def _as_lattice(B):
    """L x mZ as a lattice in Z^(n+1)."""
    n = B.parent.n
    return Lattice.from_rows(n + 1, [list(r) + [0] for r in B.L.basis.data] + [[0] * n + [B.m]])


def quotient(G, S):
    check_normal(G, S)
    for a, b in itertools.combinations(generators(G), 2):
        if not contains(S, commutator(a, b)):
            raise NotAbelianQuotient("commutator of generators of G is not in S")
    # G/S is abelian, so (v, t) -> (v, t) mod S.L x S.m Z is a homomorphism.
    return quotient_structure(_as_lattice(G), _as_lattice(S))


@contextlib.contextmanager
def elementwise():
    """Run ``nilcert.semidirect`` with the element-wise checks installed."""
    saved = (semidirect.SemidirectLattice.__init__, semidirect._check_normal, semidirect.quotient)
    semidirect.SemidirectLattice.__init__ = box_init
    semidirect._check_normal = check_normal
    semidirect.quotient = quotient
    try:
        yield
    finally:
        (
            semidirect.SemidirectLattice.__init__,
            semidirect._check_normal,
            semidirect.quotient,
        ) = saved


def sol3_intermediate_forms(k, group=None):
    """The three index-2 overlattices of Gamma_k inside Gamma_{k-1} that the
    paper displays: the expected answer of ``intermediates`` one level down."""
    group = group or sol3_group()
    h = 2 ** (k - 1)
    forms = [
        Lattice.from_rows(2, [[2 * h, 0], [0, h]]),
        Lattice.from_rows(2, [[h, 0], [0, 2 * h]]),
        Lattice.from_rows(2, [[h, h], [0, 2 * h]]),
    ]
    return [SemidirectLattice(group, L, 1) for L in forms]


def holonomy_order(A):
    """Multiplicative order of A, or None when infinite, by walking the
    powers of A up to M(n); a trace outside [-n, n] ends the walk."""
    n = A.rows
    cap = minkowski_bound(n) if n >= 1 else 1
    acc = IntMatrix.identity(n)
    for k in range(1, cap + 1):
        acc = acc * A
        if acc.is_identity():
            return k
        trace = sum(acc.data[i][i] for i in range(n))
        if abs(trace) > n:
            return None
    return None


def root_order_lcm(n):
    """E(n), the lcm of the orders d of the roots of unity with phi(d) <= n.

    A root of unity of order d has degree phi(d) over Q, so every one that
    is an eigenvalue of an n x n integer matrix has its order dividing E(n).
    Its p-part is the largest p^k with phi(p^k) = p^(k-1) (p - 1) <= n:
    E(0) = 1, E(2) = 12, E(6) = 2520, a divisor of M(n).
    """
    result = 1
    p = 2
    while p - 1 <= n:
        if is_prime(p):
            q = p
            while q * (p - 1) <= n:
                q *= p
            result *= q
        p += 1
    return result


def center_rank(G):
    """Rank of the center of L x| mZ from the exact power A^m."""
    parent = G.parent
    n = parent.n
    fixed = preimage_lattice(parent.A.power(G.m) - IntMatrix.identity(n), Lattice.zero(n))
    rank = fixed.intersect(G.L).rank
    if holonomy_order(parent.A) is not None:
        rank += 1
    return rank


def induced_quotient_holonomy(B, fixed):
    """Column action induced by B on Z^n modulo the saturated fixed lattice."""
    n = B.rows
    k = fixed.rank
    if k == 0:
        return B
    form = snf(fixed.basis)
    if any(d != 1 for d in form.factors):
        raise InvalidParameters("fixed lattice must be saturated")
    V = form.V
    # Rows 0..k-1 of V^{-1} span the fixed lattice, so in y = v * V
    # coordinates the row action of B is y -> y * (V^{-1} B^T V) and the
    # first k coordinates are preserved.  The quotient action is the
    # trailing block, transposed back to the column convention.
    conj = unimodular_inverse(V) * B.transpose() * V
    block = [[conj.data[i][j] for j in range(k, n)] for i in range(k, n)]
    return IntMatrix(block, cols=n - k).transpose()


def inn_center_rank(G):
    """Rank of the center of G modulo its own center, from A^m on G.L in
    basis coordinates and its action on the quotient by its fixed lattice."""
    parent = G.parent
    n = parent.n
    Am = parent.A.power(G.m)
    rows = []
    for row in G.L.basis.data:
        coords = G.L.coords_of(Am.apply(row))
        if coords is None:
            raise SelfCheckFailed("fiber lattice is not invariant under A^m")
        rows.append(coords)
    B = IntMatrix(rows, cols=n).transpose()
    fixed = preimage_lattice(B - IntMatrix.identity(n), Lattice.zero(n))
    order = holonomy_order(B)
    if fixed.rank == n:
        return 0
    Bq = induced_quotient_holonomy(B, fixed)
    nq = Bq.rows
    fixed_q = preimage_lattice(Bq - IntMatrix.identity(nq), Lattice.zero(nq))
    rank = fixed_q.rank
    if order is None and holonomy_order(Bq) is not None:
        rank += 1
    return rank


def nilpotency_check(G, P, Q, order):
    """The nilpotency criterion with the claimed order checked by the exact
    powers P^order and Q^order."""
    if P.rows != G.b or P.cols != G.b or Q.rows != G.f or Q.cols != G.f:
        raise DimensionMismatch("automorphism blocks must be b x b and f x f")
    if abs(det(P)) != 1 or abs(det(Q)) != 1:
        raise NotAnAutomorphism("blocks must be unimodular")
    for l in range(G.f):
        lhs = P.transpose() * G.forms[l] * P
        rhs = IntMatrix.zeros(G.b, G.b)
        for m2 in range(G.f):
            rhs = rhs + G.forms[m2].scale(Q.data[l][m2])
        if lhs != rhs:
            raise NotAnAutomorphism("pair does not preserve the commutator forms")
    if order < 1:
        raise InvalidParameters("order must be a positive integer")
    if not (P.power(order).is_identity() and Q.power(order).is_identity()):
        raise InfiniteOrder("claimed finite order %d does not hold" % order)

    sqrt, _ = isolator(G)
    if not P.is_identity():
        return False
    return maps_into(Q - IntMatrix.identity(G.f), Lattice.standard(G.f), sqrt)


def intermediates(G, S, max_quotient=10**4):
    """All subgroups strictly between S and G from the Cayley table of G/S."""
    semidirect._check_normal(G, S)
    index = group_index(G, S)
    if index is None:
        raise QuotientTooLarge("quotient is infinite")
    if index > max_quotient:
        raise QuotientTooLarge("quotient order %d exceeds guard %d" % (index, max_quotient))

    parent = G.parent
    _, fiber_gens = quotient_with_generators(G.L, S.L)
    reps = set()
    ranges = [range(d) for d, _ in fiber_gens if d > 0]
    vecs = [vec for d, vec in fiber_gens if d > 0]
    for combo in itertools.product(*ranges):
        v = [0] * parent.n
        for c, vec in zip(combo, vecs):
            for i in range(parent.n):
                v[i] += c * vec[i]
        reps.add(S.L.reduce(v))
    t_reps = list(range(0, S.m, G.m))
    elements = [(v, t) for v in sorted(reps) for t in t_reps]
    if len(elements) != index:
        raise SelfCheckFailed(
            "enumerated %d cosets for a quotient of order %d" % (len(elements), index)
        )
    lookup = {e: i for i, e in enumerate(elements)}

    def emul(i, j):
        v, t = elements[i]
        w, s = elements[j]
        moved = parent.power(t).apply(w)
        nv = S.L.reduce(tuple(a + b for a, b in zip(v, moved)))
        return lookup[(nv, (t + s) % S.m)]

    table = [[emul(i, j) for j in range(index)] for i in range(index)]
    e0 = lookup[(S.L.reduce((0,) * parent.n), 0)]

    def closure(seed):
        out = set(seed)
        frontier = list(seed)
        while frontier:
            x = frontier.pop()
            for y in list(out):
                for z in (table[x][y], table[y][x]):
                    if z not in out:
                        out.add(z)
                        frontier.append(z)
        return frozenset(out)

    subgroups = {frozenset([e0])}
    frontier = [frozenset([e0])]
    while frontier:
        P = frontier.pop()
        for x in range(index):
            if x in P:
                continue
            Q = closure(P | {x})
            if Q not in subgroups:
                subgroups.add(Q)
                frontier.append(Q)

    proper = [H for H in subgroups if 1 < len(H) < index]
    results = []
    for H in proper:
        t_parts = [elements[i][1] for i in H]
        m_H = math.gcd(S.m, *t_parts)
        fiber_rows = [elements[i][0] for i in H if elements[i][1] == 0]
        L_H = S.L.sum(Lattice.from_rows(parent.n, fiber_rows))
        try:
            candidate = SemidirectLattice(parent, L_H, m_H)
        except UnsupportedSubgroupShape:
            raise UnsupportedSubgroupShape(
                "intermediate subgroup is not of the shape L x| mZ"
            )
        if group_index(candidate, S) != len(H) or not all(
            candidate.L.contains(elements[i][0]) for i in H
        ):
            raise UnsupportedSubgroupShape(
                "intermediate subgroup is not of the shape L x| mZ"
            )
        results.append(candidate)
    results.sort(key=lambda sl: (sl.m, sl.L.basis.data))
    return results


def closure_intermediates(
    G: SemidirectLattice, S: SemidirectLattice, max_quotient: int = 10**4
) -> list[SemidirectLattice]:
    """All subgroups strictly between S and G by one closure under right
    multiplication in G/S: the quotient itself, then each subgroup <P, x>
    grown from a subgroup P found before, pulled back and checked for the
    box shape L x| mZ."""
    semidirect._check_normal(G, S)
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
