"""Element-level oracles for ``nilcert.nilpotent2``.

The library reads powers, inverses and normality of box subgroups off the
Gram table of a box.  This module keeps them written out on elements and
pairings, as the group law gives them:

- :func:`nil_inv` and :func:`nil_power` in closed form, checked against
  repeated ``nil_mul`` by the tests;
- :func:`box_normal_in`, the pairing of every basis row of ``U_P`` with
  every basis row of ``U_Q`` through ``TwoStepLattice.cvalue``;
- :func:`full_box`, the whole group Z^b x Z^f as a box.

It also keeps the box layer of the two-layer series as it was before it
reused its spans (:func:`subnormal_series` and the helpers it calls):

- :func:`checked_box` scans every beta value against W, also for W = Z^f;
- :func:`central_layer` forms lower.U + K with a Hermite form at every level;
- :func:`center` and :func:`box_quotient` pass their rows through the
  validating ``Lattice.from_rows`` and ``cokernel``, and the centre's
  kernel comes from the ``hnf`` transform of ``linalg_oracle.left_kernel``;
- Lambda_1 gets a Gram table of its own.
"""

import itertools

import linalg_oracle
from nilcert.certificates import KIND_TWO_STEP, ChainLevel, canonical_json, sealed
from nilcert.errors import (
    ClosureViolation,
    DimensionMismatch,
    NotAbelianQuotient,
    NotASubgroup,
    NotFiniteIndex,
    NotNormal,
    QuotientTooLarge,
)
from nilcert.linalg import Lattice, cokernel, hstack
from nilcert.nilpotent2 import NilElement, NilSublattice


def nil_inv(g: NilElement) -> NilElement:
    G = g.group
    corr = G.beta(g.u, g.u)
    return NilElement(G, tuple(-x for x in g.u), tuple(c - x for x, c in zip(g.w, corr)))


def nil_power(g: NilElement, x: int) -> NilElement:
    """(u, w)^x = (x u, x w + x(x-1)/2 beta(u, u)); valid for all integer x."""
    G = g.group
    half = x * (x - 1) // 2
    corr = G.beta(g.u, g.u)
    return NilElement(
        G, tuple(x * a for a in g.u), tuple(x * a + half * c for a, c in zip(g.w, corr))
    )


def box_normal_in(Q: NilSublattice, P: NilSublattice) -> bool:
    """Q normal in P iff all pairings C(U_P, U_Q) land in W_Q."""
    G = P.parent
    return all(
        Q.W.contains(G.cvalue(rp, rq))
        for rp in P.U.basis.data
        for rq in Q.U.basis.data
    )


def full_box(G) -> NilSublattice:
    """Z^b x Z^f, the whole group as a box subgroup."""
    return NilSublattice(G, Lattice.standard(G.b), Lattice.standard(G.f))


def checked_box(G, U: Lattice, W: Lattice) -> NilSublattice:
    """The box U x W after every beta(r_i, r_j) is tested against W."""
    if U.ambient_dim != G.b or W.ambient_dim != G.f:
        raise DimensionMismatch("box data must live in Z^b x Z^f")
    for ru in U.basis.data:
        for rv in U.basis.data:
            if not W.contains(G.beta(ru, rv)):
                raise ClosureViolation("beta(U, U) is not contained in W")
    return NilSublattice(G, U, W)


def center(G):
    if G.f == 0 or G.b == 0:
        return G.f + G.b, Lattice.standard(G.b)
    kernel = linalg_oracle.left_kernel(hstack(G.b, list(G.forms)).data, G.b * G.f)
    klattice = Lattice.from_rows(G.b, kernel)
    return G.f + klattice.rank, klattice


def box_quotient(P: NilSublattice, Q: NilSublattice):
    if P.parent != Q.parent:
        raise DimensionMismatch("different parent groups")
    xs = [P.U.coords_of(qu) for qu in Q.U.basis.data]
    ys = [P.W.coords_of(qw) for qw in Q.W.basis.data]
    if None in xs or None in ys:
        raise NotASubgroup("Q is not contained in P")
    r = P.U.rank
    g = P.gram
    for i, j in itertools.combinations(range(r), 2):
        if not Q.W.contains(tuple(a - b for a, b in zip(g[i][j], g[j][i]))):
            pairings = (
                [sum(x[l] * (g[i][l][k] - g[l][i][k]) for l in range(r)) for k in range(P.parent.f)]
                for i in range(r)
                for x in xs
            )
            if not all(Q.W.contains(c) for c in pairings):
                raise NotNormal("Q is not normal in P")
            raise NotAbelianQuotient("commutators of P do not land in Q")
    relations = [x + P.W.coords_of(tuple(-a for a in P.collected_w(x))) for x in xs]
    zeros = (0,) * r
    relations.extend(zeros + y for y in ys)
    return cokernel(r + P.W.rank, relations)


def central_layer(upper: NilSublattice, lower: NilSublattice, kernel: Lattice) -> bool:
    return upper.U.is_sublattice_of(lower.U.sum(kernel))


def box_chain(boxes, kernel: Lattice) -> list:
    levels = []
    for lower, upper in zip(boxes, boxes[1:]):
        q = box_quotient(upper, lower)
        levels.append(
            ChainLevel(
                subgroup=canonical_json(lower.to_json()),
                quotient=q,
                index=q.order(),
                normality_verified=True,
                central=central_layer(upper, lower, kernel),
            )
        )
    return levels


def subnormal_series(L, sub: NilSublattice, max_index=None):
    if sub.parent != L:
        raise DimensionMismatch("sublattice belongs to another group")
    index = sub.index_in_full()
    if index is None:
        raise NotFiniteIndex("box subgroup does not have finite index")
    if max_index is not None and index > max_index:
        raise QuotientTooLarge("index %d exceeds guard %d" % (index, max_index))
    crank, kernel = center(L)
    lam1 = checked_box(L, sub.U.sum(kernel), Lattice.standard(L.f))
    full = checked_box(L, Lattice.standard(L.b), Lattice.standard(L.f))
    first, second = box_chain([sub, lam1, full], kernel)
    if first.quotient.rank() > crank or second.quotient.rank() > L.b - kernel.rank:
        raise NotAbelianQuotient("layer rank exceeds the upper central series bound")
    return sealed(
        KIND_TWO_STEP,
        canonical_json(dict(L.to_json(), gamma=sub.to_json())),
        [level for level in (first, second) if not level.quotient.is_trivial],
        index,
        1 if index > 1 else 0,
    )
