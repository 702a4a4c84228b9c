"""Element-level oracles for ``nilcert.nilpotent2``.

The library reads powers, inverses and normality of box subgroups off the
Gram table of a box.  This module keeps them written out on elements and
pairings, as the group law gives them:

- :func:`nil_inv` and :func:`nil_power` in closed form, checked against
  repeated ``nil_mul`` by the tests;
- :func:`box_normal_in`, the pairing of every basis row of ``U_P`` with
  every basis row of ``U_Q`` through ``TwoStepLattice.cvalue``.
"""

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
