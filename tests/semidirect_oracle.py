"""Element-wise oracle for the box-group checks of ``nilcert.semidirect``.

The library decides invariance, normality and abelianness of box subgroups
``L x| mZ`` by lattice containments.  This module keeps the same checks
written out on group elements, in their defining order:

- a fiber lattice is A-invariant when the span of ``A L`` equals ``L``;
- S is normal in G when every generator of S, conjugated by every
  generator of G and by its inverse, stays in S;
- G/S is abelian when the commutator of every pair of G's generators lies
  in S.

:func:`elementwise` installs them in place of the library's, so a verb run
inside it (the constructor, ``quotient``, ``normalizer``, ``intermediates``)
takes the element-wise route end to end.
"""

import contextlib
import itertools

from nilcert import semidirect
from nilcert.errors import (
    DimensionMismatch,
    InvalidParameters,
    NotAbelianQuotient,
    NotASubgroup,
    NotNormal,
    UnsupportedSubgroupShape,
)
from nilcert.linalg import Lattice, quotient_structure
from nilcert.semidirect import SemidirectLattice, conj, inv, mul, sol3_group


def commutator(g, h):
    """[g, h] = g h g^-1 h^-1."""
    return mul(conj(g, h), inv(h))


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
    for g in G.generators():
        for s in S.generators():
            if not (S.contains(conj(g, s)) and S.contains(conj(inv(g), s))):
                raise NotNormal("conjugate of a generator of S leaves S")


def _as_lattice(B):
    """L x mZ as a lattice in Z^(n+1)."""
    n = B.parent.n
    return Lattice.from_rows(n + 1, [list(r) + [0] for r in B.L.basis.data] + [[0] * n + [B.m]])


def quotient(G, S):
    check_normal(G, S)
    for a, b in itertools.combinations(G.generators(), 2):
        if not S.contains(commutator(a, b)):
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
