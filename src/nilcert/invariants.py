"""Scalar invariants and certificate verification.

Minkowski bounds for GL(n, Z), the Euler-characteristic length bound, the
lexicographic upper bound (rank of the center, rank of the center of the
inner automorphism group), and from-scratch re-verification of every
certificate kind produced by this package.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, replace

from . import nilpotent2, semidirect
from .arith import json_field, parse_int
from .arith import minkowski_bound  # noqa: F401  (public name of this module)
from .certificates import (
    KIND_SOL3,
    KIND_TWO_STEP,
    KIND_WITNESS,
    SeriesCertificate,
    canonical_json,
)
from .errors import (
    InvalidParameters,
    NilcertError,
    SelfCheckFailed,
    UnresolvableReference,
    UnsupportedGroupShape,
    ZeroEuler,
)
from .linalg import (
    IntMatrix,
    Lattice,
    preimage_lattice,
    snf,
)
from .nilpotent2 import NilSublattice, TwoStepLattice
from .semidirect import SemidirectGroup, SemidirectLattice


def euler_length_bound(chi: int) -> int:
    """floor(log2 |chi|): the maximal number of nontrivial free layers.

    Each free layer of a finite group action divides the Euler characteristic
    by at least 2.  The prime-factor count Omega(|chi|) would bound it too;
    this returns the stated log2 constant.
    """
    if chi == 0:
        raise ZeroEuler("Euler characteristic zero: no multiplicative bound")
    return abs(chi).bit_length() - 1


@functools.total_ordering
@dataclass(frozen=True)
class DiscSym2Bound:
    """Pair (f, b) ordered lexicographically: (a, b) >= (c, d) iff a > c,
    or a = c and b >= d."""

    f_bound: int
    b_bound: int

    def __lt__(self, other: "DiscSym2Bound") -> bool:
        if self.f_bound != other.f_bound:
            return self.f_bound < other.f_bound
        return self.b_bound < other.b_bound

    def as_pair(self) -> tuple[int, int]:
        return (self.f_bound, self.b_bound)

    def to_json(self) -> dict:
        return {"f": self.f_bound, "b": self.b_bound}


def _induced_quotient_holonomy(B: IntMatrix, fixed: Lattice) -> IntMatrix:
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
    conj = form.V_inv * B.transpose() * V
    block = [[conj.data[i][j] for j in range(k, n)] for i in range(k, n)]
    return IntMatrix(block, cols=n - k).transpose()


def _semidirect_inn_center_rank(G: SemidirectLattice) -> int:
    """Rank of the center of G modulo its own center."""
    parent = G.parent
    n = parent.n
    # Abstract holonomy: action of A^m on G.L in basis coordinates.
    Am = parent.power(G.m)
    rows = []
    for row in G.L.basis.data:
        coords = G.L.coords_of(Am.apply(row))
        if coords is None:
            raise SelfCheckFailed("fiber lattice is not invariant under A^m")
        rows.append(coords)
    B = IntMatrix(rows, cols=n).transpose()
    fixed = preimage_lattice(B - IntMatrix.identity(n), Lattice.zero(n))
    order = SemidirectGroup(B).holonomy_order()
    if fixed.rank == n:
        return 0
    Bq = _induced_quotient_holonomy(B, fixed)
    nq = Bq.rows
    fixed_q = preimage_lattice(Bq - IntMatrix.identity(nq), Lattice.zero(nq))
    rank = fixed_q.rank
    if order is None and SemidirectGroup(Bq).holonomy_order() is not None:
        rank += 1
    return rank


def discsym2_upper(G) -> DiscSym2Bound:
    """Upper bound (rank of the center, rank of the center of Inn).

    For a 2-step lattice the inner automorphism group is Z^b modulo the
    kernel directions of the pairing, which is abelian; for a semidirect
    lattice both centers are computed directly from the holonomy.
    """
    if isinstance(G, TwoStepLattice):
        rank, kernel = nilpotent2.center(G)
        return DiscSym2Bound(rank, G.b - kernel.rank)
    if isinstance(G, SemidirectLattice):
        f_bound, _ = semidirect.center_rank(G)
        return DiscSym2Bound(f_bound, _semidirect_inn_center_rank(G))
    raise UnsupportedGroupShape(
        "disc-sym_2 bound supports two-step and semidirect lattices only"
    )


# ---------------------------------------------------------------------------
# Certificate re-verification
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _resolving(what: str):
    """Inputs a certificate names that cannot be read at all are unresolvable."""
    try:
        yield
    except (NilcertError, KeyError, ValueError, TypeError) as exc:
        raise UnresolvableReference("cannot rebuild %s: %s" % (what, exc))


def _rebuild_sol3(cert: SeriesCertificate) -> SeriesCertificate:
    with _resolving("ambient group"):
        gamma = SemidirectLattice.from_json(cert.group_ref)
    subs = [SemidirectLattice.from_json(level.subgroup) for level in cert.chain]
    fresh = semidirect.tower_certificate(gamma, subs, cert.group_ref)
    # The subgroup descriptions are inputs, not claims: keep their spelling.
    chain = tuple(replace(new, subgroup=old.subgroup) for new, old in zip(fresh.chain, cert.chain))
    return replace(fresh, chain=chain)


def _rebuild_witness(cert: SeriesCertificate) -> SeriesCertificate:
    with _resolving("witness parameters"):
        params = json_field(cert.group_ref, "witness")
        k, p, a = (parse_int(json_field(params, key)) for key in ("k", "p", "a"))
    return nilpotent2.heisenberg_witness(k, p, a)


def _rebuild_two_step(cert: SeriesCertificate) -> SeriesCertificate:
    with _resolving("series data"):
        parent = TwoStepLattice.from_json(cert.group_ref)
        sub = NilSublattice.from_json(parent, json_field(cert.group_ref, "gamma"))
    return nilpotent2.subnormal_series(parent, sub)


_REBUILD = {
    KIND_SOL3: _rebuild_sol3,
    KIND_WITNESS: _rebuild_witness,
    KIND_TWO_STEP: _rebuild_two_step,
}


def verify_certificate(cert) -> bool:
    """Re-derive every claim in a certificate from scratch.

    The certificate is rebuilt from its own inputs (ambient group, chain
    subgroups or witness parameters) by the routine that built it, and the
    result must equal it field for field, as canonical JSON.  Returns False
    when any claim differs or the rebuild fails; raises UnresolvableReference
    when the certificate or the groups it names cannot be read at all.
    """
    if isinstance(cert, dict):
        try:
            cert = SeriesCertificate.from_json_dict(cert)
        except (NilcertError, ValueError, TypeError) as exc:
            raise UnresolvableReference("malformed certificate: %s" % exc)
    elif not isinstance(cert, SeriesCertificate):
        raise UnresolvableReference("certificate must be a dict or SeriesCertificate")
    if not cert.structural_ok():
        return False
    rebuild = _REBUILD.get(cert.kind)
    if rebuild is None:
        raise UnresolvableReference("unknown certificate kind %r" % cert.kind)
    try:
        fresh = rebuild(cert)
    except UnresolvableReference:
        raise
    except NilcertError:
        return False
    # Compared as JSON text, so that true or 1.0 in the inputs never pass for 1.
    return canonical_json(fresh.to_json_dict()) == canonical_json(cert.to_json_dict())
