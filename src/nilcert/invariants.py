"""Scalar invariants and certificate verification.

Minkowski bounds for GL(n, Z), the Euler-characteristic length bound, the
lexicographic upper bound (rank of the center, rank of the center of the
inner automorphism group), and from-scratch re-verification of every
certificate kind produced by this package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import nilpotent2, semidirect
from .arith import is_prime
from .certificates import (
    KIND_SOL3,
    KIND_TWO_STEP,
    KIND_WITNESS,
    SeriesCertificate,
    length_lower_bound,
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


def minkowski_bound(n: int) -> int:
    """The classical Minkowski constant M(n) for GL(n, Z).

    M(n) = prod_p p^(e_p) with e_p = sum_{i >= 0} floor(n / (p^i (p - 1))).
    Every finite subgroup of GL(n, Z) has order dividing M(n); the bound need
    not be attained (the largest finite subgroup of GL(2, Z) has order 12,
    while M(2) = 24).
    """
    if n < 1:
        raise InvalidParameters("n must be >= 1")
    result = 1
    p = 2
    while p - 1 <= n:
        if is_prime(p):
            e = 0
            q = p - 1
            while q <= n:
                e += n // q
                q *= p
            result *= p**e
        p += 1
    return result


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


def _parse_certificate(cert) -> SeriesCertificate:
    if isinstance(cert, SeriesCertificate):
        return cert
    if isinstance(cert, dict):
        try:
            return SeriesCertificate.from_json_dict(cert)
        except (KeyError, ValueError, TypeError) as exc:
            raise UnresolvableReference("malformed certificate: %s" % exc)
    raise UnresolvableReference("certificate must be a dict or SeriesCertificate")


def _verify_sol3(cert: SeriesCertificate) -> bool:
    try:
        gamma = SemidirectLattice.from_json(cert.group_ref)
    except NilcertError as exc:
        raise UnresolvableReference("cannot rebuild ambient group: %s" % exc)
    prev = gamma
    total = 1
    try:
        for level in cert.chain:
            sub = SemidirectLattice.from_json(level.subgroup)
            if sub.parent != gamma.parent:
                return False
            if semidirect.normalizer(gamma, sub) != prev:
                return False
            q = semidirect.quotient(prev, sub)
            if q != level.quotient or q.order() != level.index:
                return False
            total *= level.index
            prev = sub
    except NilcertError:
        return False
    if total != cert.total_index:
        return False
    expected_max = max((l.index for l in cert.chain), default=1)
    if cert.max_quotient_order != expected_max:
        return False
    return cert.min_length == length_lower_bound(cert.total_index, cert.max_quotient_order)


def _verify_witness(cert: SeriesCertificate) -> bool:
    params = cert.group_ref.get("witness")
    if not params:
        raise UnresolvableReference("witness certificate lacks its parameters")
    try:
        fresh = nilpotent2.heisenberg_witness(
            int(params["k"]), int(params["p"]), int(params["a"])
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise UnresolvableReference("malformed witness parameters: %s" % exc)
    except NilcertError:
        return False
    return fresh == cert


def _verify_two_step(cert: SeriesCertificate) -> bool:
    try:
        parent = TwoStepLattice.from_json(cert.group_ref)
        sub = NilSublattice.from_json(parent, cert.group_ref["gamma"])
    except (NilcertError, KeyError, ValueError, TypeError) as exc:
        raise UnresolvableReference("cannot rebuild series data: %s" % exc)
    try:
        fresh = nilpotent2.subnormal_series(parent, sub)
    except NilcertError:
        return False
    return fresh == cert


def verify_certificate(cert) -> bool:
    """Re-derive every claim in a certificate from scratch.

    Returns True only when all embedded normality, quotient, index and
    length claims recompute exactly.  Raises UnresolvableReference when the
    referenced groups cannot be rebuilt at all.
    """
    parsed = _parse_certificate(cert)
    if not parsed.structural_ok():
        return False
    if parsed.kind == KIND_SOL3:
        return _verify_sol3(parsed)
    if parsed.kind == KIND_WITNESS:
        return _verify_witness(parsed)
    if parsed.kind == KIND_TWO_STEP:
        return _verify_two_step(parsed)
    raise UnresolvableReference("unknown certificate kind %r" % parsed.kind)
