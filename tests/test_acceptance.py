"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact; the timed criteria assert their stated
wall-clock budgets.
"""

import itertools
import math
import random
import time

import linalg_oracle
from nilcert.cli import canonical_json
from nilcert.cohomology import ModuleAction, b1, h1, h1_brute, z1
from nilcert.errors import IllDefinedAction
from nilcert.invariants import (
    discsym2_upper,
    euler_length_bound,
    minkowski_bound,
    verify_certificate,
)
from nilcert.linalg import (
    AbelianStructure,
    IntMatrix,
    Lattice,
    hnf,
    snf,
)
from nilcert.nilpotent2 import (
    NilSublattice,
    TwoStepLattice,
    hbar1,
    heisenberg_witness,
    nil_commutator,
    subnormal_series,
)
from nilcert.semidirect import (
    SemidirectGroup,
    SemidirectLattice,
    intermediates,
    normalizer,
    sol3_gamma,
    sol3_tower,
)
from semidirect_oracle import sol3_intermediate_forms


def _report(name, detail=""):
    print("[acceptance] %s: PASS %s" % (name, detail))


def test_sol3_tower_levels():
    """Sol3 tower: normalizers, [2,2] quotients, 4^k index, min length k."""
    start = time.monotonic()
    gamma = sol3_gamma(0)
    for k in range(1, 9):
        cert = sol3_tower(k)
        assert cert.total_index == 4**k
        assert cert.min_length == k
        assert len(cert.chain) == k
        for level in cert.chain:
            assert level.quotient == AbelianStructure(0, (2, 2))
            assert level.normality_verified
        # independent spot re-verification at this k
        assert normalizer(gamma, sol3_gamma(k)) == sol3_gamma(k - 1)
        assert verify_certificate(cert) is True
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, "tower suite took %.2fs" % elapsed
    _report("sol3 tower k=1..8", "(%.2fs)" % elapsed)


def test_intermediate_enumeration():
    """Exactly the three canonical intermediate forms at each level."""
    for k in range(1, 6):
        got = intermediates(sol3_gamma(k - 1), sol3_gamma(k))
        want = sorted(
            sol3_intermediate_forms(k), key=lambda s: (s.m, s.L.basis.data)
        )
        assert len(got) == 3
        got_bytes = [canonical_json(s.to_json()) for s in got]
        want_bytes = [canonical_json(s.to_json()) for s in want]
        assert got_bytes == want_bytes
    _report("intermediate enumeration k=1..5")


def test_heisenberg_witnesses():
    """Witness chains [p^a] then [p, p], re-verified from scratch."""
    start = time.monotonic()
    for k, p, a in itertools.product((1, 2), (3, 5), (2, 3)):
        cert = heisenberg_witness(k, p, a)
        assert [l.quotient for l in cert.chain] == [
            AbelianStructure(0, (p**a,)),
            AbelianStructure(0, (p, p)),
        ]
        assert verify_certificate(cert) is True
        assert verify_certificate(cert.to_json_dict()) is True
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, "witness suite took %.2fs" % elapsed
    _report("heisenberg witnesses", "(%.2fs)" % elapsed)


def test_discsym2_upper_bounds():
    """(1,2) Heisenberg, (3,0) torus, (0,0) Sol3, (2,0) Klein x circle."""
    for k in range(1, 11):
        assert discsym2_upper(TwoStepLattice.heisenberg(k)).as_pair() == (1, 2)
    assert discsym2_upper(TwoStepLattice.free_abelian(3, 0)).as_pair() == (3, 0)
    assert discsym2_upper(sol3_gamma(0)).as_pair() == (0, 0)
    K = SemidirectGroup(IntMatrix([[-1, 0], [0, 1]]))
    assert discsym2_upper(
        SemidirectLattice(K, Lattice.standard(2), 1)
    ).as_pair() == (2, 0)
    _report("disc-sym_2 upper bounds")


def test_series_lemma_random_sublattices():
    """Random Heisenberg-type box subgroups: 2-layer abelian chains within
    the rank bounds, order product equal to the index."""
    start = time.monotonic()
    rng = random.Random(60902)
    checked = 0
    while checked < 120:
        k = rng.randint(1, 5)
        G = TwoStepLattice.heisenberg(k)
        rows = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(2)]
        M = IntMatrix(rows)
        det = abs(linalg_oracle.det(M))
        if det == 0 or det > 60:
            continue
        U = Lattice.from_rows(2, rows)
        betas = [
            G.beta(ru, rv)[0]
            for ru in U.basis.data
            for rv in U.basis.data
        ]
        g = 0
        for x in betas:
            g = math.gcd(g, x)
        divisors = [d for d in range(2, (g or 64) + 1) if g % d == 0] if g else list(range(2, 65))
        if det == 1 or not divisors:
            continue
        w = rng.choice(divisors)
        if det * w > 10**4:
            continue
        sub = NilSublattice(G, U, Lattice.scaled(1, w))
        index = sub.index_in_full()
        assert index == det * w
        cert = subnormal_series(G, sub)
        assert len(cert.chain) == 2
        prod = 1
        for level in cert.chain:
            assert level.quotient.is_finite
            prod *= level.index
        assert prod == index == cert.total_index
        assert cert.chain[0].quotient.rank() <= 1  # f = 1
        assert cert.chain[1].quotient.rank() <= 2  # b = 2
        assert verify_certificate(cert) is True
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, "series suite took %.2fs" % elapsed
    _report("series lemma on %d random sublattices" % checked, "(%.2fs)" % elapsed)


def test_hbar1_heisenberg():
    """hbar1(Heisenberg(k)) = (Z/k)^2, cross-checked against an SNF of the
    commutator-image matrix assembled from actual group commutators."""
    for k in range(1, 11):
        got = hbar1(TwoStepLattice.heisenberg(k))
        want = AbelianStructure(0, ()) if k == 1 else AbelianStructure(0, (k, k))
        assert got == want
        # independent assembly through group arithmetic, then one SNF
        G = TwoStepLattice.heisenberg(k)
        basis = [G.element((1, 0), (0,)), G.element((0, 1), (0,))]
        image = IntMatrix(
            [
                [nil_commutator(basis[i], basis[j]).w[0] for j in range(2)]
                for i in range(2)
            ]
        )
        factors = tuple(d for d in snf(image).factors if d > 1)
        assert factors == got.torsion
    _report("hbar1(Heisenberg(k)) = (Z/k)^2 for k=1..10")


def _random_cohomology_instances(rng, needed):
    presentations = [
        (1, ("aa",)),          # Z/2
        (1, ("aaa",)),         # Z/3
        (1, ("aaaa",)),        # Z/4
        (1, ("aaaaaa",)),      # Z/6
        (1, ("aaaaaaaa",)),    # Z/8
        (2, ("aa", "bb", "abAB")),      # (Z/2)^2
        (2, ("aa", "bb", "ababab")),    # S3
        (2, ("aa", "bbbb", "abAB")),    # Z/2 x Z/4
        (2, ("aa", "bb", "abababab")),  # D4
        (2, ("aaaa", "aabb", "abaB")),  # Q8
    ]
    modules = [
        (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (12,), (16,),
        (2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (4, 4), (2, 2, 2),
    ]
    produced = []
    while len(produced) < needed:
        ngens, rels = presentations[rng.randrange(len(presentations))]
        torsion = modules[rng.randrange(len(modules))]
        module = AbelianStructure(0, torsion)
        dim = len(torsion)
        top = torsion[-1]
        mats = tuple(
            IntMatrix(
                [[rng.randrange(top) for _ in range(dim)] for _ in range(dim)]
            )
            for _ in range(ngens)
        )
        try:
            act = ModuleAction(ngens, rels, module, mats)
        except IllDefinedAction:
            continue
        produced.append(act)
    return produced


def test_cohomology_oracle_equivalence():
    """h1 agrees with the brute-force oracle on 200+ finite instances, plus
    the named sign-action computations."""
    start = time.monotonic()
    # named: H^1(Z/2, Z_sign) = Z/2, via the Z/4 truncation and directly
    sign_trunc = ModuleAction(
        1, ("aa",), AbelianStructure(0, (4,)), (IntMatrix([[-1]]),)
    )
    assert h1(sign_trunc) == AbelianStructure(0, (2,))
    assert h1_brute(sign_trunc) == AbelianStructure(0, (2,))
    sign_full = ModuleAction(1, ("aa",), AbelianStructure(1, ()), (IntMatrix([[-1]]),))
    assert h1(sign_full) == AbelianStructure(0, (2,))
    zspace = z1(sign_full)
    assert zspace.structure == AbelianStructure(1, ())
    bspace = b1(sign_full)
    assert bspace.structure == AbelianStructure(1, ())
    assert bspace.basis[0][0] in ((2,), (-2,))

    rng = random.Random(271828)
    instances = _random_cohomology_instances(rng, 200)
    for act in instances:
        assert h1(act) == h1_brute(act), act.to_json()
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, "cohomology suite took %.2fs" % elapsed
    _report(
        "cohomology oracle equivalence on %d instances" % len(instances),
        "(%.2fs)" % elapsed,
    )


def test_exact_linalg_property_suite():
    """10^4 random matrices: Smith identity, unimodularity, divisibility,
    HNF canonicality under unimodular left factors."""
    start = time.monotonic()
    rng = random.Random(16180)

    def rand_unimodular(n):
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            q = rng.randint(-3, 3)
            for col in range(n):
                m[i][col] += q * m[j][col]
        if rng.random() < 0.5:
            m[0] = [-x for x in m[0]]
        return IntMatrix(m)

    for case in range(10_000):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        form = snf(A)
        assert form.U * A * form.V == form.S
        assert abs(linalg_oracle.det(form.U)) == 1
        assert abs(linalg_oracle.det(form.V)) == 1
        for a, b in zip(form.factors, form.factors[1:]):
            assert b % a == 0
        W = rand_unimodular(r)
        assert hnf(A).H == hnf(W * A).H
        V2 = rand_unimodular(c)
        assert snf(W * A * V2).factors == form.factors
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, "linalg suite took %.2fs" % elapsed
    _report("exact-linalg property suite (10^4 cases)", "(%.2fs)" % elapsed)


def test_scalar_bounds():
    """Minkowski values with 2^n n! divisibility, Euler log2 sandwich."""
    assert [minkowski_bound(n) for n in (1, 2, 3, 4)] == [2, 24, 48, 5760]
    for n in range(1, 5):
        assert minkowski_bound(n) % (2**n * math.factorial(n)) == 0
    for chi in range(1, 1025):
        r = euler_length_bound(chi)
        assert 2**r <= chi < 2 ** (r + 1)
    _report("scalar bounds (Minkowski, Euler)")
