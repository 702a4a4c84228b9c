import itertools
import json
import random
import time

import pytest
from hypothesis import event, given, settings, strategies as st

import nilpotent2_oracle as oracle
from linalg_oracle import det
from nilpotent2_oracle import box_normal_in, full_box, nil_inv, nil_power
from nilcert import linalg, nilpotent2
from nilcert.certificates import SeriesCertificate, canonical_json
from nilcert.invariants import verify_certificate
from nilcert.errors import (
    ClosureViolation,
    DimensionMismatch,
    InfiniteOrder,
    InvalidParameters,
    NilcertError,
    NotAbelianQuotient,
    NotAnAutomorphism,
    NotASubgroup,
    NotFiniteIndex,
    NotNormal,
)
from nilcert.linalg import (
    AbelianStructure,
    IntMatrix,
    Lattice,
    lattice_index,
    quotient_structure,
    snf,
)
from nilcert.nilpotent2 import (
    NilSublattice,
    RationalScale,
    TwoStepLattice,
    box_quotient,
    center,
    commutator_image_matrix,
    heisenberg_witness,
    hbar1,
    isolator,
    nil_commutator,
    nil_mul,
    nilpotency_check,
    series_levels,
    subnormal_series,
)


@st.composite
def degenerate_groups(draw):
    """Random alternating forms that all vanish on the last 1 to b basis
    vectors, in a basis changed by a random unimodular P: the forms P^T C P
    share a kernel of rank at least 1 that is not spanned by basis vectors."""
    f, b = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    used = b - draw(st.integers(1, b))
    P = [[int(i == j) for j in range(b)] for i in range(b)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, b - 1)), draw(st.integers(0, b - 1))
        if i != j:
            q = draw(st.integers(-3, 3))
            P[i] = [x + q * y for x, y in zip(P[i], P[j])]
    P = IntMatrix(P)
    forms = []
    for _ in range(f):
        c = [[0] * b for _ in range(b)]
        for i in range(used):
            for j in range(i + 1, used):
                c[i][j] = draw(st.integers(-4, 4))
                c[j][i] = -c[i][j]
        forms.append(P.transpose() * IntMatrix(c) * P)
    return TwoStepLattice(f, b, forms)


def heis_matrix(k, g):
    """Unitriangular 3x3 model of Heisenberg(k): the (2,3) slot carries k u2,
    so the (1,3) entry accumulates exactly k u1 u2' across products."""
    return IntMatrix([[1, g.u[0], g.w[0]], [0, 1, k * g.u[1]], [0, 0, 1]])


def from_heis_matrix(k, G, M):
    u2, rem = divmod(M.data[1][2], k)
    assert rem == 0
    return G.element((M.data[0][1], u2), (M.data[0][2],))


def rand_nil(rng, G, span=6):
    return G.element(
        tuple(rng.randint(-span, span) for _ in range(G.b)),
        tuple(rng.randint(-span, span) for _ in range(G.f)),
    )


class TestGroupLaw:
    def test_defining_relation(self):
        H = TwoStepLattice.heisenberg(1)
        x = H.element((1, 0), (0,))
        y = H.element((0, 1), (0,))
        assert nil_mul(x, y).w[0] - nil_mul(y, x).w[0] == 1

    def test_identity(self):
        H = TwoStepLattice.heisenberg(3)
        g = H.element((2, -1), (5,))
        assert nil_mul(g, H.identity()) == g

    def test_commutator_matches_matrix_model(self):
        # oracle: 3x3 unitriangular model with z-exponent scaled by k
        for k in (1, 2, 3):
            H = TwoStepLattice.heisenberg(k)
            g = H.element((1, 0), (0,))
            h = H.element((0, 1), (0,))
            got = nil_commutator(g, h)
            A, B = heis_matrix(k, g), heis_matrix(k, h)
            Ai = A.power(-1)
            Bi = B.power(-1)
            want = from_heis_matrix(k, H, A * B * Ai * Bi)
            assert got == want
            if k == 2:
                assert got == H.element((0, 0), (2,))

    def test_mul_matches_matrix_model_randomized(self):
        rng = random.Random(99)
        for k in (1, 2, 5):
            H = TwoStepLattice.heisenberg(k)
            for _ in range(300):
                g, h = rand_nil(rng, H), rand_nil(rng, H)
                want = from_heis_matrix(k, H, heis_matrix(k, g) * heis_matrix(k, h))
                assert nil_mul(g, h) == want

    def test_associativity_random_triples(self):
        rng = random.Random(4)
        groups = [
            TwoStepLattice.heisenberg(2),
            TwoStepLattice(
                2,
                3,
                [
                    IntMatrix([[0, 1, 0], [-1, 0, 2], [0, -2, 0]]),
                    IntMatrix([[0, 0, -1], [0, 0, 0], [1, 0, 0]]),
                ],
            ),
        ]
        for G in groups:
            for _ in range(5000):
                a, b, c = (rand_nil(rng, G, span=4) for _ in range(3))
                assert nil_mul(nil_mul(a, b), c) == nil_mul(a, nil_mul(b, c))
            for _ in range(300):
                a = rand_nil(rng, G)
                assert nil_mul(a, nil_inv(a)).is_identity()

    def test_commutators_are_central_and_match_forms(self):
        rng = random.Random(8)
        G = TwoStepLattice(
            2,
            3,
            [
                IntMatrix([[0, 3, 1], [-3, 0, 0], [-1, 0, 0]]),
                IntMatrix([[0, 0, 0], [0, 0, 5], [0, -5, 0]]),
            ],
        )
        basis = [G.element(tuple(1 if i == j else 0 for j in range(3)), (0, 0)) for i in range(3)]
        for i in range(3):
            for j in range(3):
                c = nil_commutator(basis[i], basis[j])
                assert c.u == (0, 0, 0)
                assert c.w == tuple(C.data[i][j] for C in G.forms)
        for _ in range(500):
            g, h, k2 = (rand_nil(rng, G, span=4) for _ in range(3))
            c = nil_commutator(g, h)
            # the closed form C(u, u') against the group law
            assert c == nil_mul(nil_mul(nil_mul(g, h), nil_inv(g)), nil_inv(h))
            assert nil_commutator(c, k2).is_identity()

    def test_power_formula(self):
        rng = random.Random(12)
        G = TwoStepLattice.heisenberg(3)
        for _ in range(200):
            g = rand_nil(rng, G)
            x = rng.randint(-6, 6)
            acc = G.identity()
            for _ in range(abs(x)):
                acc = nil_mul(acc, g if x > 0 else nil_inv(g))
            assert nil_power(g, x) == acc

    def test_alternating_enforced(self):
        with pytest.raises(InvalidParameters):
            TwoStepLattice(1, 2, [IntMatrix([[0, 1], [1, 0]])])
        with pytest.raises(InvalidParameters, match="alternating"):
            TwoStepLattice(1, 2, [IntMatrix([[1, 1], [-1, 0]])])
        # Square in its rows only: alternating on the columns it has.
        with pytest.raises(DimensionMismatch, match="forms must be 2 x 2"):
            TwoStepLattice(1, 2, [IntMatrix([[0, 1, 0], [-1, 0, 0]])])
        # Square in its columns only: zero, so alternating on the rows it has.
        with pytest.raises(DimensionMismatch, match="forms must be 2 x 2"):
            TwoStepLattice(1, 2, [IntMatrix([[0, 0]])])

    @pytest.mark.parametrize("f, b", [(0, -3), (-1, 2), (-1, -1)], ids=["b-3", "f-1", "both"])
    def test_negative_ranks_rejected_first(self, f, b):
        # Before the form count is compared, which would name -1 forms.
        with pytest.raises(InvalidParameters, match="ranks f and b must be >= 0"):
            TwoStepLattice(f, b, [])


class TestCenter:
    def test_heisenberg_rank_one(self):
        for k in range(1, 5):
            rank, kernel = center(TwoStepLattice.heisenberg(k))
            assert rank == 1 and kernel.rank == 0

    def test_abelian(self):
        assert center(TwoStepLattice.free_abelian(2, 3))[0] == 5

    def test_degenerate_block(self, monkeypatch):
        # A joint kernel costs the rank pass, one elimination of
        # [C_1 ... C_f | I] with pivots in its left part, and the Hermite
        # span of the kernel rows; no transform is built.
        J = IntMatrix(
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        calls = count_calls(monkeypatch, [(linalg, "_echelon"), (linalg, "hnf")])
        rank, kernel = center(TwoStepLattice(1, 4, [J]))
        assert calls == {"_echelon": 3, "hnf": 0}
        assert rank == 3
        assert kernel == Lattice.from_rows(4, [[0, 0, 1, 0], [0, 0, 0, 1]])

    def test_center_commutes_with_generators(self):
        G = TwoStepLattice(
            1, 3, [IntMatrix([[0, 2, 0], [-2, 0, 0], [0, 0, 0]])]
        )
        _, kernel = center(G)
        basis = [G.element(tuple(1 if i == j else 0 for j in range(3)), (0,)) for i in range(3)]
        for row in kernel.basis.data:
            z = G.element(row, (0,))
            for g in basis:
                assert nil_mul(z, g) == nil_mul(g, z)

    def test_nondegenerate_centre_builds_no_transform(self, monkeypatch):
        # Heisenberg(1) has no joint kernel: one rank pass, no Hermite
        # transform and no kernel basis.
        G = TwoStepLattice.heisenberg(1)
        calls = count_calls(
            monkeypatch, [(linalg, "_echelon"), (linalg, "hnf"), (linalg, "left_kernel")]
        )
        assert center(G) == (1, Lattice.zero(2))
        assert calls == {"_echelon": 1, "hnf": 0, "left_kernel": 0}

    @settings(max_examples=200, deadline=None)
    @given(degenerate_groups())
    def test_degenerate_centre_matches_the_spanned_kernel(self, G):
        # The kernel read off [C_1 ... C_f | I] against the Hermite span of
        # the rows of the oracle's hnf transform.
        assert center(G) == oracle.center(G)


class TestIsolator:
    def test_heisenberg2(self):
        sqrt, l = isolator(TwoStepLattice.heisenberg(2))
        # oracle: saturate span{2} inside Z
        assert sqrt == Lattice.standard(1)
        assert l == 0

    def test_abelian_no_base(self):
        sqrt, l = isolator(TwoStepLattice.free_abelian(2, 0))
        assert sqrt.rank == 0 and l == 2

    def test_mixed_forms(self):
        G = TwoStepLattice(
            2, 2, [IntMatrix([[0, 1], [-1, 0]]), IntMatrix.zeros(2, 2)]
        )
        sqrt, l = isolator(G)
        assert sqrt == Lattice.from_rows(2, [[1, 0]])
        assert l == 1

    def test_quotient_by_isolator_torsion_free(self):
        from nilcert.linalg import quotient_structure

        rng = random.Random(10)
        for _ in range(50):
            b = rng.randint(1, 3)
            f = rng.randint(1, 3)
            forms = []
            for _ in range(f):
                entries = [[0] * b for _ in range(b)]
                for i in range(b):
                    for j in range(i + 1, b):
                        entries[i][j] = rng.randint(-4, 4)
                        entries[j][i] = -entries[i][j]
                forms.append(IntMatrix(entries))
            G = TwoStepLattice(f, b, forms)
            sqrt, l = isolator(G)
            # Z^f / sqrt is torsion-free
            q = quotient_structure(Lattice.standard(f), sqrt)
            assert q.torsion == ()
            # sqrt contains the commutator value lattice with finite quotient
            values = Lattice.from_rows(
                f,
                [
                    tuple(C.data[i][j] for C in G.forms)
                    for i in range(b)
                    for j in range(i + 1, b)
                ],
            )
            assert values.is_sublattice_of(sqrt)
            assert quotient_structure(sqrt, values).free_rank == 0
            rank, _ = center(G)
            assert l == rank - sqrt.rank


class TestHbar1:
    def test_heisenberg_values(self):
        for k in range(1, 11):
            got = hbar1(TwoStepLattice.heisenberg(k))
            want = AbelianStructure(0, ()) if k == 1 else AbelianStructure(0, (k, k))
            assert got == want
            assert (got.order() or 1) == k * k

    def test_zero_forms_free(self):
        assert hbar1(TwoStepLattice.free_abelian(2, 3)) == AbelianStructure(6, ())

    def test_independent_assembly(self):
        # assemble the image matrix from actual group commutators
        for k in (2, 3, 6):
            G = TwoStepLattice.heisenberg(k)
            basis = [G.element((1, 0), (0,)), G.element((0, 1), (0,))]
            rows = []
            for i in range(2):
                row = []
                for j in range(2):
                    row.append(nil_commutator(basis[i], basis[j]).w[0])
                rows.append(row)
            M = IntMatrix(rows)
            assert M == commutator_image_matrix(G)
            factors = snf(M).factors
            assert [d for d in factors if d > 1] == [k, k]


class TestBoxSubgroups:
    def test_closure_violation(self):
        H = TwoStepLattice.heisenberg(1)
        with pytest.raises(ClosureViolation):
            NilSublattice(H, Lattice.standard(2), Lattice.scaled(1, 2))

    def test_closure_ok_when_w_contains_beta(self):
        H = TwoStepLattice.heisenberg(1)
        sub = NilSublattice(H, Lattice.scaled(2, 2), Lattice.scaled(1, 4))
        assert sub.index_in_full() == 16

    def test_box_normality(self):
        H = TwoStepLattice.heisenberg(1)
        gam = NilSublattice(H, Lattice.scaled(2, 2), Lattice.scaled(1, 4))
        lam1 = NilSublattice(H, Lattice.scaled(2, 2), Lattice.standard(1))
        assert box_normal_in(gam, lam1)
        assert box_normal_in(gam, full_box(H)) is False

    def test_box_quotient_example(self):
        H = TwoStepLattice.heisenberg(1)
        gam = NilSublattice(H, Lattice.scaled(2, 2), Lattice.scaled(1, 4))
        lam1 = NilSublattice(H, Lattice.scaled(2, 2), Lattice.standard(1))
        assert box_quotient(lam1, gam) == AbelianStructure(0, (4,))
        assert box_quotient(full_box(H), lam1) == AbelianStructure(0, (2, 2))


def brute_box_quotient_structure(P, Q):
    """Independent oracle: enumerate P/Q coset representatives explicitly,
    add them through the group law, and read off the abelian invariants by
    p-power torsion counting (no Smith form involved)."""
    from itertools import product as iproduct

    from nilcert.linalg import quotient_with_generators

    G = P.parent

    def canonical(u, w):
        u_red = Q.U.reduce(u)
        shift = G.beta(u, tuple(a - b for a, b in zip(u_red, u)))
        w_adj = tuple(a + s for a, s in zip(w, shift))
        return (u_red, Q.W.reduce(w_adj))

    _, ugens = quotient_with_generators(P.U, Q.U)
    _, wgens = quotient_with_generators(P.W, Q.W)
    uranges = [range(d) for d, _ in ugens if d]
    uvecs = [v for d, v in ugens if d]
    wranges = [range(d) for d, _ in wgens if d]
    wvecs = [v for d, v in wgens if d]
    elements = set()
    for ucombo in iproduct(*uranges):
        u = tuple(
            sum(c * v[i] for c, v in zip(ucombo, uvecs)) for i in range(G.b)
        )
        for wcombo in iproduct(*wranges):
            w = tuple(
                sum(c * v[i] for c, v in zip(wcombo, wvecs)) for i in range(G.f)
            )
            elements.add(canonical(u, w))
    order = len(elements)

    def add(x, y):
        gx = G.element(*x)
        gy = G.element(*y)
        z = nil_mul(gx, gy)
        return canonical(z.u, z.w)

    def power(x, n):
        acc = canonical((0,) * G.b, (0,) * G.f)
        for _ in range(n):
            acc = add(acc, x)
        return acc

    zero = canonical((0,) * G.b, (0,) * G.f)
    torsion = []
    rest = order
    p = 2
    partitions = {}
    while rest > 1:
        if rest % p == 0:
            counts = [1]
            j = 1
            while True:
                killed = sum(1 for x in elements if power(x, p**j) == zero)
                if killed == counts[-1]:
                    break
                counts.append(killed)
                j += 1
            n_ge = []
            for i in range(1, len(counts)):
                ratio = counts[i] // counts[i - 1]
                e = 0
                while ratio > 1:
                    ratio //= p
                    e += 1
                n_ge.append(e)
            parts = []
            for i in range(1, len(n_ge) + 1):
                exact = n_ge[i - 1] - (n_ge[i] if i < len(n_ge) else 0)
                parts.extend([i] * exact)
            partitions[p] = sorted(parts, reverse=True)
            while rest % p == 0:
                rest //= p
        p += 1
    if not partitions:
        return AbelianStructure(0, ())
    width = max(len(v) for v in partitions.values())
    factors = []
    for slot in range(width):
        d = 1
        for q, parts in partitions.items():
            if slot < len(parts):
                d *= q ** parts[slot]
        factors.append(d)
    return AbelianStructure(0, tuple(sorted(d for d in factors if d > 1)))


class TestBoxQuotientOracle:
    def test_against_brute_enumeration(self):
        rng = random.Random(555)
        cases = 0
        while cases < 25:
            k = rng.randint(1, 3)
            G = TwoStepLattice.heisenberg(k)
            rows = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
            M = IntMatrix(rows)
            if not (0 < abs(det(M)) <= 8):
                continue
            U = Lattice.from_rows(2, rows)
            betas = [G.beta(a, b)[0] for a in U.basis.data for b in U.basis.data]
            g = 0
            for x in betas:
                g = __import__("math").gcd(g, x)
            w = rng.choice([d for d in range(1, 13) if (g % d == 0 if g else True)])
            Q = NilSublattice(G, U, Lattice.scaled(1, w))
            P = full_box(G)
            if not box_normal_in(Q, P):
                continue
            try:
                got = box_quotient(P, Q)
            except Exception:
                continue
            want = brute_box_quotient_structure(P, Q)
            assert got == want, (k, rows, w, got, want)
            cases += 1


class TestSubnormalSeries:
    def test_heisenberg_example(self):
        H = TwoStepLattice.heisenberg(1)
        gam = NilSublattice(H, Lattice.scaled(2, 2), Lattice.scaled(1, 4))
        cert = subnormal_series(H, gam)
        assert cert.total_index == 16
        assert [l.quotient for l in cert.chain] == [
            AbelianStructure(0, (4,)),
            AbelianStructure(0, (2, 2)),
        ]
        assert cert.chain[0].central is True
        assert cert.structural_ok()

    def test_json_dict_shares_no_container_with_the_certificate(self):
        # Editing the returned JSON must leave the certificate as it was.
        H = TwoStepLattice.heisenberg(1)
        cert = subnormal_series(H, NilSublattice(H, Lattice.scaled(2, 2), Lattice.scaled(1, 4)))
        d = cert.to_json_dict()
        d["levels"][0]["subgroup"]["W"] = [["2"]]
        d["group"]["gamma"]["U"][0][0] = "6"
        assert verify_certificate(cert)
        witness = heisenberg_witness(1, 3, 2)
        d = witness.to_json_dict()
        d["profile"].append(9)
        d["group"]["witness"]["k"] = "7"
        assert verify_certificate(witness)

    def test_parsed_certificate_shares_no_container_with_its_json(self):
        # Editing the parsed JSON must leave the certificate read from it as it was.
        H = TwoStepLattice.heisenberg(1)
        d = subnormal_series(H, NilSublattice(H, Lattice.scaled(2, 2), Lattice.scaled(1, 4))).to_json_dict()
        cert = SeriesCertificate.from_json_dict(d)
        d["levels"][0]["subgroup"]["W"] = [["2"]]
        d["group"]["gamma"]["U"][0][0] = "6"
        assert verify_certificate(cert)

    def test_trivial_series(self):
        H = TwoStepLattice.heisenberg(1)
        cert = subnormal_series(H, full_box(H))
        assert cert.chain == () and cert.total_index == 1 and cert.min_length == 0

    def test_abelian_collapse(self):
        Z3 = TwoStepLattice.free_abelian(1, 2)
        sub = NilSublattice(Z3, Lattice.scaled(2, 2), Lattice.scaled(1, 2))
        cert = subnormal_series(Z3, sub)
        assert len(cert.chain) == 1
        assert cert.chain[0].quotient == AbelianStructure(0, (2, 2, 2))

    def test_infinite_index_rejected(self):
        H = TwoStepLattice.heisenberg(1)
        sub = NilSublattice(H, Lattice.from_rows(2, [[2, 0]]), Lattice.standard(1))
        with pytest.raises(NotFiniteIndex):
            subnormal_series(H, sub)

    def test_rank_bounds_on_degenerate_forms(self):
        # rank-2 kernel: center rank f + 2, layers must respect the bounds
        J = IntMatrix(
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        G = TwoStepLattice(1, 4, [J])
        sub = NilSublattice(G, Lattice.scaled(4, 2), Lattice.scaled(1, 4))
        cert = subnormal_series(G, sub)
        crank, kernel = center(G)
        a1, a2 = cert.chain[0].quotient, cert.chain[1].quotient
        assert a1.rank() <= crank
        assert a2.rank() <= G.b - kernel.rank
        prod = 1
        for l in cert.chain:
            prod *= l.index
        assert prod == cert.total_index == sub.index_in_full()


# Checks on arguments of public names (``nilcert.__all__``) that no JSON or
# argv reaches: a Python caller's mistake raises an error naming the fault.
@pytest.mark.parametrize("call, error, message", [
    (lambda: TwoStepLattice.heisenberg(0), InvalidParameters, "heisenberg parameter k must be >= 1"),
    (lambda: RationalScale((3,), (3,)).apply(TwoStepLattice.heisenberg(1)),
     DimensionMismatch, "denominator counts must match (b, f)"),
    (lambda: RationalScale((2, 2), (1,)).apply(TwoStepLattice.heisenberg(1)),
     InvalidParameters, "overlattice form entry 1/4 is not integral"),
    (lambda: nilpotency_check(TwoStepLattice.heisenberg(1), IntMatrix.identity(1), IntMatrix.identity(1), 1),
     DimensionMismatch, "automorphism blocks must be b x b and f x f"),
    # One dimension of one block wrong at a time.
    (lambda: nilpotency_check(TwoStepLattice.heisenberg(1), IntMatrix([[1, 0]]), IntMatrix.identity(1), 1),
     DimensionMismatch, "automorphism blocks must be b x b and f x f"),
    (lambda: nilpotency_check(TwoStepLattice.heisenberg(1), IntMatrix([[1], [0]]), IntMatrix.identity(1), 1),
     DimensionMismatch, "automorphism blocks must be b x b and f x f"),
    (lambda: nilpotency_check(TwoStepLattice.heisenberg(1), IntMatrix.identity(2), IntMatrix([[1], [0]]), 1),
     DimensionMismatch, "automorphism blocks must be b x b and f x f"),
    (lambda: TwoStepLattice.heisenberg(1).element((0,), (0,)),
     DimensionMismatch, "coordinate lengths must be (b, f) = (2, 1)"),
    (lambda: TwoStepLattice.from_json(["type"]), InvalidParameters, "not a twostep group description"),
], ids=["heisenberg-k-0", "scale-counts", "scale-integrality", "nilpotency-blocks",
        "nilpotency-p-rows", "nilpotency-p-cols", "nilpotency-q-rows", "element-u-length",
        "from-json-of-a-list"])
def test_public_argument_checks_name_the_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)


@pytest.mark.parametrize("u, w, identity", [((0, 0), (0,), True), ((1, 0), (0,), False), ((0, 0), (1,), False)])
def test_an_element_is_the_identity_when_both_parts_are_zero(u, w, identity):
    assert TwoStepLattice.heisenberg(1).element(u, w).is_identity() is identity


def test_box_subgroup_repr():
    sub = NilSublattice(TwoStepLattice.heisenberg(1), Lattice.scaled(2, 2), Lattice.scaled(1, 4))
    assert repr(sub) == "NilSublattice(U=%r, W=%r)" % (Lattice.scaled(2, 2), Lattice.scaled(1, 4))


class TestRationalScale:
    def test_integrality_enforced(self):
        H = TwoStepLattice.heisenberg(1)
        with pytest.raises(InvalidParameters):
            RationalScale((3, 3), (3,)).apply(H)

    def test_scaled_forms(self):
        H = TwoStepLattice.heisenberg(1)
        scaled = RationalScale((3, 3), (9,)).apply(H)
        assert scaled.forms[0] == IntMatrix([[0, 1], [-1, 0]])

    def test_embedded_sublattice_closure(self):
        H = TwoStepLattice.heisenberg(2)
        scale = RationalScale((5, 5), (25,))
        ambient = scale.apply(H)
        sub = scale.embedded_sublattice(ambient)
        assert sub.U == Lattice.scaled(2, 5)
        assert sub.W == Lattice.scaled(1, 25)


class TestHeisenbergWitness:
    @pytest.mark.parametrize("k,p,a", [(1, 3, 2), (1, 5, 2), (2, 3, 3)])
    def test_quotients(self, k, p, a):
        cert = heisenberg_witness(k, p, a)
        assert [l.quotient for l in cert.chain] == [
            AbelianStructure(0, (p**a,)),
            AbelianStructure(0, (p, p)),
        ]
        assert cert.chain[0].central is True
        assert cert.chain[1].central is False
        assert cert.total_index == p ** (a + 2)
        assert json.loads(cert.group_ref)["witness"]["profile"] == [1, 2]

    def test_rank_sum_is_three(self):
        cert = heisenberg_witness(1, 3, 2)
        assert sum(l.quotient.rank() for l in cert.chain) == 3

    def test_a1_rejected(self):
        with pytest.raises(InvalidParameters):
            heisenberg_witness(1, 3, 1)

    def test_nonprime_rejected(self):
        with pytest.raises(InvalidParameters):
            heisenberg_witness(1, 4, 2)


class TestNilpotencyCheck:
    def test_identity_automorphism(self):
        H = TwoStepLattice.heisenberg(1)
        assert nilpotency_check(H, IntMatrix.identity(2), IntMatrix.identity(1), 1)

    def test_minus_one_on_base(self):
        # P = -Id preserves the form (C(-u, -u') = C(u, u')) but acts
        # nontrivially on Z^b, so the extension cannot be nilpotent
        H = TwoStepLattice.heisenberg(1)
        P = IntMatrix.identity(2).scale(-1)
        assert nilpotency_check(H, P, IntMatrix.identity(1), 2) is False

    def test_shear_into_isolator(self):
        # C2 = 0: the second central direction is the Z^l part; a finite-order
        # Q fixing Z^b and shifting only along the isolator passes
        G = TwoStepLattice(
            2, 2, [IntMatrix([[0, 1], [-1, 0]]), IntMatrix.zeros(2, 2)]
        )
        Q = IntMatrix([[1, 0], [0, 1]])
        assert nilpotency_check(G, IntMatrix.identity(2), Q, 1)

    def test_form_compatibility_enforced(self):
        H = TwoStepLattice.heisenberg(1)
        with pytest.raises(NotAnAutomorphism):
            nilpotency_check(H, IntMatrix.identity(2), IntMatrix([[-1]]), 2)

    def test_order_guardrail(self):
        H = TwoStepLattice.heisenberg(1)
        with pytest.raises(InvalidParameters):
            nilpotency_check(H, IntMatrix.identity(2), IntMatrix.identity(1), 0)
        # unipotent shear is form-compatible but has infinite order
        P = IntMatrix([[1, 1], [0, 1]])
        with pytest.raises(InfiniteOrder):
            nilpotency_check(H, P, IntMatrix.identity(1), 2)

    def test_hyperbolic_claim_fails_without_the_exact_power(self):
        # P^(10^7) has entries of about seven million bits; the bounded power
        # stops at the first square whose trace leaves [-2, 2]
        H = TwoStepLattice.heisenberg(1)
        start = time.perf_counter()
        with pytest.raises(InfiniteOrder):
            nilpotency_check(H, IntMatrix([[2, 1], [1, 1]]), IntMatrix([[1]]), 10**7)
        assert time.perf_counter() - start < 1.0

    def test_inner_invariance(self):
        # inner automorphisms act trivially on Z^b + Z^l: conjugating the
        # pair by one changes nothing, checked here on the matrix level
        H = TwoStepLattice.heisenberg(2)
        assert nilpotency_check(H, IntMatrix.identity(2), IntMatrix.identity(1), 1)


# ---------------------------------------------------------------------------
# The Gram-table box layer against the dense forms and the group law
# ---------------------------------------------------------------------------


def dense_beta(G, u, v):
    """beta(u, v)_l = u^T T_l v with T_l the strict upper part of C_l."""
    return tuple(
        sum(u[i] * C.data[i][j] * v[j] for i in range(G.b) for j in range(i + 1, G.b))
        for C in G.forms
    )


def dense_cvalue(G, u, v):
    return tuple(a - b for a, b in zip(dense_beta(G, u, v), dense_beta(G, v, u)))


def collected_box_quotient(P, Q):
    """P/Q with the checks in their defining order and Q's U rows multiplied
    out through nil_mul / nil_power, the way the group law gives them."""
    G = P.parent
    if not (Q.U.is_sublattice_of(P.U) and Q.W.is_sublattice_of(P.W)):
        raise NotASubgroup("oracle")
    if not all(Q.W.contains(dense_cvalue(G, a, b)) for a in P.U.basis.data for b in Q.U.basis.data):
        raise NotNormal("oracle")
    r, s = P.U.rank, P.W.rank
    relations = []
    for a, b in itertools.combinations(P.U.basis.data, 2):
        c = dense_cvalue(G, a, b)
        if not Q.W.contains(c):
            raise NotAbelianQuotient("oracle")
        relations.append([0] * r + list(P.W.coords_of(c)))
    gens = [G.element(row, (0,) * G.f) for row in P.U.basis.data]
    for qu in Q.U.basis.data:
        acc = G.identity()
        for gen, e in zip(gens, P.U.coords_of(qu)):
            acc = nil_mul(acc, nil_power(gen, e))
        assert acc.u == qu
        relations.append(list(P.U.coords_of(qu)) + list(P.W.coords_of([-a for a in acc.w])))
    for qw in Q.W.basis.data:
        relations.append([0] * r + list(P.W.coords_of(qw)))
    return quotient_structure(Lattice.standard(r + s), Lattice.from_rows(r + s, relations))


small = st.integers(-3, 3)


@st.composite
def two_step_lattices(draw):
    f, b = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    forms = []
    for _ in range(f):
        c = [[0] * b for _ in range(b)]
        for i in range(b):
            for j in range(i + 1, b):
                c[i][j] = draw(small)
                c[j][i] = -c[i][j]
        forms.append(IntMatrix(c))
    return TwoStepLattice(f, b, forms)


def rows(n, count):
    return st.lists(st.lists(small, min_size=n, max_size=n), min_size=0, max_size=count)


def closed_box(G, u_rows, w_rows):
    """U spanned by u_rows, W by beta(U, U) and w_rows: closed by construction."""
    U = Lattice.from_rows(G.b, u_rows)
    betas = [G.beta(a, c) for a in U.basis.data for c in U.basis.data]
    return NilSublattice(G, U, Lattice.from_rows(G.f, betas + w_rows))


@st.composite
def box_pairs(draw):
    """(P, Q): Q inside P (normal and abelian or not) or Q drawn on its own."""
    G = draw(two_step_lattices())
    P = closed_box(G, draw(rows(G.b, G.b + 1)), draw(rows(G.f, G.f)))
    if draw(st.booleans()):
        return P, closed_box(G, draw(rows(G.b, G.b + 1)), draw(rows(G.f, G.f)))
    # integer combinations of P's rows keep Q inside P
    u_rows = [_combine(c, P.U) for c in draw(rows(P.U.rank, G.b + 1))]
    w_rows = [_combine(c, P.W) for c in draw(rows(P.W.rank, G.f + 1))]
    return P, closed_box(G, u_rows, w_rows)


def _combine(coeffs, L):
    return [sum(c * row[k] for c, row in zip(coeffs, L.basis.data)) for k in range(L.ambient_dim)]


def vectors(n):
    return st.tuples(*[st.integers(-20, 20)] * n)


class TestGramTable:
    @settings(max_examples=200, deadline=None)
    @given(two_step_lattices(), st.data())
    def test_sparse_beta_and_cvalue_match_dense_forms(self, G, data):
        u, v = data.draw(vectors(G.b)), data.draw(vectors(G.b))
        assert G.beta(u, v) == dense_beta(G, u, v)
        assert G.cvalue(u, v) == dense_cvalue(G, u, v)
        # C(u, v) = u^T C_l v on the full alternating form
        assert G.cvalue(u, v) == tuple(
            sum(u[i] * C.data[i][j] * v[j] for i in range(G.b) for j in range(G.b)) for C in G.forms
        )

    def test_sparse_gram_table_matches_beta_entry_by_entry(self):
        # The table comes from the products u^T T_l, not from beta: random
        # alternating forms with f <= 3 and b <= 6 (f = 0 or b = 0 included)
        # and random U bases of any rank.
        rng = random.Random(83)
        for _ in range(300):
            f, b = rng.randint(0, 3), rng.randint(0, 6)
            forms = []
            for _ in range(f):
                c = [[0] * b for _ in range(b)]
                for i in range(b):
                    for j in range(i + 1, b):
                        c[i][j] = rng.choice([0, 0, rng.randint(-5, 5)])
                        c[j][i] = -c[i][j]
                forms.append(IntMatrix(c))
            G = TwoStepLattice(f, b, forms)
            U = Lattice.from_rows(b, [[rng.randint(-4, 4) for _ in range(b)] for _ in range(rng.randint(0, b + 1))])
            box = NilSublattice(G, U, Lattice.standard(f))
            basis = U.basis.data
            assert len(box.gram) == len(basis)
            for row, a in zip(box.gram, basis):
                assert len(row) == len(basis)
                for value, c in zip(row, basis):
                    assert type(value) is tuple and value == G.beta(a, c)

    @settings(max_examples=200, deadline=None)
    @given(two_step_lattices(), st.data())
    def test_collected_w_matches_the_group_law(self, G, data):
        box = closed_box(G, data.draw(rows(G.b, G.b + 1)), [])
        assert box.gram == tuple(
            tuple(dense_beta(G, a, c) for c in box.U.basis.data) for a in box.U.basis.data
        )
        x = data.draw(st.tuples(*[st.integers(-6, 6)] * box.U.rank))
        acc = G.identity()
        for row, e in zip(box.U.basis.data, x):
            acc = nil_mul(acc, nil_power(G.element(row, (0,) * G.f), e))
        assert box.collected_w(x) == acc.w

    @settings(max_examples=200, deadline=None)
    @given(two_step_lattices(), st.data())
    def test_index_in_full_matches_lattice_index(self, G, data):
        box = closed_box(G, data.draw(rows(G.b, G.b + 1)), data.draw(rows(G.f, G.f + 1)))
        iu = lattice_index(Lattice.standard(G.b), box.U)
        iw = lattice_index(Lattice.standard(G.f), box.W)
        want = None if iu is None or iw is None else iu * iw
        assert box.index_in_full() == want

    def test_index_in_full_rank_deficient(self):
        H = TwoStepLattice.heisenberg(1)
        assert NilSublattice(H, Lattice.from_rows(2, [[2, 0]]), Lattice.standard(1)).index_in_full() is None
        assert NilSublattice(H, Lattice.zero(2), Lattice.zero(1)).index_in_full() is None
        assert NilSublattice(TwoStepLattice.free_abelian(1, 2), Lattice.scaled(2, 3), Lattice.zero(1)).index_in_full() is None

    @settings(max_examples=300, deadline=None)
    @given(box_pairs())
    def test_box_quotient_matches_the_collection(self, pair):
        P, Q = pair
        try:
            want = collected_box_quotient(P, Q)
        except (NotASubgroup, NotNormal, NotAbelianQuotient) as exc:
            event(type(exc).__name__)
            with pytest.raises(type(exc)):
                box_quotient(P, Q)
        else:
            event("quotient")
            assert box_quotient(P, Q) == want

    def test_each_failure_is_named(self):
        H = TwoStepLattice.heisenberg(1)
        full = full_box(H)
        lam1 = NilSublattice(H, Lattice.scaled(2, 2), Lattice.standard(1))
        gam = NilSublattice(H, Lattice.scaled(2, 2), Lattice.scaled(1, 4))
        with pytest.raises(NotASubgroup):
            box_quotient(lam1, full)
        with pytest.raises(NotNormal):
            box_quotient(full, gam)
        # Q = 0 x 2Z is central, hence normal, but C(x, y) = 1 is not in 2Z
        with pytest.raises(NotAbelianQuotient):
            box_quotient(full, NilSublattice(H, Lattice.zero(2), Lattice.scaled(1, 2)))


# ---------------------------------------------------------------------------
# The box layer against the oracle that re-spans and re-validates
# ---------------------------------------------------------------------------


def outcome(build):
    """The canonical JSON of what ``build`` returns, or its error type and message."""
    try:
        out = build()
    except NilcertError as exc:
        return type(exc), str(exc)
    if isinstance(out, list):
        return [canonical_json(level.to_json_dict()) for level in out]
    return canonical_json(out.to_json_dict())


@st.composite
def series_groups(draw):
    """Heisenberg(k), or random alternating (2, 4) and (3, 6) forms.  Sparse
    entries, or a last basis vector left out of every form, make the centre
    larger than Z^f, so that K is not always zero."""
    kind = draw(st.sampled_from(["heisenberg", (2, 4), (3, 6)]))
    if kind == "heisenberg":
        return TwoStepLattice.heisenberg(draw(st.integers(1, 5)))
    f, b = kind
    entries = draw(st.sampled_from([small, st.sampled_from([0, 0, 0, 1, -2])]))
    used = b - draw(st.integers(0, 1))
    forms = []
    for _ in range(f):
        c = [[0] * b for _ in range(b)]
        for i in range(used):
            for j in range(i + 1, used):
                c[i][j] = draw(entries)
                c[j][i] = -c[i][j]
        forms.append(IntMatrix(c))
    return TwoStepLattice(f, b, forms)


def triangular_rows(draw, b):
    """Upper triangular rows with a positive diagonal, plus up to one more row:
    they span a U of full rank."""
    u_rows = [
        [draw(st.integers(1, 3)) if j == i else draw(small) if j > i else 0 for j in range(b)]
        for i in range(b)
    ]
    return u_rows + draw(rows(b, 1))


def closing_w(draw, H, U):
    """W spanned by beta(U, U) in H and d Z^f: U x W is closed, of finite index."""
    d = draw(st.integers(1, 4))
    betas = [H.beta(a, c) for a in U.basis.data for c in U.basis.data]
    return Lattice.from_rows(H.f, betas + [[d * (i == j) for j in range(H.f)] for i in range(H.f)])


@st.composite
def series_inputs(draw):
    """(G, H, U, W, max_index) for subnormal_series(G, U x W in H).

    The box is closed (W spanned by beta(U, U) and d Z^f), or has a U of
    lower rank, or a W drawn on its own (often not closed, or of infinite
    index), or a U of the wrong dimension, or lives in another group H."""
    G = draw(series_groups())
    shape = draw(st.sampled_from(["closed"] * 4 + ["thin", "free", "wide", "foreign"]))
    H = G
    if shape == "foreign":
        H = TwoStepLattice(G.f, G.b, [C.scale(2) for C in G.forms])
    u_rows = triangular_rows(draw, G.b)
    if shape == "thin":
        del u_rows[draw(st.integers(0, G.b - 1))]
    U = Lattice.from_rows(G.b, u_rows)
    if shape == "free":
        W = Lattice.from_rows(G.f, draw(rows(G.f, G.f + 1)))
    else:
        W = closing_w(draw, H, U)
    if shape == "wide":
        U = Lattice.from_rows(G.b + 1, [list(row) + [1] for row in u_rows])
    max_index = draw(st.one_of(st.none(), st.integers(1, 10**4)))
    return G, H, U, W, max_index


@st.composite
def finite_index_boxes(draw):
    """A closed box of finite index in a series_groups() lattice."""
    G = draw(series_groups())
    U = Lattice.from_rows(G.b, triangular_rows(draw, G.b))
    return NilSublattice(G, U, closing_w(draw, G, U))


def kernel_event(kernel, U):
    """Label which branch of series_levels forms Lambda_1."""
    event("K inside U" if kernel.is_sublattice_of(U) else "K not inside U")


def count_calls(monkeypatch, targets):
    """Count the calls of each (owner, name) in ``targets``, keyed by name."""
    calls = {name: 0 for _, name in targets}
    for owner, name in targets:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestBoxLayerOracle:
    @settings(max_examples=300, deadline=None)
    @given(series_inputs())
    def test_series_matches_the_respanning_oracle(self, inputs):
        G, H, U, W, max_index = inputs
        got = outcome(lambda: subnormal_series(G, NilSublattice(H, U, W), max_index))
        want = outcome(lambda: oracle.subnormal_series(G, oracle.checked_box(H, U, W), max_index))
        event(want[0].__name__ if isinstance(want, tuple) else "certificate")
        kernel = center(G)[1]
        event("centre u-rank %d" % kernel.rank)
        if U.ambient_dim == G.b:
            kernel_event(kernel, U)
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(finite_index_boxes())
    def test_series_levels_match_the_box_chain_oracle(self, sub):
        # Both levels, trivial ones included, against box_quotient and the
        # re-spanned centrality test on Gamma < (U + K) x Z^f < Z^b x Z^f.
        G = sub.parent
        kernel = center(G)[1]
        kernel_event(kernel, sub.U)
        lam1 = oracle.checked_box(G, sub.U.sum(kernel), Lattice.standard(G.f))
        want = oracle.box_chain([sub, lam1, full_box(G)], kernel)
        for n, level in enumerate(want, 1):
            if level.quotient.is_trivial:
                event("trivial level %d" % n)
        assert series_levels(sub, kernel) == want

    @settings(max_examples=300, deadline=None)
    @given(box_pairs())
    def test_box_chain_matches_the_respanning_oracle(self, pair):
        # The quotients of the chain Q < P < Z^b x Z^f, or the error that
        # names the first level to fail, type and message.
        P, Q = pair
        G = P.parent
        assert center(G) == oracle.center(G)
        full = full_box(G)

        def chain(quotient):
            try:
                return [quotient(P, Q), quotient(full, P)]
            except NilcertError as exc:
                return type(exc), str(exc)

        want = chain(oracle.box_quotient)
        event(want[0].__name__ if isinstance(want, tuple) else "chain")
        assert chain(box_quotient) == want

    @pytest.mark.parametrize("k, p, a", [(1, 2, 2), (2, 3, 2), (3, 5, 3), (1, 7, 3)])
    def test_witness_chain_matches_the_respanning_oracle(self, k, p, a):
        # The scaled forms are k p^(a-2), Gamma is pZ^2 x p^a Z inside them.
        ambient = TwoStepLattice.heisenberg(k * p ** (a - 2))
        gamma = oracle.checked_box(ambient, Lattice.scaled(2, p), Lattice.scaled(1, p**a))
        lam = oracle.checked_box(ambient, gamma.U, Lattice.standard(1))
        full = oracle.checked_box(ambient, Lattice.standard(2), Lattice.standard(1))
        cert = heisenberg_witness(k, p, a)
        assert json.loads(cert.group_ref)["forms"] == ambient.to_json()["forms"]
        want = outcome(lambda: oracle.box_chain([gamma, lam, full], oracle.center(ambient)[1]))
        assert outcome(lambda: list(cert.chain)) == want

    def test_series_reuses_its_spans(self, monkeypatch):
        # Gamma = 2Z^2 x 4Z in Heisenberg(1): one Hermite form for the kernel
        # of the forms, and none for its lattice, which is zero; Lambda_1
        # keeps Gamma's U basis, neither level re-spans lower.U + K (K = 0),
        # and no row the library computed is validated again.  Re-spanning
        # or re-validating anywhere in the series raises these counts.
        L = TwoStepLattice.heisenberg(1)
        sub = NilSublattice(L, Lattice.scaled(2, 2), Lattice.scaled(1, 4))
        calls = count_calls(monkeypatch, [(linalg, "_echelon"), (linalg, "_validated")])
        cert = subnormal_series(L, sub)
        assert [lvl.quotient.torsion for lvl in cert.chain] == [(4,), (2, 2)]
        assert calls == {"_echelon": 1, "_validated": 0}

    def test_box_from_json_spans_each_lattice_once(self, monkeypatch):
        # The JSON rows of U and W go straight into one Hermite elimination
        # each, with no validating constructor and no second pass.
        L = TwoStepLattice.heisenberg(1)
        want = NilSublattice(L, Lattice.scaled(2, 2), Lattice.scaled(1, 4))
        calls = count_calls(monkeypatch, [(linalg, "_echelon"), (linalg, "_validated")])
        assert NilSublattice.from_json(L, {"U": [["2", "0"], ["0", "2"]], "W": [["4"]]}) == want
        assert calls == {"_echelon": 2, "_validated": 0}

    def test_series_levels_in_closed_form(self, monkeypatch):
        # The same series, Gamma built inside the count: its Gram table comes
        # from sparse row products with no call to beta, and the two
        # quotients Z^f/W and Z^b/U are one Smith elimination each, with no
        # box quotient and no full box.
        calls = count_calls(
            monkeypatch,
            [(nilpotent2, "box_quotient"), (TwoStepLattice, "beta"), (linalg, "_smith")],
        )
        L = TwoStepLattice.heisenberg(1)
        cert = subnormal_series(L, NilSublattice(L, Lattice.scaled(2, 2), Lattice.scaled(1, 4)))
        assert [lvl.quotient.torsion for lvl in cert.chain] == [(4,), (2, 2)]
        assert calls == {"box_quotient": 0, "beta": 0, "_smith": 2}

    def test_series_spans_u_plus_k_once(self, monkeypatch):
        # [x1, x2] = z with x3 central, so K = Z e3 is not inside U = 2Z^3:
        # U + K is spanned once, for Lambda_1, and only level 1 needs a box
        # quotient.  The other three eliminations are the centre's: a rank
        # pass, the left part of [C | I] and the span of the kernel rows.
        L = TwoStepLattice(1, 3, [IntMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])])
        sub = NilSublattice(L, Lattice.scaled(3, 2), Lattice.scaled(1, 4))
        calls = count_calls(monkeypatch, [(linalg, "_echelon"), (nilpotent2, "box_quotient")])
        cert = subnormal_series(L, sub)
        assert [lvl.quotient.torsion for lvl in cert.chain] == [(2, 4), (2, 2)]
        assert [lvl.central for lvl in cert.chain] == [True, False]
        assert calls == {"_echelon": 4, "box_quotient": 1}
