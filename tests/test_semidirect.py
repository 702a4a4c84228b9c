import itertools
import random

import pytest
from hypothesis import event, example, given, settings, strategies as st

import semidirect_oracle as oracle
from linalg_oracle import det
from nilcert import linalg, semidirect
from nilcert.errors import (
    DimensionMismatch,
    InvalidParameters,
    NilcertError,
    NotAbelianQuotient,
    NotASubgroup,
    NotNormal,
    QuotientTooLarge,
    UnsupportedSubgroupShape,
)
from nilcert.invariants import discsym2_upper
from nilcert.linalg import AbelianStructure, IntMatrix, Lattice, lattice_index
from nilcert.nilpotent2 import TwoStepLattice, nilpotency_check
from nilcert.semidirect import (
    SemidirectGroup,
    SemidirectLattice,
    center_rank,
    conj,
    intermediates,
    inv,
    mul,
    normalizer,
    quotient,
    scaling_iso_check,
    scaling_map_check,
    sol3_gamma,
    sol3_group,
    sol3_tower,
)
from semidirect_oracle import commutator, contains, generators, group_index, sol3_intermediate_forms
from test_nilpotent2 import count_calls


@pytest.fixture(scope="module")
def G():
    return sol3_group()


def rand_unimodular(rng, n, steps=6):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return IntMatrix(m)


def rand_element(rng, G, span=12):
    return G.element(
        tuple(rng.randint(-span, span) for _ in range(G.n)), rng.randint(-5, 5)
    )


class TestGroupLaw:
    def test_mul_twists_by_holonomy(self, G):
        assert mul(G.element((0, 0), 1), G.element((1, 0), 0)) == G.element((5, 2), 1)

    def test_identity(self, G):
        g = G.element((3, -1), 4)
        assert mul(g, G.identity()) == g
        assert mul(G.identity(), g) == g

    def test_abelian_fiber(self, G):
        assert mul(G.element((1, 0), 0), G.element((0, 1), 0)) == G.element((1, 1), 0)

    def test_inverse_formula(self, G):
        # oracle: A^-1 = [[1, -2], [-2, 5]]; the product must be the identity
        g = G.element((1, 0), 1)
        assert inv(g) == G.element((-1, 2), -1)
        assert mul(g, inv(g)).is_identity()
        assert inv(G.identity()).is_identity()
        w = G.element((4, -7), 0)
        assert inv(w) == G.element((-4, 7), 0)

    def test_conjugation_closed_formula(self, G):
        # oracle: (Id - A)(1,0) = (-4,-2)
        got = conj(G.element((1, 0), 0), G.element((0, 0), 1))
        assert got == G.element((-4, -2), 1)
        assert conj(G.identity(), G.element((2, 3), -1)) == G.element((2, 3), -1)

    def test_conj_trivial_when_holonomy_trivial(self):
        T = SemidirectGroup(IntMatrix.identity(2))
        h = T.element((1, 2), 0)
        assert conj(T.element((5, 5), 3), h) == h

    def test_group_axioms_random_triples(self, G):
        rng = random.Random(2024)
        for _ in range(10_000):
            a, b, c = (rand_element(rng, G, span=6) for _ in range(3))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
        for _ in range(500):
            a = rand_element(rng, G)
            assert mul(a, inv(a)).is_identity()
            assert mul(inv(a), a).is_identity()

    def test_conj_equals_triple_product_sampled(self, G):
        # conj uses a closed formula; the group law is the oracle
        rng = random.Random(77)
        groups = [G] + [SemidirectGroup(rand_unimodular(rng, n)) for n in (1, 2, 2, 3, 3, 3)]
        for H in groups:
            for _ in range(400):
                g, h = rand_element(rng, H), rand_element(rng, H)
                assert conj(g, h) == mul(mul(g, h), inv(g))
                assert commutator(g, h) == mul(mul(mul(g, h), inv(g)), inv(h))


class TestLatticeSubgroups:
    def test_invariance_enforced(self, G):
        # A maps (0, 1) to (2, 1), which leaves 3Z x Z
        with pytest.raises(UnsupportedSubgroupShape):
            SemidirectLattice(G, Lattice.from_rows(2, [[3, 0], [0, 1]]), 1)

    def test_json_round_trip(self, G):
        S = sol3_gamma(2)
        assert SemidirectLattice.from_json(S.to_json()) == S

    def test_absent_sublattice_is_the_full_lattice(self):
        desc = sol3_gamma(0).to_json()
        del desc["sublattice"]
        assert SemidirectLattice.from_json(desc) == sol3_gamma(0)

    @pytest.mark.parametrize("value", [None, False, 0, {}, ""])
    def test_present_sublattice_must_be_rows(self, value):
        # these once read as "absent" and gave the full lattice
        desc = dict(sol3_gamma(0).to_json(), sublattice=value)
        with pytest.raises(InvalidParameters):
            SemidirectLattice.from_json(desc)
        with pytest.raises(UnsupportedSubgroupShape):
            SemidirectLattice.from_json(dict(desc, sublattice=[]))


class TestNormalizer:
    def test_paper_chain(self, G):
        gamma = sol3_gamma(0)
        for k in range(1, 9):
            assert normalizer(gamma, sol3_gamma(k)) == sol3_gamma(k - 1)

    def test_self_normalizing(self, G):
        gamma = sol3_gamma(0)
        assert normalizer(gamma, gamma) == gamma

    def test_intermediate_forms_normalize_one_level_up(self, G):
        # The three index-2 forms all have normalizer index 4 one level up;
        # conjugation by (Id - A) swaps the two product-shaped forms.
        gamma = sol3_gamma(0)
        for k in range(2, 5):
            lower = sol3_intermediate_forms(k, G)
            upper = sol3_intermediate_forms(k - 1, G)
            for S in lower:
                N = normalizer(gamma, S)
                assert N in upper
                assert group_index(N, S) == 4

    def test_requires_subgroup(self, G):
        with pytest.raises(NotASubgroup):
            normalizer(sol3_gamma(1), sol3_gamma(0))

    def test_all_s_reduction_matches_brute_force(self, G):
        # normalizer uses only s = 1; check (Id - A^s) v stays in L for all
        # |s| <= 6 whenever the s = 1 condition puts v in the normalizer.
        gamma = sol3_gamma(0)
        for k in (1, 2, 3):
            S = sol3_gamma(k)
            N = normalizer(gamma, S)
            rng = random.Random(k)
            for _ in range(50):
                coeffs = [rng.randint(-3, 3) for _ in range(2)]
                v = [0, 0]
                for cc, row in zip(coeffs, N.L.basis.data):
                    v[0] += cc * row[0]
                    v[1] += cc * row[1]
                for s in range(-6, 7):
                    As = G.power(s)
                    moved = (IntMatrix.identity(2) - As).apply(v)
                    assert S.L.contains(moved)

    def test_normalizer_contains_and_normalizes(self, G):
        gamma = sol3_gamma(0)
        for k in (1, 2):
            S = sol3_gamma(k)
            N = normalizer(gamma, S)
            assert S.is_subgroup_of(N)
            for g in generators(N):
                for s in generators(S):
                    assert contains(S, conj(g, s))
                    assert contains(S, conj(inv(g), s))


class TestQuotient:
    def test_paper_two_two(self, G):
        for k in range(1, 6):
            q = quotient(sol3_gamma(k - 1), sol3_gamma(k))
            assert q == AbelianStructure(0, (2, 2))

    def test_trivial(self, G):
        g = sol3_gamma(2)
        assert quotient(g, g).is_trivial

    def test_translation_kernel_is_normal(self, G):
        # L x| 3Z is the kernel of (v, t) -> t mod 3, hence normal with
        # quotient Z/3 even for the Sol3 holonomy.
        full = SemidirectLattice(G, Lattice.standard(2), 1)
        S = SemidirectLattice(G, Lattice.standard(2), 3)
        assert quotient(full, S) == AbelianStructure(0, (3,))

    def test_not_normal_detected(self, G):
        # Gamma_2 is not normal in Gamma: its normalizer is only Gamma_1
        full = SemidirectLattice(G, Lattice.standard(2), 1)
        with pytest.raises(NotNormal):
            quotient(full, sol3_gamma(2))

    def test_nonabelian_quotient_rejected(self):
        # swap holonomy: (2Z^2) x| 2Z is normal but the quotient is dihedral
        K = SemidirectGroup(IntMatrix([[0, 1], [1, 0]]))
        full = SemidirectLattice(K, Lattice.standard(2), 1)
        S = SemidirectLattice(K, Lattice.scaled(2, 2), 2)
        with pytest.raises(NotAbelianQuotient):
            quotient(full, S)


def brute_quotient_structure(G, S):
    """Independent oracle for quotient(G, S): enumerate canonical coset
    representatives (fiber reduced mod S.L, translation mod S.m), add them
    through the group law, and recover the invariant factors by p-power
    torsion counting."""
    import math as _math
    from itertools import product as iproduct

    from nilcert.linalg import quotient_with_generators

    parent = G.parent

    def canonical(v, t):
        return (S.L.reduce(v), t % S.m)

    _, fiber_gens = quotient_with_generators(G.L, S.L)
    ranges = [range(d) for d, _ in fiber_gens if d]
    vecs = [v for d, v in fiber_gens if d]
    elements = set()
    for combo in iproduct(*ranges):
        v = tuple(
            sum(c * vec[i] for c, vec in zip(combo, vecs))
            for i in range(parent.n)
        )
        for t in range(0, S.m, G.m):
            elements.add(canonical(v, t))
    order = len(elements)

    def add(x, y):
        z = mul(parent.element(*x), parent.element(*y))
        return canonical(z.v, z.t)

    zero = canonical((0,) * parent.n, 0)

    def power(x, n):
        acc = zero
        for _ in range(n):
            acc = add(acc, x)
        return acc

    partitions = {}
    rest = order
    p = 2
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


class TestQuotientOracle:
    def test_sol3_adjacent_levels(self, G):
        for k in (1, 2, 3):
            big, small = sol3_gamma(k - 1), sol3_gamma(k)
            assert quotient(big, small) == brute_quotient_structure(big, small)

    def test_sol3_through_intermediates(self, G):
        gamma = sol3_gamma(0)
        for mid in sol3_intermediate_forms(1, G):
            assert quotient(gamma, mid) == brute_quotient_structure(gamma, mid)

    def test_varied_holonomies_and_translation_parts(self):
        rng = random.Random(909)
        holonomies = [
            IntMatrix.identity(2),
            IntMatrix([[-1, 0], [0, 1]]),
            IntMatrix([[0, -1], [1, 0]]),
            IntMatrix([[0, 1], [1, 0]]),
        ]
        checked = 0
        attempts = 0
        while checked < 30 and attempts < 4000:
            attempts += 1
            A = holonomies[rng.randrange(len(holonomies))]
            parent = SemidirectGroup(A)
            rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            M = IntMatrix(rows)
            if not (0 < abs(det(M)) <= 9):
                continue
            try:
                S = SemidirectLattice(
                    parent, Lattice.from_rows(2, rows), rng.choice([1, 2, 3, 4])
                )
                full = SemidirectLattice(parent, Lattice.standard(2), 1)
                got = quotient(full, S)
            except (UnsupportedSubgroupShape, NotNormal, NotAbelianQuotient):
                continue
            assert got == brute_quotient_structure(full, S)
            checked += 1
        assert checked == 30


class TestIntermediates:
    def test_paper_three_forms(self, G):
        for k in range(1, 6):
            got = intermediates(sol3_gamma(k - 1), sol3_gamma(k))
            want = sorted(
                sol3_intermediate_forms(k, G), key=lambda s: (s.m, s.L.basis.data)
            )
            assert got == want
            assert len(got) == 3

    def test_prime_quotient_has_none(self, G):
        full = SemidirectLattice(G, Lattice.standard(2), 1)
        S = SemidirectLattice(G, Lattice.standard(2), 3)
        assert intermediates(full, S) == []

    def test_cyclic_four_has_one(self, G):
        full = SemidirectLattice(G, Lattice.standard(2), 1)
        S = SemidirectLattice(G, Lattice.standard(2), 4)
        got = intermediates(full, S)
        assert got == [SemidirectLattice(G, Lattice.standard(2), 2)]

    def test_guardrail(self):
        T = SemidirectGroup(IntMatrix.identity(2))
        full = SemidirectLattice(T, Lattice.standard(2), 1)
        S = SemidirectLattice(T, Lattice.scaled(2, 8), 1)
        with pytest.raises(QuotientTooLarge):
            intermediates(full, S, max_quotient=10)

    def test_count_matches_subgroup_count_z2_cubed(self):
        # pure fiber quotient (Z/2)^3: 7 subgroups of order 2, 7 of order 4
        T = SemidirectGroup(IntMatrix.identity(3))
        full = SemidirectLattice(T, Lattice.standard(3), 1)
        S = SemidirectLattice(T, Lattice.scaled(3, 2), 1)
        got = intermediates(full, S)
        assert len(got) == 14
        assert len(set(got)) == 14
        for sub in got:
            assert S.is_subgroup_of(sub) and sub.is_subgroup_of(full)
            assert sub not in (S, full)

    def test_diagonal_subgroup_shape_rejected(self):
        # mixed fiber/translation quotient (Z/2)^3 contains diagonal
        # subgroups that are not of the box shape L x| mZ
        T = SemidirectGroup(IntMatrix.identity(2))
        full = SemidirectLattice(T, Lattice.standard(2), 1)
        S = SemidirectLattice(T, Lattice.scaled(2, 2), 2)
        with pytest.raises(UnsupportedSubgroupShape):
            intermediates(full, S)

    def test_coprime_mixed_quotient_all_boxes(self):
        # (Z/3)^2 x Z/2 with coprime parts: every subgroup is a product,
        # giving 6 * 2 - 2 = 10 proper intermediates, all box-shaped
        T = SemidirectGroup(IntMatrix.identity(2))
        full = SemidirectLattice(T, Lattice.standard(2), 1)
        S = SemidirectLattice(T, Lattice.scaled(2, 3), 2)
        got = intermediates(full, S)
        assert len(got) == 10
        assert len(set(got)) == 10

    @pytest.mark.parametrize("n, c, count", [(2, 32, 175), (3, 8, 800)])
    def test_subgroup_counts_of_homocyclic_quotients(self, n, c, count):
        # (Z/32)^2 has 177 subgroups and (Z/8)^3 has 802 (Butler, Subgroup
        # lattices and symmetric functions, Mem. AMS 539, 1994); the closure
        # over |G/S| elements took seconds on either.
        T = SemidirectGroup(IntMatrix.identity(n))
        full = SemidirectLattice(T, Lattice.standard(n), 1)
        got = intermediates(full, SemidirectLattice(T, Lattice.scaled(n, c), 1))
        assert len(got) == len(set(got)) == count

    def test_translation_quotient_of_sol3(self, G):
        # Z^2 x| 9240Z in Z^2 x| Z: the quotient is Z/9240, one box per divisor.
        full = SemidirectLattice(G, Lattice.standard(2), 1)
        got = intermediates(full, SemidirectLattice(G, Lattice.standard(2), 9240))
        divisors = [d for d in range(2, 9240) if 9240 % d == 0]
        assert got == [SemidirectLattice(G, Lattice.standard(2), d) for d in divisors]
        assert len(got) == 62

    def test_no_exact_power_of_the_holonomy(self, G, monkeypatch):
        # The closure multiplied cosets through A^t for every t below S.m;
        # the lattice enumeration takes the norm modulo [Z^2 : S.L].
        full = SemidirectLattice(G, Lattice.standard(2), 1)
        calls = count_calls(monkeypatch, [(SemidirectGroup, "power")])
        assert len(intermediates(full, SemidirectLattice(G, Lattice.standard(2), 60))) == 10
        with pytest.raises(UnsupportedSubgroupShape):
            # A is Id modulo 2, so (Z/2)^2 x Z/60 has diagonal subgroups
            intermediates(full, SemidirectLattice(G, Lattice.scaled(2, 2), 60))
        assert calls == {"power": 0}


class TestCenter:
    def test_sol3_centerless(self, G):
        rank, structure = center_rank(sol3_gamma(0))
        assert rank == 0 and structure.is_trivial

    def test_trivial_holonomy(self):
        T = SemidirectGroup(IntMatrix.identity(2))
        rank, _ = center_rank(SemidirectLattice(T, Lattice.standard(2), 1))
        assert rank == 3

    def test_klein_bottle_times_circle(self):
        K = SemidirectGroup(IntMatrix([[-1, 0], [0, 1]]))
        full = SemidirectLattice(K, Lattice.standard(2), 1)
        rank, _ = center_rank(full)
        assert rank == 2
        # brute force: (v, t) central iff it commutes with the generators
        for v1, v2, t in itertools.product(range(-2, 3), range(-2, 3), range(-2, 3)):
            g = K.element((v1, v2), t)
            commutes = all(
                mul(g, h) == mul(h, g) for h in generators(full)
            )
            assert commutes == (v1 == 0 and t % 2 == 0)

    def test_finite_order_with_sublattice(self):
        K = SemidirectGroup(IntMatrix([[-1, 0], [0, 1]]))
        sub = SemidirectLattice(K, Lattice.scaled(2, 3), 2)
        rank, _ = center_rank(sub)
        # A^2 = Id: every fiber vector is fixed, and t in 2Z already works
        assert rank == 3


# ---------------------------------------------------------------------------
# The cyclotomic split against the exact powers and the walk
# ---------------------------------------------------------------------------

FINITE_BLOCKS = [
    [[1]],
    [[-1]],
    [[0, 1], [1, 0]],
    [[0, -1], [1, 0]],
    [[0, -1], [1, -1]],
    [[0, -1], [1, 1]],
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
]
HYPERBOLIC_BLOCKS = [
    [[2, 1], [1, 1]],
    [[5, 2], [2, 1]],
    [[0, 1], [1, 1]],
    [[0, 0, 1], [1, 0, 1], [0, 1, 0]],
]


@st.composite
def block_holonomies(draw, n):
    """A in GL(n, Z): finite-order, signed unipotent and hyperbolic blocks on
    the diagonal, conjugated by a product of elementary matrices."""
    A = [[0] * n for _ in range(n)]
    i = 0
    while i < n:
        kind = draw(st.sampled_from(["finite", "unipotent", "hyperbolic"]))
        if kind == "unipotent":
            k, s = draw(st.integers(1, n - i)), draw(st.sampled_from([1, -1]))
            block = [[s if c == r else int(c == r + 1) for c in range(k)] for r in range(k)]
        else:
            pool = FINITE_BLOCKS if kind == "finite" else HYPERBOLIC_BLOCKS
            block = draw(st.sampled_from([b for b in pool if len(b) <= n - i] or [[[1]]]))
        for r, row in enumerate(block):
            A[i + r][i : i + len(row)] = row
        i += len(block)
    P = IntMatrix.identity(n)
    for _ in range(draw(st.integers(0, 2 * n)) if n >= 2 else 0):
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        E = [[int(x == y) for y in range(n)] for x in range(n)]
        E[r][c + (c >= r)] = draw(st.sampled_from([1, -1]))
        P = P * IntMatrix(E)
    return P * IntMatrix(A, cols=n) * P.power(-1)


@st.composite
def box_groups(draw):
    """L x| mZ with n <= 4, m <= 24 and L = p(A) Z^n for a linear p."""
    n = draw(st.integers(0, 4))
    A = draw(block_holonomies(n))
    p = IntMatrix.identity(n).scale(draw(st.integers(-2, 2))) + A.scale(draw(st.integers(-2, 2)))
    L = Lattice.from_rows(n, p.transpose().data)
    return SemidirectLattice(
        SemidirectGroup(A), L if L.is_full_rank() else Lattice.standard(n), draw(st.integers(1, 24))
    )


RANK_ZERO = SemidirectLattice(SemidirectGroup(IntMatrix.identity(0)), Lattice.standard(0), 1)
FLIP_M3 = SemidirectLattice(SemidirectGroup(IntMatrix([[-1]])), Lattice.standard(1), 3)


def _box(rows, m):
    return SemidirectLattice(SemidirectGroup(IntMatrix(rows)), Lattice.standard(len(rows)), m)


def _companion(coeffs):
    """The companion matrix of the monic x^k + c_(k-1) x^(k-1) + ... + c_0."""
    k = len(coeffs)
    return [[int(i == j + 1) for j in range(k - 1)] + [-coeffs[i]] for i in range(k)]


# Lehmer's Salem polynomial x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1:
# eight roots on the unit circle, none of them a root of unity.
LEHMER = _companion([1, 1, 0, -1, -1, -1, -1, -1, 0, 1])
# [[R, I], [0, R]] for the quarter turn R and [[T, I], [0, T]] for T of
# order 3: infinite order, yet A^12 - Id squares to zero, so the
# translations add one to the centre of Inn.
QUARTER_JORDAN = [[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]]
THIRD_JORDAN = [[0, -1, 1, 0], [1, -1, 0, 1], [0, 0, 0, -1], [0, 0, 1, -1]]


def test_rank_zero_fiber_and_odd_translation():
    # Z^0 x| Z is Z: the centre is everything and Inn is trivial.  In
    # Z x|_(-1) 3Z the centre is 6Z, and Inn is Z/2 after 3Z's image.
    assert center_rank(RANK_ZERO)[0] == 1
    assert discsym2_upper(RANK_ZERO).as_pair() == (1, 0)
    assert center_rank(FLIP_M3)[0] == 1
    assert discsym2_upper(FLIP_M3).as_pair() == (1, 0)


@settings(max_examples=100, deadline=None)
@example(RANK_ZERO)
@example(FLIP_M3)
@example(_box(LEHMER, 1))
@example(_box(LEHMER, 60))
@example(_box(QUARTER_JORDAN, 12))
@example(_box(THIRD_JORDAN, 12))
@given(box_groups())
def test_centre_ranks_match_the_exact_power_oracle(G):
    """The kernels of the singular Phi_d(A) and their squares give what the
    exact A^m, the walk up to M(n) and the induced Smith basis gave."""
    order = G.parent.holonomy_order()
    assert order == oracle.holonomy_order(G.parent.A)
    assert center_rank(G)[0] == oracle.center_rank(G)
    pair = discsym2_upper(G).as_pair()
    assert pair == (oracle.center_rank(G), oracle.inn_center_rank(G))
    event("order %s, (f, b) = %s" % (order, pair))


def test_the_translations_add_one_to_the_centre_of_inn():
    for rows in (QUARTER_JORDAN, THIRD_JORDAN):
        assert discsym2_upper(_box(rows, 12)).as_pair() == (2, 3)


@settings(max_examples=40, deadline=None)
@given(box_groups(), st.integers(1, 3))
def test_centre_ranks_at_multiples_of_e_n_match_the_exact_power_oracle(G, k):
    """m = k E(n), with E(n) = lcm{d : phi(d) <= n}, is a multiple of every d
    in cyc(A), so every kernel enters the sums; the oracle takes A^m exactly."""
    G = SemidirectLattice(G.parent, G.L, k * oracle.root_order_lcm(G.parent.n))
    assert center_rank(G)[0] == oracle.center_rank(G)
    assert discsym2_upper(G).as_pair() == (oracle.center_rank(G), oracle.inn_center_rank(G))


# Cyclotomic polynomials of degree 4, x^4 + c_3 x^3 + ... + c_0, as (c_0, ..., c_3);
# the orders 5, 8 and 10 are the prime powers E(4) = 120 adds to E(2) = 12.
CYCLOTOMIC_4 = {5: (1, 1, 1, 1), 8: (1, 0, 0, 0), 10: (1, -1, 1, -1), 12: (1, 0, -1, 0)}


@pytest.mark.parametrize("d", sorted(CYCLOTOMIC_4))
def test_centre_ranks_of_a_cyclotomic_holonomy_match_the_exact_power_oracle(d):
    coeffs = CYCLOTOMIC_4[d]
    A = IntMatrix(_companion(coeffs))
    assert A.power(d).is_identity() and not A.power(d // 2).is_identity()
    assert SemidirectGroup(A).holonomy_order() == oracle.holonomy_order(A) == d
    for m in (1, d, oracle.root_order_lcm(4), 7 * oracle.root_order_lcm(4)):
        G = SemidirectLattice(SemidirectGroup(A), Lattice.standard(4), m)
        assert center_rank(G)[0] == oracle.center_rank(G)
        assert discsym2_upper(G).as_pair() == (oracle.center_rank(G), oracle.inn_center_rank(G))


def test_centre_ranks_validate_no_computed_rows(monkeypatch):
    # The kernels of Phi_d(A) for the 5-cycle are rows the package computed
    # itself, so nullity spans them without the entry checks of from_rows.
    cycle = _box([[int(j == (i + 1) % 5) for j in range(5)] for i in range(5)], 1)
    calls = count_calls(monkeypatch, [(linalg, "_validated")])
    assert semidirect.center_ranks(cycle) == (2, 0)
    assert calls == {"_validated": 0}


def _outcome(f, *args):
    try:
        return f(*args)
    except NilcertError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), block_holonomies(2), st.integers(1, 24))
def test_nilpotency_check_matches_the_exact_power_oracle(k, P, order):
    """On Heisenberg automorphisms (P, det P), "P^order = Id" read as "the
    finite order of P divides order" decides as the exact power did."""
    H = TwoStepLattice.heisenberg(k)
    Q = IntMatrix([[det(P)]])
    got = _outcome(nilpotency_check, H, P, Q, order)
    assert got == _outcome(oracle.nilpotency_check, H, P, Q, order)
    event(repr(got))


@st.composite
def square_matrices(draw):
    """n x n with n <= 5: small entries, or A in GL(n, Z) with its first row
    scaled, so that unimodular, singular and other matrices all occur."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        return IntMatrix(draw(st.lists(row, min_size=n, max_size=n)), cols=n)
    rows = list(draw(block_holonomies(n)).data)
    if rows:
        c = draw(st.sampled_from([1, -1, 0, 2, 3]))
        rows[0] = [c * x for x in rows[0]]
    return IntMatrix(rows, cols=n)


def _failure(f, *args):
    try:
        f(*args)
    except NilcertError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_unimodularity_is_the_oracle_determinant(M):
    """SemidirectGroup and nilpotency_check read GL(n, Z) off the Hermite
    basis of the rows; the oracle's Bareiss determinant must agree."""
    n, d = M.rows, det(M)
    holonomy = ("InvalidParameters", "holonomy matrix must lie in GL(n, Z)")
    assert (_failure(SemidirectGroup, M) == holonomy) == (abs(d) != 1)
    # With zero forms every pair of unimodular blocks preserves them, so
    # NotAnAutomorphism can only mean a block outside GL(n, Z).
    G, I = TwoStepLattice(n, n, [IntMatrix.zeros(n, n)] * n), IntMatrix.identity(n)
    blocks = ("NotAnAutomorphism", "blocks must be unimodular")
    for P, Q in ((M, I), (I, M)):
        assert (_failure(nilpotency_check, G, P, Q, 1) == blocks) == (abs(d) != 1)
    event("unimodular" if abs(d) == 1 else "singular" if d == 0 else "other determinant")


class TestSol3Tower:
    def test_k1(self):
        cert = sol3_tower(1)
        assert cert.total_index == 4
        assert cert.min_length == 1
        assert cert.chain[0].quotient == AbelianStructure(0, (2, 2))

    def test_k3(self):
        cert = sol3_tower(3)
        assert cert.total_index == 64
        assert cert.min_length == 3
        assert cert.max_quotient_order == 4

    def test_k0_trivial(self):
        cert = sol3_tower(0)
        assert cert.total_index == 1
        assert cert.min_length == 0
        assert cert.chain == ()

    def test_structural_invariants(self):
        cert = sol3_tower(4)
        assert cert.structural_ok()
        assert all(level.normality_verified for level in cert.chain)
        prod = 1
        for level in cert.chain:
            prod *= level.index
        assert prod == cert.total_index


class TestRefinedSeries:
    def test_refinement_through_intermediates(self, G):
        # any refinement step between consecutive tower levels has quotient
        # order 2 or 4, and the orders multiply to the level index 4
        gamma = sol3_gamma(0)
        g1 = sol3_gamma(1)
        for mid in sol3_intermediate_forms(1, G):
            q_top = quotient(gamma, mid)
            q_bot = quotient(mid, g1)
            assert q_top.order() in (2, 4)
            assert q_bot.order() in (2, 4)
            assert q_top.order() * q_bot.order() == 4

    def test_two_level_refined_chain(self, G):
        # Gamma > Gamma_1^(1,0) > Gamma_1 > Gamma_2^(1,0) > Gamma_2: orders
        # multiply to 4^2 with every step of order 2
        chain = [
            sol3_gamma(0),
            sol3_intermediate_forms(1, G)[0],
            sol3_gamma(1),
            sol3_intermediate_forms(2, G)[0],
            sol3_gamma(2),
        ]
        prod = 1
        for upper, lower in zip(chain, chain[1:]):
            q = quotient(upper, lower)
            assert q.order() in (2, 4)
            prod *= q.order()
        assert prod == 16


class TestScalingIso:
    def test_identity_scaling(self):
        assert scaling_iso_check(0)

    def test_doubling(self):
        assert scaling_iso_check(1)
        assert scaling_iso_check(3)

    def test_wrong_scale_not_surjective(self):
        # image lattice 3Z^2 != 2Z^2, detected by HNF equality
        assert not scaling_map_check(3, sol3_gamma(1))

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidParameters, match=r"^k must be >= 0$"):
            scaling_iso_check(-1)


class TestGroupValidation:
    def test_non_unimodular_rejected(self):
        with pytest.raises(InvalidParameters):
            SemidirectGroup(IntMatrix([[2, 0], [0, 1]]))

    def test_sublattice_of_another_rank_rejected(self):
        # from_json reads the sublattice at the declared rank; only a Python caller gets here
        with pytest.raises(DimensionMismatch, match=r"^sublattice ambient dimension mismatch$"):
            SemidirectLattice(sol3_group(), Lattice.standard(3), 1)

    def test_holonomy_order(self):
        assert SemidirectGroup(IntMatrix([[-1, 0], [0, 1]])).holonomy_order() == 2
        assert SemidirectGroup(IntMatrix([[0, -1], [1, -1]])).holonomy_order() == 3
        assert SemidirectGroup(IntMatrix([[0, -1], [1, 0]])).holonomy_order() == 4
        assert SemidirectGroup(IntMatrix([[0, -1], [1, 1]])).holonomy_order() == 6
        assert sol3_group().holonomy_order() is None

    def test_commutator_lands_in_fiber_scale(self):
        G = sol3_group()
        # [(e1, 0), (0, 1)] = ((Id - A) e1, 0) has both entries even
        c = commutator(G.element((1, 0), 0), G.element((0, 0), 1))
        assert c.t == 0
        assert all(x % 2 == 0 for x in c.v)

    def test_id_minus_power_has_even_entries(self):
        # A = Id + B with B in M2(2Z), so Id - A^s has even entries for all s
        G = sol3_group()
        Id = IntMatrix.identity(2)
        for s in range(-8, 9):
            diff = Id - G.power(s)
            assert all(x % 2 == 0 for row in diff.data for x in row)


# ---------------------------------------------------------------------------
# Lattice containments against the element-wise checks
# ---------------------------------------------------------------------------


@st.composite
def holonomies(draw):
    """A in GL(n, Z), n = 2, 3: a row permutation of a product of elementary
    matrices, so finite-order and hyperbolic ones both occur."""
    n = draw(st.integers(2, 3))
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            q = draw(st.integers(-2, 2))
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    if draw(st.booleans()):
        m[0] = [-x for x in m[0]]
    return SemidirectGroup(IntMatrix([m[i] for i in draw(st.permutations(range(n)))]))


def _combine(coeffs, rows):
    return [sum(a * r[k] for a, r in zip(coeffs, rows)) for k in range(len(rows[0]))]


def orbit_lattice(A, v, c):
    """c Z^n plus the span of v, Av, ..., A^(n-1) v: A-invariant, because
    A^n v is an integer combination of those (Cayley-Hamilton)."""
    n = A.rows
    rows = [tuple(v)]
    for _ in range(n - 1):
        rows.append(A.apply(rows[-1]))
    return Lattice.from_rows(n, rows + [[c if i == j else 0 for j in range(n)] for i in range(n)])


@st.composite
def box_pairs(draw):
    """(G, S, L): boxes with L_S inside L_G and m_G | m_S, or S drawn on its
    own; L is a full-rank lattice that need not be A-invariant.

    [L_G : L_S] divides c^n, and m_S / m_G is at most 32 / c^n, so |G/S| is
    at most 32: the table oracle of ``intermediates`` builds the |G/S|^2
    Cayley table of the quotient on every draw.
    """
    K = draw(holonomies())
    n = K.n
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    L_G = orbit_lattice(K.A, draw(vec), draw(st.integers(1, 2)))
    c = draw(st.integers(2, 6 - n))
    if draw(st.integers(0, 4)):
        # the orbit of w in L_G plus c L_G
        w = [draw(st.integers(0, 2)) * x for x in _combine(draw(vec), L_G.basis.data)]
        L_S = orbit_lattice(K.A, w, 0).sum(Lattice.from_rows(n, [[c * x for x in r] for r in L_G.basis.data]))
    else:
        L_S = orbit_lattice(K.A, draw(vec), c)
    m_G = draw(st.integers(1, 2))
    G = SemidirectLattice(K, L_G, m_G)
    S = SemidirectLattice(K, L_S, m_G * draw(st.integers(1, min(3, 32 // c**n))))
    L = Lattice.from_rows(n, [draw(vec) for _ in range(n)] + [[2 if i == j else 0 for j in range(n)] for i in range(n)])
    return G, S, L


def outcome(f, *args):
    try:
        return f(*args)
    except NilcertError as exc:
        return type(exc), str(exc)


def verb_outcomes(G, S, L):
    # Looked up on the module at call time, so elementwise() takes effect.
    return [
        outcome(semidirect.SemidirectLattice, G.parent, L, 1),
        outcome(semidirect.quotient, G, S),
        outcome(semidirect.normalizer, G, S),
        outcome(semidirect.intermediates, G, S, 64),
    ]


# The swap holonomy: S = 2Z^2 x| 2Z is normal in Z^2 x| Z (A^2 = Id) but the
# quotient is dihedral (A is not Id modulo 2).
SWAP = SemidirectGroup(IntMatrix([[0, 1], [1, 0]]))


class TestContainmentOracle:
    @settings(max_examples=100, deadline=None)
    @given(box_pairs())
    @example(
        (
            SemidirectLattice(SWAP, Lattice.standard(2), 1),
            SemidirectLattice(SWAP, Lattice.scaled(2, 2), 2),
            Lattice.from_rows(2, [[2, 0], [0, 1]]),
        )
    )
    @example(
        # normal, not abelian, and |G/S| = 72 is past the guard of 64
        (
            SemidirectLattice(SWAP, Lattice.standard(2), 1),
            SemidirectLattice(SWAP, Lattice.scaled(2, 6), 2),
            Lattice.from_rows(2, [[1, 1], [0, 2]]),
        )
    )
    def test_same_outcome_as_the_elementwise_checks(self, boxes):
        G, S, L = boxes
        with oracle.elementwise():
            want = verb_outcomes(G, S, L)
        got = verb_outcomes(G, S, L)
        event("invariant" if not isinstance(want[0], tuple) else want[0][0].__name__)
        event("quotient: " + ("ok" if isinstance(want[1], AbelianStructure) else want[1][0].__name__))
        event("intermediates: " + ("%d" % len(want[3]) if isinstance(want[3], list) else want[3][0].__name__))
        assert got == want

    def test_elementwise_installs_and_restores_the_oracle(self):
        # Without the swap the property test would compare the library with itself.
        with oracle.elementwise():
            assert semidirect.quotient is oracle.quotient
            assert semidirect._check_normal is oracle.check_normal
            assert semidirect.SemidirectLattice.__init__ is oracle.box_init
        assert semidirect.quotient is quotient
        assert semidirect.SemidirectLattice.__init__ is not oracle.box_init


# The diagonal non-box case and the coprime mixed case of TestIntermediates.
IDENTITY2 = SemidirectGroup(IntMatrix.identity(2))


class TestIntermediatesOracle:
    @settings(max_examples=100, deadline=None)
    @given(box_pairs().map(lambda boxes: boxes[:2]))
    @example(
        # A^2 = Id but A is not Id modulo 2: the quotient is dihedral of order 8
        (
            SemidirectLattice(SWAP, Lattice.standard(2), 1),
            SemidirectLattice(SWAP, Lattice.scaled(2, 2), 2),
        )
    )
    @example(
        (
            SemidirectLattice(IDENTITY2, Lattice.standard(2), 1),
            SemidirectLattice(IDENTITY2, Lattice.scaled(2, 2), 2),
        )
    )
    @example(
        (
            SemidirectLattice(IDENTITY2, Lattice.standard(2), 1),
            SemidirectLattice(IDENTITY2, Lattice.scaled(2, 3), 2),
        )
    )
    @example(
        # (Z/4)^2 has cyclic subgroups of order 4, whose order-2 subgroups
        # are steps of the search that a closure grown past them would miss
        (
            SemidirectLattice(IDENTITY2, Lattice.standard(2), 1),
            SemidirectLattice(IDENTITY2, Lattice.scaled(2, 4), 1),
        )
    )
    @example(
        # |G/S| = 81 is past the guard of 64
        (
            SemidirectLattice(IDENTITY2, Lattice.standard(2), 1),
            SemidirectLattice(IDENTITY2, Lattice.scaled(2, 9), 1),
        )
    )
    def test_same_outcome_as_the_cayley_table(self, pair):
        G, S = pair
        want = outcome(oracle.intermediates, G, S, 64)
        event("intermediates: " + ("%d" % len(want) if isinstance(want, list) else want[0].__name__))
        assert outcome(intermediates, G, S, 64) == want


IDENTITY3 = SemidirectGroup(IntMatrix.identity(3))
# A^2 is Id modulo 4 and A^4 is Id modulo 8 for the Sol3 holonomy A.
SOL3_POWERS = [SemidirectGroup(semidirect.SOL3_MATRIX.power(k)) for k in (1, 2, 4)]


@st.composite
def quotient_pairs(draw):
    """(G, S) with S.L the orbit of a vector of G.L plus c G.L and |G/S| up
    to 128: a drawn holonomy, the swap, the identity or a power of Sol3's."""
    K = draw(st.one_of(holonomies(), st.sampled_from([SWAP, IDENTITY2, IDENTITY3] + SOL3_POWERS)))
    n = K.n
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    L_G = orbit_lattice(K.A, draw(vec), draw(st.integers(1, 2)))
    c = draw(st.integers(1, 11 if n == 2 else 5))
    w = _combine(draw(vec), L_G.basis.data)
    c_L_G = Lattice.from_rows(n, [[c * x for x in r] for r in L_G.basis.data])
    L_S = orbit_lattice(K.A, w, 0).sum(c_L_G)
    m_G, k = draw(st.integers(1, 2)), draw(st.integers(1, 128 // lattice_index(L_G, L_S)))
    return SemidirectLattice(K, L_G, m_G), SemidirectLattice(K, L_S, m_G * k)


class TestIntermediatesClosure:
    @settings(max_examples=120, deadline=None)
    @given(quotient_pairs())
    @example(
        # dihedral of order 8: its reflections generate non-box subgroups
        (
            SemidirectLattice(SWAP, Lattice.standard(2), 1),
            SemidirectLattice(SWAP, Lattice.scaled(2, 2), 2),
        )
    )
    @example(
        # I with S.m/G.m = 4 even: N = 4 Id kills (Z/2)^2, so (v, 1) has order 4
        (
            SemidirectLattice(IDENTITY2, Lattice.standard(2), 1),
            SemidirectLattice(IDENTITY2, Lattice.scaled(2, 2), 4),
        )
    )
    @example(
        # I with S.m/G.m = 2 over (Z/3)^2: N = 2 Id is injective, all boxes
        (
            SemidirectLattice(IDENTITY2, Lattice.standard(2), 1),
            SemidirectLattice(IDENTITY2, Lattice.scaled(2, 3), 2),
        )
    )
    @example(
        # A^2 = Id modulo 4: every lattice between 4Z^2 and Z^2 is invariant
        (
            SemidirectLattice(SOL3_POWERS[1], Lattice.standard(2), 1),
            SemidirectLattice(SOL3_POWERS[1], Lattice.scaled(2, 4), 3),
        )
    )
    @example(
        # A^4 = Id modulo 8, |G/S| = 128 with S.m/G.m = 2 even
        (
            SemidirectLattice(SOL3_POWERS[2], Lattice.standard(2), 1),
            SemidirectLattice(SOL3_POWERS[2], Lattice.from_rows(2, [[8, 0], [0, 8]]), 2),
        )
    )
    @example(
        # A = Sol3's is not a power map modulo 3: some lattices are not invariant
        (
            SemidirectLattice(SOL3_POWERS[0], Lattice.standard(2), 1),
            SemidirectLattice(SOL3_POWERS[0], Lattice.scaled(2, 3), 8),
        )
    )
    def test_same_outcome_as_the_closure(self, pair):
        G, S = pair
        want = outcome(oracle.closure_intermediates, G, S, 128)
        event("intermediates: " + ("%d" % len(want) if isinstance(want, list) else want[0].__name__))
        assert outcome(intermediates, G, S, 128) == want

