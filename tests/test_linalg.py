import random

import pytest
from hypothesis import given, settings, strategies as st

import linalg_oracle as oracle
from nilcert import linalg
from nilcert.arith import parse_int
from nilcert.errors import DimensionMismatch, InvalidParameters, NotASublattice
from nilcert.linalg import (
    AbelianStructure,
    IntMatrix,
    Lattice,
    _PRIME,
    _charpoly_mod,
    _cyclotomic,
    _echelon,
    _parse_rows,
    cokernel,
    cyclotomic_kernels,
    finite_order,
    full_index,
    hnf,
    hstack,
    is_unimodular,
    lattice_index,
    left_kernel,
    maps_into,
    power_mod,
    preimage_lattice,
    quotient_structure,
    quotient_with_generators,
    saturate,
    snf,
    solve_row_combination,
    unimodular_inverse,
)
from test_nilpotent2 import count_calls


def rand_matrix(rng, maxdim=6, lo=-9, hi=9, rows=None, cols=None):
    r = rows if rows is not None else rng.randint(1, maxdim)
    c = cols if cols is not None else rng.randint(1, maxdim)
    return IntMatrix([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])


def rand_unimodular(rng, n, steps=8):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += q * m[j][k]
    if n and rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return IntMatrix(m)


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(IntMatrix)


class TestHNF:
    def test_identity(self):
        form = hnf(IntMatrix.identity(2))
        assert form.H.is_identity()
        assert form.U.is_identity()

    def test_single_row_reduction(self):
        A = IntMatrix([[2, 4], [0, 2]])
        form = hnf(A)
        assert form.H == IntMatrix([[2, 0], [0, 2]])
        assert form.U == IntMatrix([[1, -2], [0, 1]])
        # oracle: re-multiply the transform
        assert form.U * A == form.H

    def test_zero_matrix(self):
        assert hnf(IntMatrix.zeros(3, 2)).H.is_zero()

    def test_degenerate_0x0(self):
        form = hnf(IntMatrix([], cols=0))
        assert form.H.rows == 0

    def test_transform_is_unimodular(self):
        rng = random.Random(7)
        for _ in range(200):
            A = rand_matrix(rng, maxdim=5)
            form = hnf(A)
            assert form.U * A == form.H
            assert abs(oracle.det(form.U)) == 1

    @settings(max_examples=60)
    @given(small_matrices, st.randoms(use_true_random=False))
    def test_canonical_under_unimodular_left_factor(self, A, rnd):
        W = rand_unimodular(rnd, A.rows)
        assert hnf(A).H == hnf(W * A).H

    def test_idempotent_on_hnf_input(self):
        A = IntMatrix([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
        H = hnf(A).H
        assert hnf(H).H == H

    def test_pivot_normalization(self):
        H = hnf(IntMatrix([[-2, 1], [0, -3]])).H
        pivots = [next(x for x in row if x != 0) for row in H.data if any(row)]
        assert all(p > 0 for p in pivots)
        # entries above each pivot reduced into [0, pivot)
        assert 0 <= H.data[0][1] < H.data[1][1]


class TestSNF:
    def test_already_diagonal(self):
        assert snf(IntMatrix([[2, 0], [0, 2]])).factors == (2, 2)

    def test_paper_matrix_B(self):
        # oracle: manual row/column reduction of [[4,2],[2,0]] gives diag(2,2)
        B = IntMatrix([[4, 2], [2, 0]])
        form = snf(B)
        assert form.factors == (2, 2)
        assert form.U * B * form.V == form.S

    def test_rank_one_projector(self):
        form = snf(IntMatrix([[1, 0], [0, 0]]))
        assert form.factors == (1,)
        assert form.S.data[1][1] == 0

    def test_degenerate_shapes(self):
        assert snf(IntMatrix([], cols=0)).factors == ()
        assert snf(IntMatrix.zeros(2, 3)).factors == ()
        assert snf(IntMatrix([], cols=4)).S.cols == 4

    def test_random_identity_and_divisibility(self):
        rng = random.Random(11)
        for _ in range(300):
            A = rand_matrix(rng, maxdim=5)
            form = snf(A)
            assert form.U * A * form.V == form.S
            assert abs(oracle.det(form.U)) == 1
            assert abs(oracle.det(form.V)) == 1
            assert (unimodular_inverse(form.V) * form.V).is_identity()
            for a, b in zip(form.factors, form.factors[1:]):
                assert b % a == 0

    @settings(max_examples=60)
    @given(small_matrices, st.randoms(use_true_random=False))
    def test_invariant_under_unimodular_factors(self, A, rnd):
        W = rand_unimodular(rnd, A.rows)
        V = rand_unimodular(rnd, A.cols)
        assert snf(A).factors == snf(W * A * V).factors


class TestKernelAndSolve:
    def test_left_kernel_annihilates(self):
        rng = random.Random(5)
        for _ in range(100):
            A = rand_matrix(rng, maxdim=4)
            K = left_kernel(A)
            assert (K * A).is_zero() if K.rows else True
            assert K.rows == A.rows - len(snf(A).factors)

    def test_left_kernel_is_the_canonical_hermite_basis(self):
        # The same lattice as before, now in its canonical Hermite basis,
        # where the rows of hnf's transform gave ((1, -2, 0), (0, -3, 1)).
        A = IntMatrix([[2, 4], [1, 2], [3, 6]])
        assert left_kernel(A).data == ((1, 1, -1), (0, 3, -1))
        assert oracle.left_kernel(A.data, 2) == ((1, -2, 0), (0, -3, 1))

    def test_solve_row_combination(self):
        R = IntMatrix([[2, 0, 1], [0, 3, 1]])
        target = (4, 3, 3)
        c = solve_row_combination(R, target)
        assert c == (2, 1)
        assert solve_row_combination(R, (1, 0, 0)) is None
        # every pivot divides, but a residual is left past the last one
        assert solve_row_combination(IntMatrix([[2, 0]]), (2, 1)) is None
        with pytest.raises(DimensionMismatch, match=r"^target length 2 != cols 3$"):
            solve_row_combination(R, (1, 0))

    def test_unimodular_inverse(self):
        rng = random.Random(17)
        for _ in range(50):
            W = rand_unimodular(rng, rng.randint(1, 5))
            assert (unimodular_inverse(W) * W).is_identity()


class TestLattice:
    def test_canonical_equality(self):
        a = Lattice.from_rows(2, [[2, 0], [0, 2]])
        b = Lattice.from_rows(2, [[2, 2], [2, -2], [0, 2]])
        assert a == b

    def test_membership_and_reduce(self):
        L = Lattice.from_rows(2, [[2, 1], [0, 3]])
        assert L.contains((2, 1))
        assert L.contains((2, 4))
        assert not L.contains((1, 0))
        r = L.reduce((5, 7))
        assert 0 <= r[0] < 2 and 0 <= r[1] < 3
        assert L.contains(tuple(a - b for a, b in zip((5, 7), r)))

    def test_reduce_is_coset_normal_form(self):
        rng = random.Random(3)
        L = Lattice.from_rows(3, [[2, 1, 0], [0, 4, 1], [0, 0, 5]])
        for _ in range(100):
            v = tuple(rng.randint(-20, 20) for _ in range(3))
            w = tuple(
                a + b
                for a, b in zip(
                    v,
                    IntMatrix([[rng.randint(-3, 3) for _ in range(3)]]).__mul__(L.basis).data[0],
                )
            )
            assert L.reduce(v) == L.reduce(w)

    def test_intersection(self):
        a = Lattice.scaled(2, 2)
        b = Lattice.from_rows(2, [[3, 0], [0, 1]])
        got = a.intersect(b)
        assert got == Lattice.from_rows(2, [[6, 0], [0, 2]])

    def test_sum(self):
        a = Lattice.from_rows(2, [[2, 0]])
        b = Lattice.from_rows(2, [[0, 3]])
        assert a.sum(b) == Lattice.from_rows(2, [[2, 0], [0, 3]])


    @pytest.mark.parametrize("n", range(4))
    def test_scaled_by_zero_is_the_zero_lattice(self, n):
        got, zero = Lattice.scaled(n, 0), Lattice.zero(n)
        assert (got.basis, got._pivots, got._identity, repr(got)) == (
            zero.basis, zero._pivots, zero._identity, repr(zero))


# Shape checks of the public matrix and lattice API (``nilcert.__all__``):
# a Python caller's mistake is a DimensionMismatch naming the fault.
_M12, _M21, _L2, _L3 = IntMatrix([[1, 2]]), IntMatrix([[1], [2]]), Lattice.standard(2), Lattice.standard(3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: _M12 + _M21, DimensionMismatch, "matrix addition shape mismatch"),
    (lambda: _M12 - _M21, DimensionMismatch, "matrix subtraction shape mismatch"),
    (lambda: _M12 * _M12, DimensionMismatch, "cannot multiply 1x2 by 1x2"),
    (lambda: _M12.apply((1,)), DimensionMismatch, "vector length 1 != cols 2"),
    (lambda: _M12.power(2), DimensionMismatch, "power of a non-square matrix"),
    (lambda: IntMatrix([[2]]).power(-1), DimensionMismatch, "matrix is not unimodular"),
    (lambda: Lattice(3, IntMatrix.identity(2)), DimensionMismatch, "basis width != ambient dimension"),
    (lambda: Lattice(2, IntMatrix([[0, 0]])), InvalidParameters, "lattice basis rows must be nonzero"),
    (lambda: _L2.is_sublattice_of(_L3), DimensionMismatch, "ambient dimensions differ"),
    (lambda: _L2.sum(_L3), DimensionMismatch, "ambient dimensions differ"),
    (lambda: _L2.intersect(_L3), DimensionMismatch, "ambient dimensions differ"),
    (lambda: quotient_structure(_L2, _L3), DimensionMismatch, "ambient dimensions differ"),
    (lambda: lattice_index(_L3, _L2), DimensionMismatch, "ambient dimensions differ"),
    (lambda: preimage_lattice(_M12, _L2), DimensionMismatch, "M maps into Z^1 but L lives in Z^2"),
], ids=["add", "sub", "mul", "apply", "power", "inverse-power", "lattice-width", "lattice-zero-row",
        "is-sublattice-of", "sum", "intersect", "quotient-structure", "lattice-index", "preimage"])
def test_public_shape_checks_name_the_fault(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (error, message)


@pytest.mark.parametrize("call, expected", [
    (lambda: AbelianStructure(1, ()).is_trivial, False),
    (lambda: AbelianStructure(0, ()).is_trivial, True),
    (lambda: IntMatrix([], cols=3).is_identity(), False),
    (lambda: is_unimodular(IntMatrix([[1, 0], [0, 1], [1, 1]])), False),
    (lambda: IntMatrix([[], []], cols=0) * IntMatrix([], cols=3), IntMatrix([[0, 0, 0], [0, 0, 0]])),
], ids=["Z-is-not-trivial", "0-is-trivial", "0x3-is-not-the-identity", "3x2-spanning-Z2-is-not-unimodular", "2x0-times-0x3-is-2x3-zero"])
def test_empty_and_non_square_shapes(call, expected):
    # A free part alone makes a group nontrivial; rows that match the
    # identity's, or span Z^n, decide nothing unless the matrix is square;
    # a product through an empty dimension is zero.
    assert call() == expected


class TestContainment:
    def test_power_mod_matches_the_exact_power(self, time_limit):
        rng = random.Random(606)
        for _ in range(200):
            n = rng.randint(1, 3)
            M = rand_matrix(rng, lo=-4, hi=4, rows=n, cols=n)
            t, d = rng.randint(0, 12), rng.randint(1, 30)
            exact = M.power(t)
            assert power_mod(M, t, d).data == tuple(tuple(x % d for x in row) for row in exact.data)
            assert power_mod(M, t, 0) == exact
        with pytest.raises(InvalidParameters), time_limit(10):  # t = -1 would halve forever
            power_mod(IntMatrix.identity(2), -1, 3)
        with pytest.raises(DimensionMismatch):
            power_mod(IntMatrix([[1, 2]]), 2, 3)

    def test_maps_into_is_containment_of_the_image(self):
        rng = random.Random(607)
        for _ in range(300):
            n = rng.randint(1, 3)
            M = rand_matrix(rng, lo=-3, hi=3, rows=n, cols=n)
            src = Lattice.from_rows(n, rand_matrix(rng, lo=-4, hi=4, rows=rng.randint(0, 3), cols=n).data)
            dst = Lattice.from_rows(n, rand_matrix(rng, lo=-4, hi=4, rows=rng.randint(1, 4), cols=n).data)
            image = Lattice.from_rows(n, [M.apply(r) for r in src.basis.data])
            assert maps_into(M, src, dst) == image.is_sublattice_of(dst)

    def test_full_index(self):
        rng = random.Random(608)
        for _ in range(100):
            n = rng.randint(1, 4)
            L = Lattice.from_rows(n, rand_matrix(rng, rows=rng.randint(0, n + 1), cols=n).data)
            assert full_index(L) == lattice_index(Lattice.standard(n), L)


class TestSaturate:
    def test_primitive_vector(self):
        assert saturate(Lattice.from_rows(2, [[2, 0]])) == Lattice.from_rows(2, [[1, 0]])

    def test_full_lattice(self):
        assert saturate(Lattice.scaled(2, 2)) == Lattice.standard(2)

    def test_full_rank_runs_no_elimination(self, monkeypatch):
        # A full-rank lattice has no orthogonal complement: no kernel is formed.
        L = Lattice.from_rows(3, [[2, 1, 0], [0, 3, 5], [0, 0, 7]])
        calls = count_calls(monkeypatch, [(linalg, "_echelon")])
        assert saturate(L) == Lattice.standard(3)
        assert calls == {"_echelon": 0}

    def test_gcd_extraction(self):
        # oracle: gcd of (2, 4) is 2, so the saturation is spanned by (1, 2)
        assert saturate(Lattice.from_rows(2, [[2, 4]])) == Lattice.from_rows(2, [[1, 2]])

    def test_idempotent_and_torsion_free(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 4)
            rows = [
                [rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(0, n))
            ]
            L = Lattice.from_rows(n, rows)
            S = saturate(L)
            assert saturate(S) == S
            assert S.rank == L.rank
            q = quotient_structure(S, L)
            assert q.free_rank == 0
            if L.rank:
                assert quotient_structure(Lattice.standard(n), S).torsion == ()


class TestQuotientStructure:
    def test_two_torsion_example(self):
        q = quotient_structure(Lattice.standard(2), Lattice.scaled(2, 2))
        assert q == AbelianStructure(0, (2, 2))

    def test_trivial(self):
        L = Lattice.from_rows(2, [[1, 2], [0, 5]])
        assert quotient_structure(L, L).is_trivial

    def test_mixed_rank(self):
        q = quotient_structure(Lattice.standard(2), Lattice.from_rows(2, [[2, 0]]))
        assert q == AbelianStructure(1, (2,))

    def test_not_a_sublattice(self):
        with pytest.raises(NotASublattice):
            quotient_structure(Lattice.scaled(2, 2), Lattice.standard(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quotient_structure(Lattice.standard(2), Lattice.standard(3))

    def test_index_equals_determinant(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 4)
            while True:
                M = rand_matrix(rng, lo=-5, hi=5, rows=n, cols=n)
                if oracle.det(M) != 0:
                    break
            sub = Lattice.from_rows(n, M.data)
            assert lattice_index(Lattice.standard(n), sub) == abs(oracle.det(M))

    def test_generators_span_quotient(self):
        sup = Lattice.standard(3)
        sub = Lattice.from_rows(3, [[2, 0, 0], [0, 3, 0]])
        structure, gens = quotient_with_generators(sup, sub)
        # Z/2 + Z/3 + Z in invariant factors is Z/6 + Z.
        assert structure == AbelianStructure(1, (6,))
        orders = [d for d, _ in gens]
        assert orders == [6, 0]
        for d, vec in gens:
            if d:
                assert sub.contains(tuple(d * x for x in vec))
                assert not sub.contains(vec)


class TestPreimage:
    def test_paper_normalizer_condition(self):
        # {v : B v in 4 Z^2} = 2 Z^2 for the Sol3 matrix B
        B = IntMatrix([[4, 2], [2, 0]])
        assert preimage_lattice(B, Lattice.scaled(2, 4)) == Lattice.scaled(2, 2)

    def test_identity_map(self):
        L = Lattice.from_rows(2, [[1, 1], [0, 3]])
        assert preimage_lattice(IntMatrix.identity(2), L) == L

    def test_zero_map(self):
        L = Lattice.from_rows(2, [[7, 0]])
        assert preimage_lattice(IntMatrix.zeros(2, 2), L) == Lattice.standard(2)

    def test_membership_characterization(self):
        rng = random.Random(41)
        for _ in range(50):
            M = rand_matrix(rng, lo=-4, hi=4, rows=2, cols=2)
            L = Lattice.from_rows(2, [[rng.randint(1, 4), 0], [rng.randint(0, 3), rng.randint(1, 4)]])
            P = preimage_lattice(M, L)
            for _ in range(20):
                v = (rng.randint(-6, 6), rng.randint(-6, 6))
                assert P.contains(v) == L.contains(M.apply(v))


class TestConcurrency:
    def test_parallel_normal_forms_agree(self):
        # values are immutable and operations pure: the same inputs give
        # identical forms from a thread pool and from the sequential path
        from concurrent.futures import ThreadPoolExecutor

        rng = random.Random(271)
        mats = [rand_matrix(rng, maxdim=5) for _ in range(60)]
        sequential = [snf(A).factors for A in mats]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda A: snf(A).factors, mats))
        assert sequential == parallel


class TestAbelianStructure:
    def test_validation(self):
        with pytest.raises(ValueError):
            AbelianStructure(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianStructure(0, (1,))
        with pytest.raises(ValueError, match="must exceed 1"):
            AbelianStructure(0, (0, 2))  # a zero factor is never a divisor

    def test_order_and_rank(self):
        a = AbelianStructure(1, (2, 6))
        assert a.order() is None
        assert a.rank() == 3
        assert AbelianStructure(0, (2, 6)).order() == 12

    def test_json_round_trip(self):
        a = AbelianStructure(2, (3, 9))
        assert AbelianStructure.from_json(a.to_json()) == a

    @pytest.mark.parametrize(
        "free,torsion", [("-1", []), (0, ["0", "2"]), (0, ["2", "1"]), (0, ["1"]), (0, ["2", "3"])]
    )
    def test_json_validation(self, free, torsion):
        with pytest.raises(InvalidParameters):
            AbelianStructure.from_json({"free_rank": free, "torsion": torsion})


class TestTransformFreeCore:
    """The elimination without a transform and the cached pivots."""

    @settings(max_examples=80)
    @given(small_matrices)
    def test_kernel_without_transform_matches_hnf(self, A):
        w = [list(row) for row in A.data]
        rank = _echelon(w, A.cols)
        H = hnf(A).H
        assert tuple(map(tuple, w)) == H.data
        assert rank == sum(1 for row in H.data if any(row))
        assert Lattice.from_rows(A.cols, A.data).basis.data == H.data[:rank]

    def test_pivots_unchanged_by_sum_and_intersect(self):
        rng = random.Random(19)

        def pivots(L):
            return tuple(next(k for k, x in enumerate(row) if x) for row in L.basis.data)

        for _ in range(100):
            n = rng.randint(1, 4)
            a = Lattice.from_rows(n, rand_matrix(rng, lo=-5, hi=5, cols=n).data)
            b = Lattice.from_rows(n, rand_matrix(rng, lo=-5, hi=5, cols=n).data)
            before = (a._pivots, b._pivots)
            for L in (a.sum(b), a.intersect(b)):
                assert L._pivots == pivots(L)
            assert (a._pivots, b._pivots) == before == (pivots(a), pivots(b))

    def test_hstack_takes_the_row_count(self):
        A, B = IntMatrix([[1], [2]]), IntMatrix([[3, 4], [5, 6]])
        assert hstack(2, [A, B]) == IntMatrix([[1, 3, 4], [2, 5, 6]])
        assert hstack(3, []) == IntMatrix.zeros(3, 0)
        with pytest.raises(DimensionMismatch):
            hstack(3, [A])

    def test_internal_arithmetic_keeps_plain_int_rows(self):
        A = IntMatrix([[1, 2], [3, 4]])
        V = snf(A).V
        for M in (A + A, A - A, -A, A * A, A.transpose(), A.scale(3), hnf(A).U, V, unimodular_inverse(V)):
            assert isinstance(M.data, tuple)
            assert all(isinstance(row, tuple) and len(row) == M.cols for row in M.data)
            assert all(type(x) is int for row in M.data for x in row)

    def test_public_constructor_still_validates(self):
        with pytest.raises(TypeError):
            IntMatrix([[1.5, 2]])
        with pytest.raises(TypeError):
            IntMatrix([[True, 0]])
        with pytest.raises(DimensionMismatch):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(TypeError):
            Lattice.from_rows(2, [[1, 0.5]])
        with pytest.raises(TypeError):
            IntMatrix.identity(2).scale(0.5)


def _eliminate(L, v):
    """Coordinates of ``v`` in the basis of ``L`` by pivot elimination, or None."""
    w, coords = list(v), []
    for row in L.basis.data:
        j = next(k for k, x in enumerate(row) if x)
        q, rem = divmod(w[j], row[j])
        if rem:
            return None
        coords.append(q)
        w = [a - q * b for a, b in zip(w, row)]
    return None if any(w) else tuple(coords)


def _eliminate_reduce(L, v):
    w = list(v)
    for row in L.basis.data:
        j = next(k for k, x in enumerate(row) if x)
        q = w[j] // row[j]
        w = [a - q * b for a, b in zip(w, row)]
    return tuple(w)


def _general_quotient_with_generators(sup, sub):
    """quotient_with_generators with coordinates from pivot elimination."""
    coords = [_eliminate(sup, row) for row in sub.basis.data]
    form = snf(IntMatrix(coords, cols=sup.rank))
    V_inv = unimodular_inverse(form.V)
    gens, torsion = [], []
    for i in range(sup.rank):
        d = form.S.data[i][i] if i < len(coords) else 0
        if d == 1:
            continue
        lift = tuple(
            sum(c * x for c, x in zip(V_inv.data[i], col)) for col in zip(*sup.basis.data)
        )
        gens.append((d, lift))
        if d:
            torsion.append(d)
    gens.sort(key=lambda g: (g[0] == 0, g[0]))
    return AbelianStructure(sup.rank - len(form.factors), tuple(sorted(torsion))), gens


def _relations(rng):
    """Random relation rows: empty, zero rows, rank-deficient, tall and wide."""
    n = rng.randint(0, 5)
    m = rng.choice([0, rng.randint(1, max(1, n)), rng.randint(n, n + 4)])
    rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
    if rows and rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), [0] * n)
    if len(rows) > 1 and rng.random() < 0.3:
        a, b = rng.sample(range(len(rows)), 2)
        c = rng.randint(-3, 3)
        rows.append([x + c * y for x, y in zip(rows[a], rows[b])])
    return n, rows


def _sympy_factors(sympy, rows, n):
    """The nonzero Smith diagonal of an m x n matrix (m may be 0) by sympy."""
    from sympy.matrices.normalforms import smith_normal_form

    S = smith_normal_form(sympy.Matrix(len(rows), n, [x for r in rows for x in r]), domain=sympy.ZZ)
    return tuple(abs(int(S[i, i])) for i in range(min(S.rows, S.cols)) if S[i, i])


class TestInvariantFactorsOnly:
    """Structure-only quotients: the Smith elimination without transforms."""

    SHAPES = [
        (0, []),
        (0, [[], []]),
        (3, []),
        (3, [[0, 0, 0]]),
        (2, [[2, 4], [1, 2], [3, 6]]),
        (4, [[2, 0, 0, 0], [0, 0, 3, 0]]),
        (1, [[6], [4], [0], [10]]),
    ]

    def test_cokernel_matches_quotient_structure_and_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(53)
        cases = self.SHAPES + [_relations(rng) for _ in range(300)]
        for n, rows in cases:
            got = cokernel(n, rows)
            assert got == quotient_structure(Lattice.standard(n), Lattice.from_rows(n, rows))
            if n and rows:
                S = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
                diag = [abs(int(S[i, i])) for i in range(min(S.rows, S.cols))]
                factors = [d for d in diag if d]
            else:
                factors = []
            assert got == AbelianStructure(n - len(factors), tuple(d for d in factors if d > 1))

    def test_smith_matches_sympy_on_empty_shapes(self):
        # 0 x n and m x 0: no pivot, so no factor and no divisibility fix.
        sympy = pytest.importorskip("sympy")
        for m, n in [(0, n) for n in range(6)] + [(m, 0) for m in range(1, 6)]:
            rows = [[] for _ in range(m)]
            assert linalg._smith([list(r) for r in rows], n) == _sympy_factors(sympy, rows, n) == ()
            assert cokernel(n, rows) == AbelianStructure(n)

    def test_smith_matches_sympy_where_the_divisibility_fix_runs(self):
        # Upper-triangular Hermite bases from 1 x 1 to 6 x 6 whose diagonals
        # are no divisibility chain, so the pivots must be fixed up.
        sympy = pytest.importorskip("sympy")
        rng = random.Random(71)
        cases = [[[6, 0], [0, 4]], [[2, 1], [0, 4]], [[4]], [[3, 0, 0], [0, 2, 1], [0, 0, 5]]]
        for _ in range(120):
            n = rng.randint(1, 6)
            diag = [rng.choice([2, 3, 4, 5, 6, 9, 10]) for _ in range(n)]
            above = lambda j: rng.choice([0, 0, rng.randrange(diag[j])])
            cases.append([[diag[j] if i == j else above(j) if i < j else 0 for j in range(n)]
                          for i in range(n)])
        for rows in cases:
            n = len(rows[0])
            got = linalg._smith([list(r) for r in rows], n)
            assert got == _sympy_factors(sympy, rows, n)
            assert all(b % a == 0 for a, b in zip(got, got[1:]))

    def test_cokernel_validates_like_from_rows(self):
        for rows, exc in (
            ([[1, 2, 3]], DimensionMismatch),
            ([[1, 2], [3]], DimensionMismatch),
            ([[1, 0.5]], TypeError),
            ([[True, 0]], TypeError),
        ):
            with pytest.raises(exc):
                Lattice.from_rows(2, rows)
            with pytest.raises(exc):
                cokernel(2, rows)

    def test_quotient_structure_matches_snf_of_coordinates(self):
        rng = random.Random(59)
        for _ in range(200):
            n = rng.randint(1, 4)
            sup = Lattice.from_rows(n, rand_matrix(rng, lo=-4, hi=4, cols=n).data)
            combos = rand_matrix(rng, lo=-3, hi=3, cols=sup.rank).data if sup.rank else []
            sub = Lattice.from_rows(
                n,
                [[sum(c * x for c, x in zip(k, col)) for col in zip(*sup.basis.data)] for k in combos],
            )
            coords = [sup.coords_of(row) for row in sub.basis.data]
            factors = snf(IntMatrix(coords, cols=sup.rank)).factors
            expected = AbelianStructure(sup.rank - len(factors), tuple(d for d in factors if d > 1))
            assert quotient_structure(sup, sub) == expected
            assert lattice_index(sup, sub) == expected.order()
            outside = tuple(rng.randint(-4, 4) for _ in range(n))
            if not sup.contains(outside):
                with pytest.raises(NotASublattice):
                    quotient_structure(sup, sub.sum(Lattice.from_rows(n, [outside])))
            with pytest.raises(DimensionMismatch):
                quotient_structure(sup, Lattice.standard(n + 1))

    def test_identity_basis_coordinates_match_elimination(self):
        rng = random.Random(61)
        lattices = [Lattice.standard(0), Lattice.from_rows(0, [])]
        for _ in range(60):
            n = rng.randint(1, 5)
            lattices.append(Lattice.standard(n))
            # an HNF of rows that span Z^n is the identity basis too
            lattices.append(Lattice.from_rows(n, (rand_unimodular(rng, n) * IntMatrix.identity(n)).data))
        for L in lattices:
            n = L.ambient_dim
            assert L._identity
            assert L.basis == IntMatrix.identity(n)
            for _ in range(5):
                v = tuple(rng.randint(-9, 9) for _ in range(n))
                assert L.coords_of(v) == _eliminate(L, v) == v
                assert L.contains(v)
                assert L.reduce(v) == _eliminate_reduce(L, v)
            for method in (L.coords_of, L.contains, L.reduce):
                with pytest.raises(DimensionMismatch):
                    method((0,) * (n + 1))
        for rows in ([[1, 0], [0, 2]], [[1, 0]], [[1, 1], [0, 1]], []):
            L = Lattice.from_rows(2, rows)
            assert L._identity == (L.basis == IntMatrix.identity(2))
            for v in ((3, 4), (3, 3), (0, 0)):
                assert L.coords_of(v) == _eliminate(L, v)
                assert L.reduce(v) == _eliminate_reduce(L, v)

    def test_generators_over_standard_match_general_coordinates(self):
        rng = random.Random(67)
        for _ in range(200):
            n = rng.randint(1, 5)
            L = Lattice.from_rows(n, rand_matrix(rng, lo=-6, hi=6, cols=n).data)
            Z = Lattice.standard(n)
            assert quotient_with_generators(Z, L) == _general_quotient_with_generators(Z, L)


class TestStrictParser:
    def test_accepts_ints_and_decimal_strings(self):
        assert parse_int(7) == 7
        assert parse_int("-12") == -12
        assert parse_int("007") == 7
        assert IntMatrix.from_json([["1", -2], [3, "4"]]) == IntMatrix([[1, -2], [3, 4]])
        assert Lattice.from_json(2, [["2", "0"], [0, 2]]) == Lattice.scaled(2, 2)

    @pytest.mark.parametrize(
        "bad", [1.5, 2.0, True, False, None, "a", "1.5", "+3", " 3", "1_000", "", "٣", [1]]
    )
    def test_rejects_everything_else(self, bad):
        with pytest.raises(InvalidParameters):
            parse_int(bad)
        with pytest.raises(InvalidParameters):
            IntMatrix.from_json([[bad]])
        with pytest.raises(InvalidParameters):
            Lattice.from_json(1, [[bad]])
        with pytest.raises(InvalidParameters):
            AbelianStructure.from_json({"free_rank": bad, "torsion": []})
        with pytest.raises(InvalidParameters):
            AbelianStructure.from_json({"free_rank": 0, "torsion": [bad]})

    @pytest.mark.parametrize("bad", [5, "ab", [1, 2], {"a": 1}, [[1], 2]])
    def test_rejects_non_matrices(self, bad):
        with pytest.raises(InvalidParameters):
            IntMatrix.from_json(bad)

    def test_digit_limit_is_a_structured_error(self):
        with pytest.raises(InvalidParameters):
            parse_int("9" * 5000)


@st.composite
def tie_heavy_rows(draw):
    """Up to 6 x 6 rows with entries in -2..2, some rows and columns zeroed,
    so that many entries tie for the least absolute value."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(m)]
    zero_rows = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)], n


class TestSameBytesAsTheOldPivotSearch:
    """The transforms are not unique, so only the old code can pin them.

    The Hermite transform is pinned.  The Smith transforms now come from
    alternating Hermite passes, so the old elimination pins ``S`` and the
    factors only, and the transforms are checked by their identities.
    """

    @settings(max_examples=400, deadline=None)
    @given(tie_heavy_rows())
    def test_hnf_matches(self, case):
        rows, n = case
        form = hnf(IntMatrix(rows, cols=n))
        assert (form.H.data, form.U.data) == oracle.hnf(rows, n)

    @settings(max_examples=400, deadline=None)
    @given(tie_heavy_rows())
    def test_snf_matches(self, case):
        rows, n = case
        A = IntMatrix(rows, cols=n)
        form = snf(A)
        S, _, _, _, factors = oracle.snf(rows, n)
        assert (form.S.data, form.factors) == (S, factors)
        _assert_smith_transforms(A, form)


def _with_a_repeat(draw, rows):
    """``rows``, its last one maybe replaced by a copy of another."""
    if len(rows) > 1 and draw(st.booleans()):
        rows[-1] = draw(st.sampled_from(rows[:-1]))
    return rows


def _rows(n, **size):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), **size)


@st.composite
def lattice_rows(draw, n):
    """Rows of a lattice in Z^n: none, a full-rank triangle, or up to n + 1
    small rows."""
    kind = draw(st.sampled_from(["zero", "full", "rows"]))
    if kind == "zero":
        return []
    if kind == "full":
        return [[draw(st.integers(1, 3)) if i == j else draw(st.integers(-3, 3)) * (i < j)
                 for j in range(n)] for i in range(n)]
    return _with_a_repeat(draw, draw(_rows(n, max_size=n + 1)))


@st.composite
def kernel_cases(draw):
    """A k x n map with k and n in 0..8, a lattice of Z^k and two of Z^n;
    shapes k x 0, 0 x n and Z^0 included."""
    k, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    M = _with_a_repeat(draw, draw(_rows(n, min_size=k, max_size=k)))
    return k, n, M, draw(lattice_rows(k)), draw(lattice_rows(n)), draw(lattice_rows(n))


class TestKernelsMatchTheTransformOracle:
    """Preimages, intersections, saturations and kernels read off one
    augmented elimination against the same lattices solved through the
    rows of an independent Hermite transform: equal canonical bases."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_equal_bases(self, case):
        k, n, M, l_rows, a_rows, b_rows = case
        A = IntMatrix(M, cols=n)
        L, a, b = Lattice.from_rows(k, l_rows), Lattice.from_rows(n, a_rows), Lattice.from_rows(n, b_rows)
        assert preimage_lattice(A, L).basis.data == oracle.preimage(M, k, n, L.basis.data)
        assert a.intersect(b).basis.data == oracle.intersect(a.basis.data, b.basis.data, n)
        assert saturate(a).basis.data == oracle.saturate(a.basis.data, n)
        kernel = oracle.kernel(M, n)
        assert left_kernel(A).data == kernel
        assert Lattice.from_rows(k, left_kernel(A).data).basis.data == kernel


def _assert_smith_transforms(A, form):
    """U A V = S with U and V unimodular, and V inverted exactly."""
    assert form.U * A * form.V == form.S
    assert abs(oracle.det(form.U)) == 1 and abs(oracle.det(form.V)) == 1
    assert (unimodular_inverse(form.V) * form.V).is_identity()


@st.composite
def smith_inputs(draw):
    """Random and tie-heavy rows up to 7 x 7: no rows, no columns, zero rows
    and columns, rank-deficient rows and diagonals out of divisibility order."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["random", "ties", "deficient", "diagonal"]))
    if kind == "diagonal":
        ds = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 12, -6]), min_size=m, max_size=m))
        return [[ds[i] if i == j else 0 for j in range(n)] for i in range(m)], n
    bound = 2 if kind == "ties" else 99
    rows = [[draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(m)]
    if kind == "deficient" and m > 1:
        c = draw(st.integers(-3, 3))
        rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
    zero_rows = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)], n


class TestSmithTransformsFromHermitePasses:
    """``snf`` reads its transforms off alternating row and column Hermite
    eliminations; ``_smith`` keeps none."""

    @settings(max_examples=400, deadline=None)
    @given(smith_inputs())
    def test_identities_and_the_old_factors(self, case):
        rows, n = case
        A = IntMatrix(rows, cols=n)
        form = snf(A)
        S, _, _, _, factors = oracle.snf(rows, n)
        assert (form.S.data, form.factors) == (S, factors)
        _assert_smith_transforms(A, form)
        # quotient_with_generators lifts the rows of V^-1: a generator of
        # order d has d times it in the relation lattice, and with it the
        # generators span Z^n.
        sub = Lattice.from_rows(n, rows)
        structure, gens = quotient_with_generators(Lattice.standard(n), sub)
        assert structure == cokernel(n, rows)
        assert [d for d, _ in gens] == [d for d in factors if d != 1] + [0] * (n - len(factors))
        assert all(sub.contains([d * x for x in g]) for d, g in gens)
        assert sub.sum(Lattice.from_rows(n, [g for _, g in gens])) == Lattice.standard(n)

    @pytest.mark.parametrize("n", [40, 60])
    def test_seeded_transforms_stay_small(self, n):
        # The old pivot search reached 3,745 and 19,045 bits on these.
        rng = random.Random(2)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        form = snf(A)
        assert form.U * A * form.V == form.S
        V_inv = unimodular_inverse(form.V)  # quotient_with_generators lifts its rows
        entries = [x for M in (form.U, form.V, V_inv) for row in M.data for x in row]
        assert max(abs(x).bit_length() for x in entries) < 1000


def _parsed(parse, x):
    try:
        return parse(x)
    except InvalidParameters as exc:
        return ("InvalidParameters", str(exc))


_SIGNS = st.sampled_from(["", "-", "+", "--", " ", "-\u00a0", "\u2212"])
_BODIES = st.text(alphabet="0123456789_ \t\n-+.e\u0663\u00b2\u0967\u07c0\U0001d7d9", max_size=12)


def _rows_by_entry(obj):
    """The old rule row by row: the list-of-lists check, ``parse_int`` of the
    oracle on every entry in row-major order, then one width."""
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise InvalidParameters("a matrix must be a JSON list of rows")
    rows = [tuple(map(oracle.parse_int, row)) for row in obj]
    if len({len(row) for row in rows}) > 1:
        raise DimensionMismatch("ragged rows")
    return rows, len(rows[0]) if rows else 0


def _outcome(parse, obj):
    try:
        return parse(obj)
    except (InvalidParameters, DimensionMismatch) as exc:
        return (type(exc).__name__, str(exc))


_ENTRIES = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1,2", "-", "", "007", "-0", " 3", "\u0663"]),
    st.builds(lambda sign, n: sign + "9" * n, st.sampled_from(["", "-"]), st.sampled_from([4299, 4300, 4301])),
    st.integers(), st.booleans(), st.floats(), st.none(),
)


@st.composite
def _json_matrices(draw):
    """0 to 4 rows, mostly of one width and of decimal strings, with ragged
    rows, rows that are not lists and bad entries in any row mixed in."""
    width = draw(st.integers(0, 4))
    valid = st.lists(st.integers(-99, 99).map(str), min_size=width, max_size=width)
    row = st.one_of(
        valid, valid, st.lists(_ENTRIES, min_size=width, max_size=width), st.lists(_ENTRIES, max_size=4),
        st.sampled_from(["12", 5, None, {"1": 2}, ("1",)]),
    )
    return draw(st.lists(row, max_size=4))


class TestParserMatchesTheOldRule:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.text(max_size=12),
        st.builds(str.__add__, _SIGNS, _BODIES),
        st.builds(lambda sign, n: sign + "9" * n, st.sampled_from(["", "-"]), st.sampled_from([4299, 4300, 4301])),
        st.integers(), st.booleans(), st.floats(), st.none(),
    ))
    def test_accepts_and_returns_the_same(self, x):
        assert _parsed(parse_int, x) == _parsed(oracle.parse_int, x)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from(["1,2", "-", "--1", "1-2", "", ",", "1,", ",1", "0", "-0", "007", "-12"]),
        st.builds(str.__add__, _SIGNS, _BODIES),
        st.builds(lambda sign, n: sign + "9" * n, st.sampled_from(["", "-"]), st.sampled_from([4299, 4300, 4301])),
        st.integers(), st.booleans(), st.floats(), st.none(),
    ), max_size=4))
    def test_rows_parse_like_their_entries(self, row):
        # The whole-row check accepts, converts and names a bad entry like
        # the old rule applied entry by entry.
        def by_row(r):
            return _parse_rows([r])[0][0]

        def by_entry(r):
            return tuple(map(oracle.parse_int, r))

        assert _parsed(by_row, row) == _parsed(by_entry, row)

    @settings(max_examples=500, deadline=None)
    @given(_json_matrices())
    def test_matrices_parse_like_their_entries_row_by_row(self, obj):
        # One match on the whole matrix gives the rows, or the error, that
        # the old rule gives entry by entry: the first bad entry in
        # row-major order, and a ragged matrix only once every entry parses.
        assert _outcome(_parse_rows, obj) == _outcome(_rows_by_entry, obj)

    @pytest.mark.parametrize("obj, want", [
        ([["1", "2"], ["3", "x"], ["5"]], ("InvalidParameters", "expected an integer or a decimal string, got 'x'")),
        ([["1", "2"], ["3"]], ("DimensionMismatch", "ragged rows")),
        ([["1", "2"], [3, True]], ("InvalidParameters", "expected an integer or a decimal string, got True")),
        ([["1"], "2"], ("InvalidParameters", "a matrix must be a JSON list of rows")),
        ([["1", 2], ["-3", "4"]], ([(1, 2), (-3, 4)], 2)),
        ([[], []], ([(), ()], 0)),
    ])
    def test_named_cases(self, obj, want):
        assert _outcome(_parse_rows, obj) == want


class TestSympyOracle:
    """``sympy.matrices.normalforms`` as an independent implementation."""

    def test_smith_factors(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(29)
        for _ in range(150):
            A = rand_matrix(rng, maxdim=5)
            S = smith_normal_form(sympy.Matrix(A.data), domain=sympy.ZZ)
            diag = [abs(int(S[i, i])) for i in range(min(S.rows, S.cols))]
            assert snf(A).factors == tuple(d for d in diag if d)

    def test_hermite_spans_the_same_lattice(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import hermite_normal_form

        rng = random.Random(37)
        for _ in range(150):
            A = rand_matrix(rng, maxdim=5)
            # sympy's form is column-style: the columns of HNF(A^T) span
            # the row lattice of A.
            cols = hermite_normal_form(sympy.Matrix(A.data).T)
            theirs = [tuple(int(x) for x in cols.col(j)) for j in range(cols.cols)]
            basis = [row for row in hnf(A).H.data if any(row)]
            ours = Lattice(A.cols, IntMatrix(basis, cols=A.cols))
            assert all(ours.contains(v) for v in theirs)
            span = Lattice.from_rows(A.cols, theirs)
            assert all(span.contains(row) for row in ours.basis.data)

    def test_cyclotomic_polynomials(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for d in range(1, 301):
            theirs = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
            assert _cyclotomic(d, int(sympy.totient(d))) == theirs

    def test_charpoly_mod_the_prime(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(41)
        # Zero subdiagonal entries with a nonzero one below (a pivot swap),
        # and whole zero columns below the subdiagonal (a skipped step).
        cases = [
            IntMatrix([[1, 2, 3], [0, 4, 5], [6, 0, 7]]),
            IntMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]),
            IntMatrix([[2, 1, 0], [0, 3, 1], [0, 0, 5]]),
            IntMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [3, 0, 0, 0]]),
        ]
        for n in range(8):
            for density in (0.2, 0.5, 1.0):
                for _ in range(6):
                    cases.append(IntMatrix([
                        [rng.choice([-(10**20), -3, -1, 1, 2, 7]) if rng.random() < density else 0
                         for _ in range(n)]
                        for _ in range(n)
                    ], cols=n))
        for M in cases:
            theirs = sympy.Matrix(M.rows, M.cols, list(M.entries)).charpoly(x).all_coeffs()[::-1]
            assert _charpoly_mod(M, _PRIME) == [int(c) % _PRIME for c in theirs]


class TestCyclotomicSplit:
    def test_singular_factors_and_orders(self):
        R, T, S = [[0, -1], [1, 0]], [[0, -1], [1, -1]], [[5, 2], [2, 1]]

        def diag(*blocks):
            n = sum(map(len, blocks))
            rows, i = [[0] * n for _ in range(n)], 0
            for b in blocks:
                for r, row in enumerate(b):
                    rows[i + r][i : i + len(row)] = row
                i += len(b)
            return IntMatrix(rows, cols=n)

        assert set(cyclotomic_kernels(diag(R, [[-1]], S))) == {4, 2}
        assert finite_order(diag(R, [[-1]], S)) is None
        assert finite_order(diag(R, T)) == 12
        assert finite_order(diag(R, R, [[-1]])) == 4
        assert finite_order(IntMatrix([[1, 1], [0, 1]])) is None
        assert finite_order(IntMatrix.identity(0)) == 1
        assert cyclotomic_kernels(IntMatrix.identity(0)) == {}
        with pytest.raises(DimensionMismatch):
            cyclotomic_kernels(IntMatrix([[1, 2]]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    def test_kernel_ranks_are_the_oracle_nullities(self, rows):
        # Phi_d(A) from sympy's Phi_d; d is kept iff the oracle's determinant
        # of Phi_d(A) is 0, with the nullity of the oracle's Hermite form.
        sympy = pytest.importorskip("sympy")
        n = len(rows)
        A, I = IntMatrix(rows, cols=n), IntMatrix.identity(n)
        want = {}
        for d in range(1, 2 * n * n + 1):
            if sympy.totient(d) <= n:
                X = IntMatrix.zeros(n, n)
                for c in sympy.Poly(sympy.cyclotomic_poly(d)).all_coeffs():
                    X = X * A + I.scale(int(c))
                if oracle.det(X) == 0:
                    H, _ = oracle.hnf(X.data, n)
                    want[d] = X, n - sum(1 for row in H if any(row))
        assert cyclotomic_kernels(A) == want

    def test_a_factor_only_modulo_the_prime_is_dropped(self):
        # x - (1 - p) is x - 1 modulo p, but Phi_1(A) = (-p) is invertible.
        A = IntMatrix([[1 - _PRIME]])
        assert cyclotomic_kernels(A) == {}
        assert finite_order(A) is None
