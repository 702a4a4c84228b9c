import itertools
import random

import cohomology_oracle as oracle
import pytest
from hypothesis import event, example, given, settings, strategies as st

from cohomology_oracle import cocycle_defect, word_matrix
from nilcert import linalg
from nilcert.cohomology import (
    ModuleAction,
    _coboundary_lattice,
    _cocycle_lattice,
    _structure_from_subgroup_counts,
    b1,
    coset_enumeration,
    h1,
    h1_brute,
    z1,
)
from nilcert.errors import EnumerationFailed, IllDefinedAction, InvalidParameters, TooLarge
from nilcert.linalg import AbelianStructure, IntMatrix, solve_row_combination, vstack

Z = AbelianStructure(1, ())
I1 = IntMatrix.identity(1)
NEG = IntMatrix([[-1]])

S3_RELATORS = ("aa", "bb", "ababab")


def act_cyclic(n, matrix, module):
    return ModuleAction(1, ("a" * n,), module, (matrix,))


class TestCosetEnumeration:
    @pytest.mark.parametrize(
        "ngens,relators,order",
        [
            (1, ("aa",), 2),
            (1, ("aaa",), 3),
            (1, ("aaaa",), 4),
            (2, ("aa", "bb", "abab"), 4),
            (2, S3_RELATORS, 6),
            (2, ("aaaa", "aabb", "abaB"), 8),  # quaternion group
            (0, (), 1),
        ],
    )
    def test_orders(self, ngens, relators, order):
        assert len(coset_enumeration(ngens, relators, 4096)) == order

    def test_infinite_group_guard(self, time_limit):
        # Z^2 is infinite: without the vertex bound the table grows forever
        with pytest.raises(EnumerationFailed), time_limit(10):
            coset_enumeration(2, ("abAB",), 64)

    def test_table_is_consistent(self):
        table = coset_enumeration(2, S3_RELATORS, 1024)
        for c, row in enumerate(table):
            for j in range(2):
                assert table[row[2 * j]][2 * j + 1] == c


class TestActionValidation:
    def test_relator_must_act_trivially(self):
        with pytest.raises(IllDefinedAction):
            ModuleAction(1, ("aa",), AbelianStructure(2, ()), (IntMatrix([[0, -1], [1, -1]]),))

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
    def test_action_matrices_are_square_of_the_module_rank(self, shape):
        rows, cols = shape
        psi = IntMatrix([[int(i == j) for j in range(cols)] for i in range(rows)])
        with pytest.raises(IllDefinedAction, match=r"^action matrices must be 2 x 2$"):
            ModuleAction(1, ("a",), AbelianStructure(2, ()), (psi,))

    def test_torsion_respect(self):
        # Z -> Z/2 coordinate mixing that does not respect torsion
        bad = IntMatrix([[1, 1], [0, 1]])
        with pytest.raises(IllDefinedAction):
            ModuleAction(1, ("a",), AbelianStructure(1, (2,)), (bad,))

    def test_mod_torsion_relator_ok(self):
        # multiplication by 3 on Z/8 squares to 9 = 1 (mod 8)
        act = act_cyclic(2, IntMatrix([[3]]), AbelianStructure(0, (8,)))
        assert word_matrix(act, "aa").data[0][0] % 8 == 1

    def test_module_inverse_matches_column_solve(self):
        # oracle: solve c * [psi^T; torsion] = e_j one column at a time
        cases = [
            (AbelianStructure(0, (8,)), IntMatrix([[3]])),
            (AbelianStructure(2, ()), IntMatrix([[0, -1], [1, -1]])),
            (AbelianStructure(1, (4,)), IntMatrix([[-1, 0], [1, 3]])),
            (AbelianStructure(0, (2, 6)), IntMatrix([[1, 1], [0, 5]])),
        ]
        for module, psi in cases:
            act = ModuleAction(1, (), module, (psi,))
            lat = act.torsion_lattice
            stacked = vstack([psi.transpose(), lat.basis]) if lat.rank else psi.transpose()
            cols = [
                solve_row_combination(stacked, [int(i == j) for i in range(act.dim)])[: act.dim]
                for j in range(act.dim)
            ]
            assert act.inverses[0] == IntMatrix(cols, cols=act.dim).transpose()

    def test_non_invertible_action_rejected(self):
        for module, psi in [
            (AbelianStructure(0, (8,)), IntMatrix([[2]])),
            (AbelianStructure(1, ()), IntMatrix([[3]])),
            (AbelianStructure(0, (2, 6)), IntMatrix([[1, 1], [3, 1]])),
        ]:
            with pytest.raises(IllDefinedAction, match="not invertible"):
                ModuleAction(1, (), module, (psi,))

    def test_json_round_trip(self):
        act = ModuleAction(2, ("aa", "bb", "abAB"), AbelianStructure(0, (2,)), (I1, I1))
        assert ModuleAction.from_json(act.to_json()) == act

    def test_from_json_needs_lists_and_fields(self):
        # a string would otherwise be read letter by letter as a list
        good = act_cyclic(2, NEG, Z).to_json()
        for bad in (
            dict(good, relators="aa"),
            dict(good, module={"free": 0, "torsion": "22"}),
            {"generators": 1},
        ):
            with pytest.raises(InvalidParameters):
                ModuleAction.from_json(bad)


class TestZ1:
    def test_trivial_action_on_z(self):
        assert z1(act_cyclic(2, I1, Z)).structure == AbelianStructure(0, ())

    def test_sign_action_on_z(self):
        # Fox derivative of g^2 is 1 + psi(g) = 0, so every value is a cocycle
        space = z1(act_cyclic(2, NEG, Z))
        assert space.structure == AbelianStructure(1, ())
        # verify the basis element really is a crossed homomorphism on Q
        act = act_cyclic(2, NEG, Z)
        c = space.basis[0]
        assert cocycle_defect(act, list(c), "aa") == (0,)

    def test_klein_four_on_z2(self):
        act = ModuleAction(2, ("aa", "bb", "abAB"), AbelianStructure(0, (2,)), (I1, I1))
        # oracle: brute-force enumeration of maps satisfying the identity
        space = z1(act)
        assert space.structure == AbelianStructure(0, (2, 2))

    def test_basis_satisfies_relators(self):
        rng = random.Random(5)
        rot = IntMatrix([[0, -1], [1, -1]])
        actions = [
            act_cyclic(3, rot, AbelianStructure(2, ())),
            ModuleAction(2, S3_RELATORS, AbelianStructure(0, (4,)), (IntMatrix([[3]]), IntMatrix([[3]]))),
            act_cyclic(4, NEG, Z),
        ]
        for act in actions:
            space = z1(act)
            for c in space.basis:
                for word in act.relators:
                    assert all(
                        x == 0 for x in cocycle_defect(act, list(c), word)
                    )


class TestB1:
    def test_trivial_action(self):
        assert b1(act_cyclic(2, I1, Z)).structure == AbelianStructure(0, ())

    def test_sign_action_gives_even_multiples(self):
        space = b1(act_cyclic(2, NEG, Z))
        assert space.structure == AbelianStructure(1, ())
        v = space.basis[0][0]
        assert v in ((2,), (-2,))

    def test_b1_inside_z1(self):
        # every coboundary is a cocycle: B^1 sits inside the cocycle lattice
        perm = IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        cycle = IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        three = (IntMatrix([[3]]), IntMatrix([[3]]))
        actions = [
            ModuleAction(2, S3_RELATORS, AbelianStructure(0, (8,)), three),
            ModuleAction(2, S3_RELATORS, AbelianStructure(3, ()), (perm, perm * cycle)),
            act_cyclic(2, NEG, Z),
            act_cyclic(4, IntMatrix([[3]]), AbelianStructure(0, (8,))),
            act_cyclic(6, IntMatrix([[0, -1], [1, 1]]), AbelianStructure(2, ())),
        ]
        for act in actions:
            K = _cocycle_lattice(act)
            B = _coboundary_lattice(act)
            assert B.is_sublattice_of(K)
            zo, bo = z1(act).structure.order(), b1(act).structure.order()
            if zo is not None and bo is not None:
                assert zo % bo == 0

    def test_finite_module_coboundary_count(self):
        # |B1| = |M| / |M^Q| via brute-force fixed points
        rng = random.Random(6)
        for d in (2, 3, 4, 6, 8):
            for m in range(1, d):
                mat = IntMatrix([[m]])
                try:
                    act = act_cyclic(4, mat, AbelianStructure(0, (d,)))
                except IllDefinedAction:
                    continue
                fixed = sum(1 for x in range(d) if (m * x - x) % d == 0)
                bo = b1(act).structure.order()
                assert bo == d // fixed


class TestH1:
    def test_sign_action(self):
        assert h1(act_cyclic(2, NEG, Z)) == AbelianStructure(0, (2,))

    def test_trivial_action_on_free_module(self):
        act = act_cyclic(4, IntMatrix.identity(3), AbelianStructure(3, ()))
        assert h1(act) == AbelianStructure(0, ())

    def test_rotation_action(self):
        # Z/3 acting on Z^2 by the hexagonal rotation: Z1 = Z^2 (the norm
        # element annihilates) and B1 has index 3 = |det(psi - 1)|, so
        # H1 = Z/3 (the three conjugacy classes of order-3 rotation centers).
        rot = IntMatrix([[0, -1], [1, -1]])
        act = act_cyclic(3, rot, AbelianStructure(2, ()))
        assert z1(act).structure == AbelianStructure(2, ())
        assert h1(act) == AbelianStructure(0, (3,))

    def test_functoriality_doubling(self):
        # doubling the module doubles the invariant-factor multiset
        for mat, module in [
            (NEG, Z),
            (IntMatrix([[3]]), AbelianStructure(0, (8,))),
        ]:
            act = act_cyclic(2, mat, module)
            single = h1(act)
            doubled_module = AbelianStructure(
                2 * module.free_rank, tuple(sorted(module.torsion * 2))
            )
            dim = act.dim
            big = IntMatrix(
                [
                    [
                        mat.data[i % dim][j % dim] if (i < dim) == (j < dim) else 0
                        for j in range(2 * dim)
                    ]
                    for i in range(2 * dim)
                ]
            )
            # block-diagonal embedding needs coordinate order free+torsion:
            # for these 1-dimensional modules the blocks are scalars
            act2 = act_cyclic(2, big, doubled_module)
            doubled = h1(act2)
            assert doubled.torsion == tuple(sorted(single.torsion * 2))

    def test_rows_computed_inside_are_not_validated(self, monkeypatch):
        # Klein four on Z + Z/2 + Z/4 from matrices already parsed: the
        # inverse actions, the torsion diagonals and the coboundary rows are
        # computed from checked input, so neither building the action nor
        # h1 passes a row through the validating constructors.
        module = AbelianStructure(1, (2, 4))
        mats = (
            IntMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
        )
        calls = []
        real = linalg._validated
        monkeypatch.setattr(linalg, "_validated", lambda *args: calls.append(1) or real(*args))
        act = ModuleAction(2, ("aa", "bb", "abab"), module, mats)
        assert h1(act) == AbelianStructure(0, (2, 2, 2, 2, 2))
        assert calls == []


class TestH1Brute:
    def test_matches_h1_on_truncation(self):
        act = act_cyclic(2, NEG, AbelianStructure(0, (4,)))
        assert h1(act) == h1_brute(act) == AbelianStructure(0, (2,))

    def test_trivial_action_z2_on_z2(self):
        act = act_cyclic(2, I1, AbelianStructure(0, (2,)))
        assert h1_brute(act) == AbelianStructure(0, (2,))

    def test_trivial_group(self):
        act = ModuleAction(0, (), AbelianStructure(0, (4,)), ())
        assert h1_brute(act) == AbelianStructure(0, ())

    def test_trivial_module(self):
        act = ModuleAction(1, ("aa",), AbelianStructure(0, ()), (IntMatrix([], cols=0),))
        assert z1(act).structure == AbelianStructure(0, ())
        assert h1(act) == AbelianStructure(0, ())
        assert h1_brute(act) == AbelianStructure(0, ())

    def test_infinite_module_rejected(self):
        with pytest.raises(TooLarge):
            h1_brute(act_cyclic(2, NEG, Z))

    def test_guards(self):
        act = act_cyclic(2, I1, AbelianStructure(0, (2,)))
        with pytest.raises(TooLarge):
            h1_brute(act, max_module_order=1)

    @pytest.mark.parametrize(
        "relators,torsion,matrices,known",
        [
            # Z/6 on Z/7 by 4, of order 3: 4 - 1 is a unit, so H^1 = 0.
            (("aaaaaa",), (7,), [[[4]]], ()),
            # Z/2 x Z/4 on (Z/4)^2: a by -1, b by [[1, 2], [3, 1]].
            (("aa", "bbbb", "abAB"), (4, 4), [[[3, 0], [0, 3]], [[1, 2], [3, 1]]], (2, 2)),
        ],
        ids=["z6-on-z7", "z2xz4-on-z4^2"],
    )
    def test_forward_letters_act_by_their_matrices(self, relators, torsion, matrices, known):
        # From the seed-0 and seed-1 rounds of the cohomology benchmark workload:
        # a coset walk that steps along a forward letter by the inverse matrix fails both.
        module = AbelianStructure(0, torsion)
        act = ModuleAction(len(matrices), relators, module, tuple(map(IntMatrix, matrices)))
        assert h1_brute(act) == h1(act) == AbelianStructure(0, known)

    def test_agreement_spot_checks(self):
        rng = random.Random(31337)
        presentations = [
            (1, ("aa",)),
            (1, ("aaa",)),
            (1, ("aaaa",)),
            (2, ("aa", "bb", "abAB")),
            (2, S3_RELATORS),
        ]
        checked = 0
        while checked < 40:
            ngens, rels = presentations[rng.randrange(len(presentations))]
            d = rng.choice([2, 3, 4, 5, 6, 8, 9, 12, 16])
            mats = tuple(
                IntMatrix([[rng.randrange(1, d)]]) for _ in range(ngens)
            )
            try:
                act = ModuleAction(ngens, rels, AbelianStructure(0, (d,)), mats)
            except IllDefinedAction:
                continue
            assert h1(act) == h1_brute(act), (rels, d, mats)
            checked += 1

    @pytest.mark.parametrize(
        "prime_powers",
        [
            (),
            ((2, 1), (2, 1), (2, 1)),
            ((2, 1), (2, 2), (2, 2), (3, 1), (3, 2)),
            ((2, 3), (2, 1), (3, 1), (3, 1), (5, 1)),
            ((2, 2), (2, 2), (3, 1), (5, 2)),
        ],
        ids=["trivial", "2+2+2", "2+4+4+3+9", "8+2+3+3+5", "4+4+3+25"],
    )
    def test_counts_give_the_invariant_factors(self, prime_powers):
        # The whole group Z/p^a + ..., canonical modulo its diagonal torsion
        # lattice, over {0}.  The reference pairs the s-th largest exponent
        # of every prime into one factor (Chinese remainders), with no Smith form.
        moduli = [p**a for p, a in prime_powers]
        n = len(moduli)
        torsion = linalg.Lattice.from_rows(n, [[d * (i == j) for j in range(n)] for i, d in enumerate(moduli)])
        zset = set(itertools.product(*map(range, moduli)))
        exponents = {}
        for p, a in prime_powers:
            exponents.setdefault(p, []).append(a)
        width = max(map(len, exponents.values()), default=0)
        factors = [1] * width
        for p, exps in exponents.items():
            for s, a in enumerate(sorted(exps, reverse=True)):
                factors[s] *= p**a
        expected = AbelianStructure(0, tuple(sorted(factors)))
        assert _structure_from_subgroup_counts(zset, {(0,) * n}, torsion) == expected


# ---------------------------------------------------------------------------
# The torsion lattice and the single relator walk against the hand-built path
# ---------------------------------------------------------------------------

TORSIONS = [(), (2,), (3,), (4,), (2, 2), (2, 4), (6,)]
# Group-like words, plus words with letters past the generator count.
WORDS = ["", "a", "aa", "aaa", "aaaa", "AA", "bb", "abAB", "abab", "ababab", "aabb", "abaB", "ba", "c", "aC"]


@st.composite
def action_inputs(draw):
    ngens, free = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    torsion = draw(st.sampled_from(TORSIONS))
    dim = free + len(torsion)
    entry = st.integers(-2, 3)
    matrices = []
    for _ in range(ngens):
        if draw(st.integers(0, 3)) == 0:
            rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
        else:
            # Diagonal, with free -> torsion entries: often a valid action.
            rows = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                rows[i][i] = draw(st.sampled_from((-1, 1) if i < free else (-1, 1, 2, 3)))
                for j in range(free if i >= free else 0):
                    rows[i][j] = draw(entry)
        matrices.append(IntMatrix(rows, cols=dim))
    matrices = tuple(matrices)
    relators = tuple(draw(st.lists(st.sampled_from(WORDS), max_size=3)))
    return ngens, relators, AbelianStructure(free, torsion), matrices


def outcome(fn, *args):
    """A result, or the type and message of the exception raised."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestHandBuiltOracle:
    @settings(max_examples=150, deadline=None)
    @given(action_inputs())
    @example((0, ("",), AbelianStructure(1, (2,)), ()))
    @example((0, ("", ""), AbelianStructure(0, ()), ()))
    @example((2, ("ab", "aa"), AbelianStructure(0, ()), (IntMatrix([], cols=0),) * 2))
    @example((1, ("aa",), AbelianStructure(1, (2, 4)), (IntMatrix([[-1, 0, 0], [1, 1, 0], [0, 0, 3]]),)))
    # Z/2 x Z/2 on Z/4: a Z^1 generator's lift comes out as -2, reduced to 2
    @example((2, ("AA", "abAB", "aa"), AbelianStructure(0, (4,)), (IntMatrix([[-1]]), IntMatrix([[3]]))))
    def test_same_results_as_the_hand_built_path(self, inputs):
        want_act = outcome(oracle.HandBuiltAction, *inputs)
        got_act = outcome(ModuleAction, *inputs)
        assert got_act[0] == want_act[0]
        if got_act[0] != "ok":
            event(got_act[0])
            assert got_act == want_act
            return
        event("valid")
        act, hand = got_act[1], want_act[1]
        assert act.torsion_lattice == hand.torsion_lattice
        assert act.inverses == hand.inverses
        for fn, oracle_fn in ((z1, oracle.z1), (b1, oracle.b1), (h1, oracle.h1)):
            assert outcome(fn, act) == outcome(oracle_fn, hand)
        if act.module.is_finite:
            # h1_brute reduces through the same torsion lattices; where its
            # guards let it finish, it agrees with the hand-built H^1.
            got = outcome(h1_brute, act, 48)
            event("h1_brute " + got[0])
            assert got[0] in ("ok", "TooLarge", "EnumerationFailed")
            if got[0] == "ok":
                assert got[1] == oracle.h1(hand)
