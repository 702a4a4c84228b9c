import copy
import json
import math
import random

import pytest

from nilcert import semidirect
from nilcert.arith import canonical_json, is_prime, prime_factors
from nilcert.certificates import ChainLevel, SeriesCertificate, length_lower_bound
from nilcert.cli import run
from nilcert.errors import (
    InvalidParameters,
    NotNormal,
    QuotientTooLarge,
    TooLarge,
    UnresolvableReference,
    UnsupportedGroupShape,
    ZeroEuler,
)
from nilcert.invariants import (
    DiscSym2Bound,
    discsym2_upper,
    euler_length_bound,
    minkowski_bound,
    verify_certificate,
)
from nilcert.linalg import IntMatrix, Lattice
from nilcert.nilpotent2 import (
    NilSublattice,
    TwoStepLattice,
    heisenberg_witness,
    subnormal_series,
)
from nilcert.semidirect import (
    SemidirectGroup,
    SemidirectLattice,
    sol3_gamma,
    sol3_tower,
)
from semidirect_oracle import root_order_lcm


class TestIsPrime:
    def test_agrees_with_trial_division_below_1e5(self):
        for n in range(10**5):
            assert is_prime(n) == (n >= 2 and prime_factors(n) == [n]), n

    def test_prime_factors_are_the_primes_dividing_n(self):
        for n in range(1, 1000):
            assert prime_factors(n) == [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)], n

    def test_strong_pseudoprimes_and_the_bound(self):
        # Strong pseudoprimes to the prime bases up to 7, 23 and 37; the bound
        # itself passes every base up to 41, so it is refused, not decided.
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)
        assert is_prime(2**61 - 1)
        with pytest.raises(TooLarge):
            is_prime(3317044064679887385961981)


class TestMinkowski:
    def test_values(self):
        assert [minkowski_bound(n) for n in (1, 2, 3, 4)] == [2, 24, 48, 5760]

    def test_signed_permutation_divisibility(self):
        # the signed permutation group of order 2^n n! embeds in GL(n, Z)
        for n in range(1, 5):
            assert minkowski_bound(n) % (2**n * math.factorial(n)) == 0

    def test_known_finite_subgroups_divide(self):
        # GL(2, Z) contains subgroups of orders 8 (square) and 12 (hexagon)
        assert minkowski_bound(2) % 8 == 0
        assert minkowski_bound(2) % 12 == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameters):
            minkowski_bound(0)


def test_root_order_lcm_is_the_lcm_of_orders_of_degree_at_most_n():
    # phi(d) >= sqrt(d / 2), so every d with phi(d) <= n is at most 2 n^2.
    def phi(d):
        return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)

    for n in range(0, 13):
        orders = [d for d in range(1, 2 * n * n + 1) if phi(d) <= n]
        assert root_order_lcm(n) == math.lcm(*orders)
        assert n == 0 or minkowski_bound(n) % root_order_lcm(n) == 0
    assert root_order_lcm(6) == 2520


class TestEulerBound:
    def test_examples(self):
        assert euler_length_bound(8) == 3
        assert euler_length_bound(1) == 0
        assert euler_length_bound(-12) == 3

    def test_zero_rejected(self):
        with pytest.raises(ZeroEuler):
            euler_length_bound(0)

    def test_sandwich_over_range(self):
        for chi in range(1, 1025):
            r = euler_length_bound(chi)
            assert 2**r <= chi < 2 ** (r + 1)
            assert euler_length_bound(-chi) == r


class TestLengthLowerBound:
    """``length_lower_bound(N, q)`` is the least n with q**n >= N."""

    def test_examples(self):
        assert length_lower_bound(8, 4) == 2
        for q in range(2, 12):
            assert length_lower_bound(1, q) == 0
            for k in range(10):
                assert length_lower_bound(q**k, q) == k
                assert length_lower_bound(q**k + 1, q) == k + 1

    def test_sandwich_over_range(self):
        # n = 0 exactly when N <= 1; otherwise q**(n - 1) < N <= q**n.
        for q in range(2, 10):
            for N in range(1, 2000):
                n = length_lower_bound(N, q)
                assert q**n >= N and (n == 0 or q ** (n - 1) < N), (N, q)


class TestDiscSym2Order:
    def test_lexicographic_rule_randomized(self):
        rng = random.Random(404)
        for _ in range(1000):
            a, b, c, d = (rng.randint(0, 6) for _ in range(4))
            left, right = DiscSym2Bound(a, b), DiscSym2Bound(c, d)
            # Def-style rule: (a, b) >= (c, d) iff a > c, or a = c and b >= d
            want_ge = a > c or (a == c and b >= d)
            assert (left >= right) == want_ge
            assert (left.as_pair() >= right.as_pair()) == want_ge

    def test_total_order(self):
        pairs = [DiscSym2Bound(f, b) for f in range(3) for b in range(3)]
        ordered = sorted(pairs)
        for x, y in zip(ordered, ordered[1:]):
            assert x <= y


class TestDiscSym2Upper:
    def test_heisenberg_all_k(self):
        for k in range(1, 11):
            assert discsym2_upper(TwoStepLattice.heisenberg(k)).as_pair() == (1, 2)

    def test_torus(self):
        assert discsym2_upper(TwoStepLattice.free_abelian(3, 0)).as_pair() == (3, 0)

    def test_sol3(self):
        assert discsym2_upper(sol3_gamma(0)).as_pair() == (0, 0)

    def test_klein_bottle_times_circle(self):
        K = SemidirectGroup(IntMatrix([[-1, 0], [0, 1]]))
        G = SemidirectLattice(K, Lattice.standard(2), 1)
        assert discsym2_upper(G).as_pair() == (2, 0)

    def test_torus_as_semidirect(self):
        T = SemidirectGroup(IntMatrix.identity(2))
        G = SemidirectLattice(T, Lattice.standard(2), 1)
        assert discsym2_upper(G).as_pair() == (3, 0)

    def test_finite_order_with_rotation(self):
        # order-4 rotation: center = 4Z translations only, Inn = Z^2 x| Z/4
        # whose center is trivial modulo torsion
        R = SemidirectGroup(IntMatrix([[0, -1], [1, 0]]))
        G = SemidirectLattice(R, Lattice.standard(2), 1)
        assert discsym2_upper(G).as_pair() == (1, 0)

    def test_degenerate_two_step(self):
        J = IntMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        G = TwoStepLattice(1, 3, [J])
        # center rank 1 + 1, inner rank 3 - 1
        assert discsym2_upper(G).as_pair() == (2, 2)

    def test_unsupported_shape(self):
        with pytest.raises(UnsupportedGroupShape):
            discsym2_upper(42)

    @pytest.mark.parametrize(
        "matrix, m, pair",
        [
            ([[5, 2], [2, 1]], 1, (0, 0)),
            ([[-1, 0], [0, 1]], 1, (2, 0)),
            ([[0, -1], [1, 0]], 1, (1, 0)),
            ([[1, 1], [0, 1]], 3, (1, 2)),
        ],
    )
    def test_one_cyclotomic_split_serves_both_ranks(self, monkeypatch, matrix, m, pair):
        # Both ranks of a semidirect bound read the kernels of Phi_d(A);
        # they are found once, not once per rank.
        calls = []
        real = semidirect.cyclotomic_kernels
        monkeypatch.setattr(semidirect, "cyclotomic_kernels", lambda A: calls.append(A) or real(A))
        G = SemidirectLattice(SemidirectGroup(IntMatrix(matrix)), Lattice.standard(2), m)
        assert discsym2_upper(G).as_pair() == pair
        assert len(calls) == 1


class TestVerifyCertificate:
    def test_sol3_round_trip(self):
        cert = sol3_tower(3)
        assert verify_certificate(cert) is True
        assert verify_certificate(cert.to_json_dict()) is True

    def test_witness_round_trip(self):
        cert = heisenberg_witness(1, 3, 2)
        assert verify_certificate(cert) is True
        assert verify_certificate(cert.to_json_dict()) is True

    def test_series_round_trip(self):
        H = TwoStepLattice.heisenberg(1)
        sub = NilSublattice(H, Lattice.scaled(2, 2), Lattice.scaled(1, 4))
        cert = subnormal_series(H, sub)
        assert verify_certificate(cert) is True
        assert verify_certificate(cert.to_json_dict()) is True

    def test_tampered_quotient_rejected(self):
        d = sol3_tower(2).to_json_dict()
        d["levels"][0]["quotient_factors"] = ["2", "4"]
        assert verify_certificate(d) is False

    def test_tampered_consistently_rejected(self):
        # keep the index product consistent but lie about one quotient
        d = sol3_tower(2).to_json_dict()
        d["levels"][0]["quotient_factors"] = ["4"]
        assert verify_certificate(d) is False

    def test_tampered_min_length_rejected(self):
        d = sol3_tower(3).to_json_dict()
        d["min_length"] = 2
        assert verify_certificate(d) is False

    def test_tampered_subgroup_rejected(self):
        d = sol3_tower(2).to_json_dict()
        d["levels"][1]["subgroup"]["sublattice"] = [["8", "0"], ["0", "8"]]
        assert verify_certificate(d) is False

    def test_tampered_witness_rejected(self):
        d = heisenberg_witness(1, 3, 2).to_json_dict()
        d["chain"][0]["quotient_factors"] = ["3"]
        assert verify_certificate(d) is False

    def test_unknown_kind(self):
        d = sol3_tower(1).to_json_dict()
        d["kind"] = "mystery"
        with pytest.raises(UnresolvableReference):
            verify_certificate(d)

    def test_malformed(self):
        with pytest.raises(UnresolvableReference):
            verify_certificate({"schema": "nilcert/1"})

    # The Heisenberg(1) series through U = 2Z^2, W = 4Z: level indices 4 and 4, total 16.
    def test_max_quotient_order_below_a_level_index_rejected(self):
        # The rebuild would differ too; the consistency check is what refuses it first.
        d = _two_step_cert().to_json_dict()
        d["max_quotient_order"] = "1"
        assert SeriesCertificate.from_json_dict(d).structural_ok() is False
        assert verify_certificate(d) is False

    @pytest.mark.parametrize("edit", [
        lambda levels: levels.pop(),
        lambda levels: levels.append(dict(levels[-1], index="1", quotient_factors=[])),
    ], ids=["level-dropped", "trivial-level-appended"])
    def test_chain_of_another_length_than_its_rebuild_rejected(self, edit):
        # Every structural relation holds, and the rebuild's levels start the
        # chain; only its length differs.
        d = _two_step_cert().to_json_dict()
        edit(d["levels"])
        d["total_index"] = "%d" % math.prod(int(level["index"]) for level in d["levels"])
        d["max_quotient_order"] = "4"
        assert SeriesCertificate.from_json_dict(d).structural_ok() is True
        assert verify_certificate(d) is False

    def test_tower_claim_repeating_a_level_rejected(self):
        # Gamma_1 twice, the second level of index 1: every structural
        # relation holds, and only the rebuild's normalizer check refuses it,
        # since N(Gamma_1) in Gamma_0 is Gamma_0, not Gamma_1.
        d = sol3_tower(1).to_json_dict()
        d["levels"].append(dict(d["levels"][0], index="1", quotient_factors=[]))
        d["group"]["k"] = 2
        d.update(total_index="4", min_length=1, max_quotient_order="4")
        assert verify_certificate(d) is False
        level = (sol3_gamma(1), canonical_json(d["levels"][0]["subgroup"]))
        with pytest.raises(NotNormal) as exc:
            semidirect.tower_certificate(sol3_gamma(0), [level, level], canonical_json(d["group"]))
        assert str(exc.value) == "normalizer chain broke at level 2"

    def test_unknown_kind_of_a_readable_certificate(self):
        # A series level reads under any kind, so the kind itself is refused.
        d = _two_step_cert().to_json_dict()
        d["kind"] = "nope"
        with pytest.raises(UnresolvableReference, match=r"^unknown certificate kind 'nope'$"):
            verify_certificate(d)

    def test_json_round_trip_is_lossless(self):
        H = TwoStepLattice.heisenberg(1)
        sub = NilSublattice(H, Lattice.scaled(2, 2), Lattice.scaled(1, 4))
        for cert in (
            sol3_tower(3),
            heisenberg_witness(2, 5, 3),
            subnormal_series(H, sub),
        ):
            assert SeriesCertificate.from_json_dict(cert.to_json_dict()) == cert

    def test_structural_invariants_enforced(self):
        cert = sol3_tower(2)
        broken = SeriesCertificate(
            kind=cert.kind,
            group_ref=cert.group_ref,
            chain=cert.chain,
            total_index=32,
            min_length=cert.min_length,
            max_quotient_order=cert.max_quotient_order,
        )
        assert broken.structural_ok() is False
        assert verify_certificate(broken) is False

    def test_max_quotient_order_below_a_level_index_fails_the_structural_check(self):
        # structural_ok is public and reads certificates built outside the
        # library; here that bound is the only field out of line.
        cert = _two_step_cert()
        fields = dict(zip(SeriesCertificate._fields, cert._values()))
        assert SeriesCertificate(**fields).structural_ok() is True
        assert SeriesCertificate(**dict(fields, max_quotient_order=3)).structural_ok() is False

    @pytest.mark.parametrize("broken", ["normality", "quotient-order", "min-length"])
    def test_each_other_structural_relation_fails_the_check_alone(self, broken):
        # A certificate built outside the library, with one relation out of
        # line and every other field kept consistent with it.
        cert = _two_step_cert()
        fields = dict(zip(SeriesCertificate._fields, cert._values()))
        levels = [dict(zip(ChainLevel._fields, level._values())) for level in cert.chain]
        if broken == "normality":
            levels[0]["normality_verified"] = False
        elif broken == "quotient-order":
            levels[0]["index"] *= 2
        else:
            fields["min_length"] = len(levels) + 1
        chain = tuple(ChainLevel(**level) for level in levels)
        fields.update(chain=chain, total_index=math.prod(level.index for level in chain),
                      max_quotient_order=max(level.index for level in chain))
        assert SeriesCertificate(**fields).structural_ok() is False

    def test_chain_of_another_type_than_its_rebuild_rejected(self):
        # Only a certificate built in Python can hold a list; its rebuild holds a tuple.
        cert = _two_step_cert()
        fields = dict(zip(SeriesCertificate._fields, cert._values()))
        listed = SeriesCertificate(**dict(fields, chain=list(cert.chain)))
        assert listed.structural_ok() is True
        assert verify_certificate(listed) is False


def _two_step_cert():
    H = TwoStepLattice.heisenberg(1)
    return subnormal_series(H, NilSublattice(H, Lattice.scaled(2, 2), Lattice.scaled(1, 4)))


# One certificate of each kind; the last level of each has two factors.
KINDS = {
    "sol3": lambda: sol3_tower(3),
    "witness": lambda: heisenberg_witness(1, 3, 2),
    "two-step": _two_step_cert,
}


def _levels(d):
    return d["chain"] if "chain" in d else d["levels"]


def _tamper(d, field):
    last = _levels(d)[-1]
    index = int(last["index"])
    if field == "quotient_factors":
        last["quotient_factors"] = [str(index)]  # same order, other structure
    elif field == "index":
        last["index"] = str(2 * index)
    elif field == "consistent_index":
        # every structural relation still holds; only the rebuild sees the lie
        last["quotient_factors"] = last["quotient_factors"][:-1] + [str(2 * int(last["quotient_factors"][-1]))]
        last["index"] = str(2 * index)
        d["total_index"] = str(2 * int(d["total_index"]))
        d["max_quotient_order"] = str(max(int(d["max_quotient_order"]), 2 * index))
    elif field in ("total_index", "max_quotient_order"):
        d[field] = str(2 * int(d[field]))
    elif field == "min_length":
        d["min_length"] -= 1
    else:
        flag = "normalizer_verified" if "normalizer_verified" in last else "normality_verified"
        last[flag] = False


def _sol3_dict(matrix, sublattices, k):
    desc = {"type": "semidirect", "n": 2, "matrix": matrix, "m": 1}
    level = lambda L: {
        "subgroup": dict(desc, sublattice=L), "quotient_factors": ["2", "2"],
        "index": "4", "normalizer_verified": True,
    }
    return {
        "schema": "nilcert/1", "kind": "sol3-tower",
        "group": dict(desc, sublattice=[["1", "0"], ["0", "1"]], k=k),
        "levels": [level(L) for L in sublattices],
        "total_index": str(4 ** len(sublattices)), "min_length": len(sublattices),
        "max_quotient_order": "4",
    }


def _witness_with_group(edit):
    d = heisenberg_witness(1, 3, 2).to_json_dict()
    edit(d["group"])
    d["profile"] = d["group"]["witness"]["profile"]
    return d


def _without(d, group_key, *keys):
    """A certificate dict with a field of its group, and top-level fields, deleted."""
    del d["group"][group_key]
    for key in keys:
        del d[key]
    return d


def _sol3_with(level=None, **fields):
    """sol3_tower(1) built in Python with some of its fields, or its level's, replaced."""
    cert = sol3_tower(1)
    if level:
        old = cert.chain[0]
        fields["chain"] = (ChainLevel(**dict(zip(old._fields, old._values()), **level)),)
    return SeriesCertificate(**dict(zip(cert._fields, cert._values()), **fields))


class TestRebuildAndCompare:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_certificate_is_a_hashable_value(self, kind):
        cert = KINDS[kind]()
        parsed = SeriesCertificate.from_json_dict(cert.to_json_dict())
        assert parsed == cert and hash(parsed) == hash(cert)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize(
        "field",
        ["quotient_factors", "index", "consistent_index", "total_index",
         "max_quotient_order", "min_length", "flag"],
    )
    def test_each_recomputed_field_is_checked(self, kind, field):
        d = KINDS[kind]().to_json_dict()
        assert verify_certificate(copy.deepcopy(d)) is True
        _tamper(d, field)
        assert verify_certificate(d) is False

    def test_sol3_kind_rebuilds_from_its_own_inputs(self):
        # another hyperbolic holonomy, congruent to Id mod 2: the same 2^j
        # chain is a normalizer chain there too, and k plays no part
        A = [["3", "2"], ["4", "3"]]
        chain = [[[str(2**j), "0"], ["0", str(2**j)]] for j in (1, 2, 3)]
        assert verify_certificate(_sol3_dict(A, chain, k=3)) is True
        assert verify_certificate(_sol3_dict(A, chain, k=99)) is True
        assert verify_certificate(_sol3_dict(A, chain[:2] + [chain[1]], k=3)) is False

    def test_non_canonical_subgroup_description_verifies(self):
        d = sol3_tower(2).to_json_dict()
        d["levels"][0]["subgroup"]["sublattice"] = [["2", "0"], ["2", "2"]]
        d["levels"][1]["subgroup"]["m"] = "1"
        assert verify_certificate(d) is True
        sol3 = [["5", "2"], ["2", "1"]]
        assert verify_certificate(_sol3_dict(sol3, [[["2", "2"], ["0", "2"]]], k=1)) is True

    def test_central_key_on_a_tower_level_is_rejected(self):
        d = sol3_tower(2).to_json_dict()
        d["levels"][0]["central"] = True
        assert verify_certificate(d) is False

    def test_unreadable_level_subgroup_is_rejected(self):
        d = sol3_tower(2).to_json_dict()
        d["levels"][1]["subgroup"] = {"type": "semidirect"}
        assert verify_certificate(d) is False


class TestStrictCertificateParsing:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(total_index=16.9),
            lambda d: d["levels"][0].update(index=4.2),
            lambda d: d.update(min_length=True),
            lambda d: d["levels"][0].update(quotient_factors=[2.0, "2"]),
            lambda d: d["levels"][0].update(quotient_factors="22"),
            lambda d: d["levels"][0].update(normalizer_verified="false"),
            lambda d: d["levels"][0].update(normalizer_verified=1),
            lambda d: d["levels"][0].pop("index"),
            lambda d: d.pop("max_quotient_order"),
            # Keys the reader would not check, which it used to read past:
            lambda d: d.update(chain="nonsense"),
            lambda d: d.update(profile=[1, 2]),
            lambda d: d["levels"][0].update(note="x"),
            lambda d: d["levels"][0].update(normality_verified=d["levels"][0].pop("normalizer_verified")),
        ],
        ids=["float-total", "float-index", "bool-length", "float-factor", "string-factors",
             "string-flag", "int-flag", "no-index", "no-max",
             "chain-key", "tower-profile", "level-unknown-key", "other-flag-key"],
    )
    def test_malformed_field_is_unresolvable(self, edit):
        d = sol3_tower(2).to_json_dict()
        edit(d)
        with pytest.raises(UnresolvableReference):
            verify_certificate(d)

    def test_a_profile_outside_a_witness_is_an_unknown_field(self):
        d = sol3_tower(2).to_json_dict()
        d["profile"] = [1, 2]
        with pytest.raises(UnresolvableReference, match=r"^malformed certificate: unknown field 'profile'$"):
            verify_certificate(d)

    def test_float_index_and_total_together(self):
        # int() would truncate these to the true values 16 and 4
        d = sol3_tower(2).to_json_dict()
        d["total_index"] = 16.9
        d["levels"][0]["index"] = 4.2
        with pytest.raises(UnresolvableReference):
            verify_certificate(d)

    def test_witness_parameters_must_be_integers(self):
        d = heisenberg_witness(1, 3, 2).to_json_dict()
        d["group"]["witness"]["a"] = 2.0
        with pytest.raises(UnresolvableReference):
            verify_certificate(d)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(schema="nilcert/2"),
            lambda d: d.update(schema=None),
            lambda d: d.update(kind=["heisenberg-witness"]),
            lambda d: d.update(group=[d["group"]]),
            lambda d: d.update(profile=[1, 3]),
            lambda d: d.update(profile=[True, 2]),
            lambda d: d.update(levels=d.pop("chain"), chain=[{"bogus": True}]),
            lambda d: d.update(comment="x"),
        ],
        ids=["other-schema", "null-schema", "list-kind", "list-group", "profile", "bool-profile",
             "levels-key", "unknown-key"],
    )
    def test_unchecked_fields_are_read_strictly(self, edit):
        d = heisenberg_witness(1, 3, 2).to_json_dict()
        edit(d)
        with pytest.raises(UnresolvableReference):
            verify_certificate(d)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _witness_with_group(lambda g: g.update(f=True)),
            lambda: _witness_with_group(lambda g: g.update(b=2.0)),
            lambda: _witness_with_group(lambda g: g["witness"].update(profile=[True, 2])),
            lambda: _sol3_with(total_index=4.0),
            lambda: _sol3_with(max_quotient_order=4.0),
            lambda: _sol3_with(min_length=True),
            lambda: _sol3_with(level={"index": 4.0}),
        ],
        ids=["bool-f", "float-b", "bool-profile", "float-total", "float-max", "bool-length",
             "float-index"],
    )
    def test_group_values_compare_as_json(self, make):
        # true == 1 and 2.0 == 2 in Python; the rebuilt certificate says 1 and 2,
        # in the JSON of its group and in the fields of one built in Python
        assert verify_certificate(make()) is False

    @pytest.mark.parametrize(
        "subgroup, detail",
        [
            (lambda text: json.loads(text), "the JSON object must be str, bytes or bytearray, not dict"),
            (lambda text: "not json", "Expecting value: line 1 column 1 (char 0)"),
        ],
        ids=["dict", "not-json"],
    )
    def test_unreadable_level_subgroup_is_unresolvable(self, subgroup, detail):
        # A level of a certificate built in Python holds a dict, or text that
        # is not JSON: the chain cannot be read, as for an unreadable group.
        # From JSON a level's subgroup is canonical text that always parses,
        # so `nilcert verify` never prints this message; its text is pinned here.
        level = sol3_tower(1).chain[0]
        with pytest.raises(UnresolvableReference) as info:
            verify_certificate(_sol3_with(level={"subgroup": subgroup(level.subgroup)}))
        assert str(info.value) == "cannot rebuild chain subgroups: " + detail

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: dict(sol3_tower(1).to_json_dict(), group={"type": "twostep"}),
             "cannot rebuild ambient group: not a semidirect group description"),
            (lambda: _without(heisenberg_witness(1, 3, 2).to_json_dict(), "witness", "profile"),
             "cannot rebuild witness parameters: missing field 'witness' in {'b': 2, 'f': 1, "
             "'forms': [[['0', '1'], ['-1', '0']]], 'type"),
            (lambda: _witness_with_group(lambda g: g["witness"].update(k="one")),
             "cannot rebuild witness parameters: expected an integer or a decimal string, got 'one'"),
            (lambda: _without(_two_step_cert().to_json_dict(), "gamma"),
             "cannot rebuild series data: missing field 'gamma' in {'b': 2, 'f': 1, "
             "'forms': [[['0', '1'], ['-1', '0']]], 'type"),
        ],
        ids=["ambient-group", "witness-missing", "witness-unparsed", "series-data"],
    )
    def test_verify_prints_each_rebuild_failure(self, make, message, capsys):
        # The exact stdout of `nilcert verify` for a certificate that names
        # an input its rebuild cannot read.
        assert run(["verify", "--input", json.dumps(make())]) == 1
        report = {"error": {"message": message, "type": "UnresolvableReference"}, "schema": "nilcert/1"}
        assert capsys.readouterr().out == canonical_json(report) + "\n"

    def test_level_subgroup_of_another_kind_is_rejected(self):
        # Readable text naming the wrong group is a false claim, not an unreadable one.
        assert verify_certificate(_sol3_with(level={"subgroup": '{"type": "twostep"}'})) is False

    def test_certificate_without_schema_or_profile_verifies(self):
        d = heisenberg_witness(1, 3, 2).to_json_dict()
        del d["schema"], d["profile"]
        assert verify_certificate(d) is True

    @pytest.mark.parametrize("edit", [{"p": 2**61 - 1}, {"a": 10**9}], ids=["p-2^61-1", "a-1e9"])
    def test_witness_guard_runs_before_the_rebuild(self, edit):
        # Trial division of 2^61 - 1, or forming 3^(10^9 + 2), would not end.
        d = heisenberg_witness(1, 3, 2).to_json_dict()
        d["group"]["witness"].update(edit)
        with pytest.raises(QuotientTooLarge):
            verify_certificate(d, 10**6)
