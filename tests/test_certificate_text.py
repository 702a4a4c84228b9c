"""The certificate writer and the text-first accept of ``verify_certificate``.

``SeriesCertificate.canonical_text`` writes ``canonical_json(to_json_dict())``
from the texts a certificate holds; ``verify_certificate`` accepts a dict that
is byte for byte its own rebuild's text, and reads any other claim as before
(``invariants_oracle``).
"""

import copy
import json
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import invariants_oracle
from invariants_oracle import writer_mismatch
from nilcert import invariants, nilpotent2, semidirect
from nilcert.arith import canonical_json
from nilcert.certificates import (
    KIND_SOL3,
    KIND_TWO_STEP,
    KIND_WITNESS,
    ChainLevel,
    SeriesCertificate,
)
from nilcert.invariants import verify_certificate
from nilcert.linalg import AbelianStructure, Lattice
from nilcert.nilpotent2 import NilSublattice, TwoStepLattice, heisenberg_witness, subnormal_series
from nilcert.semidirect import sol3_tower

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _series(k, u, w):
    H = TwoStepLattice.heisenberg(k)
    return subnormal_series(H, NilSublattice(H, Lattice.from_rows(2, u), Lattice.from_rows(1, w)))


def _pool():
    """Builder certificates of every kind, empty chains and one-level chains among them."""
    certs = [sol3_tower(k) for k in range(4)]
    certs += [heisenberg_witness(k, p, a) for k, p, a in ((1, 3, 2), (2, 5, 3), (1, 2, 3))]
    certs += [
        _series(1, [[2, 0], [0, 2]], [[4]]),
        _series(1, [[1, 0], [0, 1]], [[1]]),  # index 1: no levels
        _series(3, [[1, 0], [0, 1]], [[3]]),  # one central level
        _series(1, [[2, 0], [0, 1]], [[1]]),  # one level, not central
        _series(2, [[2, 0], [0, 3]], [[12]]),
        _series(3, [[3, 0], [0, 1]], [[9]]),
    ]
    return [cert.to_json_dict() for cert in certs]


POOL = _pool()


def _levels(d):
    return d["chain"] if "chain" in d else d["levels"]


def _flag_key(d):
    return "normalizer_verified" if d["kind"] == KIND_SOL3 else "normality_verified"


def _group_edit(d, draw):
    group = d["group"]
    if d["kind"] == KIND_SOL3:
        edit = draw(st.sampled_from(["k", "matrix", "no-sublattice", "n-int", "m-string", "type"]))
        if edit == "k":
            group["k"] = group["k"] + 1
        elif edit == "matrix":
            group["matrix"] = [["3", "2"], ["4", "3"]]
        elif edit == "no-sublattice":
            del group["sublattice"]
        elif edit == "n-int":
            group["n"] = 2
        elif edit == "m-string":
            group["m"] = "1"
        else:
            group["type"] = "twostep"
    elif d["kind"] == KIND_WITNESS:
        witness = group["witness"]
        edit = draw(st.sampled_from(["k", "p", "a", "a-string", "profile", "f-bool", "no-witness"]))
        if edit in ("k", "a"):
            witness[edit] += 1
        elif edit == "p":
            witness["p"] = 7 if witness["p"] != 7 else 3
        elif edit == "a-string":
            witness["a"] = str(witness["a"])
        elif edit == "profile":
            witness["profile"] = [2, 1]
        elif edit == "f-bool":
            group["f"] = True
        else:
            del group["witness"]
    else:
        edit = draw(st.sampled_from(["gamma-u", "gamma-w", "forms", "b-string", "no-gamma"]))
        if edit == "gamma-u":
            group["gamma"]["U"] = [["4", "0"], ["0", "4"]]
        elif edit == "gamma-w":
            group["gamma"]["W"] = [[str(2 * int(group["gamma"]["W"][0][0]))]]
        elif edit == "forms":
            group["forms"] = [[["0", "-1"], ["1", "0"]]]
        elif edit == "b-string":
            group["b"] = "2"
        else:
            del group["gamma"]


def _subgroup_edit(level, draw):
    """A non-canonical basis of the same tower subgroup, or another box."""
    sub = level["subgroup"]
    if "sublattice" in sub:
        (a, _), _ = sub["sublattice"]
        sub["sublattice"] = draw(st.sampled_from([[[a, "0"], [a, a]], [["0", a], [a, "0"]]]))
    else:
        sub["W"] = [["1"]]


class _Str(str):
    pass


class _Int(int):
    pass


def _edit(d, name, draw):
    """Apply one named edit; a level edit on a certificate without levels edits nothing."""
    levels = _levels(d)
    level = levels[draw(st.integers(0, len(levels) - 1))] if levels else None
    if name == "group":
        _group_edit(d, draw)
    elif name in ("total_index", "max_quotient_order"):
        d[name] = draw(st.sampled_from([str(2 * int(d[name])), int(d[name]), "0" + d[name]]))
    elif name == "min_length":
        d[name] = draw(st.sampled_from([d[name] + 1, d[name] - 1, str(d[name]), float(d[name])]))
    elif name == "drop":
        d.pop(draw(st.sampled_from(["schema", "profile"])), None)
    elif name == "unknown":
        (level if level is not None and draw(st.booleans()) else d)["note"] = "x"
    elif name == "subclass":  # spelled alike; the reader keeps a str kind's type
        if draw(st.booleans()):
            d["kind"] = _Str(d["kind"])
        else:
            d["min_length"] = _Int(d["min_length"])
    elif name == "tuple-levels":
        d["chain" if "chain" in d else "levels"] = tuple(levels)
    elif level is None:
        return
    elif name == "index":
        level[name] = draw(st.sampled_from([str(2 * int(level[name])), int(level[name]), "0" + level[name]]))
    elif name == "factors":
        factors = level["quotient_factors"]
        level["quotient_factors"] = draw(st.sampled_from([
            [level["index"]], [int(x) for x in factors], ["0" + x for x in factors], factors + ["2"],
        ]))
    elif name == "tuple-factors":
        level["quotient_factors"] = tuple(level["quotient_factors"])
    elif name == "flag":
        level[_flag_key(d)] = draw(st.sampled_from([False, 1, "true", None]))
    elif name == "central":
        level["central"] = draw(st.sampled_from([True, False, 1, None]))
    elif name == "free-rank":
        level["quotient_free_rank"] = draw(st.sampled_from([0, 1, "0"]))
    elif name == "subgroup":
        _subgroup_edit(level, draw)


EDITS = [
    None, "group", "total_index", "max_quotient_order", "min_length", "drop", "unknown",
    "subclass", "tuple-levels", "index", "factors", "tuple-factors", "flag", "central", "free-rank", "subgroup",
]


def _outcome(verify, d, max_index):
    try:
        return verify(d, max_index)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_verify_agrees_with_the_read_first_oracle(data):
    # 400 examples: a builder certificate of one of the three kinds, with no
    # edit or one, verified with no guard, a loose one or one below the index.
    d = copy.deepcopy(data.draw(st.sampled_from(POOL)))
    name = data.draw(st.sampled_from(EDITS))
    if name:
        _edit(d, name, data.draw)
    max_index = data.draw(st.sampled_from([None, 10**6, 16]))
    want = _outcome(invariants_oracle.verify_certificate, copy.deepcopy(d), max_index)
    before = copy.deepcopy(d)
    assert _outcome(verify_certificate, d, max_index) == want
    assert d == before and type(_levels(d)) is type(_levels(before))  # the claim is not changed


def test_every_pool_certificate_verifies_as_written():
    assert {d["kind"] for d in POOL} == {KIND_SOL3, KIND_WITNESS, KIND_TWO_STEP}
    for d in POOL:
        assert invariants._rebuild_as_it_stands(d, None).canonical_text() == canonical_json(d)


class TestTextFirstAccept:
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"from_json_dict": 0, "exact": 0}
        read, exact = SeriesCertificate.from_json_dict, invariants._exact

        def counted_read(obj):
            counts["from_json_dict"] += 1
            return read(obj)

        def counted_exact(a, b):
            counts["exact"] += isinstance(a, SeriesCertificate)
            return exact(a, b)

        monkeypatch.setattr(SeriesCertificate, "from_json_dict", staticmethod(counted_read))
        monkeypatch.setattr(invariants, "_exact", counted_exact)
        return counts

    @pytest.mark.parametrize("make", [
        lambda: sol3_tower(3), lambda: heisenberg_witness(1, 3, 2),
        lambda: _series(1, [[2, 0], [0, 2]], [[4]]),
    ], ids=[KIND_SOL3, KIND_WITNESS, KIND_TWO_STEP])
    def test_a_canonical_certificate_is_not_read(self, make, calls):
        assert verify_certificate(json.loads(canonical_json(make().to_json_dict()))) is True
        assert calls == {"from_json_dict": 0, "exact": 0}

    @pytest.mark.parametrize("edit", [
        lambda d: d["chain"][0].update(index=int(d["chain"][0]["index"])),
        lambda d: d.pop("schema"),
    ], ids=["int-index", "no-schema"])
    def test_another_spelling_is_read_and_compared(self, edit, calls):
        d = heisenberg_witness(1, 2, 2).to_json_dict()
        edit(d)
        assert verify_certificate(d) is True
        assert calls == {"from_json_dict": 1, "exact": 1}

    def test_a_certificate_built_in_python_is_compared(self, calls):
        assert verify_certificate(sol3_tower(2)) is True
        assert calls == {"from_json_dict": 0, "exact": 1}

    @pytest.mark.parametrize("kind, module, builder, make", [
        (KIND_SOL3, semidirect, "tower_certificate", lambda: sol3_tower(2)),
        (KIND_WITNESS, nilpotent2, "heisenberg_witness", lambda: heisenberg_witness(1, 2, 2)),
        (KIND_TWO_STEP, nilpotent2, "subnormal_series", lambda: _series(1, [[2, 0], [0, 2]], [[4]])),
    ], ids=[KIND_SOL3, KIND_WITNESS, KIND_TWO_STEP])
    def test_another_spelling_is_rebuilt_once(self, kind, module, builder, make, calls, monkeypatch):
        d = make().to_json_dict()
        level = _levels(d)[0]
        level.update(index=int(level["index"]))
        rebuilds = []
        real = getattr(module, builder)
        monkeypatch.setattr(module, builder, lambda *args: rebuilds.append(kind) or real(*args))
        assert verify_certificate(d) is True
        assert rebuilds == [kind]
        assert calls == {"from_json_dict": 1, "exact": 1}


# ---------------------------------------------------------------------------
# One writer
# ---------------------------------------------------------------------------


def _level(subgroup='{"type":"box"}', free_rank=0, torsion=(2,), index=2, flag=True, central=None):
    return ChainLevel(subgroup, AbelianStructure(free_rank, torsion), index, flag, central)


def _cert(kind, chain, group_ref='{"type":"twostep"}', total_index=1, min_length=0, max_quotient_order=1):
    return SeriesCertificate(kind, group_ref, tuple(chain), total_index, min_length, max_quotient_order)


EDGE_SHAPES = {
    "empty-chain": _cert(KIND_SOL3, []),
    "empty-witness": _cert(KIND_WITNESS, [], '{"witness":{"profile":[]}}'),
    "free-rank": _cert(KIND_TWO_STEP, [_level(free_rank=2, torsion=(2, 4), index=0)]),
    "no-central": _cert(KIND_WITNESS, [_level(central=None), _level(central=False)],
                        '{"b":2,"witness":{"a":2,"k":1,"p":3,"profile":[1,2]}}', 4, 1, 2),
    "unknown-kind": _cert('odd "kind" é', [_level(central=True)]),
    "no-witness": _cert(KIND_WITNESS, [_level()], '{"b":2}'),
    "witness-not-last": _cert(KIND_WITNESS, [], '{"witness":{"profile":[1,2]},"zeta":1}'),
    "profile-not-last": _cert(KIND_WITNESS, [], '{"witness":{"profile":[3],"q":1}}'),
    "nested-witness": _cert(KIND_WITNESS, [], '{"a":{"witness":{"profile":[1]}},"witness":{"profile":[2]}}'),
    "witness-in-a-key": _cert(KIND_WITNESS, [], canonical_json(
        {'b"': 1, "witness": {'x","profile":[9]': 1, "profile": [5]}, 'y":{"witness":{': 0})),
    "string-profile": _cert(KIND_WITNESS, [], '{"witness":{"profile":"ab"}}'),
    "profile-with-lists": _cert(KIND_WITNESS, [], '{"witness":{"profile":[[1],2]}}'),
    "big-index": _cert(KIND_SOL3, [_level(torsion=(10**30,), index=10**30)], total_index=10**30),
}


@pytest.mark.parametrize("cert", EDGE_SHAPES.values(), ids=EDGE_SHAPES.keys())
def test_writer_matches_the_encoder_on_edge_shapes(cert):
    assert writer_mismatch(cert) is None
    assert cert.canonical_text() == canonical_json(cert.to_json_dict())


def test_writer_fails_as_the_encoder_does():
    # Past the digit limit both raise TooLarge; a witness group that is not
    # an object, or a witness that is not one, fails in to_json_dict's reader.
    for cert in (
        _cert(KIND_SOL3, [], total_index=10**5000),
        _cert(KIND_WITNESS, [], "not json"),
        _cert(KIND_WITNESS, [], '[{"witness":{"profile":[1]}}]'),
        _cert(KIND_WITNESS, [], '{"witness":[{"profile":[1]}]}'),
    ):
        assert writer_mismatch(cert) is None
        with pytest.raises(Exception):
            cert.canonical_text()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-99, 99) | st.text("ab\",:{}[]\\", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "profile", "witness", "zz", 'x","profile":']), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def group_texts(draw):
    group = draw(st.dictionaries(st.sampled_from(["b", "forms", "witness", "zeta", "{"]), json_values, max_size=3))
    if draw(st.booleans()):
        witness = draw(st.dictionaries(st.sampled_from(["a", "k", "p", "q"]), st.integers(0, 9), max_size=3))
        if draw(st.booleans()):
            witness["profile"] = draw(st.lists(st.integers(0, 3), max_size=3))
        group["witness"] = witness
    return canonical_json(group)


@st.composite
def certificates(draw):
    levels = []
    for _ in range(draw(st.integers(0, 3))):
        levels.append(_level(
            subgroup=draw(group_texts()),
            free_rank=draw(st.integers(0, 2)),
            torsion=draw(st.sampled_from([(), (2,), (2, 4), (3, 3), (10**20,)])),
            index=draw(st.integers(0, 10**25)),
            flag=draw(st.booleans()),
            central=draw(st.sampled_from([None, True, False])),
        ))
    kind = draw(st.sampled_from([KIND_SOL3, KIND_WITNESS, KIND_TWO_STEP, "other"]))
    return _cert(kind, levels, draw(group_texts()), draw(st.integers(0, 10**25)),
                 draw(st.integers(0, 9)), draw(st.integers(0, 10**25)))


@settings(max_examples=300, deadline=None)
@given(certificates())
def test_writer_matches_the_encoder_on_certificates_built_in_python(cert):
    # 300 examples, groups whose texts spell "witness" and "profile" in
    # keys, strings and nested objects as well as where the builder does.
    assert writer_mismatch(cert) is None


def test_the_recorder_sees_every_builder(every_sealed_certificate_has_one_text):
    # The builders reach certificates.sealed through the package, where
    # conftest's recorder replaces it, so each certificate they build is
    # written both ways.
    recorded = every_sealed_certificate_has_one_text
    built = [sol3_tower(2), heisenberg_witness(1, 3, 2), _series(1, [[2, 0], [0, 2]], [[4]])]
    assert [cert.kind for cert in recorded] == [KIND_SOL3, KIND_WITNESS, KIND_TWO_STEP]
    assert all(a is b for a, b in zip(recorded, built))


def test_writer_matches_the_encoder_on_the_goldens():
    results = [json.loads(path.read_text())["result"] for path in sorted((ROOT / "tests" / "golden").glob("*.json"))]
    certs = [SeriesCertificate.from_json_dict(r) for r in results if isinstance(r, dict) and "kind" in r]
    assert len(results) == 6 and {c.kind for c in certs} == {KIND_SOL3, KIND_WITNESS}
    for cert, result in zip(certs, [r for r in results if "kind" in r]):
        assert cert.canonical_text() == canonical_json(result)


def test_writer_matches_the_encoder_on_the_benchmark_certificates(monkeypatch):
    # Every certificate that the tower, series and cli workloads build at
    # seeds 0-5 (the cli verbs run in process), each distinct input once;
    # the recorder in conftest compares the two writers on each.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    for name in ("tower", "series", "cli"):
        wl = workloads.WORKLOADS[name](str(ROOT))
        items = {}
        for seed in range(6):
            for item in wl.make_round(random.Random("%s:%d" % (name, seed))):
                items.setdefault(item["input"], item)
        for item in items.values():
            if name == "cli":
                argv = json.loads(item["input"])
                if argv[0] in ("sol3-tower", "heisenberg-witness", "series", "verify"):
                    wl.run_in_process(argv)
            else:
                wl.check(item, wl.run(item))
