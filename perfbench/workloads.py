"""The five benchmark workloads: seeded inputs, one op each, output checks.

A workload builds one *round*: a list of items with a fixed composition of
op kinds, where the seed picks the concrete inputs.  Each item carries its
input as a JSON text of the kind the CLI accepts, and every op starts by
parsing that text, so no library object (``SemidirectGroup._powers`` and the
like) carries over from one op to the next.  The timed loop repeats whole
rounds, so every run sees the same mix of kinds.

Checks never run inside the timed code.  They compare each output with a
value the benchmark derives itself (``refmath``, closed forms, or an
independent enumeration), never with a second call of the same library
routine.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import refmath

SOL3 = [[5, 2], [2, 1]]


class CheckFailed(Exception):
    """An op produced an output that the benchmark's check rejects."""


def dumps(obj) -> str:
    """Canonical JSON: the byte format of the nilcert CLI."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _item(kind, payload, **meta):
    return {"kind": kind, "input": dumps(payload), "meta": meta}


def _strs(rows):
    return [[str(x) for x in row] for row in rows]


def _semidirect_desc(matrix, sublattice=None, m=1):
    n = len(matrix)
    return {
        "type": "semidirect",
        "n": n,
        "matrix": _strs(matrix),
        "sublattice": _strs(sublattice or refmath.identity(n)),
        "m": m,
    }


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _nilcert():
    """The library modules, looked up at call time so tracing sees every call."""
    import nilcert.cohomology
    import nilcert.invariants
    import nilcert.linalg
    import nilcert.nilpotent2
    import nilcert.semidirect

    return nilcert


class Workload:
    """One seeded workload; the instance also keeps the run's counters."""

    name = ""

    def __init__(self, root):
        self.root = root
        self.json_bytes = 0

    def make_round(self, rng, tiny=False) -> list[dict]:
        raise NotImplementedError

    def warmup(self) -> None:
        """Run one fixed small op, the same for every seed."""
        raise NotImplementedError

    def run(self, item) -> str:
        raise NotImplementedError

    def check(self, item, output: str) -> None:
        raise NotImplementedError

    def certify(self, cert) -> str:
        """Canonical JSON of a certificate plus the verdict on its parsed copy."""
        body = dumps(cert.to_json_dict())
        self.json_bytes += len(body)
        ok = _nilcert().invariants.verify_certificate(json.loads(body))
        return '{"certificate":%s,"verified":%s}' % (body, "true" if ok else "false")


# ---------------------------------------------------------------------------
# tower: Sol3 tower certificates plus centre and bound queries
# ---------------------------------------------------------------------------

# (ops per round, smallest k, largest k), k spread evenly over each bucket;
# k = 128 and 256 come once a round.  With 20 queries (17 of them cheap) a
# round has 102 ops: the median falls inside the k = 12..16 bucket and the
# p90 inside the k = 40..48 one, whatever the seed.
TOWER_BUCKETS = [(22, 8, 10), (30, 12, 16), (18, 20, 32), (8, 40, 48), (2, 60, 64)]
TOWER_LARGE = [128, 256]
TOWER_RANDOM_QUERIES = 16


def _holonomy(kind, n):
    if kind == "hyperbolic":
        b = refmath.identity(n)
        b[0][:2], b[1][:2] = SOL3[0][:], SOL3[1][:]
        return b
    if kind == "finite":
        return [[1 if (i + 1) % n == j else 0 for j in range(n)] for i in range(n)]
    return [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)]


def _expected_query(query, kind, n):
    """Closed forms for Z^n x|_B Z, invariant under conjugating B.

    The centre rank is the rank of the fixed lattice of B, plus one when B
    has finite order: n - 2 for Sol3 + I, 1 + 1 for a cyclic permutation, 1
    for a unipotent Jordan block.  The second bound is 0 unless B is
    unipotent, where it is 2 for the Heisenberg case n = 2 and 1 beyond.
    """
    center = {"hyperbolic": n - 2, "finite": 2, "unipotent": 1}[kind]
    if query == "center":
        return {"rank": center}
    inner = 0 if kind != "unipotent" else (2 if n == 2 else 1)
    return {"b": inner, "f": center}


class Tower(Workload):
    name = "tower"

    def make_round(self, rng, tiny=False):
        items = []
        if tiny:
            ks = [rng.randint(2, 6) for _ in range(3)]
        else:
            ks = [lo + i * (hi - lo) // (count - 1) for count, lo, hi in TOWER_BUCKETS for i in range(count)]
            ks += TOWER_LARGE
        items += [_item("build", {"k": k}, k=k) for k in ks]
        # Query slots: the unipotent n = 4, 5 walks are the tail; n = 2 is
        # the Heisenberg cross-check; the rest are drawn per seed.
        slots = [("disc", "unipotent", 2)]
        if not tiny:
            slots += [("center", "unipotent", 4), ("disc", "unipotent", 4), ("center", "unipotent", 5)]
        for _ in range(2 if tiny else TOWER_RANDOM_QUERIES):
            kind = rng.choice(["hyperbolic", "finite", "unipotent"])
            n = rng.randint(2, 3) if kind == "unipotent" else rng.randint(2, 5)
            slots.append((rng.choice(["center", "disc"]), kind, n))
        for query, kind, n in slots:
            p, pinv = refmath.random_unimodular(rng, n, steps=2 * n)
            b = refmath.matmul(refmath.matmul(p, _holonomy(kind, n)), pinv)
            items.append(_item(
                "query", {"query": query, "group": _semidirect_desc(b)},
                query=query, holonomy=kind, n=n,
            ))
        rng.shuffle(items)
        return items

    def warmup(self):
        self.run(_item("build", {"k": 2}, k=2))

    def run(self, item):
        nc = _nilcert()
        req = json.loads(item["input"])
        if "k" in req:
            return self.certify(nc.semidirect.sol3_tower(req["k"]))
        G = nc.semidirect.SemidirectLattice.from_json(req["group"])
        if req["query"] == "center":
            rank, _ = nc.semidirect.center_rank(G)
            return dumps({"rank": rank})
        return dumps(nc.invariants.discsym2_upper(G).to_json())

    def check(self, item, output):
        meta = item["meta"]
        out = json.loads(output)
        if item["kind"] == "build":
            k = meta["k"]
            cert = out["certificate"]
            _expect(out["verified"] is True, "round-tripped certificate did not verify")
            _expect(int(cert["total_index"]) == 4**k, "total index is not 4^k")
            _expect(cert["min_length"] == k, "min length is not k")
            _expect(len(cert["levels"]) == k, "tower does not have k levels")
            return
        want = _expected_query(meta["query"], meta["holonomy"], meta["n"])
        _expect(out == want, "%s query gave %r, expected %r" % (meta["query"], out, want))
        if meta["holonomy"] == "unipotent" and meta["n"] == 2 and meta["query"] == "disc":
            nc = _nilcert()
            heis = nc.invariants.discsym2_upper(nc.nilpotent2.TwoStepLattice.heisenberg(1))
            _expect(heis.as_pair() == (out["f"], out["b"]) == (1, 2),
                    "unipotent Z^2 bound differs from Heisenberg(1)")


# ---------------------------------------------------------------------------
# series: two-layer series certificates, witness grid, hbar1 and isolator
# ---------------------------------------------------------------------------

# kind -> ops per round.  The median falls among the small Heisenberg series
# (about 0.5 ref each) and the p90 among the nine (2, 4) series (about 1.5
# ref), whose cost moves little with the seed.  With fewer large ops the p90
# would fall in the tail of the small ops, which is host jitter and moved by
# 0.10 of its median from one run to the next.
SERIES_MIX = {"heis": 28, "alt24": 9, "alt36": 1, "witness": 6, "hbar1": 2, "isolator": 2}


def _beta(tables, u, v):
    return [sum(u[i] * t[i][j] * v[j] for i in range(len(u)) for j in range(len(v))) for t in tables]


def _random_forms(rng, f, b):
    """f alternating b x b forms whose joint kernel is zero, so Z(G) = Z^f."""
    while True:
        forms = []
        for _ in range(f):
            c = [[0] * b for _ in range(b)]
            for i in range(b):
                for j in range(i + 1, b):
                    x = rng.randint(-3, 3)
                    c[i][j], c[j][i] = x, -x
            forms.append(c)
        joint = [[x for c in forms for x in c[i]] for i in range(b)]
        if refmath.rank(joint) == b:
            return forms


def _box_subgroup(rng, forms, f, b):
    """U of index prod(d) in Z^b, W = span(beta(U, U)) + d Z^f (closed)."""
    diag = [rng.choice([1, 1, 2, 3]) for _ in range(b)]
    if all(d == 1 for d in diag):
        diag[rng.randrange(b)] = 2
    p, _ = refmath.random_unimodular(rng, b, steps=b)
    u_rows = [[diag[i] * x for x in p[i]] for i in range(b)]
    tables = [[[c[i][j] if j > i else 0 for j in range(b)] for i in range(b)] for c in forms]
    d = rng.choice([2, 3, 4, 6])
    w_rows = [_beta(tables, ru, rv) for ru in u_rows for rv in u_rows]
    w_rows += [[d if i == j else 0 for j in range(f)] for i in range(f)]
    return u_rows, w_rows


class Series(Workload):
    name = "series"

    def make_round(self, rng, tiny=False):
        items = []
        for kind, count in SERIES_MIX.items():
            for _ in range(1 if tiny else count):
                items.append(self._make(rng, kind))
        rng.shuffle(items)
        return items

    def _make(self, rng, kind):
        if kind == "witness":
            k, p, a = rng.randint(1, 3), rng.choice([2, 3, 5, 7]), rng.choice([2, 3])
            return _item(kind, {"witness": [k, p, a]}, k=k, p=p, a=a)
        if kind in ("hbar1", "isolator"):
            k = rng.randint(1, 12)
            forms = [[[0, k], [-k, 0]]]
            return _item(kind, {kind: {"type": "twostep", "f": 1, "b": 2, "forms": [_strs(c) for c in forms]}}, k=k)
        if kind == "heis":
            f, b = 1, 2
            k = rng.randint(1, 5)
            forms = [[[0, k], [-k, 0]]]
        else:
            f, b = (2, 4) if kind == "alt24" else (3, 6)
            forms = _random_forms(rng, f, b)
        u_rows, w_rows = _box_subgroup(rng, forms, f, b)
        group = {"type": "twostep", "f": f, "b": b, "forms": [_strs(c) for c in forms]}
        payload = {"group": group, "gamma": {"U": _strs(u_rows), "W": _strs(w_rows)}}
        expected = refmath.index(u_rows, b) * refmath.index(w_rows, f)
        return _item(kind, payload, f=f, b=b, index=expected)

    def warmup(self):
        forms = [[["0", "1"], ["-1", "0"]]]
        self.run(_item("heis", {
            "group": {"type": "twostep", "f": 1, "b": 2, "forms": forms},
            "gamma": {"U": [["2", "0"], ["0", "2"]], "W": [["4"]]},
        }))

    def run(self, item):
        nc = _nilcert()
        req = json.loads(item["input"])
        if "witness" in req:
            return self.certify(nc.nilpotent2.heisenberg_witness(*req["witness"]))
        if "hbar1" in req:
            G = nc.nilpotent2.TwoStepLattice.from_json(req["hbar1"])
            return dumps(nc.nilpotent2.hbar1(G).to_json())
        if "isolator" in req:
            G = nc.nilpotent2.TwoStepLattice.from_json(req["isolator"])
            sqrt, l = nc.nilpotent2.isolator(G)
            return dumps({"l": l, "sqrt_commutator": sqrt.to_json()})
        G = nc.nilpotent2.TwoStepLattice.from_json(req["group"])
        Lattice = nc.linalg.Lattice
        sub = nc.nilpotent2.NilSublattice(
            G,
            Lattice.from_json(G.b, req["gamma"]["U"]),
            Lattice.from_json(G.f, req["gamma"]["W"]),
        )
        return self.certify(nc.nilpotent2.subnormal_series(G, sub))

    def check(self, item, output):
        meta = item["meta"]
        out = json.loads(output)
        kind = item["kind"]
        if kind == "hbar1":
            k = meta["k"]
            want = [] if k == 1 else [str(k), str(k)]
            _expect(out == {"free_rank": 0, "torsion": want}, "hbar1(Heisenberg(%d)) is not (Z/k)^2" % k)
            return
        if kind == "isolator":
            _expect(out == {"l": 0, "sqrt_commutator": [["1"]]}, "isolator of Heisenberg is not Z")
            return
        _expect(out["verified"] is True, "round-tripped certificate did not verify")
        cert = out["certificate"]
        if kind == "witness":
            p, a = meta["p"], meta["a"]
            factors = [level["quotient_factors"] for level in cert["chain"]]
            _expect(factors == [[str(p**a)], [str(p), str(p)]], "witness profile is not [p^a], [p, p]")
            _expect(int(cert["total_index"]) == p ** (a + 2), "witness index is not p^(a+2)")
            return
        levels = cert["levels"]
        full_w = _strs(refmath.identity(meta["f"]))
        prod = 1
        for level in levels:
            prod *= int(level["index"])
            rank = len(level["quotient_factors"]) + level.get("quotient_free_rank", 0)
            # The upper layer starts from a subgroup with W = Z^f and is a
            # quotient of Z^b; the lower one is a quotient of the centre Z^f.
            upper = level["subgroup"]["W"] == full_w
            _expect(rank <= (meta["b"] if upper else meta["f"]), "layer rank exceeds (f, b)")
        _expect(prod == meta["index"] == int(cert["total_index"]), "layer indices do not multiply to the index")


# ---------------------------------------------------------------------------
# cohomology: finite actions against the brute-force oracle, free modules
# ---------------------------------------------------------------------------

PRESENTATIONS = [
    (1, ("aa",)), (1, ("aaa",)), (1, ("aaaa",)), (1, ("aaaaaa",)), (1, ("aaaaaaaa",)),
    (2, ("aa", "bb", "abAB")), (2, ("aa", "bb", "ababab")), (2, ("aa", "bbbb", "abAB")),
    (2, ("aa", "bb", "abababab")), (2, ("aaaa", "aabb", "abaB")),
]
# (group, points, relators, generator permutations); the free module is
# Z^(points * j), j copies of the permutation module.
PERMUTATION_GROUPS = {
    "S3": (3, ("aa", "bb", "ababab"), ((1, 0, 2), (0, 2, 1))),
    "D4": (4, ("aa", "bb", "abababab"), ((1, 0, 3, 2), (0, 3, 2, 1))),
}
# One op per slot: finite actions as (presentation index, module torsion),
# then free modules as (group, copies).  The median falls among the finite
# slots and the p90 among the five S3 on Z^18, the slowest ops.
COHOMOLOGY_FINITE = [
    (0, (5,)), (1, (4,)), (2, (8,)), (3, (7,)), (4, (16,)), (5, (2, 2)), (6, (3, 3)),
    (7, (2, 4)), (8, (2, 2)), (9, (4,)), (0, (12,)), (1, (9,)), (2, (6,)), (3, (2, 6)),
    (4, (8,)), (5, (2, 4)), (6, (2,)), (7, (4, 4)), (8, (3,)), (9, (2, 2)), (0, (2, 2, 2)),
    (1, (3,)), (5, (4, 4)), (6, (6,)),
]
COHOMOLOGY_FREE = [("S3", 2), ("D4", 1), ("S3", 3), ("D4", 2), ("S3", 4), ("D4", 3), ("D4", 4),
                   ("S3", 6), ("S3", 6), ("S3", 6), ("S3", 6), ("S3", 6)]


def _apply(mat, v, torsion):
    out = [sum(a * b for a, b in zip(row, v)) for row in mat]
    free = len(out) - len(torsion)
    for c, d in enumerate(torsion):
        out[free + c] %= d
    return tuple(out)


def _finite_inverses(mats, torsion):
    """Inverse maps of each generator on the finite module, or None."""
    elements = [()]
    for d in torsion:
        elements = [e + (x,) for e in elements for x in range(d)]
    inverses = []
    for mat in mats:
        image = {}
        for e in elements:
            image[_apply(mat, e, torsion)] = e
        if len(image) != len(elements):
            return None
        inverses.append(image)
    return elements, inverses


class Action:
    """Benchmark-side model of a module action: apply a letter to a vector."""

    def __init__(self, mats, torsion, inverse_mats=None, inverse_maps=None):
        self.mats = mats
        self.torsion = tuple(torsion)
        self.inverse_mats = inverse_mats
        self.inverse_maps = inverse_maps

    def letter(self, s, v):
        j = s // 2
        if s % 2 == 0:
            return _apply(self.mats[j], v, self.torsion)
        if self.inverse_maps is not None:
            return self.inverse_maps[j][tuple(v)]
        return _apply(self.inverse_mats[j], v, self.torsion)

    def word(self, symbols, v):
        """psi(s_1 ... s_k) v = psi(s_1)(... psi(s_k) v)."""
        for s in reversed(symbols):
            v = self.letter(s, v)
        return tuple(v)

    def defect(self, values, symbols):
        """Value on a word of the crossed homomorphism with these generator values."""
        dim = len(values[0])
        acc = [0] * dim
        prefix: list[int] = []
        for s in symbols:
            j = s // 2
            if s % 2 == 0:
                acc = [a + x for a, x in zip(acc, self.word(prefix, values[j]))]
                prefix.append(s)
            else:
                prefix.append(s)
                acc = [a - x for a, x in zip(acc, self.word(prefix, values[j]))]
        return _apply(refmath.identity(dim), acc, self.torsion)


def _symbols(word):
    return [2 * (ord(ch.lower()) - 97) + (0 if ch.islower() else 1) for ch in word]


def _finite_action(rng, slot):
    """A random valid action for a (presentation index, module torsion) slot."""
    (ngens, rels), torsion = PRESENTATIONS[slot[0]], slot[1]
    dim, top = len(torsion), torsion[-1]
    while True:
        mats = [[[rng.randrange(top) for _ in range(dim)] for _ in range(dim)] for _ in range(ngens)]
        # The action must respect the torsion: d_c * psi[i][c] = 0 mod d_i.
        if any(m[i][c] * torsion[c] % torsion[i] for m in mats for i in range(dim) for c in range(dim)):
            continue
        found = _finite_inverses(mats, torsion)
        if found is None:
            continue
        elements, inverse_maps = found
        act = Action(mats, torsion, inverse_maps=inverse_maps)
        if all(act.word(_symbols(w), e) == e for w in rels for e in elements):
            return ngens, rels, torsion, mats, act


def _permutation_action(rng, group, copies):
    points, rels, perms = PERMUTATION_GROUPS[group]
    dim = points * copies
    p, pinv = refmath.random_unimodular(rng, dim, steps=dim, mult=1)
    mats, inverse_mats = [], []
    for perm in perms:
        base = [[0] * dim for _ in range(dim)]
        for c in range(copies):
            for i, image in enumerate(perm):
                base[c * points + image][c * points + i] = 1
        mats.append(refmath.matmul(refmath.matmul(p, base), pinv))
        inverse_mats.append(refmath.matmul(refmath.matmul(p, refmath.transpose(base)), pinv))
    return rels, mats, Action(mats, (), inverse_mats=inverse_mats)


class Cohomology(Workload):
    name = "cohomology"

    def __init__(self, root):
        super().__init__(root)
        self.actions: dict[str, Action] = {}

    def make_round(self, rng, tiny=False):
        items = []
        for slot in COHOMOLOGY_FINITE[: 3 if tiny else None]:
            ngens, rels, torsion, mats, act = _finite_action(rng, slot)
            payload = {
                "generators": ngens, "relators": list(rels),
                "module": {"free": 0, "torsion": [str(d) for d in torsion]},
                "action": [_strs(m) for m in mats],
            }
            items.append(self._register(_item("finite", payload), act))
        for group, copies in COHOMOLOGY_FREE[: 1 if tiny else None]:
            rels, mats, act = _permutation_action(rng, group, copies)
            payload = {
                "generators": 2, "relators": list(rels),
                "module": {"free": len(mats[0]), "torsion": []},
                "action": [_strs(m) for m in mats],
            }
            items.append(self._register(_item("free", payload, orbits=copies), act))
        rng.shuffle(items)
        return items

    def _register(self, item, act):
        self.actions[item["input"]] = act
        return item

    def warmup(self):
        self.run(_item("finite", {
            "generators": 1, "relators": ["aa"],
            "module": {"free": 0, "torsion": ["4"]}, "action": [[["3"]]],
        }))

    def run(self, item):
        c = _nilcert().cohomology
        act = c.ModuleAction.from_json(json.loads(item["input"]))
        out = {}
        for name, fn in (("z1", c.z1), ("b1", c.b1)):
            space = fn(act)
            out[name] = {
                "structure": space.structure.to_json(),
                "basis": [[[str(x) for x in vec] for vec in cocycle] for cocycle in space.basis],
            }
        out["h1"] = c.h1(act).to_json()
        if act.module.is_finite:
            out["h1_brute"] = c.h1_brute(act).to_json()
        return dumps(out)

    def check(self, item, output):
        out = json.loads(output)
        req = json.loads(item["input"])
        act = self.actions[item["input"]]
        relators = [_symbols(w) for w in req["relators"]]
        zero = tuple([0] * len(act.mats[0]))
        for name in ("z1", "b1"):
            for cocycle in out[name]["basis"]:
                values = [tuple(int(x) for x in vec) for vec in cocycle]
                _expect(all(act.defect(values, r) == zero for r in relators),
                        "%s basis element is not a cocycle" % name)
        if item["kind"] == "finite":
            _expect(out["h1"] == out["h1_brute"], "h1 disagrees with the brute-force oracle")
            return
        # Shapiro: H^1(G, Z[G/H]) = Hom(H, Z) = 0 for finite H, so Z^1 = B^1,
        # a free module of rank dim - (number of orbits).
        rank = req["module"]["free"] - item["meta"]["orbits"]
        _expect(out["h1"] == {"free_rank": 0, "torsion": []}, "H^1 of a permutation module is not 0")
        for name in ("z1", "b1"):
            _expect(out[name]["structure"] == {"free_rank": rank, "torsion": []},
                    "%s is not free of rank %d" % (name, rank))


# ---------------------------------------------------------------------------
# intermediates: subgroups between S and G for finite quotients
# ---------------------------------------------------------------------------

# One slot per op of a round: (fibre invariants d, translation index m,
# holonomy), so |Q| = prod(d) * m runs from 4 to 64.  A^2 = I mod 4 and
# A^4 = I mod 8, so every lattice between S.L and Z^n is A-invariant, and m
# is odd, so every intermediate has the box shape.  The seed picks S.L.
# The cost grows with |Q|: of the 26 ops of a round, the median falls
# among the eight (Z/4)^2 slots and the p90 among the four |Q| = 40 ones.
INTERMEDIATE_SLOTS = [
    ((2, 2), 1, "I"), ((2, 2), 1, "A2"), ((2, 2), 1, "A4"),
    ((2, 4), 1, "I"), ((2, 4), 1, "A2"), ((2, 4), 1, "A4"),
    ((2, 2, 2), 1, "I"), ((2, 2), 3, "I"), ((2, 2), 3, "A4"),
] + [((4, 4), 1, "I")] * 8 + [
    ((2, 2, 4), 1, "A2"), ((2, 2), 5, "A2"), ((2, 4), 3, "A4"), ((4, 8), 1, "A4"),
] + [((2, 2, 2), 5, "A2")] * 4 + [((8, 8), 1, "A4")]


def _holonomy_power(name, n):
    b = refmath.identity(n)
    if name != "I":
        a = SOL3
        for _ in range({"A2": 1, "A4": 3}[name]):
            a = refmath.matmul(a, SOL3)
        b[0][:2], b[1][:2] = a[0][:], a[1][:]
    return b


class Intermediates(Workload):
    name = "intermediates"

    def make_round(self, rng, tiny=False):
        slots = INTERMEDIATE_SLOTS[:3] + INTERMEDIATE_SLOTS[6:7] if tiny else INTERMEDIATE_SLOTS
        items = [self._make(rng, diag, holonomy, m) for diag, m, holonomy in slots]
        rng.shuffle(items)
        return items

    def _make(self, rng, diag, holonomy, m):
        n = len(diag)
        p, _ = refmath.random_unimodular(rng, n, steps=2 * n)
        sub = [[diag[i] * x for x in p[i]] for i in range(n)]
        a = _holonomy_power(holonomy, n)
        payload = {"group": _semidirect_desc(a), "subgroup": _semidirect_desc(a, sub, m)}
        count = refmath.count_superlattices(sub, n) * len(refmath.divisors(m)) - 2
        return _item("pair", payload, n=n, m=m, sub=sub, count=count)

    def warmup(self):
        a = _holonomy_power("I", 2)
        self.run(_item("pair", {
            "group": _semidirect_desc(a), "subgroup": _semidirect_desc(a, [[2, 0], [0, 2]]),
        }))

    def run(self, item):
        sd = _nilcert().semidirect
        req = json.loads(item["input"])
        G = sd.SemidirectLattice.from_json(req["group"])
        S = sd.SemidirectLattice.from_json(req["subgroup"])
        subs = sd.intermediates(G, S, max_quotient=10**4)
        return dumps({"count": len(subs), "subgroups": [h.to_json() for h in subs]})

    def check(self, item, output):
        meta = item["meta"]
        out = json.loads(output)
        n, m = meta["n"], meta["m"]
        sub = refmath.hermite(meta["sub"])
        seen = set()
        for h in out["subgroups"]:
            rows = [[int(x) for x in row] for row in h["sublattice"]]
            basis = refmath.hermite(rows)
            _expect(len(basis) == n, "intermediate fibre is not full rank")
            _expect(all(refmath.contains(basis, r) for r in sub), "S.L is not inside H.L")
            _expect(m % h["m"] == 0, "S is not inside H (translation part)")
            key = (tuple(map(tuple, basis)), h["m"])
            _expect(key not in seen, "intermediate subgroups repeat")
            _expect(key != (tuple(map(tuple, sub)), m), "S itself was listed")
            _expect(not (refmath.index(rows, n) == 1 and h["m"] == 1), "G itself was listed")
            seen.add(key)
        _expect(out["count"] == len(out["subgroups"]) == meta["count"],
                "found %d intermediates, independent count is %d" % (out["count"], meta["count"]))


# ---------------------------------------------------------------------------
# cli: one `python -m nilcert.cli <verb>` child per op
# ---------------------------------------------------------------------------


def child_env(root) -> dict:
    """The pinned environment of every child interpreter."""
    env = dict(os.environ)
    env.pop("NILCERT_MAX_INDEX", None)
    env["PYTHONPATH"] = "src"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _tower_cert(k):
    """A Sol3 tower certificate written out from its closed form."""
    def level(j):
        return {
            "index": "4", "normalizer_verified": True, "quotient_factors": ["2", "2"],
            "subgroup": _semidirect_desc(SOL3, [[2**j, 0], [0, 2**j]]),
        }
    group = dict(_semidirect_desc(SOL3), k=k)
    return {
        "group": group, "kind": "sol3-tower", "levels": [level(j) for j in range(1, k + 1)],
        "max_quotient_order": "4", "min_length": k, "schema": "nilcert/1", "total_index": str(4**k),
    }


class Cli(Workload):
    name = "cli"

    def __init__(self, root):
        super().__init__(root)
        self.env = child_env(root)
        self.peak_child_rss_kb = 0
        self.stdout_bytes = 0
        self._expected: dict[str, str] = {}

    def make_round(self, rng, tiny=False):
        r = rng.randint
        mat6 = lambda: dumps([[str(r(-9, 9)) for _ in range(6)] for _ in range(6)])
        j = r(1, 6)
        gamma = lambda i: dumps(_semidirect_desc(SOL3, [[2**i, 0], [0, 2**i]]))
        heis = {"type": "twostep", "f": 1, "b": 2, "forms": [[["0", "1"], ["-1", "0"]]]}
        d = r(1, 3)
        ngens, rels, torsion, mats, _ = _finite_action(rng, rng.choice(COHOMOLOGY_FINITE))
        action = {
            "generators": ngens, "relators": list(rels),
            "module": {"free": 0, "torsion": [str(x) for x in torsion]},
            "action": [_strs(m) for m in mats],
        }
        preset = rng.choice([["--preset", "sol3"], ["--preset", "kxs1"],
                             ["--preset", "heisenberg", "--k", str(r(1, 9))],
                             ["--preset", "torus", "--n", str(r(1, 5))]])
        argvs = [
            ["minkowski", "--n", str(r(1, 8))],
            ["euler-bound", "--chi", str(rng.choice([-1, 1]) * r(1, 10**6))],
            ["presets"],
            ["sol3-tower", "--k", "8"],
            ["sol3-tower", "--k", "64", "--max-index", str(4**64)],
            ["verify", "--input", dumps(_tower_cert(r(2, 8)))],
            ["heisenberg-witness", "--k", str(r(1, 3)), "--p", str(rng.choice([3, 5])), "--a", str(r(2, 3))],
            ["series", "--input", dumps(heis),
             "--gamma", dumps({"U": [[str(2 * d), "0"], ["0", str(2 * d)]], "W": [[str(4 * d * d)]]})],
            ["hnf", "--input", mat6()],
            ["snf", "--input", mat6()],
            ["center"] + preset,
            ["discsym2-bound"] + rng.choice([["--preset", "sol3"], ["--preset", "kxs1"],
                                             ["--preset", "heisenberg", "--k", str(r(1, 9))]]),
            ["cohomology", "--input", dumps(action), "--op", "h1"],
            ["cohomology", "--input", dumps(action), "--op", "z1"],
            ["cohomology", "--input", dumps(action), "--op", "h1-brute"],
            ["normalizer", "--group", gamma(j - 1), "--subgroup", gamma(j)],
            ["quotient", "--group", gamma(j - 1), "--subgroup", gamma(j)],
            ["intermediates", "--group", gamma(j - 1), "--subgroup", gamma(j)],
            ["isolator", "--preset", "heisenberg", "--k", str(r(1, 9))],
            ["hbar1", "--preset", "heisenberg", "--k", str(r(1, 9))],
            ["snf", "--input", dumps([[str(r(-9, 9)) for _ in range(4)] for _ in range(4)])],
            ["minkowski", "--n", str(r(1, 8))],
        ]
        if tiny:
            argvs = [argvs[0], argvs[3], argvs[5]]
        items = [_item(argv[0], argv, argv=argv) for argv in argvs]
        rng.shuffle(items)
        return items

    def warmup(self):
        import nilcert.cli  # noqa: F401  (the in-process comparison needs it)

    def run(self, item):
        argv = json.loads(item["input"])
        proc = subprocess.Popen(
            [sys.executable, "-m", "nilcert.cli"] + argv,
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        with proc.stdout:
            data = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        self.stdout_bytes += len(data)
        if proc.returncode != 0:
            raise CheckFailed("nilcert.cli exited %d" % proc.returncode)
        return data.decode("utf-8")

    def run_in_process(self, argv) -> str:
        """The same verb through ``nilcert.cli.run``, stdout captured."""
        import nilcert.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = nilcert.cli.run(list(argv))
        if code != 0:
            raise CheckFailed("in-process cli.run returned %d" % code)
        return buf.getvalue()

    def check(self, item, output):
        lines = output.split("\n")
        _expect(len(lines) == 2 and lines[1] == "", "stdout is not exactly one line")
        _expect(dumps(json.loads(lines[0])) == lines[0], "stdout is not canonical JSON")
        argv = item["meta"]["argv"]
        result = json.loads(lines[0])["result"]
        if argv[0] == "verify":
            _expect(result == {"verified": True}, "tower certificate was not verified")
        if argv[0] == "sol3-tower":
            _expect(int(result["total_index"]) == 4 ** int(argv[2]), "tower index is not 4^k")
        key = dumps(argv)
        if key not in self._expected:
            self._expected[key] = self.run_in_process(argv)
        _expect(output == self._expected[key], "child stdout differs from in-process cli.run")


WORKLOADS = {w.name: w for w in (Tower, Series, Cohomology, Intermediates, Cli)}
