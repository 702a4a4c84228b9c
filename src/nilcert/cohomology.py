"""Crossed-homomorphism cohomology for finitely presented groups.

Z^1, B^1 and H^1 of a group Q (given by generators and relator words) acting
on a finitely generated abelian module M.  The cocycle condition is
linearized with Fox derivatives of the relators, which handles arbitrary
finitely presented Q uniformly; mixed free/torsion modules are encoded as
Z^m plus congruence rows, so a single Hermite form solves both.

``h1_brute`` is a deliberately independent oracle for finite inputs: it
enumerates the group with a Todd-Coxeter coset table, enumerates candidate
cocycles by their generator values, and reads the quotient structure off
p-power torsion counts instead of a Smith form.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from functools import cached_property

from .arith import factorize, json_field, parse_int
from .errors import (
    EnumerationFailed,
    IllDefinedAction,
    InvalidParameters,
    TooLarge,
)
from .linalg import (
    AbelianStructure,
    IntMatrix,
    Lattice,
    hnf,
    maps_into,
    preimage_lattice,
    quotient_structure,
    quotient_with_generators,
    vstack,
)

Vec = tuple[int, ...]


def _word_symbols(word: str, ngens: int) -> list[int]:
    """Encode a relator word: generator j -> 2j, its inverse -> 2j + 1."""
    symbols = []
    for ch in word:
        low = ch.lower()
        if low not in string.ascii_lowercase:
            raise InvalidParameters("bad letter %r in relator %r" % (ch, word))
        j = string.ascii_lowercase.index(low)
        if j >= ngens:
            raise InvalidParameters("letter %r exceeds generator count %d" % (ch, ngens))
        symbols.append(2 * j + (0 if ch.islower() else 1))
    return symbols


@dataclass(frozen=True)
class ModuleAction:
    """A finitely presented group acting on a finitely generated module.

    The module Z^free + Z/d_1 + ... is carried in ambient coordinates, free
    coordinates first.  Each generator acts by an integer matrix that must
    respect the torsion coordinates and be invertible as a module map, and
    every relator must evaluate to the identity map.
    """

    ngens: int
    relators: tuple[str, ...]
    module: AbelianStructure
    matrices: tuple[IntMatrix, ...]

    def __post_init__(self):
        if self.ngens < 0 or len(self.matrices) != self.ngens:
            raise InvalidParameters("need one action matrix per generator")
        dim = self.dim
        for psi in self.matrices:
            if psi.rows != dim or psi.cols != dim:
                raise IllDefinedAction("action matrices must be %d x %d" % (dim, dim))
        self._validate()

    @property
    def dim(self) -> int:
        return self.module.free_rank + len(self.module.torsion)

    @cached_property
    def torsion_lattice(self) -> Lattice:
        rows = []
        free = self.module.free_rank
        for c, d in enumerate(self.module.torsion):
            row = [0] * self.dim
            row[free + c] = d
            rows.append(row)
        return Lattice.from_rows(self.dim, rows)

    def reduce(self, v) -> Vec:
        """Canonical module representative (torsion coordinates reduced)."""
        free = self.module.free_rank
        out = list(int(x) for x in v)
        for c, d in enumerate(self.module.torsion):
            out[free + c] %= d
        return tuple(out)

    def _is_identity_map(self, R: IntMatrix) -> bool:
        return maps_into(
            R - IntMatrix.identity(self.dim), Lattice.standard(self.dim), self.torsion_lattice
        )

    def _module_inverse(self, psi: IntMatrix) -> IntMatrix:
        """Matrix acting as the inverse module map, if one exists.

        psi is invertible on the module exactly when the rows of psi^T and
        the torsion relations span Z^dim, that is when their Hermite form is
        the identity on top; row j of the transform then writes e_j in those
        rows, and its psi^T part is column j of the inverse.
        """
        dim = self.dim
        lat = self.torsion_lattice
        form = hnf(vstack([psi.transpose(), lat.basis]) if lat.rank else psi.transpose())
        if form.H.data[:dim] != IntMatrix.identity(dim).data:
            raise IllDefinedAction("generator action is not invertible on the module")
        return IntMatrix([row[:dim] for row in form.U.data[:dim]], cols=dim).transpose()

    @cached_property
    def inverses(self) -> tuple[IntMatrix, ...]:
        return tuple(self._module_inverse(psi) for psi in self.matrices)

    def _validate(self):
        free = self.module.free_rank
        for psi in self.matrices:
            for c, d in enumerate(self.module.torsion):
                col = free + c
                for i in range(self.dim):
                    x = psi.data[i][col] * d
                    if i < free:
                        if x != 0:
                            raise IllDefinedAction("action does not respect torsion")
                    elif x % self.module.torsion[i - free] != 0:
                        raise IllDefinedAction("action does not respect torsion")
        _ = self.inverses
        for word in self.relators:
            R = self.word_matrix(word)
            if not self._is_identity_map(R):
                raise IllDefinedAction("relator %r does not act as the identity" % word)

    def word_matrix(self, word: str) -> IntMatrix:
        out = IntMatrix.identity(self.dim)
        for s in _word_symbols(word, self.ngens):
            out = out * (self.matrices[s // 2] if s % 2 == 0 else self.inverses[s // 2])
        return out

    def fox_coefficients(self, word: str) -> list[IntMatrix]:
        """Psi-evaluated Fox derivatives: the relator condition is
        sum_j D_j(word) * c(g_j) = 0 in M."""
        coef = [IntMatrix.zeros(self.dim, self.dim) for _ in range(self.ngens)]
        prefix = IntMatrix.identity(self.dim)
        for s in _word_symbols(word, self.ngens):
            j = s // 2
            if s % 2 == 0:
                coef[j] = coef[j] + prefix
                prefix = prefix * self.matrices[j]
            else:
                prefix = prefix * self.inverses[j]
                coef[j] = coef[j] - prefix
        return coef

    def cocycle_defect(self, values, word: str) -> Vec:
        """Value of the extended crossed homomorphism on a word.

        Extends c along c(u g) = c(u) + psi(u) c(g) and
        c(u g^-1) = c(u) - psi(u g^-1) c(g); a relator word yields zero
        exactly when the values form a cocycle.
        """
        acc = (0,) * self.dim
        prefix = IntMatrix.identity(self.dim)
        for s in _word_symbols(word, self.ngens):
            j = s // 2
            if s % 2 == 0:
                acc = tuple(a + x for a, x in zip(acc, prefix.apply(values[j])))
                prefix = prefix * self.matrices[j]
            else:
                prefix = prefix * self.inverses[j]
                acc = tuple(a - x for a, x in zip(acc, prefix.apply(values[j])))
        return self.reduce(acc)

    def to_json(self) -> dict:
        return {
            "generators": self.ngens,
            "relators": list(self.relators),
            "module": {
                "free": self.module.free_rank,
                "torsion": [str(d) for d in self.module.torsion],
            },
            "action": [psi.to_json() for psi in self.matrices],
        }

    @staticmethod
    def from_json(obj: dict) -> "ModuleAction":
        spec = json_field(obj, "module")
        module = AbelianStructure(
            parse_int(json_field(spec, "free")),
            tuple(parse_int(d) for d in json_field(spec, "torsion", list)),
        )
        relators = tuple(json_field(obj, "relators", list))
        if not all(isinstance(word, str) for word in relators):
            raise InvalidParameters("each relator must be a JSON string")
        return ModuleAction(
            parse_int(json_field(obj, "generators")),
            relators,
            module,
            tuple(IntMatrix.from_json(m) for m in json_field(obj, "action", list)),
        )


@dataclass(frozen=True)
class CocycleSpace:
    """A space of cocycles: generator tuples plus the abstract structure."""

    structure: AbelianStructure
    basis: tuple[tuple[Vec, ...], ...]


def _split(act: ModuleAction, flat) -> tuple[Vec, ...]:
    d = act.dim
    return tuple(act.reduce(flat[i * d : (i + 1) * d]) for i in range(act.ngens))


def _ambient_torsion(act: ModuleAction) -> Lattice:
    """Torsion relations of M^r inside Z^(r * dim)."""
    d = act.dim
    rows = []
    free = act.module.free_rank
    for i in range(act.ngens):
        for c, dd in enumerate(act.module.torsion):
            row = [0] * (act.ngens * d)
            row[i * d + free + c] = dd
            rows.append(row)
    return Lattice.from_rows(act.ngens * d, rows)


def _cocycle_lattice(act: ModuleAction) -> Lattice:
    """Solutions of the Fox-linearized relator system inside Z^(r * dim)."""
    d = act.dim
    n = act.ngens * d
    if not act.relators:
        return Lattice.standard(n)
    blocks = []
    for word in act.relators:
        coef = act.fox_coefficients(word)
        rows = [[0] * n for _ in range(d)]
        for j, C in enumerate(coef):
            for a in range(d):
                row = rows[a]
                Ca = C.data[a]
                for b in range(d):
                    row[j * d + b] = Ca[b]
        blocks.extend(rows)
    L = IntMatrix(blocks, cols=n)
    free = act.module.free_rank
    target_rows = []
    for k in range(len(act.relators)):
        for c, dd in enumerate(act.module.torsion):
            row = [0] * L.rows
            row[k * d + free + c] = dd
            target_rows.append(row)
    target = Lattice.from_rows(L.rows, target_rows)
    return preimage_lattice(L, target)


def z1(act: ModuleAction) -> CocycleSpace:
    """Crossed homomorphisms Q -> M, solved over Z with torsion congruences."""
    K = _cocycle_lattice(act)
    L0 = _ambient_torsion(act)
    structure, gens = quotient_with_generators(K, L0)
    return CocycleSpace(structure, tuple(_split(act, g) for _, g in gens))


def b1(act: ModuleAction) -> CocycleSpace:
    """Principal crossed homomorphisms m -> (psi(g_i) m - m)_i."""
    B = _coboundary_lattice(act)
    structure, gens = quotient_with_generators(B, _ambient_torsion(act))
    return CocycleSpace(structure, tuple(_split(act, g) for _, g in gens))


def _coboundary_lattice(act: ModuleAction) -> Lattice:
    d = act.dim
    rows = []
    for m in range(d):
        em = tuple(1 if i == m else 0 for i in range(d))
        row: list[int] = []
        for psi in act.matrices:
            img = psi.apply(em)
            row.extend(x - e for x, e in zip(img, em))
        rows.append(row)
    image = Lattice.from_rows(act.ngens * d, rows)
    return image.sum(_ambient_torsion(act))


def h1(act: ModuleAction) -> AbelianStructure:
    """First cohomology Z^1 / B^1 via Smith form of the coordinate matrix."""
    K = _cocycle_lattice(act)
    return quotient_structure(K, _coboundary_lattice(act))


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

_SENTINEL = -1


def coset_enumeration(
    ngens: int, relators: tuple[str, ...], max_cosets: int
) -> list[list[int]]:
    """Todd-Coxeter coset table for the trivial subgroup.

    Returns ``table[coset][symbol]`` with symbols 2j (generator j) and
    2j + 1 (its inverse); coset 0 is the identity.  Raises
    :class:`EnumerationFailed` when the table would exceed ``max_cosets``
    live-plus-dead vertices, which also catches infinite groups.
    """
    nsym = 2 * ngens
    rels = [_word_symbols(w, ngens) for w in relators]
    rels += [[2 * j, 2 * j + 1] for j in range(ngens)]
    rels += [[2 * j + 1, 2 * j] for j in range(ngens)]

    labels: list[int] = []
    neighbors: list[list[int]] = []

    def find(c: int) -> int:
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def add_vertex() -> int:
        if len(labels) >= max_cosets:
            raise EnumerationFailed(
                "coset table exceeded %d vertices (group too large or infinite)"
                % max_cosets
            )
        c = len(labels)
        labels.append(c)
        neighbors.append([_SENTINEL] * nsym)
        return c

    def follow(c: int, s: int) -> int:
        c = find(c)
        if neighbors[c][s] == _SENTINEL:
            neighbors[c][s] = add_vertex()
        return find(neighbors[c][s])

    def unify(c1: int, c2: int) -> None:
        stack = [(c1, c2)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            labels[b] = a
            for s in range(nsym):
                nb = neighbors[b][s]
                if nb == _SENTINEL:
                    continue
                if neighbors[a][s] == _SENTINEL:
                    neighbors[a][s] = nb
                else:
                    stack.append((neighbors[a][s], nb))

    add_vertex()
    visit = 0
    while visit < len(labels):
        c = find(visit)
        if c == visit:
            for rel in rels:
                end = visit
                for s in rel:
                    end = follow(end, s)
                unify(end, visit)
        visit += 1

    live = [c for c in range(len(labels)) if find(c) == c]
    renumber = {c: i for i, c in enumerate(live)}
    table = []
    for c in live:
        row = []
        for s in range(nsym):
            nb = neighbors[c][s]
            if nb == _SENTINEL:
                raise EnumerationFailed("coset table did not close")
            row.append(renumber[find(nb)])
        table.append(row)
    return table


def _structure_from_subgroup_counts(zset: set, bset: set, module: AbelianStructure, ngens: int) -> AbelianStructure:
    """Invariant factors of zset/bset read off p-power torsion counts.

    Independent of any Smith form: for each prime p the count of classes
    killed by p^j determines the p-exponent partition.
    """
    order = len(zset) // len(bset)
    if order == 1:
        return AbelianStructure(0, ())

    free = module.free_rank
    torsion = module.torsion
    dim = free + len(torsion)

    def scale(flat, c):
        out = list(x * c for x in flat)
        for i in range(ngens):
            for t, d in enumerate(torsion):
                out[i * dim + free + t] %= d
        return tuple(out)

    partitions: dict[int, list[int]] = {}
    for p in factorize(order):
        # counts[j] = order of the p^j-torsion subgroup of zset/bset.
        counts = [1]
        power = 1
        while True:
            power *= p
            killed = sum(1 for z in zset if scale(z, power) in bset)
            cnt = killed // len(bset)
            if cnt == counts[-1]:
                break
            counts.append(cnt)
        # counts[j]/counts[j-1] = p^(number of components with exponent >= j)
        n_ge = []
        for j in range(1, len(counts)):
            ratio = counts[j] // counts[j - 1]
            e = 0
            while ratio > 1:
                ratio //= p
                e += 1
            n_ge.append(e)
        parts = []
        for j in range(1, len(n_ge) + 1):
            exactly = n_ge[j - 1] - (n_ge[j] if j < len(n_ge) else 0)
            parts.extend([j] * exactly)
        partitions[p] = sorted(parts, reverse=True)

    width = max(len(v) for v in partitions.values())
    factors = []
    for slot in range(width):
        d = 1
        for p, parts in partitions.items():
            if slot < len(parts):
                d *= p ** parts[slot]
        factors.append(d)
    return AbelianStructure(0, tuple(sorted(d for d in factors if d > 1)))


def h1_brute(
    act: ModuleAction,
    max_group_order: int = 512,
    max_module_order: int = 4096,
    max_tuples: int = 2**20,
) -> AbelianStructure:
    """Brute-force H^1 for finite Q and finite M.

    Enumerates Q by coset enumeration, candidate cocycles by their values on
    the generators (extended over the coset graph and rejected on any
    inconsistent edge), and quotients by the principal ones.  Must agree
    with :func:`h1` on the common domain.
    """
    msize = act.module.order()
    if msize is None:
        raise TooLarge("brute-force oracle needs a finite module")
    if msize > max_module_order:
        raise TooLarge("module order %d exceeds guard %d" % (msize, max_module_order))
    if msize**act.ngens > max_tuples:
        raise TooLarge("generator tuple space exceeds guard")

    table = coset_enumeration(act.ngens, act.relators, max_cosets=16 * max_group_order + 64)
    n = len(table)
    if n > max_group_order:
        raise TooLarge("group order %d exceeds guard %d" % (n, max_group_order))

    dim = act.dim
    # Representative action matrix per coset, along a BFS tree from identity.
    psi_of = [None] * n
    psi_of[0] = IntMatrix.identity(dim)
    queue = [0]
    while queue:
        c = queue.pop()
        for s in range(2 * act.ngens):
            d = table[c][s]
            if psi_of[d] is None:
                step = act.matrices[s // 2] if s % 2 == 0 else act.inverses[s // 2]
                psi_of[d] = psi_of[c] * step
                queue.append(d)

    free = act.module.free_rank
    ranges = [range(d) for d in act.module.torsion]
    members = [
        act.reduce((0,) * free + combo) for combo in itertools.product(*ranges)
    ]

    def check(values: list[Vec]) -> bool:
        cval = [None] * n
        cval[0] = (0,) * dim
        order = [0]
        seen = {0}
        idx = 0
        while idx < len(order):
            c = order[idx]
            idx += 1
            for s in range(2 * act.ngens):
                d = table[c][s]
                j = s // 2
                if s % 2 == 0:
                    step = values[j]
                else:
                    step = tuple(-x for x in act.inverses[j].apply(values[j]))
                expected = act.reduce(
                    tuple(a + x for a, x in zip(cval[c], psi_of[c].apply(step)))
                )
                if cval[d] is None:
                    cval[d] = expected
                    if d not in seen:
                        seen.add(d)
                        order.append(d)
                elif cval[d] != expected:
                    return False
        return True

    zset = set()
    for combo in itertools.product(members, repeat=act.ngens):
        if check(list(combo)):
            zset.add(tuple(x for vec in combo for x in vec))

    bset = set()
    for m in members:
        flat = []
        for psi in act.matrices:
            img = psi.apply(m)
            flat.extend(act.reduce(tuple(x - e for x, e in zip(img, m))))
        bset.add(tuple(flat))

    return _structure_from_subgroup_counts(zset, bset, act.module, act.ngens)
