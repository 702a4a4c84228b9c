"""Crossed-homomorphism cohomology for finitely presented groups.

Z^1, B^1 and H^1 of a group Q (given by generators and relator words) acting
on a finitely generated abelian module M.  The cocycle condition is
linearized with Fox derivatives of the relators, which handles arbitrary
finitely presented Q uniformly.  The module is Z^dim modulo one torsion
lattice, and M^k is Z^(k dim) modulo its k-fold diagonal copy, so a single
Hermite form solves mixed free/torsion modules.  Each relator is walked
once, for both its Fox derivatives and its matrix.

``h1_brute`` is a deliberately independent oracle for finite inputs: it
enumerates the group with a Todd-Coxeter coset table, enumerates candidate
cocycles by their generator values, and reads the quotient structure off
p-power torsion counts instead of a Smith form: the exponents of the
successive count ratios form the conjugate of each p-exponent partition,
which gives the invariant factors directly.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from .arith import decimals, json_field, parse_int, prime_factors
from .errors import (
    EnumerationFailed,
    IllDefinedAction,
    InvalidParameters,
    Record,
    TooLarge,
)
from .linalg import (
    AbelianStructure,
    IntMatrix,
    Lattice,
    _span,
    hnf,
    hstack,
    maps_into,
    preimage_lattice,
    quotient_structure,
    quotient_with_generators,
    vstack,
)

Vec = tuple[int, ...]


# Generator j is the j-th of these letters; its inverse is the uppercase one.
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _word_symbols(word: str, ngens: int) -> list[int]:
    """Encode a relator word: generator j -> 2j, its inverse -> 2j + 1."""
    symbols = []
    for ch in word:
        low = ch.lower()
        if low not in _LETTERS:
            raise InvalidParameters("bad letter %r in relator %r" % (ch, word))
        j = _LETTERS.index(low)
        if j >= ngens:
            raise InvalidParameters("letter %r exceeds generator count %d" % (ch, ngens))
        symbols.append(2 * j + (0 if ch.islower() else 1))
    return symbols


class ModuleAction(Record):
    """A finitely presented group acting on a finitely generated module.

    The module Z^free + Z/d_1 + ... is Z^dim modulo :attr:`torsion_lattice`,
    carried in ambient coordinates, free coordinates first.  Each generator
    acts by an integer matrix that must map the torsion lattice into itself
    and be invertible as a module map, and every relator must evaluate to
    the identity map.  Validation walks each relator once and keeps its Fox
    row block (:attr:`fox_blocks`) for the cocycle system.  Those derived
    values are cached in the instance ``__dict__``, so it has no slots.
    """

    _fields = ("ngens", "relators", "module", "matrices")

    def __init__(
        self,
        ngens: int,
        relators: tuple[str, ...],
        module: AbelianStructure,
        matrices: tuple[IntMatrix, ...],
    ):
        Record.__init__(self, ngens, relators, module, matrices)
        if ngens < 0 or len(matrices) != ngens:
            raise InvalidParameters("need one action matrix per generator")
        dim = self.dim
        for psi in matrices:
            if psi.rows != dim or psi.cols != dim:
                raise IllDefinedAction("action matrices must be %d x %d" % (dim, dim))
        D = self.torsion_lattice
        if not all(maps_into(psi, D, D) for psi in matrices):
            raise IllDefinedAction("action does not respect torsion")
        _ = self.inverses
        _ = self.fox_blocks

    @property
    def dim(self) -> int:
        return self.module.free_rank + len(self.module.torsion)

    def torsion_diagonal(self, k: int) -> Lattice:
        """The torsion of M^k inside Z^(k dim): d_c on the c-th torsion
        coordinate of each of the k blocks."""
        free, dim = self.module.free_rank, self.dim
        rows = []
        for i in range(k):
            for c, d in enumerate(self.module.torsion):
                row = [0] * (k * dim)
                row[i * dim + free + c] = d
                rows.append(row)
        return _span(k * dim, rows)

    @cached_property
    def torsion_lattice(self) -> Lattice:
        """The torsion of M itself; its ``reduce`` gives canonical module elements."""
        return self.torsion_diagonal(1)

    def _module_inverse(self, psi: IntMatrix) -> IntMatrix:
        """Matrix acting as the inverse module map, if one exists.

        psi is invertible on the module exactly when the rows of psi^T and
        the torsion relations span Z^dim, that is when their Hermite form is
        the identity on top; row j of the transform then writes e_j in those
        rows, and its psi^T part is column j of the inverse.
        """
        dim = self.dim
        form = hnf(vstack([psi.transpose(), self.torsion_lattice.basis]))
        if form.H.data[:dim] != IntMatrix.identity(dim).data:
            raise IllDefinedAction("generator action is not invertible on the module")
        return IntMatrix._trusted([row[:dim] for row in form.U.data[:dim]], dim).transpose()

    @cached_property
    def inverses(self) -> tuple[IntMatrix, ...]:
        return tuple(self._module_inverse(psi) for psi in self.matrices)

    @cached_property
    def fox_blocks(self) -> tuple[IntMatrix, ...]:
        """Per relator, the dim x (ngens dim) block [D_1 ... D_ngens] of its
        psi-evaluated Fox derivatives: the relator condition on a cocycle c
        is sum_j D_j c(g_j) = 0 in M.

        One walk over each word gives both the block and the word's matrix,
        which must be the identity on the module; the relators are checked
        in order, each for its letters first.
        """
        dim, blocks = self.dim, []
        for word in self.relators:
            coef = [IntMatrix.zeros(dim, dim) for _ in range(self.ngens)]
            prefix = IntMatrix.identity(dim)
            for s in _word_symbols(word, self.ngens):
                j = s // 2
                if s % 2 == 0:
                    coef[j] = coef[j] + prefix
                    prefix = prefix * self.matrices[j]
                else:
                    prefix = prefix * self.inverses[j]
                    coef[j] = coef[j] - prefix
            moved = prefix - IntMatrix.identity(dim)
            if not maps_into(moved, Lattice.standard(dim), self.torsion_lattice):
                raise IllDefinedAction("relator %r does not act as the identity" % word)
            blocks.append(hstack(dim, coef))
        return tuple(blocks)

    def to_json(self) -> dict:
        return {
            "generators": self.ngens,
            "relators": list(self.relators),
            "module": {
                "free": self.module.free_rank,
                "torsion": decimals(self.module.torsion),
            },
            "action": [psi.to_json() for psi in self.matrices],
        }

    @staticmethod
    def from_json(obj: dict) -> "ModuleAction":
        spec = json_field(obj, "module")
        module = AbelianStructure.from_json_fields(
            json_field(spec, "free"), json_field(spec, "torsion", list)
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


class CocycleSpace(Record):
    """A space of cocycles: generator tuples plus the abstract structure."""

    __slots__ = _fields = ("structure", "basis")


def _cocycle_lattice(act: ModuleAction) -> Lattice:
    """Solutions of the Fox-linearized relator system inside Z^(ngens dim)."""
    if not act.relators:
        return Lattice.standard(act.ngens * act.dim)
    return preimage_lattice(vstack(act.fox_blocks), act.torsion_diagonal(len(act.relators)))


def _coboundary_lattice(act: ModuleAction) -> Lattice:
    """Principal cocycles m -> (psi_j m - m)_j plus the torsion of M^ngens:
    row m of the image is column m of each psi_j - Id."""
    I = IntMatrix.identity(act.dim)
    image = hstack(act.dim, [(psi - I).transpose() for psi in act.matrices])
    D = act.torsion_diagonal(act.ngens)
    return _span(D.ambient_dim, image.data + D.basis.data)


def _cocycle_space(act: ModuleAction, sup: Lattice) -> CocycleSpace:
    """``sup`` modulo the torsion of M^ngens, each generator lift split into
    its values on the generators, reduced in M."""
    structure, gens = quotient_with_generators(sup, act.torsion_diagonal(act.ngens))
    d, reduce = act.dim, act.torsion_lattice.reduce
    return CocycleSpace(
        structure, tuple(tuple(reduce(g[i * d : (i + 1) * d]) for i in range(act.ngens)) for _, g in gens)
    )


def z1(act: ModuleAction) -> CocycleSpace:
    """Crossed homomorphisms Q -> M, solved over Z with torsion congruences."""
    return _cocycle_space(act, _cocycle_lattice(act))


def b1(act: ModuleAction) -> CocycleSpace:
    """Principal crossed homomorphisms m -> (psi(g_i) m - m)_i."""
    return _cocycle_space(act, _coboundary_lattice(act))


def h1(act: ModuleAction) -> AbelianStructure:
    """First cohomology Z^1 / B^1 via Smith form of the coordinate matrix."""
    return quotient_structure(_cocycle_lattice(act), _coboundary_lattice(act))


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


def _structure_from_subgroup_counts(zset: set, bset: set, torsion: Lattice) -> AbelianStructure:
    """Invariant factors of zset/bset read off p-power torsion counts.

    Independent of any Smith form.  For each prime p, e_j is the exponent
    of p in |G[p^j]| / |G[p^(j-1)]|: the number of cyclic p-parts of order
    at least p^j, so e_1 >= e_2 >= ... is the conjugate of the p-exponent
    partition.  The s-th largest factor therefore has p-part p^#{j : e_j > s}
    (Macdonald, Symmetric Functions and Hall Polynomials, II.1).  The
    elements are canonical modulo ``torsion``.
    """
    exponents = {}
    for p in prime_factors(len(zset) // len(bset)):
        e, killed, power = [], len(bset), p
        while True:
            now = sum(1 for z in zset if torsion.reduce([x * power for x in z]) in bset)
            if now == killed:
                break
            ratio, k = now // killed, 0
            while ratio > 1:
                ratio //= p
                k += 1
            e.append(k)
            killed, power = now, power * p
        exponents[p] = e
    width = max((e[0] for e in exponents.values()), default=0)
    factors = [math.prod(p ** sum(x > s for x in e) for p, e in exponents.items()) for s in range(width)]
    return AbelianStructure(0, tuple(reversed(factors)))


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
    # Representative action matrix per coset, along a BFS tree from identity;
    # ``order`` lists the cosets as found, each after the one that found it.
    psi_of = [None] * n
    psi_of[0] = IntMatrix.identity(dim)
    order = [0]
    for c in order:
        for s in range(2 * act.ngens):
            d = table[c][s]
            if psi_of[d] is None:
                step = act.matrices[s // 2] if s % 2 == 0 else act.inverses[s // 2]
                psi_of[d] = psi_of[c] * step
                order.append(d)

    # The module is finite, so every coordinate is a torsion coordinate.
    members = list(itertools.product(*(range(d) for d in act.module.torsion)))
    reduce = act.torsion_lattice.reduce

    def check(values: list[Vec]) -> bool:
        # steps[s] is the cocycle's value on symbol s: c(g^-1) = -psi(g)^-1 c(g).
        steps = [
            step
            for value, inverse in zip(values, act.inverses)
            for step in (value, tuple(-x for x in inverse.apply(value)))
        ]
        cval = [None] * n
        cval[0] = (0,) * dim
        # Walking the cosets in the order found sets cval[c] before c is
        # reached and checks every edge of the coset graph.
        for c in order:
            for d, step in zip(table[c], steps):
                expected = reduce([a + x for a, x in zip(cval[c], psi_of[c].apply(step))])
                if cval[d] is None:
                    cval[d] = expected
                elif cval[d] != expected:
                    return False
        return True

    zset = set()
    for combo in itertools.product(members, repeat=act.ngens):
        if check(list(combo)):
            zset.add(tuple(x for vec in combo for x in vec))

    cochain_torsion = act.torsion_diagonal(act.ngens)
    bset = {
        cochain_torsion.reduce([x - e for psi in act.matrices for x, e in zip(psi.apply(m), m)])
        for m in members
    }
    return _structure_from_subgroup_counts(zset, bset, cochain_torsion)
