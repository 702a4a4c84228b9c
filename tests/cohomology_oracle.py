"""Hand-built oracle for the linear algebra of ``nilcert.cohomology``.

The library holds the torsion of ``M = Z^free + Z/d_1 + ...`` in one
diagonal lattice and walks each relator word once.  This module keeps the
same computations written out by hand, the way they were first built:

- the torsion relations as explicit rows, one per torsion coordinate of
  each copy of M;
- the torsion-respect test as a loop over the entries of each matrix;
- the Fox row blocks and the coboundary rows copied entry by entry;
- separate prefix-product walks for a word's matrix, its Fox derivatives
  and the value of a crossed homomorphism on it.

:class:`HandBuiltAction` validates in the library's order and raises the
same exception types and messages; :func:`z1`, :func:`b1` and :func:`h1`
take one and return what the library functions return.
"""

from dataclasses import dataclass
from functools import cached_property

from nilcert.cohomology import CocycleSpace, _word_symbols
from nilcert.errors import IllDefinedAction, InvalidParameters
from nilcert.linalg import (
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


def torsion_rows(module: AbelianStructure, copies: int) -> list[list[int]]:
    """Rows d_c e_(i dim + free + c) of the torsion of M^copies."""
    free = module.free_rank
    dim = free + len(module.torsion)
    rows = []
    for i in range(copies):
        for c, d in enumerate(module.torsion):
            row = [0] * (copies * dim)
            row[i * dim + free + c] = d
            rows.append(row)
    return rows


def word_matrix(act, word: str) -> IntMatrix:
    """The product of the letters' matrices, left to right."""
    out = IntMatrix.identity(act.dim)
    for s in _word_symbols(word, act.ngens):
        out = out * (act.matrices[s // 2] if s % 2 == 0 else act.inverses[s // 2])
    return out


def fox_coefficients(act, word: str) -> list[IntMatrix]:
    """Psi-evaluated Fox derivatives: the relator condition is
    sum_j D_j(word) * c(g_j) = 0 in M."""
    coef = [IntMatrix.zeros(act.dim, act.dim) for _ in range(act.ngens)]
    prefix = IntMatrix.identity(act.dim)
    for s in _word_symbols(word, act.ngens):
        j = s // 2
        if s % 2 == 0:
            coef[j] = coef[j] + prefix
            prefix = prefix * act.matrices[j]
        else:
            prefix = prefix * act.inverses[j]
            coef[j] = coef[j] - prefix
    return coef


def reduce(module: AbelianStructure, v) -> tuple[int, ...]:
    """Canonical module representative (torsion coordinates reduced)."""
    free = module.free_rank
    out = [int(x) for x in v]
    for c, d in enumerate(module.torsion):
        out[free + c] %= d
    return tuple(out)


def cocycle_defect(act, values, word: str) -> tuple[int, ...]:
    """Value of the extended crossed homomorphism on a word.

    Extends c along c(u g) = c(u) + psi(u) c(g) and
    c(u g^-1) = c(u) - psi(u g^-1) c(g); a relator word yields zero
    exactly when the values form a cocycle.
    """
    acc = (0,) * act.dim
    prefix = IntMatrix.identity(act.dim)
    for s in _word_symbols(word, act.ngens):
        j = s // 2
        if s % 2 == 0:
            acc = tuple(a + x for a, x in zip(acc, prefix.apply(values[j])))
            prefix = prefix * act.matrices[j]
        else:
            prefix = prefix * act.inverses[j]
            acc = tuple(a - x for a, x in zip(acc, prefix.apply(values[j])))
    return reduce(act.module, acc)


@dataclass(frozen=True)
class HandBuiltAction:
    """``ModuleAction`` with its checks written out entry by entry."""

    ngens: int
    relators: tuple
    module: AbelianStructure
    matrices: tuple

    def __post_init__(self):
        if self.ngens < 0 or len(self.matrices) != self.ngens:
            raise InvalidParameters("need one action matrix per generator")
        for psi in self.matrices:
            if psi.rows != self.dim or psi.cols != self.dim:
                raise IllDefinedAction("action matrices must be %d x %d" % (self.dim, self.dim))
        free = self.module.free_rank
        for psi in self.matrices:
            for c, d in enumerate(self.module.torsion):
                for i in range(self.dim):
                    x = psi.data[i][free + c] * d
                    if i < free:
                        if x != 0:
                            raise IllDefinedAction("action does not respect torsion")
                    elif x % self.module.torsion[i - free] != 0:
                        raise IllDefinedAction("action does not respect torsion")
        _ = self.inverses
        for word in self.relators:
            R = word_matrix(self, word) - IntMatrix.identity(self.dim)
            if not maps_into(R, Lattice.standard(self.dim), self.torsion_lattice):
                raise IllDefinedAction("relator %r does not act as the identity" % word)

    @property
    def dim(self) -> int:
        return self.module.free_rank + len(self.module.torsion)

    @cached_property
    def torsion_lattice(self) -> Lattice:
        return Lattice.from_rows(self.dim, torsion_rows(self.module, 1))

    def reduce(self, v) -> tuple[int, ...]:
        return reduce(self.module, v)

    @cached_property
    def inverses(self) -> tuple:
        dim = self.dim
        lat = self.torsion_lattice
        out = []
        for psi in self.matrices:
            form = hnf(vstack([psi.transpose(), lat.basis]) if lat.rank else psi.transpose())
            if form.H.data[:dim] != IntMatrix.identity(dim).data:
                raise IllDefinedAction("generator action is not invertible on the module")
            out.append(IntMatrix([row[:dim] for row in form.U.data[:dim]], cols=dim).transpose())
        return tuple(out)


def _split(act, flat):
    d = act.dim
    return tuple(act.reduce(flat[i * d : (i + 1) * d]) for i in range(act.ngens))


def ambient_torsion(act) -> Lattice:
    return Lattice.from_rows(act.ngens * act.dim, torsion_rows(act.module, act.ngens))


def cocycle_lattice(act) -> Lattice:
    d = act.dim
    n = act.ngens * d
    if not act.relators:
        return Lattice.standard(n)
    blocks = []
    for word in act.relators:
        rows = [[0] * n for _ in range(d)]
        for j, C in enumerate(fox_coefficients(act, word)):
            for a in range(d):
                for b in range(d):
                    rows[a][j * d + b] = C.data[a][b]
        blocks.extend(rows)
    L = IntMatrix(blocks, cols=n)
    target = Lattice.from_rows(L.rows, torsion_rows(act.module, len(act.relators)))
    return preimage_lattice(L, target)


def coboundary_lattice(act) -> Lattice:
    d = act.dim
    rows = []
    for m in range(d):
        em = tuple(1 if i == m else 0 for i in range(d))
        row = []
        for psi in act.matrices:
            row.extend(x - e for x, e in zip(psi.apply(em), em))
        rows.append(row)
    return Lattice.from_rows(act.ngens * d, rows).sum(ambient_torsion(act))


def z1(act) -> CocycleSpace:
    structure, gens = quotient_with_generators(cocycle_lattice(act), ambient_torsion(act))
    return CocycleSpace(structure, tuple(_split(act, g) for _, g in gens))


def b1(act) -> CocycleSpace:
    structure, gens = quotient_with_generators(coboundary_lattice(act), ambient_torsion(act))
    return CocycleSpace(structure, tuple(_split(act, g) for _, g in gens))


def h1(act) -> AbelianStructure:
    return quotient_structure(cocycle_lattice(act), coboundary_lattice(act))
