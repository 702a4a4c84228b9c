"""Exact integer matrix algebra: normal forms, kernels, lattice operations.

Everything here is arbitrary-precision (plain Python ints), pure and
immutable.  Matrices act on column vectors; lattices are stored as row bases
in canonical row Hermite normal form, which makes lattice equality a plain
``==`` on the basis.  The two normal forms carry their unimodular transforms
so every downstream claim can be re-verified by multiplying back.

Entries are validated once, where they enter: the public ``IntMatrix(...)``
constructor, ``Lattice.from_rows``, ``cokernel`` and every ``from_json``,
where each entry is checked by the rule of ``parse_int`` (a JSON row of
decimal strings as a whole) and only the shape is checked after.  Matrices
computed from already-validated ones are built by ``IntMatrix._trusted``,
and rows the package computes itself reach the normal forms through
``_span`` and ``_cokernel``, unchecked.  Transforms are accumulated only for
callers that read them, and only by the Hermite elimination: ``hnf`` always
returns ``U``, while lattice construction runs the same elimination without
one.  Kernels, preimages, intersections and saturations build no ``U``
either: each is read off one elimination of an augmented matrix by
``_zero_left``, and ``left_kernel`` is the basis of such a kernel.  ``snf`` and
``quotient_with_generators`` take their Smith transforms from row and
column Hermite passes, and only ``quotient_with_generators``, which lifts
the rows of ``V^-1``, inverts ``V``; ``cokernel`` and ``quotient_structure``
run a Smith elimination with no transform at all.
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache
from collections.abc import Iterable, Sequence

from .arith import decimals, json_field, parse_int, prime_factors
from .errors import DimensionMismatch, InvalidParameters, NotASublattice, Record, Value

Row = tuple[int, ...]


def _as_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError("matrix entries must be plain ints, got %r" % (x,))
    return x


def _width(rows: Sequence[Row], cols: int | None) -> int:
    """The one length of ``rows``, which must be ``cols`` if that is given."""
    ncols = len(rows[0]) if rows else 0 if cols is None else cols
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatch("ragged rows")
    if cols is not None and cols != ncols:
        raise DimensionMismatch("cols=%d but rows have length %d" % (cols, ncols))
    return ncols


# Decimal strings, comma-joined: what ``parse_int`` accepts of each.
_DECIMAL_ROW = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*").fullmatch


def _parse_rows(obj, cols: int | None = None) -> tuple[list[Row], int]:
    """JSON rows (lists of ints or decimal strings) as rows of ints, and their
    width (``cols`` if given); each entry is checked by the rule of ``parse_int``:
    by one match on all entries comma-joined, then ``int``, or else (JSON ints,
    an empty row, past the digit limit) by ``parse_int``, which names the first bad one."""
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise InvalidParameters("a matrix must be a JSON list of rows")
    try:
        if _DECIMAL_ROW(",".join(map(",".join, obj))):
            rows = [tuple(map(int, row)) for row in obj]
            return rows, _width(rows, cols)
    except (TypeError, ValueError):
        pass
    rows = [tuple(map(parse_int, row)) for row in obj]
    return rows, _width(rows, cols)


def _validated(data: Iterable[Iterable[int]], cols: int | None) -> tuple[tuple[Row, ...], int]:
    """Rows of plain ints, all of one width, and that width (``cols`` if given)."""
    rows = tuple(map(tuple, data))
    for row in rows:
        for x in row:
            _as_int(x)
    return rows, _width(rows, cols)


class IntMatrix(Value):
    """Dense matrix of arbitrary-precision integers (row-major)."""

    __slots__ = _fields = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[int]], cols: int | None = None):
        rows, ncols = _validated(data, cols)
        self.rows = len(rows)
        self.cols = ncols
        self.data = rows

    # -- constructors -----------------------------------------------------

    @staticmethod
    def _trusted(rows: Iterable[Iterable[int]], cols: int) -> "IntMatrix":
        """Matrix of rows this module computed: plain ints, all of width ``cols``.

        Skips the per-entry checks of the public constructor.
        """
        M = object.__new__(IntMatrix)
        M.data = tuple(map(tuple, rows))
        M.rows = len(M.data)
        M.cols = cols
        return M

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix._trusted(_identity_rows(n), n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix._trusted(((0,) * cols,) * rows, cols)

    @staticmethod
    def from_json(obj) -> "IntMatrix":
        return IntMatrix._trusted(*_parse_rows(obj))

    # -- basic queries -----------------------------------------------------

    @property
    def entries(self) -> tuple[int, ...]:
        """Row-major flattened entries."""
        return tuple(x for row in self.data for x in row)

    def __repr__(self):
        return "IntMatrix(%r)" % (list(map(list, self.data)),)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self.data == _identity_rows(self.rows)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return IntMatrix._trusted(
            [map(operator.add, ra, rb) for ra, rb in zip(self.data, other.data)], self.cols
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return IntMatrix._trusted(
            [map(operator.sub, ra, rb) for ra, rb in zip(self.data, other.data)], self.cols
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted([map(operator.neg, row) for row in self.data], self.cols)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                "cannot multiply %dx%d by %dx%d"
                % (self.rows, self.cols, other.rows, other.cols)
            )
        bt = list(zip(*other.data)) if other.data else [()] * other.cols
        return IntMatrix._trusted(
            [[sum(map(operator.mul, ra, col)) for col in bt] for ra in self.data], other.cols
        )

    def transpose(self) -> "IntMatrix":
        if not self.data:
            return IntMatrix._trusted([()] * self.cols, 0)
        return IntMatrix._trusted(zip(*self.data), self.rows)

    def scale(self, c: int) -> "IntMatrix":
        c = _as_int(c)
        return IntMatrix._trusted([[c * x for x in row] for row in self.data], self.cols)

    def apply(self, v: Sequence[int]) -> Row:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise DimensionMismatch("vector length %d != cols %d" % (len(v), self.cols))
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def power(self, t: int) -> "IntMatrix":
        """Integer power; negative exponents require a unimodular matrix."""
        if self.rows != self.cols:
            raise DimensionMismatch("power of a non-square matrix")
        return power_mod(self if t >= 0 else unimodular_inverse(self), abs(t), 0)

    def to_json(self) -> list[list[str]]:
        return [decimals(row) for row in self.data]


@lru_cache(maxsize=None)
def _identity_rows(n: int) -> tuple[Row, ...]:
    return tuple(tuple([1 if i == j else 0 for j in range(n)]) for i in range(n))


def power_mod(M: IntMatrix, t: int, d: int) -> IntMatrix:
    """``M^t`` for ``t >= 0`` by repeated squaring, every product reduced into
    ``[0, d)``; ``d = 0`` keeps the entries exact (Z/0Z is Z)."""
    if t < 0 or d < 0:
        raise InvalidParameters("power_mod needs t >= 0 and d >= 0")

    def reduced(X: IntMatrix) -> IntMatrix:
        return IntMatrix._trusted([[x % d for x in row] for row in X.data], X.cols) if d else X

    result, M = None, reduced(M)
    while t:
        if t & 1:
            result = M if result is None else reduced(result * M)
        t >>= 1
        if t:
            M = reduced(M * M)
    return reduced(IntMatrix.identity(M.rows)) if result is None else result


def _charpoly_mod(M: IntMatrix, p: int) -> list[int]:
    """The characteristic polynomial of a square ``M`` over Z/p, constant term
    first, through a Hessenberg form (Cohen, GTM 138, Algorithm 2.2.9)."""
    n = M.rows
    H = [[x % p for x in row] for row in M.data]
    for m in range(1, n - 1):
        i = next((i for i in range(m, n) if H[i][m - 1]), None)
        if i is None:
            continue
        H[i], H[m] = H[m], H[i]
        for row in H:
            row[i], row[m] = row[m], row[i]
        t = pow(H[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = H[i][m - 1] * t % p
            H[i] = [(a - u * b) % p for a, b in zip(H[i], H[m])]
            for row in H:
                row[m] = (row[m] + u * row[i]) % p
    chi = [[1]]  # chi[m]: the leading m x m block, expanded along its last column
    for m in range(n):
        q, t = [0] + chi[m], 1
        for i in range(m, -1, -1):
            c = H[i][m] * t
            q[: i + 1] = [a - c * b for a, b in zip(q, chi[i])]
            t = t * H[i][i - 1] % p
            if not t:
                break
        chi.append([x % p for x in q])
    return chi[n]


def _cyclotomic(d: int, degree: int) -> list[int]:
    """Phi_d, of degree phi(d), constant term first: the product over e | d of
    (x^(d/e) - 1)^mu(e) as a power series cut at that degree.  For d > 1 the
    mu(e) sum to 0, so each factor may be written 1 - x^(d/e)."""
    c, signed = [1] + [0] * degree, [(1, 1)]
    for p in prime_factors(d):
        signed += [(e * p, -mu) for e, mu in signed]
    for e, mu in signed:
        k = d // e
        for i in range(degree, k - 1, -1) if mu > 0 else range(k, degree + 1):
            c[i] -= mu * c[i - k]
    return c if d > 1 else [-1, 1]


_PRIME = (1 << 61) - 1


def cyclotomic_kernels(A: IntMatrix) -> dict[int, tuple[IntMatrix, int]]:
    """``{d: (Phi_d(A), its nullity)}`` for every d with Phi_d(A) singular,
    that is with Phi_d dividing the characteristic polynomial of ``A``
    (README, "One cyclotomic split").

    Such a d has phi(d) <= n, hence d <= 2 n^2.  Only the d whose Phi_d
    divides it modulo one prime are evaluated at ``A``, by Horner's rule in
    degree at most n; the others cannot divide it over Z.
    """
    n, I = A.rows, IntMatrix.identity(A.rows)
    chi = _charpoly_mod(A, _PRIME)
    phi = list(range(2 * n * n + 1))
    for p in range(2, len(phi)):
        if phi[p] == p:
            for k in range(p, len(phi), p):
                phi[k] -= phi[k] // p
    out = {}
    for d in (d for d in range(1, len(phi)) if phi[d] <= n):
        c, r = _cyclotomic(d, phi[d]), list(chi)
        for i in range(n, phi[d] - 1, -1):  # r = chi mod Phi_d over Z/p
            u = r[i] % _PRIME
            r[i - phi[d] : i + 1] = [a - u * b for a, b in zip(r[i - phi[d] : i + 1], c)]
        if any(x % _PRIME for x in r):
            continue
        X = A + I.scale(c[-2])
        for a in reversed(c[:-2]):
            X = X * A + I.scale(a)
        k = nullity(X)
        if k:
            out[d] = X, k
    return out


def nullity(M: IntMatrix) -> int:
    """dim ker M over Q."""
    return M.cols - _span(M.cols, M.data).rank


def finite_order(M: IntMatrix) -> int | None:
    """The order of a square ``M``, or None when infinite: ``M`` has finite
    order iff the kernels of its singular Phi_d(M) fill Q^n, and then has
    order d on each."""
    cyc = cyclotomic_kernels(M)
    return math.lcm(*cyc) if sum(k for _, k in cyc.values()) == M.rows else None


def _eye(n: int) -> list[list[int]]:
    """A fresh mutable identity, the start of a transform accumulator."""
    return [list(row) for row in _identity_rows(n)]


def hstack(rows: int, mats: Sequence[IntMatrix]) -> IntMatrix:
    """``mats`` side by side, each with ``rows`` rows; ``rows`` x 0 when there are none."""
    if any(m.rows != rows for m in mats):
        raise DimensionMismatch("hstack row mismatch")
    return IntMatrix._trusted(
        [sum((m.data[i] for m in mats), ()) for i in range(rows)], sum(m.cols for m in mats)
    )


def vstack(mats: Sequence[IntMatrix]) -> IntMatrix:
    return IntMatrix._trusted([row for m in mats for row in m.data], mats[0].cols)


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------


class HermiteForm(Record):
    """Canonical row HNF ``H`` with unimodular ``U`` satisfying ``U*A = H``."""

    __slots__ = _fields = ("H", "U")


def _echelon(w: list, n: int, u: list | None = None) -> int:
    """Reduce the rows ``w`` (width ``n``) in place to canonical row HNF.

    Pivots are positive, entries above each pivot are reduced into
    ``[0, pivot)`` and zero rows sink to the bottom, so the result is the
    unique representative of the row span.  Every row operation (swaps,
    negations and integer row additions) is repeated on ``u`` when one is
    given.  Rows are replaced, never written into.  Returns the rank (nonzero rows).
    """
    m = len(w)
    r = 0
    for j in range(n):
        if r >= m:
            break
        # Shrink column j below row r until a single nonzero entry remains.
        while True:
            # The first entry of least absolute value is the pivot.
            best = i0 = 0
            for i in range(r, m):
                x = abs(w[i][j])
                if x and (not best or x < best):
                    best, i0 = x, i
            if not best:
                break
            w[r], w[i0] = w[i0], w[r]
            if u is not None:
                u[r], u[i0] = u[i0], u[r]
            wr = w[r]
            p = wr[j]
            done = True
            for i in range(r + 1, m):
                wi = w[i]
                if wi[j] == 0:
                    continue
                # |p| <= |wi[j]|, so q is nonzero.  Rows r.. are zero left of
                # column j, so whole rows can be combined.
                q = wi[j] // p
                w[i] = [a - q * b for a, b in zip(wi, wr)]
                if u is not None:
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                if w[i][j] != 0:
                    done = False
            if done:
                break
        wr = w[r]
        if wr[j] == 0:
            continue
        if wr[j] < 0:
            wr = w[r] = [-x for x in wr]
            if u is not None:
                u[r] = [-x for x in u[r]]
        p = wr[j]
        for i in range(r):
            q = w[i][j] // p
            if q:
                w[i] = [a - q * b for a, b in zip(w[i], wr)]
                if u is not None:
                    u[i] = [a - q * b for a, b in zip(u[i], u[r])]
        r += 1
    return r


def hnf(A: IntMatrix) -> HermiteForm:
    """Canonical row Hermite normal form with its transform ``U``.

    See :func:`_echelon` for the normalization; ``U`` records every row
    operation and is unimodular by construction.
    """
    w = list(A.data)
    u = _eye(A.rows)
    _echelon(w, A.cols, u)
    return HermiteForm(IntMatrix._trusted(w, A.cols), IntMatrix._trusted(u, A.rows))


def is_unimodular(M: IntMatrix) -> bool:
    """Is ``M`` in GL(n, Z)?  Iff it is square and its rows' Hermite basis is I."""
    return M.rows == M.cols and _span(M.cols, M.data)._identity


def unimodular_inverse(M: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix (HNF of it is the identity)."""
    form = hnf(M)
    if not form.H.is_identity():
        raise DimensionMismatch("matrix is not unimodular")
    return form.U


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


class SmithForm(Record):
    """Diagonal ``S`` with unimodular ``U``, ``V`` satisfying ``U*A*V = S``.

    ``factors`` lists the positive diagonal entries d1 | d2 | ... with zeros
    dropped (they remain visible as zero rows/columns of ``S``).
    """

    __slots__ = _fields = ("S", "U", "V", "factors")


def _smith(s: list[list[int]], n: int) -> tuple[int, ...]:
    """Reduce the rows ``s`` (width ``n``) in place to a diagonal and return
    the absolute values d1 | d2 | ... of its nonzero entries.

    Pivoting on the smallest nonzero entry bounds coefficient growth; the
    divisibility sweep after each pivot guarantees d_i | d_{i+1}.  No
    transform is kept; :func:`_smith_transforms` builds them.
    """
    m, k = len(s), min(len(s), n)
    t, d = 0, []
    while t < k:
        # The first entry of least absolute value in the tail block, row-major.
        best = pi = pj = 0
        for i in range(t, m):
            si = s[i]
            for j in range(t, n):
                x = si[j] if si[j] >= 0 else -si[j]
                if x and (not best or x < best):
                    best, pi, pj = x, i, j
            if best == 1:
                break
        if not best:
            break
        s[t], s[pi] = s[pi], s[t]
        for row in s:
            row[t], row[pj] = row[pj], row[t]
        st = s[t]
        p = st[t]
        dirty = False
        for i in range(t + 1, m):
            si = s[i]
            q = si[t] // p
            si = s[i] = [a - q * b for a, b in zip(si, st)]
            if si[t] != 0:
                dirty = True
        for j in range(t + 1, n):
            if st[j] != 0:
                q = st[j] // p
                for row in s:
                    row[j] -= q * row[t]
                if st[j] != 0:
                    dirty = True
        if dirty:
            continue
        # Row and column are clear; add the first row with an entry p does not divide.
        for i in range(t + 1, m):
            for x in s[i]:
                if x % p:
                    break
            else:
                continue
            s[t] = [a + b for a, b in zip(st, s[i])]
            break
        else:
            d.append(p if p > 0 else -p)
            t += 1
    return tuple(d)


def _smith_transforms(
    rows: Sequence[Row], n: int, u: list | None = None
) -> tuple[tuple[int, ...], IntMatrix]:
    """The invariant factors of ``rows`` (width ``n``) and a unimodular ``V``
    with ``U*A*V = S``, ``U`` accumulated on ``u`` when it is given.

    Row and column Hermite eliminations alternate until the matrix is
    diagonal (Kannan and Bachem, SIAM J. Comput. 8 (1979)); the column pass
    is :func:`_echelon` on the transpose, whose transform is ``V``
    transposed.  Both reduce the entries above each pivot, which keeps the
    transforms small.  When d_i does not divide a later d_j, column j is
    added to column i; a row addition would be undone by the next row pass.
    """
    w, m = list(rows), len(rows)
    vt = _eye(n)
    while True:
        _echelon(w, n, u)
        wt = list(zip(*w))  # no rows: r = 0 below, and wt is not read
        r = _echelon(wt, m, vt)
        # After a row pass the column pass leaves its pivots at (i, i), so
        # the matrix is diagonal when nothing lies right of them.
        if not any(x for i in range(r) for x in wt[i][i + 1 :]):
            d = [wt[i][i] for i in range(r)]
            fix = next(((i, j) for i in range(r) for j in range(i + 1, r) if d[j] % d[i]), None)
            if fix is None:
                return tuple(d), IntMatrix._trusted(zip(*vt), n)
            i, j = fix
            wt[i] = [a + b for a, b in zip(wt[i], wt[j])]
            vt[i] = [a + b for a, b in zip(vt[i], vt[j])]
        w = list(zip(*wt))


def snf(A: IntMatrix) -> SmithForm:
    """Smith normal form with its transforms ``U`` and ``V``.

    See :func:`_smith_transforms` for the elimination.  Callers that read
    only the invariant factors use :func:`cokernel` or
    :func:`quotient_structure`, which run :func:`_smith` without transforms.
    """
    m, n = A.rows, A.cols
    u = _eye(m)
    factors, V = _smith_transforms(A.data, n, u)
    d = factors + (0,) * m
    S = IntMatrix._trusted([[d[i] if i == j else 0 for j in range(n)] for i in range(m)], n)
    return SmithForm(S, IntMatrix._trusted(u, m), V, factors)


# ---------------------------------------------------------------------------
# Kernels and integer solving
# ---------------------------------------------------------------------------


def left_kernel(A: IntMatrix) -> IntMatrix:
    """Canonical Hermite basis (rows) of ``{v : v*A = 0}``, a saturated lattice."""
    return _kernel(A.cols, A.data).basis


def _zero_left(n: int, rows: list, width: int) -> Lattice:
    """The lattice of the right parts (width ``width``) of the combinations of
    ``rows`` whose left ``n`` entries are zero, with no transform: pivots are
    sought in the left part only, every row operation runs on the whole row,
    and the rows below the rank span those combinations (Cohen, GTM 138,
    Section 2.4).  ``rows`` is reduced in place."""
    r = _echelon(rows, n)
    return _span(width, [row[n:] for row in rows[r:]])


def _kernel(n: int, rows: Sequence[Row]) -> Lattice:
    """``{v : v*A = 0}`` for the rows of ``A`` (width ``n``): the zero-left part of ``[A | I]``."""
    return _zero_left(n, [row + e for row, e in zip(rows, _identity_rows(len(rows)))], len(rows))


def _kernel_lattice(n: int, rows: Sequence[Row]) -> Lattice:
    """:func:`_kernel`, or zero with nothing augmented when a rank pass finds full row rank."""
    if _echelon(list(rows), n) == len(rows):
        return Lattice.zero(len(rows))
    return _kernel(n, rows)


def solve_row_combination(R: IntMatrix, target: Sequence[int]) -> Row | None:
    """Integer coefficients ``c`` with ``c*R = target``, or None.

    Works for an arbitrary generating set: the target is reduced against
    ``hnf(R)`` and the transform maps the reduction back to the given rows.
    """
    if len(target) != R.cols:
        raise DimensionMismatch("target length %d != cols %d" % (len(target), R.cols))
    form = hnf(R)
    h = form.H.data
    v = list(target)
    coeff = [0] * R.rows
    for i in range(R.rows):
        row = h[i]
        j = next((k for k, x in enumerate(row) if x != 0), None)
        if j is None:
            break
        q = v[j] // row[j]
        for k in range(j, R.cols):
            v[k] -= q * row[k]
        urow = form.U.data[i]
        for k in range(R.rows):
            coeff[k] += q * urow[k]
    if any(x != 0 for x in v):
        return None
    return tuple(coeff)


# ---------------------------------------------------------------------------
# Finitely generated abelian structure
# ---------------------------------------------------------------------------


class AbelianStructure(Record):
    """Invariant-factor decomposition: free rank plus torsion d1 | d2 | ..."""

    __slots__ = _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = ()):
        Record.__init__(self, free_rank, torsion)
        # Factors above 1 are checked before the chain, so no zero factor divides.
        if free_rank < 0:
            raise ValueError("negative free rank")
        if torsion and min(torsion) <= 1:
            raise ValueError("torsion factors must exceed 1")
        if any(map(operator.mod, torsion[1:], torsion)):
            raise ValueError("torsion factors must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def rank(self) -> int:
        """Minimal number of generators."""
        return self.free_rank + len(self.torsion)

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": decimals(self.torsion)}

    @staticmethod
    def from_json(obj) -> "AbelianStructure":
        return AbelianStructure.from_json_fields(
            json_field(obj, "free_rank"), json_field(obj, "torsion", list)
        )

    @staticmethod
    def from_json_fields(free_rank, torsion: list) -> "AbelianStructure":
        """The structure read from a JSON free rank and factor list; input
        that the constructor rejects raises InvalidParameters, same message."""
        free_rank = parse_int(free_rank)
        torsion = tuple(map(parse_int, torsion))
        try:
            return AbelianStructure(free_rank, torsion)
        except ValueError as exc:
            raise InvalidParameters(str(exc)) from None


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------


def _combine(coeffs: Sequence[int], rows: Sequence[Row]) -> Row:
    """The row vector ``coeffs * rows`` for a nonempty list of rows."""
    return tuple([sum([c * x for c, x in zip(coeffs, col)]) for col in zip(*rows)])


class Lattice(Value):
    """Sublattice of Z^n stored as a canonical row-HNF basis (no zero rows).

    Canonicality makes equality of lattices a byte-wise comparison of the
    basis matrices.  Saturation is always explicit, never implied.  A basis
    that is the identity (all of Z^n) is recorded once, so coordinates in
    it are the vector itself.
    """

    __slots__ = ("ambient_dim", "basis", "_pivots", "_identity")
    _fields = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: IntMatrix):
        if basis.cols != ambient_dim:
            raise DimensionMismatch("basis width != ambient dimension")
        pivots = [next((j for j, x in enumerate(row) if x), -1) for row in basis.data]
        if -1 in pivots:
            raise InvalidParameters("lattice basis rows must be nonzero")
        self.ambient_dim = ambient_dim
        self.basis = basis
        # The basis is immutable row HNF, so its pivot columns are fixed.
        self._pivots = tuple(pivots)
        self._identity = basis.data == _identity_rows(ambient_dim)

    @staticmethod
    def from_rows(ambient_dim: int, rows: Iterable[Sequence[int]]) -> "Lattice":
        return _span(ambient_dim, IntMatrix(rows, cols=ambient_dim).data)

    @staticmethod
    def standard(n: int) -> "Lattice":
        return Lattice(n, IntMatrix.identity(n))

    @staticmethod
    def scaled(n: int, c: int) -> "Lattice":
        return Lattice.from_rows(n, [[c if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(n: int) -> "Lattice":
        return Lattice(n, IntMatrix._trusted((), n))

    @property
    def rank(self) -> int:
        return self.basis.rows

    def is_full_rank(self) -> bool:
        return self.rank == self.ambient_dim

    def __repr__(self):
        return "Lattice(%d, %r)" % (self.ambient_dim, list(map(list, self.basis.data)))

    def contains(self, v: Sequence[int]) -> bool:
        return self.coords_of(v) is not None

    def coords_of(self, v: Sequence[int]) -> Row | None:
        """Integer coordinates of ``v`` in the HNF basis, or None."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        if self._identity:
            return tuple(v)
        w = v
        coords = []
        for row, j in zip(self.basis.data, self._pivots):
            q, rem = divmod(w[j], row[j])
            if rem:
                return None
            coords.append(q)
            w = [a - q * b for a, b in zip(w, row)]
        if any(w):
            return None
        return tuple(coords)

    def reduce(self, v: Sequence[int]) -> Row:
        """Canonical coset representative of ``v`` modulo this lattice."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length mismatch")
        w = v
        for row, j in zip(self.basis.data, self._pivots):
            q = w[j] // row[j]
            w = [a - q * b for a, b in zip(w, row)]
        return tuple(w)

    def is_sublattice_of(self, other: "Lattice") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return all(other.contains(row) for row in self.basis.data)

    def sum(self, other: "Lattice") -> "Lattice":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return _span(self.ambient_dim, self.basis.data + other.basis.data)

    def intersect(self, other: "Lattice") -> "Lattice":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        n = self.ambient_dim
        # c1*B1 + c2*B2 = 0 exactly when c1*B1 = -c2*B2 lies in both.
        zero = (0,) * n
        rows = [row + row for row in self.basis.data] + [row + zero for row in other.basis.data]
        return _zero_left(n, rows, n)

    def to_json(self) -> list[list[str]]:
        return self.basis.to_json()

    @staticmethod
    def from_json(ambient_dim: int, obj) -> "Lattice":
        return _span(ambient_dim, _parse_rows(obj, ambient_dim)[0])


def _span(n: int, rows: Iterable[Sequence[int]]) -> Lattice:
    """Lattice spanned by rows of ints of width ``n`` that need no checking.

    The Hermite elimination runs on the rows themselves, without a
    transform; a lattice keeps the nonzero rows of ``H``.
    """
    w = list(rows)
    rank = _echelon(w, n)
    return Lattice(n, IntMatrix._trusted(w[:rank], n))


def saturate(L: Lattice) -> Lattice:
    """Smallest overlattice of equal rank with torsion-free quotient.

    Computed by a double orthogonal complement: both kernels are saturated,
    so the result is too.
    """
    n = L.ambient_dim
    if L.rank == n:  # the transposed basis is nonsingular: no complement
        return Lattice.standard(n)
    comp = _kernel(L.rank, L.basis.transpose().data)  # nonzero, as L.rank < n
    return _kernel(comp.rank, comp.basis.transpose().data)


def preimage_lattice(M: IntMatrix, L: Lattice) -> Lattice:
    """The lattice ``{v in Z^n : M*v in L}`` for a k x n matrix ``M``: the
    zero-left part of ``[M^T | I ; B | 0]``, ``B`` the basis of ``L``."""
    if M.rows != L.ambient_dim:
        raise DimensionMismatch("M maps into Z^%d but L lives in Z^%d" % (M.rows, L.ambient_dim))
    n = M.cols
    zero = (0,) * n
    rows = [row + e for row, e in zip(M.transpose().data, _identity_rows(n))]
    return _zero_left(M.rows, rows + [row + zero for row in L.basis.data], n)


def maps_into(M: IntMatrix, src: Lattice, dst: Lattice) -> bool:
    """Does ``M`` map ``src`` into ``dst``?  ``M`` acts on column vectors.

    The image of ``src`` is spanned by the images of its basis rows, so it
    is enough that each of those lies in ``dst``.
    """
    return all(dst.contains(M.apply(r)) for r in src.basis.data)


def full_index(L: Lattice) -> int | None:
    """``[Z^n : L]`` from the diagonal of its row HNF basis, or None if infinite."""
    if not L.is_full_rank():
        return None
    return math.prod(map(operator.getitem, L.basis.data, L._pivots))


def _structure(n: int, factors: Sequence[int]) -> AbelianStructure:
    """``Z^n`` modulo relations with invariant factors ``factors`` (a chain: ones first)."""
    return AbelianStructure._trusted(n - len(factors), factors[factors.count(1) :])


def cokernel(n: int, rows: Iterable[Sequence[int]]) -> AbelianStructure:
    """Structure of ``Z^n / span(rows)``.

    One Smith elimination of the rows, with no transform and no Hermite
    form first.  The rows are checked like those of ``Lattice.from_rows``.
    """
    return _cokernel(n, _validated(rows, n)[0])


def _cokernel(n: int, rows: Iterable[Sequence[int]]) -> AbelianStructure:
    """:func:`cokernel` of rows of ints of width ``n`` that need no checking."""
    return _structure(n, _smith([list(row) for row in rows], n))


def _coordinate_rows(sup: Lattice, sub: Lattice) -> list[Row]:
    """Coordinates of the basis of ``sub`` in the basis of ``sup``."""
    if sup.ambient_dim != sub.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    coord_rows = []
    for row in sub.basis.data:
        c = sup.coords_of(row)
        if c is None:
            raise NotASublattice("basis vector %r is not in the ambient lattice" % (row,))
        coord_rows.append(c)
    return coord_rows


def quotient_structure(sup: Lattice, sub: Lattice) -> AbelianStructure:
    """Invariant factors of ``sup / sub`` (requires ``sub`` inside ``sup``)."""
    return _cokernel(sup.rank, _coordinate_rows(sup, sub))


def quotient_with_generators(
    sup: Lattice, sub: Lattice
) -> tuple[AbelianStructure, list[tuple[int, Row]]]:
    """Structure of ``sup/sub`` plus ambient lifts of its generators.

    Each generator comes as ``(order, vector)`` with order 0 for a free
    generator, torsion ones first in factor order; trivial factors are
    dropped.  The lifts are the rows of ``V^-1``, with no ``U`` built.
    """
    r = sup.rank
    factors, V = _smith_transforms(_coordinate_rows(sup, sub), r)
    orders = factors + (0,) * (r - len(factors))
    lifts = unimodular_inverse(V).data
    gens = [(d, _combine(row, sup.basis.data)) for d, row in zip(orders, lifts) if d != 1]
    return _structure(r, factors), gens


def lattice_index(sup: Lattice, sub: Lattice) -> int | None:
    """Index [sup : sub], or None if infinite."""
    return quotient_structure(sup, sub).order()
