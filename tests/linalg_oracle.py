"""The normal forms and the integer parser as they were before their pivot
searches and their decimal test were rewritten as plain loops, and the
Bareiss determinant the library no longer has.

The Hermite transform is not unique, so an independent implementation
cannot pin it; this copy can.  The library's Smith transforms now come from
alternating Hermite passes, so ``snf`` here pins ``S`` and the factors only.
``hnf`` and ``snf`` return the plain row tuples the library's forms hold,
and ``parse_int`` keeps the regular-expression rule for decimal strings.
``det`` is an elimination of its own, the tests' reference for
unimodularity and singularity, which the library reads off the Hermite
form.

The kernels are computed as the library computed them before it read them
off one elimination of an augmented matrix: ``left_kernel`` takes the rows
of ``U`` under the zero rows of ``H``, and ``preimage``, ``intersect`` and
``saturate`` solve through it and span the result again.  All of them
return the canonical Hermite basis of their lattice as row tuples, from the
elimination here, so they share no code with the library's.
"""

import re

from nilcert.errors import DimensionMismatch, InvalidParameters


def _eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _echelon(w, n, u=None):
    m = len(w)
    r = 0
    for j in range(n):
        if r >= m:
            break
        while True:
            nz = [i for i in range(r, m) if w[i][j] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(w[i][j]))
            if i0 != r:
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
                q = wi[j] // p
                if q:
                    wi = w[i] = [a - q * b for a, b in zip(wi, wr)]
                    if u is not None:
                        u[i] = [a - q * b for a, b in zip(u[i], u[r])]
                if wi[j] != 0:
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


def _smith(s, n, u=None, v=None, vi=None):
    m = len(s)
    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            si = s[i]
            for j in range(t, n):
                x = si[j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            s[t], s[pi] = s[pi], s[t]
            if u is not None:
                u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in s:
                row[t], row[pj] = row[pj], row[t]
            if v is not None:
                for row in v:
                    row[t], row[pj] = row[pj], row[t]
            if vi is not None:
                vi[t], vi[pj] = vi[pj], vi[t]
        st = s[t]
        p = st[t]
        dirty = False
        for i in range(t + 1, m):
            si = s[i]
            if si[t] != 0:
                q = si[t] // p
                if q:
                    si = s[i] = [a - q * b for a, b in zip(si, st)]
                    if u is not None:
                        u[i] = [a - q * b for a, b in zip(u[i], u[t])]
                if si[t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if st[j] != 0:
                q = st[j] // p
                if q:
                    for row in s:
                        row[j] -= q * row[t]
                    if v is not None:
                        for row in v:
                            row[j] -= q * row[t]
                    if vi is not None:
                        vi[t] = [a + q * b for a, b in zip(vi[t], vi[j])]
                if st[j] != 0:
                    dirty = True
        if dirty:
            continue
        fix = next(
            (i for i in range(t + 1, m) if any(x % p for x in s[i][t + 1 :])), None
        )
        if fix is not None:
            s[t] = [a + b for a, b in zip(st, s[fix])]
            if u is not None:
                u[t] = [a + b for a, b in zip(u[t], u[fix])]
            continue
        if p < 0:
            s[t] = [-x for x in st]
            if u is not None:
                u[t] = [-x for x in u[t]]
        t += 1
    return tuple(s[i][i] for i in range(min(m, n)) if s[i][i] != 0)


def _rows(w):
    return tuple(map(tuple, w))


def hnf(rows, n):
    """(H, U) of the rows of width ``n``."""
    w = [list(row) for row in rows]
    u = _eye(len(w))
    _echelon(w, n, u)
    return _rows(w), _rows(u)


def left_kernel(rows, n):
    """A basis of ``{v : v*A = 0}`` for the rows of width ``n``: the rows of
    ``U`` under the zero rows of ``H``."""
    H, U = hnf(rows, n)
    return U[sum(1 for row in H if any(row)) :]


def span(rows, n):
    """The canonical Hermite basis of the rows of width ``n``."""
    return tuple(row for row in hnf(rows, n)[0] if any(row))


def _transpose(rows, n):
    return [tuple(row[j] for row in rows) for j in range(n)]


def kernel(rows, n):
    """``left_kernel`` as a lattice: its canonical Hermite basis."""
    return span(left_kernel(rows, n), len(rows))


def preimage(M, k, n, basis):
    """``{v in Z^n : M*v in L}`` for the k x n rows ``M`` and the basis of ``L``."""
    mt = _transpose(M, n)
    if not basis:
        return kernel(mt, k)
    ker = left_kernel(mt + [tuple(-x for x in row) for row in basis], k)
    return span([row[:n] for row in ker], n)


def intersect(a, b, n):
    """The intersection of the lattices with bases ``a`` and ``b`` in Z^n."""
    if not a or not b:
        return ()
    ker = left_kernel(list(a) + [tuple(-x for x in row) for row in b], n)
    return span(
        [tuple(sum(c * x for c, x in zip(k[: len(a)], col)) for col in zip(*a)) for k in ker], n
    )


def saturate(basis, n):
    """The saturation of the lattice with basis ``basis`` in Z^n, a double
    orthogonal complement."""
    if not basis:
        return ()
    comp = left_kernel(_transpose(basis, n), len(basis))
    if not comp:
        return span(_eye(n), n)
    return span(left_kernel(_transpose(comp, n), len(comp)), n)


def snf(rows, n):
    """(S, U, V, V^-1, factors) of the rows of width ``n``."""
    s = [list(row) for row in rows]
    u, v, vi = _eye(len(s)), _eye(n), _eye(n)
    factors = _smith(s, n, u, v, vi)
    return _rows(s), _rows(u), _rows(v), _rows(vi), factors


def det(M):
    """Exact determinant of a square IntMatrix via fraction-free Bareiss elimination."""
    if M.rows != M.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return 1
    m = [list(row) for row in M.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


_DECIMAL = re.compile(r"-?[0-9]+")


def parse_int(x):
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, str) and _DECIMAL.fullmatch(x):
        try:
            return int(x)
        except ValueError as exc:
            raise InvalidParameters("integer %.20s... is too long: %s" % (x, exc))
    raise InvalidParameters("expected an integer or a decimal string, got %r" % (x,))
