"""Exact integer helpers the benchmark uses to build inputs and check outputs.

They are written independently of nilcert, so a defect in the library's
normal forms cannot hide itself in the checks that are meant to catch it.
Everything works on plain lists of Python ints and stays small: the inputs
the workloads generate are at most 18 x 18.
"""

from __future__ import annotations

import math


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def random_unimodular(rng, n, steps, mult=2):
    """A random matrix P in GL(n, Z) together with its exact inverse.

    P is a product of elementary row additions and sign flips; the inverse
    collects the inverse operations in reverse order, as column operations.
    """
    p = identity(n)
    pinv = identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            p[i] = [-x for x in p[i]]
            for row in pinv:
                row[i] = -row[i]
            continue
        q = rng.choice([x for x in range(-mult, mult + 1) if x])
        # P <- E P with E = I + q e_ij, so P^-1 <- P^-1 E^-1 = P^-1 (I - q e_ij).
        p[i] = [a + q * b for a, b in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= q * row[i]
    return p, pinv


def echelon(rows):
    """Row echelon basis of the Z-span of ``rows`` (zero rows dropped).

    Each basis row starts with a positive pivot strictly right of the pivot
    of the row above, so a full-rank result is upper triangular.
    """
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis = []
    for col in range(ncols):
        if not rows:
            break
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            keep = [pivot]
            for r in live[1:]:
                q = r[col] // pivot[col]
                r = [a - q * b for a, b in zip(r, pivot)]
                if r[col] != 0:
                    keep.append(r)
                elif any(r):
                    rest.append(r)
            live = keep
        if live:
            pivot = live[0]
            basis.append(pivot if pivot[col] > 0 else [-x for x in pivot])
        rows = rest
    return basis


def contains(basis, v) -> bool:
    """Is ``v`` in the Z-span of an :func:`echelon` basis?"""
    w = list(v)
    for row in basis:
        col = next(k for k, x in enumerate(row) if x)
        if w[col] % row[col]:
            return False
        q = w[col] // row[col]
        if q:
            w = [a - q * b for a, b in zip(w, row)]
    return not any(w)


def index(rows, n):
    """Index of the Z-span of ``rows`` in Z^n, or None when it is infinite."""
    basis = echelon(rows)
    if len(basis) != n:
        return None
    return math.prod(basis[i][i] for i in range(n))


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def count_superlattices(sub_rows, n):
    """Number of lattices L with span(sub_rows) <= L <= Z^n.

    Every such L contains e Z^n, where e is the exponent of Z^n / sub, so
    its canonical row Hermite basis has pivots dividing e and entries above
    each pivot reduced modulo it.  The count enumerates those bases and keeps
    the ones that contain the sublattice.
    """
    sub = echelon(sub_rows)
    total = index(sub_rows, n)
    e = next(
        d for d in divisors(total)
        if all(contains(sub, [d if i == j else 0 for j in range(n)]) for i in range(n))
    )
    pivots = divisors(e)
    count = 0

    def extend(prefix_rows, col, det):
        nonlocal count
        if col == n:
            if all(contains(prefix_rows, r) for r in sub):
                count += 1
            return
        for d in pivots:
            if total % (det * d):
                continue
            # Row `col` has pivot d; rows above get an entry in [0, d) here.
            for above in _grid(col, d):
                rows = [r[:] for r in prefix_rows]
                for i, x in enumerate(above):
                    rows[i][col] = x
                rows.append([0] * col + [d] + [0] * (n - col - 1))
                extend(rows, col + 1, det * d)

    extend([], 0, 1)
    return count


def _grid(k, d):
    """All k-tuples with entries in [0, d)."""
    if k == 0:
        yield ()
        return
    for head in range(d):
        for tail in _grid(k - 1, d):
            yield (head,) + tail


def hermite(rows):
    """Canonical row Hermite basis: :func:`echelon` with entries above each
    pivot reduced into [0, pivot), so equal lattices give equal bases."""
    basis = echelon(rows)
    for i, row in enumerate(basis):
        col = next(k for k, x in enumerate(row) if x)
        for above in range(i):
            q = basis[above][col] // row[col]
            if q:
                basis[above] = [a - q * b for a, b in zip(basis[above], row)]
    return basis


def rank(rows) -> int:
    return len(echelon(rows))
