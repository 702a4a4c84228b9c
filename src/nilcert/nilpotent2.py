"""Two-step nilpotent lattices presented by commutator forms.

A lattice is given by ranks (f, b) and alternating b x b forms C_1..C_f:
basis commutators satisfy [x_i, x_j] = prod_l z_l^(C_l[i,j]) with the z_l
central.  Normal-form coordinates use the collection tables T_l (the strict
upper parts of C_l), which turn multiplication into the closed polynomial

    (u, w)(u', w') = (u + u', w + w' + beta(u, u')),  beta(u, u')_l = u^T T_l u'.

Subgroups are restricted to box shapes U x W (closed exactly when
beta(U, U) is contained in W); every series layer produced here has that
shape after the basis choice.  A box keeps the Gram table of beta on its U
basis, from which its commutators and the collected w-parts of its
elements are read without multiplying out.
"""

from __future__ import annotations

import itertools
import operator

import nilcert  # certificates through the package: verbs that build none never compile it

from .arith import canonical_json, is_prime, json_field, parse_int
from .errors import (
    ClosureViolation,
    DimensionMismatch,
    InfiniteOrder,
    InvalidParameters,
    NotAbelianQuotient,
    NotAnAutomorphism,
    NotASubgroup,
    NotFiniteIndex,
    NotNormal,
    QuotientTooLarge,
    Record,
    Value,
)
from .linalg import (
    AbelianStructure,
    IntMatrix,
    Lattice,
    _cokernel,
    _kernel_lattice,
    _span,
    finite_order,
    full_index,
    hstack,
    is_unimodular,
    maps_into,
    saturate,
)

Vec = tuple[int, ...]


class TwoStepLattice(Value):
    """A finitely generated torsion-free 2-step nilpotent group."""

    __slots__ = ("f", "b", "forms", "terms")
    _fields = ("f", "b", "forms")

    def __init__(self, f: int, b: int, forms):
        if f < 0 or b < 0:
            raise InvalidParameters("ranks f and b must be >= 0, got (%d, %d)" % (f, b))
        forms = tuple(forms)
        if len(forms) != f:
            raise DimensionMismatch("expected %d forms, got %d" % (f, len(forms)))
        for C in forms:
            if C.rows != b or C.cols != b:
                raise DimensionMismatch("forms must be %d x %d" % (b, b))
            # Alternating: each row plus the matching column is zero.
            if any(any(map(operator.add, row, col)) for row, col in zip(C.data, zip(*C.data))):
                raise InvalidParameters("commutator forms must be alternating")
        self.f = f
        self.b = b
        self.forms = forms
        # Nonzero entries (i, j, T[i][j]) of each collection table T, the strict upper part of C.
        self.terms = tuple([
            tuple([(i, j, x) for i, r in enumerate(C.data) for j, x in enumerate(r) if j > i and x])
            for C in forms
        ])

    @staticmethod
    def heisenberg(k: int) -> "TwoStepLattice":
        """The lattice <x, y, z | [x, y] = z^k, z central> for k >= 1."""
        if k < 1:
            raise InvalidParameters("heisenberg parameter k must be >= 1")
        return TwoStepLattice(1, 2, [IntMatrix([[0, k], [-k, 0]])])

    @staticmethod
    def free_abelian(f: int, b: int = 0) -> "TwoStepLattice":
        return TwoStepLattice(f, b, [IntMatrix.zeros(b, b) for _ in range(f)])

    def element(self, u, w) -> "NilElement":
        u = tuple(int(x) for x in u)
        w = tuple(int(x) for x in w)
        if len(u) != self.b or len(w) != self.f:
            raise DimensionMismatch("coordinate lengths must be (b, f) = (%d, %d)" % (self.b, self.f))
        return NilElement(self, u, w)

    def identity(self) -> "NilElement":
        return NilElement(self, (0,) * self.b, (0,) * self.f)

    def beta(self, u: Vec, up: Vec) -> Vec:
        """Collection bilinear form, one value per central coordinate."""
        return tuple([sum([x * u[i] * up[j] for i, j, x in terms]) for terms in self.terms])

    def cvalue(self, u: Vec, up: Vec) -> Vec:
        """Commutator pairing C(u, u') = beta(u, u') - beta(u', u)."""
        return tuple(
            sum(x * (u[i] * up[j] - u[j] * up[i]) for i, j, x in terms) for terms in self.terms
        )

    def __repr__(self):
        return "TwoStepLattice(f=%d, b=%d)" % (self.f, self.b)

    def to_json(self) -> dict:
        return {
            "type": "twostep",
            "f": self.f,
            "b": self.b,
            "forms": [C.to_json() for C in self.forms],
        }

    @staticmethod
    def from_json(obj: dict) -> "TwoStepLattice":
        if not isinstance(obj, dict) or obj.get("type") != "twostep":
            raise InvalidParameters("not a twostep group description")
        return TwoStepLattice(
            parse_int(json_field(obj, "f")),
            parse_int(json_field(obj, "b")),
            [IntMatrix.from_json(C) for C in json_field(obj, "forms", list)],
        )


class NilElement(Record):
    """Normal-form coordinates (u, w) in Z^b x Z^f."""

    __slots__ = _fields = ("group", "u", "w")

    def is_identity(self) -> bool:
        return all(x == 0 for x in self.u) and all(x == 0 for x in self.w)


def _same_parent(g: NilElement, h: NilElement) -> TwoStepLattice:
    if g.group != h.group:
        raise DimensionMismatch("elements of different two-step lattices")
    return g.group


def nil_mul(g: NilElement, h: NilElement) -> NilElement:
    G = _same_parent(g, h)
    corr = G.beta(g.u, h.u)
    return NilElement(
        G,
        tuple(a + b for a, b in zip(g.u, h.u)),
        tuple(a + b + c for a, b, c in zip(g.w, h.w, corr)),
    )


def nil_commutator(g: NilElement, h: NilElement) -> NilElement:
    """[g, h] = (0, C(u_g, u_h)): every commutator is central."""
    G = _same_parent(g, h)
    return NilElement(G, (0,) * G.b, G.cvalue(g.u, h.u))


# ---------------------------------------------------------------------------
# Invariants of the presentation
# ---------------------------------------------------------------------------


def center(G: TwoStepLattice) -> tuple[int, Lattice]:
    """Center rank and the saturated kernel of the forms inside Z^b.

    The center is {(u, w) : C_l u = 0 for all l}; the w part is all of Z^f.
    Forms with no joint kernel cost one Hermite pass and no transform.
    """
    cim = commutator_image_matrix(G)
    klattice = _kernel_lattice(cim.cols, cim.data)
    return G.f + klattice.rank, klattice


def isolator(G: TwoStepLattice) -> tuple[Lattice, int]:
    """The isolator of the commutator subgroup inside Z^f, and the rank l
    of its complement in the center.

    The commutator lattice is spanned by the vectors (C_l[i, j])_l; its
    saturation is exactly the set of central elements with a power in
    [Gamma, Gamma], and the center splits as the isolator plus Z^l.
    """
    rows = [
        tuple(C.data[i][j] for C in G.forms)
        for i in range(G.b)
        for j in range(i + 1, G.b)
    ]
    sqrt = saturate(_span(G.f, rows))
    rank, _ = center(G)
    return sqrt, rank - sqrt.rank


def commutator_image_matrix(G: TwoStepLattice) -> IntMatrix:
    """Rows are the images of the basis of Z^b in Hom(Z^b, Z^f) = Z^(b f):
    row i is row i of C_1, ..., C_f side by side."""
    return hstack(G.b, G.forms)


def hbar1(G: TwoStepLattice) -> AbelianStructure:
    """Outer classes trivial on both ends of the central extension.

    Computed as Hom(Z^b, Z^f) = Z^(b f) modulo the image of the commutator
    map u |-> C(u, -).
    """
    return _cokernel(G.b * G.f, commutator_image_matrix(G).data)


# ---------------------------------------------------------------------------
# Box subgroups and their quotients
# ---------------------------------------------------------------------------


class NilSublattice(Value):
    """Box subgroup U x W; closed under the law iff beta(U, U) lies in W.

    ``gram[i][j]`` is beta(r_i, r_j) for the rows r_i of the U basis.
    """

    __slots__ = ("parent", "U", "W", "gram")
    _fields = ("parent", "U", "W")

    def __init__(self, parent: TwoStepLattice, U: Lattice, W: Lattice):
        if U.ambient_dim != parent.b or W.ambient_dim != parent.f:
            raise DimensionMismatch("box data must live in Z^b x Z^f")
        rows, mul, gram = U.basis.data, operator.mul, []
        for ru in rows:
            # beta(u, v)_l = (u^T T_l) . v: one sparse u^T T_l per form, zipped per v.
            cols = []
            for terms in parent.terms:
                m = [0] * parent.b
                for i, j, x in terms:
                    m[j] += x * ru[i]
                cols.append([sum(map(mul, m, rv)) for rv in rows])
            gram.append(tuple(zip(*cols)) if cols else ((),) * len(rows))
        gram = tuple(gram)
        # Every beta value lies in W = Z^f, so only a smaller W is scanned.
        if full_index(W) != 1 and not all(W.contains(v) for row in gram for v in row):
            raise ClosureViolation("beta(U, U) is not contained in W")
        self.parent = parent
        self.U = U
        self.W = W
        self.gram = gram

    def collected_w(self, x) -> Vec:
        """The w-part of prod_i (r_i, 0)^(x_i) over the U basis, in basis order.

        Collecting the product gives
        sum_i x_i(x_i-1)/2 g[i][i] + sum_(i<j) x_i x_j g[i][j]: the power for
        j contributes x_j(x_j-1)/2 beta(r_j, r_j), and multiplying it on adds
        beta of the u-part sum_(i<j) x_i r_i collected before it with x_j r_j.
        """
        g = self.gram
        w = [0] * self.parent.f
        for i, xi in enumerate(x):
            for j in range(i, len(x)):
                e = xi * (xi - 1) // 2 if j == i else xi * x[j]
                if e:
                    w = [a + e * b for a, b in zip(w, g[i][j])]
        return tuple(w)

    def index_in_full(self):
        iu = full_index(self.U)
        iw = full_index(self.W)
        return None if iu is None or iw is None else iu * iw

    def __repr__(self):
        return "NilSublattice(U=%r, W=%r)" % (self.U, self.W)

    def to_json(self) -> dict:
        return {"type": "nilsub", "U": self.U.to_json(), "W": self.W.to_json()}

    @staticmethod
    def from_json(parent: TwoStepLattice, obj: dict) -> "NilSublattice":
        return NilSublattice(
            parent,
            Lattice.from_json(parent.b, json_field(obj, "U")),
            Lattice.from_json(parent.f, json_field(obj, "W")),
        )


def box_quotient(P: NilSublattice, Q: NilSublattice) -> AbelianStructure:
    """Structure of the abelian quotient P/Q of two box subgroups.

    The abelianization of P is Z^(rank U_P + rank W_P) modulo the commutator
    values; Q's generators are rewritten in those coordinates, a U row
    sum_i x_i r_i as prod_i (r_i, 0)^(x_i) corrected by its collected w-part.
    With g the Gram table of P the commutator of basis rows i, j is
    g[i][j] - g[j][i].  These values lie in W_Q, so their relations are
    already spanned by those of Q's W rows.
    """
    # Coordinates of Q's U and W rows in P, also the subgroup test.
    xs = [P.U.coords_of(qu) for qu in Q.U.basis.data]
    ys = [P.W.coords_of(qw) for qw in Q.W.basis.data]
    if None in xs or None in ys:
        raise NotASubgroup("Q is not contained in P")
    r = P.U.rank
    g = P.gram
    for i, j in itertools.combinations(range(r), 2):
        if not Q.W.contains(tuple(a - b for a, b in zip(g[i][j], g[j][i]))):
            # [P, P] inside Q makes Q normal in P, so normality is only
            # asked to name the failure.  Q is normal in P iff every
            # C(r_i, q) lies in W_Q; for q = sum_l x_l r_l that pairing is
            # sum_l x_l (g[i][l] - g[l][i]).
            pairings = (
                [sum(x[l] * (g[i][l][k] - g[l][i][k]) for l in range(r)) for k in range(P.parent.f)]
                for i in range(r)
                for x in xs
            )
            if not all(Q.W.contains(c) for c in pairings):
                raise NotNormal("Q is not normal in P")
            raise NotAbelianQuotient("commutators of P do not land in Q")

    # P is closed, so the collected w-parts lie in W_P.
    relations = [x + P.W.coords_of(tuple(-a for a in P.collected_w(x))) for x in xs]
    zeros = (0,) * r
    relations.extend(zeros + y for y in ys)
    return _cokernel(r + P.W.rank, relations)


def series_levels(
    sub: NilSublattice, kernel: Lattice, box: dict | None = None
) -> list[nilcert.certificates.ChainLevel]:
    """The two levels of Gamma = ``sub`` < Lambda_1 = (U + K) x Z^f < Lambda,
    K the u part of the centre as :func:`center` returns it.  Each level
    records the lower box, the abelian quotient of the upper one by it and
    whether that layer is central.  ``box`` is ``sub.to_json()`` when the
    caller has it already.

    Both quotients are read off Hermite bases already built: Lambda/Lambda_1
    = Z^b/(U + K) and, when K lies in U, Lambda_1/Gamma = Z^f/W.  Level 1 is
    central (Lambda_1.U = U + K); level 2 only when Z^b = U + K.
    """
    L = sub.parent
    if box is None:
        box = sub.to_json()
    if kernel.is_sublattice_of(sub.U):
        span, first = sub.U, _cokernel(L.f, sub.W.basis.data)
        middle = {"type": "nilsub", "U": box["U"], "W": IntMatrix.identity(L.f).to_json()}
    else:
        lam1 = NilSublattice(L, sub.U.sum(kernel), Lattice.standard(L.f))
        span, first, middle = lam1.U, box_quotient(lam1, sub), lam1.to_json()
    second = _cokernel(L.b, span.basis.data)
    level = nilcert.certificates.ChainLevel
    return [
        level(canonical_json(box), first, first.order(), True, True),
        level(canonical_json(middle), second, second.order(), True, second.is_trivial),
    ]


def subnormal_series(
    L: TwoStepLattice, sub: NilSublattice, max_index: int | None = None
) -> nilcert.certificates.SeriesCertificate:
    """Two-layer subnormal chain Gamma <| Lambda_1 <| Lambda for finite index.

    Lambda_1 is the preimage in Lambda of Gamma's image modulo the center,
    which is again a box subgroup.  The first quotient is a quotient of the
    center (rank <= rank of the center) and the second is a quotient of Z^b
    modulo the kernel directions (rank <= b).
    """
    if sub.parent is not L and sub.parent != L:
        raise DimensionMismatch("sublattice belongs to another group")
    index = sub.index_in_full()
    if index is None:
        raise NotFiniteIndex("box subgroup does not have finite index")
    if max_index is not None and index > max_index:
        raise QuotientTooLarge("index %d exceeds guard %d" % (index, max_index))

    crank, kernel = center(L)
    box = sub.to_json()
    first, second = series_levels(sub, kernel, box)
    if first.quotient.rank() > crank or second.quotient.rank() > L.b - kernel.rank:
        raise NotAbelianQuotient("layer rank exceeds the upper central series bound")
    certificates = nilcert.certificates
    return certificates.sealed(
        certificates.KIND_TWO_STEP,
        canonical_json(dict(L.to_json(), gamma=box)),
        [level for level in (first, second) if not level.quotient.is_trivial],
        index,
        1 if index > 1 else 0,
    )


# ---------------------------------------------------------------------------
# Rational overlattices and the Heisenberg witness
# ---------------------------------------------------------------------------


class RationalScale(Record):
    """Axis-wise denominators describing an overlattice in the rational hull.

    The overlattice is generated by x_i^(1/du[i]) and z_l^(1/dw[l]); its
    commutator forms are C_l[i, j] * dw[l] / (du[i] du[j]), which must stay
    integral.
    """

    __slots__ = _fields = ("du", "dw")

    def __init__(self, du: Vec, dw: Vec):
        Record.__init__(self, du, dw)
        if any(d < 1 for d in du) or any(d < 1 for d in dw):
            raise InvalidParameters("denominators must be positive")

    def apply(self, G: TwoStepLattice) -> TwoStepLattice:
        if len(self.du) != G.b or len(self.dw) != G.f:
            raise DimensionMismatch("denominator counts must match (b, f)")
        forms = []
        for l, C in enumerate(G.forms):
            fracs = [
                [(x * self.dw[l], self.du[i] * self.du[j]) for j, x in enumerate(row)]
                for i, row in enumerate(C.data)
            ]
            for num, den in itertools.chain.from_iterable(fracs):
                if num % den != 0:
                    raise InvalidParameters("overlattice form entry %d/%d is not integral" % (num, den))
            forms.append(IntMatrix([[num // den for num, den in row] for row in fracs], cols=G.b))
        return TwoStepLattice(G.f, G.b, forms)

    def embedded_sublattice(self, ambient: TwoStepLattice) -> NilSublattice:
        """The original lattice written in the overlattice's coordinates."""
        U, W = (
            Lattice.from_rows(n, [[d[i] if i == j else 0 for j in range(n)] for i in range(n)])
            for n, d in ((ambient.b, self.du), (ambient.f, self.dw))
        )
        return NilSublattice(ambient, U, W)


def heisenberg_witness(
    k: int, p: int, a: int, max_index: int | None = None
) -> nilcert.certificates.SeriesCertificate:
    """Overlattice chain Gamma < Lambda < Lambda' realizing the (1, 2) profile.

    Lambda divides the central direction by p^a, Lambda' divides both base
    directions by p; the second-layer forms have entries k p^(a-2), so a >= 2
    is forced by integrality.  Quotients: Lambda/Gamma = Z/p^a (central) and
    Lambda'/Lambda = (Z/p)^2.  An index p^(a+2) beyond ``max_index`` is
    refused first: it has more than (a+2)(bits(p) - 1) bits, so bit lengths
    are compared before p is tested for primality or any power is formed.
    """
    if max_index is not None and p >= 1 and a >= 0 and (
        (a + 2) * (p.bit_length() - 1) >= max_index.bit_length() or p ** (a + 2) > max_index
    ):
        raise QuotientTooLarge("witness index p^(a+2) exceeds --max-index %d" % max_index)
    if k < 1:
        raise InvalidParameters("k must be >= 1")
    if not is_prime(p):
        raise InvalidParameters("p must be prime")
    if a < 2:
        raise InvalidParameters("a must be >= 2 (second-layer forms k*p^(a-2))")

    base = TwoStepLattice.heisenberg(k)
    scale_full = RationalScale((p, p), (p**a,))
    ambient = scale_full.apply(base)

    gamma = scale_full.embedded_sublattice(ambient)
    _, kernel = center(ambient)
    chain = series_levels(gamma, kernel)
    expected = [AbelianStructure(0, (p**a,)), AbelianStructure(0, (p, p))]
    if [level.quotient for level in chain] != expected:
        raise InvalidParameters("witness quotients did not verify")
    certificates = nilcert.certificates
    return certificates.sealed(
        certificates.KIND_WITNESS,
        canonical_json(dict(ambient.to_json(), witness={"k": k, "p": p, "a": a, "profile": [1, 2]})),
        chain,
        p ** (a + 2),
        1,
    )


# ---------------------------------------------------------------------------
# Nilpotency criterion for finite extensions
# ---------------------------------------------------------------------------


def nilpotency_check(G: TwoStepLattice, P: IntMatrix, Q: IntMatrix, order: int) -> bool:
    """Would the extension of G by the automorphism (P, Q) be nilpotent?

    True iff the induced action on G modulo the isolator of the commutator
    subgroup is the identity: P = Id on Z^b and Q = Id on Z^f modulo the
    isolator lattice.
    """
    if P.rows != G.b or P.cols != G.b or Q.rows != G.f or Q.cols != G.f:
        raise DimensionMismatch("automorphism blocks must be b x b and f x f")
    if not (is_unimodular(P) and is_unimodular(Q)):
        raise NotAnAutomorphism("blocks must be unimodular")
    for l in range(G.f):
        lhs = P.transpose() * G.forms[l] * P
        rhs = IntMatrix.zeros(G.b, G.b)
        for m2 in range(G.f):
            rhs = rhs + G.forms[m2].scale(Q.data[l][m2])
        if lhs != rhs:
            raise NotAnAutomorphism("pair does not preserve the commutator forms")
    if order < 1:
        raise InvalidParameters("order must be a positive integer")
    for X in (P, Q):
        k = finite_order(X)
        if k is None or order % k:
            raise InfiniteOrder("claimed finite order %d does not hold" % order)

    sqrt, _ = isolator(G)
    if not P.is_identity():
        return False
    return maps_into(Q - IntMatrix.identity(G.f), Lattice.standard(G.f), sqrt)
