"""The value classes against frozen-dataclass twins of their definitions.

Each library class is a plain ``Record`` subclass.  The twins below are the
``@dataclass(frozen=True)`` definitions those classes replaced, with the
same names so that their reprs can be compared, and the test holds the two
to the same construction, binding errors, equality, hash, repr, immutability
and validation errors.  The six value classes with their own constructors
take equality and hash from ``Value`` alone; ``IDENTITIES`` holds them to
the fields that identify them.
"""

import copy
import operator
import pickle
from dataclasses import MISSING, dataclass
from functools import cached_property
from typing import Optional

import pytest

from nilcert import certificates, cohomology, invariants, linalg, nilpotent2, semidirect
from nilcert.errors import IllDefinedAction, InvalidParameters
from nilcert.linalg import IntMatrix, maps_into


@dataclass(frozen=True)
class HermiteForm:
    H: IntMatrix
    U: IntMatrix


@dataclass(frozen=True)
class SmithForm:
    S: IntMatrix
    U: IntMatrix
    V: IntMatrix
    factors: tuple


@dataclass(frozen=True)
class AbelianStructure:
    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        # Factors above 1 are checked before the chain, so no zero factor divides.
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        if any(d <= 1 for d in self.torsion):
            raise ValueError("torsion factors must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion factors must form a divisibility chain")


@dataclass(frozen=True)
class ChainLevel:
    subgroup: str
    quotient: linalg.AbelianStructure
    index: int
    normality_verified: bool
    central: Optional[bool] = None


@dataclass(frozen=True)
class SeriesCertificate:
    kind: str
    group_ref: str
    chain: tuple
    total_index: int
    min_length: int
    max_quotient_order: int


_Action = cohomology.ModuleAction


@dataclass(frozen=True)
class ModuleAction:
    ngens: int
    relators: tuple
    module: linalg.AbelianStructure
    matrices: tuple

    def __post_init__(self):
        if self.ngens < 0 or len(self.matrices) != self.ngens:
            raise InvalidParameters("need one action matrix per generator")
        dim = self.dim
        for psi in self.matrices:
            if psi.rows != dim or psi.cols != dim:
                raise IllDefinedAction("action matrices must be %d x %d" % (dim, dim))
        D = self.torsion_lattice
        if not all(maps_into(psi, D, D) for psi in self.matrices):
            raise IllDefinedAction("action does not respect torsion")
        _ = self.inverses
        _ = self.fox_blocks

    dim = _Action.dim
    torsion_diagonal = _Action.torsion_diagonal
    _module_inverse = _Action._module_inverse
    torsion_lattice = cached_property(_Action.torsion_lattice.func)
    inverses = cached_property(_Action.inverses.func)
    fox_blocks = cached_property(_Action.fox_blocks.func)


@dataclass(frozen=True)
class CocycleSpace:
    structure: linalg.AbelianStructure
    basis: tuple


@dataclass(frozen=True)
class DiscSym2Bound:
    f_bound: int
    b_bound: int


@dataclass(frozen=True)
class NilElement:
    group: nilpotent2.TwoStepLattice
    u: tuple
    w: tuple


@dataclass(frozen=True)
class RationalScale:
    du: tuple
    dw: tuple

    def __post_init__(self):
        if any(d < 1 for d in self.du) or any(d < 1 for d in self.dw):
            raise InvalidParameters("denominators must be positive")


@dataclass(frozen=True)
class SemidirectElement:
    group: semidirect.SemidirectGroup
    v: tuple
    t: int


I1, I2 = IntMatrix.identity(1), IntMatrix.identity(2)
NEG = IntMatrix([[-1]])
Z2 = linalg.AbelianStructure(0, (2,))
Z1, Z_Z2 = linalg.AbelianStructure(1), linalg.AbelianStructure(1, (2,))
HEIS = nilpotent2.TwoStepLattice(1, 2, [IntMatrix([[0, 1], [-1, 0]])])
SOL3 = semidirect.SemidirectGroup(IntMatrix([[5, 2], [2, 1]]))

# (library class, twin, two argument tuples giving unequal values)
CASES = [
    (linalg.HermiteForm, HermiteForm, (I2, I2), (I2, I2.scale(-1))),
    (linalg.SmithForm, SmithForm, (I1, I1, I1, (1,)), (NEG, I1, I1, (1,))),
    (linalg.AbelianStructure, AbelianStructure, (2, (2, 4)), (2,)),
    (certificates.ChainLevel, ChainLevel, ('{"type":"x"}', Z2, 2, True), ("{}", Z2, 2, True, False)),
    (
        certificates.SeriesCertificate,
        SeriesCertificate,
        ("sol3-tower", "{}", (), 1, 0, 1),
        ("sol3-tower", '{"k":1}', (), 1, 0, 1),
    ),
    (
        cohomology.ModuleAction,
        ModuleAction,
        (1, ("aa",), Z1, (NEG,)),
        (1, (), Z2, (I1,)),
    ),
    (cohomology.CocycleSpace, CocycleSpace, (Z2, (((1,),),)), (Z2, ())),
    (invariants.DiscSym2Bound, DiscSym2Bound, (1, 2), (2, 1)),
    (nilpotent2.NilElement, NilElement, (HEIS, (1, 0), (3,)), (HEIS, (0, 0), (3,))),
    (nilpotent2.RationalScale, RationalScale, ((1, 2), (3,)), ((1, 1), (3,))),
    (semidirect.SemidirectElement, SemidirectElement, (SOL3, (1, 2), 3), (SOL3, (1, 2), -3)),
]

# (library class, twin, arguments the old checks rejected)
INVALID = [
    (linalg.AbelianStructure, AbelianStructure, (-1,)),
    (linalg.AbelianStructure, AbelianStructure, (0, (2, 3))),
    (linalg.AbelianStructure, AbelianStructure, (0, (4, 2, 1))),
    (linalg.AbelianStructure, AbelianStructure, (0, (1,))),
    (linalg.AbelianStructure, AbelianStructure, (0, (0,))),
    (linalg.AbelianStructure, AbelianStructure, (0, (0, 2))),
    (cohomology.ModuleAction, ModuleAction, (2, (), Z1, (NEG,))),
    (cohomology.ModuleAction, ModuleAction, (-1, (), Z1, ())),
    (cohomology.ModuleAction, ModuleAction, (1, (), linalg.AbelianStructure(2), (NEG,))),
    (cohomology.ModuleAction, ModuleAction, (1, (), Z_Z2, (IntMatrix([[1, 1], [0, 1]]),))),
    (cohomology.ModuleAction, ModuleAction, (1, (), Z1, (IntMatrix([[2]]),))),
    (cohomology.ModuleAction, ModuleAction, (1, ("a",), Z1, (NEG,))),
    (cohomology.ModuleAction, ModuleAction, (1, ("b",), Z1, (NEG,))),
    (nilpotent2.RationalScale, RationalScale, ((1, 0), (1,))),
    (nilpotent2.RationalScale, RationalScale, ((1,), (-2,))),
]

# (value class, the attrgetter its hash applies, two equal values built
# different ways, a value with one field changed)
IDENTITIES = [
    (
        IntMatrix, ("rows", "cols", "data"),
        IntMatrix([[1, 2], [3, 4]]), IntMatrix.from_json([["1", "2"], ["3", "4"]]),
        IntMatrix([[1, 2], [3, 5]]),
    ),
    (
        linalg.Lattice, ("ambient_dim", "basis"),
        linalg.Lattice.from_rows(2, [[2, 0], [0, 3]]), linalg.Lattice.from_rows(2, [[0, 3], [2, 3]]),
        linalg.Lattice.from_rows(2, [[2, 0], [0, 6]]),
    ),
    (
        nilpotent2.TwoStepLattice, ("f", "b", "forms"),
        nilpotent2.TwoStepLattice.heisenberg(2),
        nilpotent2.TwoStepLattice.from_json(
            {"type": "twostep", "f": 1, "b": 2, "forms": [[["0", "2"], ["-2", "0"]]]}
        ),
        nilpotent2.TwoStepLattice.heisenberg(3),
    ),
    (
        nilpotent2.NilSublattice, ("parent", "U", "W"),
        nilpotent2.NilSublattice(HEIS, linalg.Lattice.scaled(2, 2), linalg.Lattice.scaled(1, 4)),
        nilpotent2.NilSublattice.from_json(
            nilpotent2.TwoStepLattice.heisenberg(1), {"U": [["2", "0"], ["0", "2"]], "W": [["4"]]}
        ),
        nilpotent2.NilSublattice(HEIS, linalg.Lattice.scaled(2, 4), linalg.Lattice.scaled(1, 4)),
    ),
    (
        semidirect.SemidirectGroup, ("A",),
        SOL3, semidirect.sol3_group(), semidirect.SemidirectGroup(IntMatrix([[2, 1], [1, 1]])),
    ),
    (
        semidirect.SemidirectLattice, ("parent", "L", "m"),
        semidirect.sol3_gamma(1, SOL3),
        semidirect.SemidirectLattice.from_json(semidirect.sol3_gamma(1).to_json()),
        semidirect.SemidirectLattice(SOL3, linalg.Lattice.scaled(2, 2), 2),
    ),
]


@pytest.mark.parametrize("cls,fields,value,same,changed", IDENTITIES, ids=[c[0].__name__ for c in IDENTITIES])
def test_value_identity_is_the_field_tuple(cls, fields, value, same, changed):
    assert type(value) is type(same) is type(changed) is cls and value is not same
    assert value == same and same == value and not value != same and hash(value) == hash(same)
    # The hash of the field tuple; a class with one field hashes as that field.
    assert hash(value) == hash(operator.attrgetter(*fields)(value))
    assert value != changed and changed != value and not value == changed
    assert value != object() and object() != value and value.__eq__(object()) is NotImplemented


def _outcome(f):
    try:
        return f()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cls,twin,args,other", CASES, ids=[cls.__name__ for cls, *_ in CASES])
def test_value_semantics_match_the_dataclass(cls, twin, args, other):
    value, old = cls(*args), twin(*args)
    assert cls._fields == tuple(twin.__dataclass_fields__)
    assert repr(value) == repr(old)
    assert value == cls(*args) and old == twin(*args)
    assert (value == cls(*other)) is (old == twin(*other)) is False
    assert value != old and value.__eq__(old) is NotImplemented
    sub, old_sub = (type("Sub", (c,), {"__slots__": ()})(*args) for c in (cls, twin))
    assert (sub == value) is (old_sub == old) is False
    assert cls(**dict(zip(cls._fields, args))) == value
    assert _outcome(lambda: hash(value)) == _outcome(lambda: hash(old))
    for name in cls._fields:
        for obj in (value, old):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value


@pytest.mark.parametrize("cls,twin,args", [c[:3] for c in CASES], ids=[cls.__name__ for cls, *_ in CASES])
def test_construction_matches_the_dataclass(cls, twin, args):
    fields = cls._fields
    required = [f.name for f in twin.__dataclass_fields__.values() if f.default is MISSING]
    values = args + tuple(twin.__dataclass_fields__[name].default for name in fields[len(args) :])

    def same(*given, **named):
        got, want = _outcome(lambda: cls(*given, **named)), _outcome(lambda: twin(*given, **named))
        assert isinstance(got, tuple) is isinstance(want, tuple), (got, want)
        if isinstance(got, tuple):
            assert got[0] is want[0] is TypeError, (got, want)
            return got[1], want[1]
        assert repr(got) == repr(want)

    # By position, by name in any order, mixed, and with the defaults left out.
    same(*values)
    same(**dict(reversed(list(zip(fields, values)))))
    same(values[0], **dict(zip(fields[1:], values[1:])))
    same(*values[: len(required)])
    same(**dict(zip(required, values)))
    # A repeated or unknown name gets the dataclass's message; a missing or
    # extra field its error type.
    for named in ({fields[0]: values[0]}, {"bogus": 1}):
        got, want = same(*values, **named)
        assert got == want
    same(*values[: len(required) - 1])
    same(**dict(zip(required[1:], values[1:])))
    same(*values, None)


@pytest.mark.parametrize("cls,twin,args", INVALID, ids=[cls.__name__ for cls, *_ in INVALID])
def test_validation_errors_match_the_dataclass(cls, twin, args):
    got, want = _outcome(lambda: cls(*args)), _outcome(lambda: twin(*args))
    assert isinstance(want, tuple)
    assert got == want


def test_slots_except_where_a_cache_needs_a_dict():
    for cls, _, args, _ in CASES:
        assert hasattr(cls(*args), "__dict__") is (cls is cohomology.ModuleAction), cls.__name__


def test_cached_properties_fill_the_dict_of_a_frozen_action():
    act = cohomology.ModuleAction(1, ("aa",), Z1, (NEG,))
    assert {"torsion_lattice", "inverses", "fox_blocks"} <= set(vars(act))
    assert act.inverses == (NEG,)
