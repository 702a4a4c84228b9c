"""nilcert: exact integer certificates for lattice invariants.

Computes centers, isolators, normalizers, subnormal series,
crossed-homomorphism cohomology and Minkowski-style bounds for lattices in
nilpotent and solvable Lie groups, and emits machine-checkable JSON
certificates for the worked tower constructions (the Sol3 infinite-length
tower, the Heisenberg witness chains, and two-layer nilpotent series).
"""

from .certificates import ChainLevel, SeriesCertificate
from .cohomology import CocycleSpace, ModuleAction, b1, h1, h1_brute, z1
from .invariants import (
    DiscSym2Bound,
    discsym2_upper,
    euler_length_bound,
    minkowski_bound,
    verify_certificate,
)
from .linalg import (
    AbelianStructure,
    HermiteForm,
    IntMatrix,
    Lattice,
    SmithForm,
    cokernel,
    hnf,
    lattice_index,
    left_kernel,
    preimage_lattice,
    quotient_structure,
    saturate,
    snf,
)
from .nilpotent2 import (
    NilElement,
    NilSublattice,
    RationalScale,
    TwoStepLattice,
    heisenberg_witness,
    hbar1,
    isolator,
    nil_mul,
    nilpotency_check,
    subnormal_series,
)
from .semidirect import (
    SemidirectElement,
    SemidirectGroup,
    SemidirectLattice,
    center_rank,
    intermediates,
    normalizer,
    quotient,
    scaling_iso_check,
    sol3_tower,
)

__all__ = [
    "AbelianStructure",
    "ChainLevel",
    "CocycleSpace",
    "DiscSym2Bound",
    "HermiteForm",
    "IntMatrix",
    "Lattice",
    "ModuleAction",
    "NilElement",
    "NilSublattice",
    "RationalScale",
    "SemidirectElement",
    "SemidirectGroup",
    "SemidirectLattice",
    "SeriesCertificate",
    "SmithForm",
    "TwoStepLattice",
    "b1",
    "center_rank",
    "cokernel",
    "discsym2_upper",
    "euler_length_bound",
    "h1",
    "h1_brute",
    "hbar1",
    "heisenberg_witness",
    "hnf",
    "intermediates",
    "isolator",
    "lattice_index",
    "left_kernel",
    "minkowski_bound",
    "nil_mul",
    "nilpotency_check",
    "normalizer",
    "preimage_lattice",
    "quotient",
    "quotient_structure",
    "saturate",
    "scaling_iso_check",
    "snf",
    "sol3_tower",
    "subnormal_series",
    "verify_certificate",
    "z1",
]

__version__ = "0.1.0"
