"""nilcert: exact integer certificates for lattice invariants.

Computes centers, isolators, normalizers, subnormal series,
crossed-homomorphism cohomology and Minkowski-style bounds for lattices in
nilpotent and solvable Lie groups, and emits machine-checkable JSON
certificates for the worked tower constructions (the Sol3 infinite-length
tower, the Heisenberg witness chains, and two-layer nilpotent series).

Importing the package loads no submodule: each name of ``__all__`` is
imported from its submodule on first access (PEP 562), so a CLI verb
compiles only the modules it runs.
"""

import importlib

# export -> the submodule that defines it; __getattr__ imports only what these two tables name
_EXPORTS = {
    "euler_length_bound": "arith", "minkowski_bound": "arith",
    "ChainLevel": "certificates", "SeriesCertificate": "certificates",
    "CocycleSpace": "cohomology", "ModuleAction": "cohomology", "b1": "cohomology",
    "h1": "cohomology", "h1_brute": "cohomology", "z1": "cohomology",
    "DiscSym2Bound": "invariants", "discsym2_upper": "invariants",
    "verify_certificate": "invariants",
    "AbelianStructure": "linalg", "HermiteForm": "linalg", "IntMatrix": "linalg",
    "Lattice": "linalg", "SmithForm": "linalg", "cokernel": "linalg", "hnf": "linalg",
    "lattice_index": "linalg", "left_kernel": "linalg", "preimage_lattice": "linalg",
    "quotient_structure": "linalg", "saturate": "linalg", "snf": "linalg",
    "NilElement": "nilpotent2", "NilSublattice": "nilpotent2", "RationalScale": "nilpotent2",
    "TwoStepLattice": "nilpotent2", "hbar1": "nilpotent2", "heisenberg_witness": "nilpotent2",
    "isolator": "nilpotent2", "nil_mul": "nilpotent2", "nilpotency_check": "nilpotent2",
    "subnormal_series": "nilpotent2",
    "SemidirectElement": "semidirect", "SemidirectGroup": "semidirect",
    "SemidirectLattice": "semidirect", "center_rank": "semidirect", "intermediates": "semidirect",
    "normalizer": "semidirect", "quotient": "semidirect", "scaling_iso_check": "semidirect",
    "sol3_tower": "semidirect",
}
_SUBMODULES = (
    "arith", "certificates", "cohomology", "errors", "invariants", "linalg", "nilpotent2", "semidirect",
    "usage",
)

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule behind an export or a submodule name on first access.

    An export is then cached in this module, so the next lookup of it does
    not come here; importing a submodule binds it here.
    """
    module = _EXPORTS.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = importlib.import_module("nilcert." + module)
    if name in _EXPORTS:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
