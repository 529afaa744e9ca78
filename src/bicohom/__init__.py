"""Exact homological algebra over Z and Z/m: complexes, bicomplexes, the
core invariant of exact grids, and balanced stable Ext/Tor."""

from .abgroup import (Element, FpGroup, HClass, HomGroup, Homology,
                      Morphism, Subgroup, TensorGroup, direct_sum,
                      hom_group, induced_hom_map, induced_tensor_map,
                      intersect, invert_isomorphism, kernel_image,
                      make_morphism, preimage_element, subquotient,
                      tensor_group)
from .bicomplexes import (Bicomplex, BoundaryData, DoubleComplex,
                          I_THEN_II, II_THEN_I, PRIME, SECOND,
                          boundary_subgroups, check_exact_grid,
                          core_equality_check, core_homology,
                          core_homology_alt, diagonal_shift,
                          directional_homology, from_double_complex,
                          iterated_homology, to_double_complex)
from .complexes import (COHOMOLOGICAL, HOMOLOGICAL, Complex, Periodic,
                        Window, boundaries, cycles, hom_from_module,
                        hom_into_module, homology, is_exact,
                        module_tensor_with, reindex, tensor_with_module)
from .constructions import (complete_injective_resolution,
                            complete_projective_resolution, hom_bicomplex,
                            random_exact_complex, tensor_bicomplex,
                            zprime_witness, zsecond_witness)
from .errors import (BadArgument, BicohomError, ConventionViolation,
                     HypothesisViolated, IllDefined, InternalChaseFailure,
                     NotAModule, NotAnIsomorphism, NotContained, OutOfWindow,
                     ParentMismatch, ParseError)
from .formats import load_complex, parse_complex, serialize_complex
from .snf import (IntMatrix, SnfResult, hermite_normal_form, kernel_basis,
                  lattice_intersect, smith_normal_form, solve_mod)
from .suites import SUITES, run_suite
from .tate import (EXT, RESOLVE_LEFT, RESOLVE_RIGHT, TOR, VIA_INJECTIVE,
                   VIA_PROJECTIVE, balance_report, tate_ext, tate_tor)

__version__ = "0.1.0"

__all__ = [
    "BadArgument", "Bicomplex", "BicohomError", "BoundaryData",
    "COHOMOLOGICAL", "Complex", "ConventionViolation",
    "DoubleComplex", "EXT", "Element", "FpGroup", "HClass", "HOMOLOGICAL",
    "HomGroup", "Homology", "HypothesisViolated", "I_THEN_II", "II_THEN_I",
    "IllDefined", "IntMatrix", "InternalChaseFailure", "Morphism",
    "NotAModule", "NotAnIsomorphism", "NotContained", "OutOfWindow",
    "PRIME", "ParentMismatch", "ParseError", "Periodic", "RESOLVE_LEFT",
    "RESOLVE_RIGHT", "SECOND", "SUITES", "SnfResult", "Subgroup", "TOR",
    "TensorGroup", "VIA_INJECTIVE", "VIA_PROJECTIVE", "Window",
    "balance_report", "boundaries", "boundary_subgroups", "check_exact_grid",
    "complete_injective_resolution", "complete_projective_resolution",
    "core_equality_check", "core_homology", "core_homology_alt", "cycles",
    "diagonal_shift", "direct_sum", "directional_homology",
    "from_double_complex", "hermite_normal_form", "hom_bicomplex",
    "hom_from_module", "hom_group", "hom_into_module", "homology",
    "induced_hom_map", "induced_tensor_map", "intersect",
    "invert_isomorphism", "is_exact", "iterated_homology", "kernel_basis",
    "kernel_image", "lattice_intersect", "load_complex", "make_morphism",
    "module_tensor_with", "parse_complex", "preimage_element",
    "random_exact_complex", "reindex", "run_suite", "serialize_complex",
    "smith_normal_form", "solve_mod", "subquotient", "tate_ext", "tate_tor",
    "tensor_bicomplex", "tensor_group", "tensor_with_module",
    "to_double_complex", "zprime_witness", "zsecond_witness",
]
