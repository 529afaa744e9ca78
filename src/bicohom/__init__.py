"""Exact homological algebra over Z and Z/m: complexes, bicomplexes, the
core invariant of exact grids, and balanced stable Ext/Tor."""

from types import ModuleType as _ModuleType

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
                          core_homology_alt, core_type, diagonal_shift,
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
                     NotAModule, NotAnIsomorphism, NotContained,
                     ParentMismatch, ParseError)
from .formats import load_complex, parse_complex, serialize_complex
from .snf import (IntMatrix, SnfResult, hermite_normal_form, kernel_basis,
                  lattice_intersect, smith_normal_form, solve_mod)
from .suites import SUITES, run_suite
from .tate import (EXT, RESOLVE_LEFT, RESOLVE_RIGHT, TOR, VIA_INJECTIVE,
                   VIA_PROJECTIVE, balance_report, tate_ext, tate_tor)

__version__ = "0.1.0"

# every public name bound above; submodules stay reachable as attributes
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
