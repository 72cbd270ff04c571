"""sectorlab: translation semigroups on weighted Lp spaces over complex sectors.

A numerical laboratory for the dynamics of the translation family
``(T_t f)(s) = f(s + t)`` indexed by a complex sector, acting on
weighted Lp spaces.  Exact sector geometry and rectangle-union measure
theory; admissible weights with growth certificates; lazy-offset
translation with exact semigroup law; finite-horizon density and orbit
diagnostics; and the checkable chaos criteria (annulus series with its
separation witness, ray summability) together with packaged example
scenarios.

All limit-flavoured verdicts are finite-horizon heuristics and are
labelled as such.
"""

from .geometry import (Sector, SectorPoint, RadiusSchedule,
                       truncated_measure, contains, add_points)
from .sets import (PolarRect, RectUnionSet, OracleSet, TranslatedRectUnion,
                   normalize, measure_in_truncation, measure_profile,
                   translate_set, annuli_union)
from .density import (DensityProfile, DensityEstimate, density_profile,
                      density_estimates, annuli_density_bound)
from .weights import (Certificate, Weight, PairSampling, AdmissibilityReport,
                      IntegralEstimate, CompactBound, exp_decay, poly_decay,
                      vertical_exp, constant_weight, custom_weight,
                      admissibility_check, weight_integral, compact_lower_bound,
                      grid_minimum, weight_rect_integral, weight_from_spec,
                      weight_to_spec)
from .lpspace import (LpSpace, SectorFunction, NormResult, indicator, bump,
                      linear_combination, custom_function, lp_norm,
                      translate_function, orbit_norm, orbit_norms,
                      indicator_orbit_norms,
                      function_from_spec)
from .dynamics import (OrbitResolution, OrbitGrid, LevelSetProfile,
                       PairDiagnostic, orbit_profile, level_density,
                       pair_diagnostic, unboundedness_diagnostic)
from .criteria import (IndexSet, SeriesReport, WitnessPackage,
                       WitnessVerification, WitnessSampling, ExampleReport,
                       dc_sufficient_series, build_witness, verify_witness,
                       devaney_ray_series, run_example, load_scenario,
                       EXAMPLE_IDS)
from .errors import (SectorLabError, DomainError, InvalidWeightError,
                     MissingCertificateError, EvaluationError,
                     WitnessInvalidError, ConfigError)

__version__ = "0.1.0"
