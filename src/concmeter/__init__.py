"""Monte Carlo laboratory for concentration transfer through push-forward maps."""

from .concentration import (AnalyticProfile, ConcentrationCurve, MedianEstimate,
                            analytic_profile, concentration_lower_curve,
                            empirical_median)
from .measures import (MeasureSpec, RadialCdf, SampleBatch, cone_surface, gamma_cdf,
                       gamma_quantile, gaussian, ggp, haar_sphere, radial_cdf,
                       sample, uniform_ball)
from .normspace import (ContainmentConstant, NormSpec, containment_constant,
                        dual_norm, lp, norm_eval, normalize_containment, scaled)
from .parameters import (BetaEstimate, beta, beta_tilde, cube_beta_lower_bound,
                         cube_concentration_floor, embedding_lower_bound)
from .transport import (MonotoneMap, lipschitz_constant, norm_ratio_map,
                        radial_map, radial_transport, ratio_map_lipschitz)
from .verify import CheckError, CheckReport, run_check

__version__ = "0.1.0"

__all__ = [
    "AnalyticProfile", "BetaEstimate", "CheckError", "CheckReport",
    "ConcentrationCurve", "ContainmentConstant", "MeasureSpec", "MedianEstimate",
    "MonotoneMap", "NormSpec", "RadialCdf", "SampleBatch",
    "analytic_profile", "beta", "beta_tilde", "cone_surface",
    "concentration_lower_curve", "containment_constant", "cube_beta_lower_bound",
    "cube_concentration_floor", "dual_norm", "embedding_lower_bound",
    "empirical_median", "gamma_cdf", "gamma_quantile", "gaussian", "ggp",
    "haar_sphere", "lipschitz_constant", "lp", "norm_eval", "norm_ratio_map",
    "normalize_containment", "radial_cdf", "radial_map",
    "radial_transport", "ratio_map_lipschitz", "run_check", "sample", "scaled",
    "uniform_ball",
]
