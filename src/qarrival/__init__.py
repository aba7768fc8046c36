"""Arrival-time statistics and Fisher information for absorptive detectors."""

__version__ = "0.1.0"

from .deltakernel import (DeltaParams, beam_asymptotes, beam_intensity,
                          erfc_c, f_p, f_superposition, remainder_R,
                          transmission_T)
from .fisher import (FisherReport, density_sweep, fisher_info,
                     fisher_info_many, i_infinity, mc_score_variance,
                     mle_variance_study, sparse_limit_I, stationary_constant)
from .intensity import IntensityProfile, build_profile
from .process import (ArrivalRecord, SampleBatch, joint_density,
                      log_joint_density, noevent_mass, sample_batch,
                      spatial_char, total_prob, total_prob_dp,
                      total_prob_integral)
from .propagate import (ComplexSeries, TimeGrid, gaussian_free_at_origin,
                        gaussian_kernel_g, gaussian_overlap_h0,
                        monochromatic_drive, solve_renewal, solve_volterra)
from .scenario import Scenario, StateFamily, family_Fn, family_Hn, log_family_Fn

__all__ = [
    "ArrivalRecord", "ComplexSeries", "DeltaParams", "FisherReport",
    "IntensityProfile", "SampleBatch", "Scenario", "StateFamily", "TimeGrid",
    "beam_asymptotes", "beam_intensity", "build_profile",
    "density_sweep", "erfc_c", "f_p", "f_superposition",
    "family_Fn", "family_Hn", "fisher_info",
    "fisher_info_many", "gaussian_free_at_origin", "gaussian_kernel_g",
    "gaussian_overlap_h0", "i_infinity", "joint_density", "log_family_Fn",
    "log_joint_density", "mc_score_variance", "mle_variance_study",
    "monochromatic_drive", "noevent_mass", "remainder_R", "sample_batch",
    "solve_renewal", "solve_volterra", "sparse_limit_I", "spatial_char",
    "stationary_constant", "total_prob", "total_prob_dp",
    "total_prob_integral", "transmission_T", "__version__",
]
