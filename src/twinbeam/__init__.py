"""Non-classicality analysis of noisy twin beams.

The package models two-mode Gaussian states in their normal-ordered
parametrization, propagates them through beam splitters and detection loss,
expands their photocount generating function into intensity moments and
photon-number probabilities, evaluates moment- and count-based
non-classicality criteria, quantifies entanglement and single-mode
non-classicality, and scans parameter grids for the boundaries between the
classical and non-classical regimes.
"""
from .criteria import (CriterionId, CriterionResult, boundary_noise_balanced_R22p,
                       boundary_R22p, closed_form_bs_output,
                       closed_form_noiseless, default_catalog,
                       entanglement_boundary_twin_beam, eval_E_p, eval_E_W,
                       eval_M_p, eval_M_W, eval_R_p, eval_R_W, evaluate,
                       FAMILIES)
from .errors import (ConfigError, EvaluationError, OrderLimitError,
                     ParameterError, PhysicalityError, TruncationError,
                     TwinbeamError)
from .moments import (DEFAULT_MAX_ORDER, KMatrix, PhotonNumberDistribution,
                      build_k_matrix, intensity_moment,
                      marginal_intensity_moment, marginal_modified_pnd,
                      marginal_modified_pnd_table, marginal_pnd,
                      marginal_pnd_table, modified_pnd_element,
                      modified_pnd_table, moment_table,
                      photon_number_distribution, pnd_element, pnd_table,
                      q_polynomial, twin_beam_pnd_closed_form)
from .oracle import (BsCoefficientTable, FactorialMomentEstimate,
                     bernoulli_downsample, bs_transform_pnd,
                     factorial_moment_from_pnd)
from .quantifiers import (ZERO_TOL, NonclassicalityReport, classify,
                          local_quantifier, negativity)
from .scan import (AXIS_NAMES, AxisSpec, ScanResult, ScanSpec, TargetSpec,
                   run_scan, write_boundaries_json, write_csv)
from .series import BivariateSeries
from .states import (BeamSplitterParams, CovarianceMatrixN, TwinBeamParams,
                     TwoModeGaussianState, attenuate, beam_splitter,
                     bs_unitary, covariance_n, is_physical_params,
                     quadrature_covariance, symplectic_eigenvalues, twin_beam)
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "AXIS_NAMES",
    "AxisSpec",
    "BeamSplitterParams",
    "BivariateSeries",
    "BsCoefficientTable",
    "ConfigError",
    "CovarianceMatrixN",
    "CriterionId",
    "CriterionResult",
    "DEFAULT_MAX_ORDER",
    "EvaluationError",
    "FAMILIES",
    "FactorialMomentEstimate",
    "KMatrix",
    "NonclassicalityReport",
    "OrderLimitError",
    "ParameterError",
    "PhotonNumberDistribution",
    "PhysicalityError",
    "ScanResult",
    "ScanSpec",
    "TargetSpec",
    "TruncationError",
    "TwinBeamParams",
    "TwinbeamError",
    "TwoModeGaussianState",
    "ZERO_TOL",
    "attenuate",
    "beam_splitter",
    "bernoulli_downsample",
    "boundary_R22p",
    "boundary_noise_balanced_R22p",
    "bs_transform_pnd",
    "bs_unitary",
    "build_k_matrix",
    "classify",
    "closed_form_bs_output",
    "closed_form_noiseless",
    "covariance_n",
    "default_catalog",
    "entanglement_boundary_twin_beam",
    "eval_E_W",
    "eval_E_p",
    "eval_M_W",
    "eval_M_p",
    "eval_R_W",
    "eval_R_p",
    "evaluate",
    "factorial_moment_from_pnd",
    "intensity_moment",
    "is_physical_params",
    "local_quantifier",
    "marginal_intensity_moment",
    "marginal_modified_pnd",
    "marginal_modified_pnd_table",
    "marginal_pnd",
    "marginal_pnd_table",
    "modified_pnd_element",
    "modified_pnd_table",
    "moment_table",
    "negativity",
    "photon_number_distribution",
    "pnd_element",
    "pnd_table",
    "q_polynomial",
    "quadrature_covariance",
    "render_svg",
    "run_scan",
    "symplectic_eigenvalues",
    "twin_beam",
    "twin_beam_pnd_closed_form",
    "write_boundaries_json",
    "write_csv",
]
