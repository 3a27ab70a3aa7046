"""Exact singular-value spectra of deep random-network Jacobians.

Solves the self-consistent resolvent equation for the depth-L Jacobian of a
randomly initialized fully connected network, evaluates the closed-form
infinite-depth limiting distributions, and cross-validates both against
Monte Carlo simulation.
"""

import os

# simulate runs one trial per CPU, and numpy's BLAS starts a thread per CPU when it loads: the CLI ran 2.2-2.5x
# slower at N = 400 on 2 CPUs. Hence one BLAS thread, unless the caller set one; where numpy was imported first,
# special.one_blas_thread holds numpy's OpenBLAS at one thread for the duration of each solve.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .activations import ActivationSpec, get_activation, mu_k
from .density import SpectralDensity, make_lambda_grid, to_singular_domain
from .ensembles import WeightEnsemble
from .limits import (
    bernoulli_G,
    bernoulli_density,
    bernoulli_edges_atoms,
    smooth_G,
    smooth_density,
    smooth_edges,
)
from .master import density, point_masses, probe_atom
from .moments import MomentSummary, jacobian_moments, moments_from_density
from .propagation import (
    FixedPoint,
    NetworkConfig,
    chi,
    critical_config,
    critical_sigma_w,
    double_scaled_config,
    double_scaling_qstar,
    phase_grid,
    qstar_fixed_point,
    resolve_qstar,
)
from .simulate import (
    EmpiricalSpectrum,
    empirical_density,
    jacobian_singular_values,
    ks_distance,
    run_trials,
    sample_gaussian,
    sample_orthogonal,
)
from .special import QuadratureRule, gauss_normal_rule, lambert_w0, r_lambert

__version__ = "0.1.0"
