"""Two-step quadratic-interpolation scheme for geometric Brownian motion,
with reference schemes, mean-square stability analysis and strong-convergence
experiments."""

from .analysis import (ConvergenceTable, ErrorReport, LocalErrorReport,
                       convergence_study, error_norms, estimate_order,
                       local_error_study)
from .brownian import BrownianPath, coarsen, generate_path, mix_seed
from .errors import (InvalidInputError, QpisdeError, SingularBlockError,
                     SingularStepError)
from .model import GbmParams, TimeGrid, Trajectory, exact_solution
from .schemes import (QpiBlockCoeffs, SchemeId, integrate, qpi_block_coeffs,
                      qpi_block_solve_oracle)
from .stability import (RegionGrid, iem_amplification, milstein_amplification,
                        qpi_exact_amplification, qpi_paper_lhs, region_scan,
                        region_to_csv, region_to_svg)

__version__ = "0.1.0"

__all__ = [
    "BrownianPath", "ConvergenceTable", "ErrorReport", "GbmParams",
    "InvalidInputError", "LocalErrorReport", "QpiBlockCoeffs", "QpisdeError",
    "RegionGrid", "SchemeId", "SingularBlockError", "SingularStepError",
    "TimeGrid", "Trajectory", "coarsen", "convergence_study", "error_norms",
    "estimate_order", "exact_solution", "generate_path", "iem_amplification",
    "integrate", "local_error_study", "milstein_amplification", "mix_seed",
    "qpi_block_coeffs", "qpi_block_solve_oracle", "qpi_exact_amplification",
    "qpi_paper_lhs", "region_scan", "region_to_csv", "region_to_svg",
]
