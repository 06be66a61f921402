"""Two-step quadratic-interpolation scheme for geometric Brownian motion,
with reference schemes, mean-square stability analysis and strong-convergence
experiments."""

from .analysis import (ConvergenceTable, ErrorReport, LocalErrorReport,
                       convergence_study, error_norms, local_error_study)
from .brownian import coarsen, generate_path, mix_seed
from .errors import InvalidInputError, QpisdeError, SingularStepError
from .model import GbmParams, exact_solution
from .schemes import QpiBlockCoeffs, SchemeId, integrate, qpi_block_solve_oracle
from .stability import (RegionGrid, iem_amplification, milstein_amplification,
                        qpi_exact_amplification, qpi_paper_lhs, region_scan,
                        region_to_csv, region_to_svg)

__version__ = "0.2.0"

__all__ = [
    "ConvergenceTable", "ErrorReport", "GbmParams",
    "InvalidInputError", "LocalErrorReport", "QpiBlockCoeffs", "QpisdeError",
    "RegionGrid", "SchemeId", "SingularStepError",
    "coarsen", "convergence_study", "error_norms",
    "exact_solution", "generate_path", "iem_amplification",
    "integrate", "local_error_study", "milstein_amplification", "mix_seed",
    "qpi_block_solve_oracle", "qpi_exact_amplification", "qpi_paper_lhs",
    "region_scan", "region_to_csv", "region_to_svg",
]
