"""Two-step quadratic-interpolation scheme for geometric Brownian motion,
with reference schemes, mean-square stability analysis and strong-convergence
experiments."""

import importlib

__version__ = "0.2.0"

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("analysis", "ConvergenceTable ErrorReport LocalErrorReport convergence_study error_norms local_error_study"),
    ("brownian", "coarsen generate_path mix_seed"),
    ("model", "GbmParams InvalidInputError QpisdeError SingularStepError exact_solution"),
    ("schemes", "SchemeId integrate"),
    ("stability", "RegionGrid iem_amplification milstein_amplification qpi_exact_amplification qpi_paper_lhs "
                  "region_scan region_to_csv region_to_svg"),
) for name in names.split()}
__all__ = sorted(_EXPORTS)


def __getattr__(name):  # PEP 562: `import qpisde` loads no submodule; a name loads its module at first use
    home = _EXPORTS.get(name, name)
    if home not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{home}", __name__)  # which binds the submodule here too
    if home != name:
        value = globals()[name] = getattr(value, name)
    return value
