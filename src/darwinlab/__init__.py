"""darwinlab: a numerical laboratory for decoherence, information
redundancy, and envariance-based consistency checks.

Layers, bottom up. Those marked * are loaded on first use: only the
subcommands and sources that run them import them, and the attribute
darwinlab.<layer> imports its layer on first access.

  numeric      shared tolerances and caps
  qstate       dense states, partial traces, Schmidt decomposition
  info         entropies, mutual information, discord, Holevo quantity
  branching    Gram-kernel fast path for branching states
  spinmodels   c-not chain, central-spin bath, hazy bath, interacting bath
  qbm *        Gaussian quantum Brownian motion
  photon *     scattered-radiation model, analytic rates and plots
  envariance * swap/counterswap, finegraining, record algebra, frequencies
  darwin       partial-information plots, redundancy extraction, sweeps
  cli          reproducible experiment runner
"""

__version__ = "0.1.0"

_ON_FIRST_USE = ("qbm", "photon", "envariance")


def __getattr__(name: str):
    # PEP 562: runs only for names the package does not yet hold
    if name in _ON_FIRST_USE:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
