"""Exact simulator and variational trainer for 1->2 photonic qubit cloning.

Subpackages:
    mesh      -- interferometer unitaries from Mach-Zehnder cells
    fock      -- multiphoton evolution via permanents and post-selection (the oracle)
    cloner    -- dual-rail encoding and the closed-form two-photon kernel;
                 run_cloner is the Fock-space oracle
    optimizer -- the training tasks (the one definition of each cost),
                 Nelder-Mead with reboots, training, validation sweeps
    sampler   -- finite-statistics coincidence counting for noisy runs
    cli       -- experiment runner and persistence
"""

__version__ = "0.1.0"
