"""Exact simulator and variational trainer for 1->2 photonic qubit cloning.

Subpackages:
    mesh      -- interferometer unitaries from Mach-Zehnder cells
    cloner    -- dual-rail encoding and the closed-form two-photon kernel
    fock      -- the test oracle: multiphoton evolution via permanents,
                 post-selection and the density-matrix cloner (run_cloner);
                 training never imports it
    optimizer -- the cloning cost, Task (the one definition of each cost),
                 Nelder-Mead with reboots, training, validation sweeps
    sampler   -- finite-statistics coincidence counting for noisy runs
    cli       -- experiment runner and persistence
"""

__version__ = "0.1.0"
