"""Binary classification with randomly flipped training labels.

The package splits into eight parts:

* ``calculus``    — closed-form clean/noisy posterior relations, corrected
                    decision thresholds, the logistic function,
                    flipped-Bernoulli rate recovery
* ``synthdata``   — Gaussian-mixture problems with exact posteriors,
                    sampling, label flipping, CSV round trip
* ``mlp``         — small tanh network, hand-written backprop, training
                    (one network or a lockstep stack), bias-shift/threshold
                    duality
* ``experiments`` — the two deterministic study grids (``GridConfig``
                    presets, run by ``run_grid``) with CSV/SVG output
* ``svgchart``    — dependency-free SVG line charts for the grids
* ``cli``         — batch command-line front end
* ``seeding``     — hashed seed derivation, one random stream per purpose
* ``atomic``      — output files that appear whole or not at all

Import each name from the module that defines it.
"""

__version__ = "0.1.0"
