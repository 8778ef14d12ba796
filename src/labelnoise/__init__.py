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
"""

__version__ = "0.1.0"

from .calculus import (
    ClassPriors,
    NoiseParams,
    bernoulli_grid_mle,
    clamp01,
    corrected_threshold,
    corrupt_posterior,
    error_amplification,
    logistic,
    logit_shift,
    mle_flipped_bernoulli,
    noisy_decision_threshold,
    propagate_priors,
    recover_posterior,
    threshold_from_priors,
    threshold_from_shift,
)
from .mlp import (
    Architecture,
    Gradients,
    MlpParams,
    ModelFormatError,
    TrainConfig,
    TrainingDivergedError,
    TrainResult,
    classify,
    grad,
    init_params,
    load_model,
    loss,
    save_model,
    score,
    score_cut,
    shift_bias,
    sigmoid,
    train,
    train_stack,
)
from .seeding import derive_seed, make_rng
from .synthdata import (
    Dataset,
    DatasetFormatError,
    GmmClassModel,
    ProblemInstance,
    bayes_accuracy,
    clean_posterior,
    flip_labels,
    gmm_log_density,
    load_dataset_csv,
    make_random_problem,
    observe,
    sample_dataset,
    save_dataset_csv,
)
from .experiments import (
    EfficiencyGridConfig,
    FlipRatioGridConfig,
    GridConfig,
    ResultRow,
    SummaryRow,
    run_efficiency_grid,
    run_flip_ratio_grid,
    run_grid,
    summarize,
    write_results_csv,
    write_summary_csv,
)
