"""Decision learning from censored sales with band-insensitive operational costs."""

from .data import (
    Dataset,
    DemandModelParams,
    ScalingRecord,
    generate,
    load_csv,
    q_star,
    save_csv,
    scale,
    split_chronological,
    with_q_star,
)
from .learners import LEARNER_KINDS, FittedLearner, fit_learner, loss_for
from .linear import LinearModel, fit_gd, fit_lp, fit_mse_closed_form, predict
from .losses import (
    LossEval,
    LossSpec,
    batch_loss,
    eval_eps_cp,
    eval_eps_nv,
    eval_eps_rp,
    eval_mse,
    eval_nvc,
    evaluate,
    lipschitz_constant,
    uniform_bound,
)
from .metrics import (
    EvalReport,
    WilcoxonResult,
    evaluate_predictions,
    nv_cost,
    quartiles,
    rmse_q,
    savings_percent,
    service_level,
    wilcoxon_paired,
)
from .neural import MLPModel, backward, fit_sgd, forward, init_mlp, uas_bound, uas_probe
from .training import DivergenceError, TrainConfig, TrainTrace
from .tuning import CVPlan, SearchSpace, search, two_stage_protocol

__version__ = "0.1.0"
