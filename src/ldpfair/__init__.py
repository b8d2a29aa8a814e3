"""Fair representation learning under local differential privacy.

Exact discrete sources and channels, the Laplace and randomized-response
randomizers with verifiable privacy guarantees, an exact small-alphabet
utility-leakage solver, a variational encoder training pipeline, and
fairness/leakage evaluation — all in nats, all deterministic given seeds.
"""

from .datasets import (
    ColumnSpec,
    SyntheticSpec,
    TabularDataset,
    fetch_uci_adult,
    generate_synthetic,
    load_compas,
    load_dataset,
    preprocess_adult,
    save_dataset,
)
from .discrete_source import (
    Channel,
    JointFull,
    JointSourceUSX,
    compose,
    identity_channel,
    induced_joint,
    new_channel,
    new_joint,
    random_channel,
    random_source,
    sample,
)
from .errors import (
    ConfigError,
    DatasetError,
    DimensionMismatchError,
    DivergenceError,
    InfeasibleGammaError,
    InvalidDistributionError,
    LdpFairError,
    PreconditionError,
)
from .fair_encoder import (
    Embeddings,
    EncoderModel,
    LossBreakdown,
    TrainConfig,
    embed_dataset,
    encode,
    load_model,
    mc_loss,
    quantize,
    save_model,
    train,
    true_posteriors,
    variational_objective,
)
from .fairness_metrics import (
    DownstreamClassifier,
    EvalReport,
    bayes_attacker_accuracy,
    delta_dp,
    delta_eo,
    full_report,
    sensitive_accuracy,
    train_downstream,
)
from .ib_solver import (
    FrontierPoint,
    SolverConfig,
    check_corollary2,
    check_theorem1,
    solve_G_bruteforce,
    solve_g,
    trace_frontier,
)
from .info_measures import (
    MineConfig,
    conditional_mi,
    entropy,
    laplace_mixture_mi,
    mine_estimate,
    mutual_information,
    plugin_mi,
)
from .ldp_mechanisms import (
    LaplaceMechanism,
    RandomizedResponse,
    check_lemma1,
    laplace_log_ratio_bound,
    laplace_randomize,
    mechanism_from_spec,
    rr_channel,
    rr_propagate,
    rr_randomize,
    verify_ldp,
)

__version__ = "0.1.0"
