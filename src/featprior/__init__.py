"""featprior: teacher-student knowledge transfer through Gaussian-process
feature priors.

Student networks are trained so the Gaussian process induced by their
hidden-feature Gram matrices stays close, in KL divergence, to the one
induced by a teacher's features.  The package covers model distillation,
transfer across mismatched architectures, multi-level layer priors and
combining experts, plus the linear algebra, dense-network gradients and
data plumbing those need.
"""

from .autodiff import backward, softmax_cross_entropy
from .data import (
    BatchSchedule,
    Dataset,
    FeatureCache,
    Rows,
    SplitBatches,
    dataset_fingerprint,
    load_csv,
    load_idx,
    read_cache,
    serialize_cache,
    split_and_batch,
    synth_blobs,
    synth_rings,
    write_cache,
)
from .gp_prior import (
    KernelMatrix,
    PriorConfig,
    TeacherKernel,
    feature_kernel,
    feature_kl_and_grad,
    gp_kl,
    gp_kl_and_grad,
    gp_kl_grad,
    gram_kernel,
    hinton_soft_target,
    kernel_from_gram,
    prior_log_density,
)
from .linalg import CholeskyFactor, cholesky, log_det, reconstruct, solve_spd, trace_solve
from .network import (
    AdamState,
    ForwardRecord,
    LayerSpec,
    Model,
    NetworkSpec,
    SgdState,
    adam_step,
    forward,
    grad_check,
    init_params,
    load_model,
    model_fingerprint,
    serialize_model,
    sgd_step,
)
from .train import (
    ComparisonResult,
    ExpertPrior,
    ExpertPriorSet,
    LayerGroupMapping,
    LogRow,
    Metrics,
    MetricsReport,
    MODES,
    RunResult,
    TrainPlan,
    combine_experts_fit,
    compare_methods,
    evaluate,
    extract_features,
    format_topk_table,
    joint_fit,
    metrics_csv,
    phase1_feature_fit,
    phase2_task_fit,
    run_distillation,
    run_log_csv,
    train_teacher,
)

__version__ = "0.1.0"
