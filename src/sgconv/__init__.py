"""Structured global convolution kernels.

Full-sequence depthwise convolution kernels assembled from multiscale
sub-kernels (logarithmic parameter count, decaying magnitude), evaluated
with FFTs in O(L log L), differentiated with hand-written adjoints, and
exercised by synthetic long-range training demos and a timing harness.
"""

from .conv import (
    ConvPlan,
    causal_conv_direct,
    depthwise_conv_batch,
    depthwise_conv_direct_batch,
    make_plan,
)
from .grad import (
    depthwise_conv_adjoint_batch,
    finite_diff_check,
    kernel_param_grad,
    upsample_adjoint,
)
from .kernel import (
    KernelConfig,
    MaterializedKernel,
    ScaleParams,
    compute_normalizer,
    init_kernel,
    init_params,
    materialize,
    num_scales,
    position_decay,
    sub_kernel_len,
    upsample_linear,
    write_kernel_csv,
)
from .model import (
    ModelConfig,
    ModelState,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    ablate_decay,
    block_forward,
    classifier_forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .tasks import TaskSpec, gen_batch

__version__ = "0.1.0"

__all__ = [
    "ConvPlan",
    "causal_conv_direct",
    "depthwise_conv_batch",
    "depthwise_conv_direct_batch",
    "make_plan",
    "depthwise_conv_adjoint_batch",
    "finite_diff_check",
    "kernel_param_grad",
    "upsample_adjoint",
    "KernelConfig",
    "MaterializedKernel",
    "ScaleParams",
    "compute_normalizer",
    "init_kernel",
    "init_params",
    "materialize",
    "num_scales",
    "position_decay",
    "sub_kernel_len",
    "upsample_linear",
    "write_kernel_csv",
    "ModelConfig",
    "ModelState",
    "TrainConfig",
    "TrainingDiverged",
    "TrainResult",
    "ablate_decay",
    "block_forward",
    "classifier_forward",
    "init_model",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "TaskSpec",
    "gen_batch",
]
