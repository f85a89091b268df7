"""Aligned image/sound/text representations on a small autodiff core."""

from .autodiff import (
    Tensor,
    backward,
    conv1d_same,
    conv2d_same,
    cosine_matrix,
    fully_connected,
    gradient_check,
    maxpool1d,
    maxpool2d,
    relu,
    softmax,
)
from .errors import (
    ConfigError,
    ContractError,
    CrossModalError,
    DataFormatError,
    DegenerateInputError,
    NumericError,
    ShapeError,
)
from .networks import (
    ModelParams,
    NetworkSpec,
    default_paper_spec,
    desk_spec,
    forward_batch,
    init_params,
)

__all__ = [
    "Tensor", "backward", "gradient_check",
    "fully_connected", "conv1d_same", "conv2d_same",
    "maxpool1d", "maxpool2d", "relu", "softmax", "cosine_matrix",
    "NetworkSpec", "ModelParams", "default_paper_spec", "desk_spec",
    "init_params", "forward_batch",
    "CrossModalError", "ShapeError", "ConfigError", "ContractError",
    "DegenerateInputError", "DataFormatError", "NumericError",
]

__version__ = "0.1.0"
