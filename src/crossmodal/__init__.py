"""Aligned image/sound/text representations on a small autodiff core.

Importing the package pins numpy's bundled OpenBLAS to one thread
(``BLAS_THREADS`` is the count in effect, None under another BLAS): a
multithreaded BLAS splits long reductions by thread, so the bits of a
training run would follow ``OPENBLAS_NUM_THREADS``. Single-sample conv
forwards above ``autodiff.CONV_SPLIT_MACS`` multiply-adds split their output
over ``CONV_WORKERS`` threads, one per CPU in the process's affinity mask; a
split never changes how an output element is summed, so the bits are the
same at any count. A batch runs on one thread. ``taskset -c 0`` keeps a run
on one core.
"""

import ctypes
from pathlib import Path

import numpy as np

from .autodiff import (
    CONV_WORKERS,
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


def _pin_blas_threads() -> int | None:
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*scipy_openblas*"),
                        *root.glob(".dylibs/*scipy_openblas*")]):
        lib = ctypes.CDLL(str(path))
        for suffix in ("64_", ""):
            if hasattr(lib, f"scipy_openblas_set_num_threads{suffix}"):
                set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads(1)
                return get_threads()
    return None


BLAS_THREADS = _pin_blas_threads()
