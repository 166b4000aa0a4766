"""Fixed-point weight quantization benchmarks for small neural networks."""

from .errors import (
    ConfigError,
    DataFormatError,
    DimensionError,
    DivergenceError,
    QuantbenchError,
    UsageError,
)
from .nn import (
    ForwardCache,
    LayerSpec,
    Network,
    NetworkSpec,
    WeightGroup,
    backward,
    build_cnn,
    build_ffdnn,
    build_from_spec,
    count_params,
    count_weight_bits,
    cross_entropy,
    forward,
)
from .quantizer import (
    QuantizationReport,
    QuantizerSpec,
    apply,
    bits_to_levels,
    codes,
    direct_quantize,
    l2_error,
    optimize_delta,
    write_reports,
)
from .tensor import Rng, Tensor, derive_seed

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataFormatError",
    "DimensionError",
    "DivergenceError",
    "ForwardCache",
    "LayerSpec",
    "Network",
    "NetworkSpec",
    "QuantbenchError",
    "QuantizationReport",
    "QuantizerSpec",
    "Rng",
    "Tensor",
    "UsageError",
    "WeightGroup",
    "apply",
    "backward",
    "bits_to_levels",
    "build_cnn",
    "build_ffdnn",
    "build_from_spec",
    "codes",
    "count_params",
    "count_weight_bits",
    "cross_entropy",
    "derive_seed",
    "direct_quantize",
    "forward",
    "l2_error",
    "optimize_delta",
    "write_reports",
]
