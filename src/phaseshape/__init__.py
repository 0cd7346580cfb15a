"""Shape distributions of reconstructed phase spaces.

A small toolkit for nonlinear time-series analysis: delay-embedding
reconstruction, histogram shape descriptors of the reconstructed attractor,
classical chaos statistics (largest Lyapunov exponent, correlation
dimension) as a baseline feature, bundled Lorenz/Rossler generators, and a
nearest-neighbor classification harness.
"""

from .errors import NumericalError, ValidationError
from .series import MultiSeries, TimeSeries, load_csv, read_meta, write_csv, write_meta
from .models import (
    GenConfig,
    LorenzParams,
    RosslerParams,
    generate_system,
    lorenz_generate,
    rk4_integrate,
    rossler_generate,
)
from .embedding import (
    DelayEstimate,
    EmbeddingParams,
    PhaseSpace,
    autocorrelation,
    delay_embed,
    estimate_delay,
)
from .shapes import (
    ShapeConfig,
    ShapeDistribution,
    build_histogram,
    channel_distributions,
    feature_vector,
    resolve_config,
    sample_shape,
    shape_distribution,
)
from .chaos import (
    ChaosFeatureVector,
    LLEConfig,
    LLEResult,
    attractor_diameter,
    chaos_feature_vector,
    correlation_dimension,
    correlation_integral,
    default_lle_config,
    divergence_curve,
    lle_rosenstein,
)
from .classify import (
    ConfusionMatrix,
    LabeledFeature,
    NNResult,
    distances,
    loocv,
    nn_classify,
)
from .experiments import (
    ExperimentReport,
    Instance,
    classification_experiment,
    load_dataset,
    stability_experiment,
    synthetic_instances,
)

__version__ = "0.1.0"

__all__ = [
    "ValidationError",
    "NumericalError",
    "TimeSeries",
    "MultiSeries",
    "load_csv",
    "write_csv",
    "read_meta",
    "write_meta",
    "GenConfig",
    "LorenzParams",
    "RosslerParams",
    "lorenz_generate",
    "rossler_generate",
    "rk4_integrate",
    "EmbeddingParams",
    "PhaseSpace",
    "DelayEstimate",
    "autocorrelation",
    "estimate_delay",
    "delay_embed",
    "ShapeConfig",
    "ShapeDistribution",
    "resolve_config",
    "sample_shape",
    "build_histogram",
    "shape_distribution",
    "channel_distributions",
    "feature_vector",
    "LLEConfig",
    "LLEResult",
    "ChaosFeatureVector",
    "default_lle_config",
    "divergence_curve",
    "lle_rosenstein",
    "attractor_diameter",
    "correlation_integral",
    "correlation_dimension",
    "chaos_feature_vector",
    "LabeledFeature",
    "NNResult",
    "ConfusionMatrix",
    "distances",
    "nn_classify",
    "loocv",
    "ExperimentReport",
    "Instance",
    "generate_system",
    "synthetic_instances",
    "stability_experiment",
    "classification_experiment",
    "load_dataset",
    "__version__",
]
