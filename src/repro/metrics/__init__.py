"""Output-distance metrics, ensemble averaging, and shared tolerances."""

from repro.metrics.distances import (
    average_distributions,
    jsd,
    kl_divergence,
    tvd,
)
from repro.metrics.tolerances import (
    BOUND_SLACK,
    CERTIFICATION_SLACK,
    DISTANCE_CONSISTENCY_TOL,
    DISTRIBUTION_NORM_TOL,
    NEGATIVE_PROBABILITY_TOL,
    POOL_UNITARY_MATCH_TOL,
    STIMULUS_CONFIDENCE_DELTA,
    UNITARITY_TOL,
)

__all__ = [
    "tvd",
    "jsd",
    "kl_divergence",
    "average_distributions",
    "UNITARITY_TOL",
    "DISTANCE_CONSISTENCY_TOL",
    "POOL_UNITARY_MATCH_TOL",
    "CERTIFICATION_SLACK",
    "DISTRIBUTION_NORM_TOL",
    "NEGATIVE_PROBABILITY_TOL",
    "BOUND_SLACK",
    "STIMULUS_CONFIDENCE_DELTA",
]
