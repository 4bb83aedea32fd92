"""The paper's contribution: quantization distance, QR and GQR."""

from repro.core.generation_tree import (
    FlippingVectorGenerator,
    SharedGenerationTree,
    append_move,
    mask_cost,
    swap_move,
)
from repro.core.gqr import GQR
from repro.core.prober import BucketProber
from repro.core.qd_ranking import QDRanking
from repro.core.quantization_distance import (
    distance_lower_bound,
    quantization_distance,
    quantization_distances,
    theorem2_mu,
)

__all__ = [
    "GQR",
    "BucketProber",
    "FlippingVectorGenerator",
    "QDRanking",
    "SharedGenerationTree",
    "append_move",
    "distance_lower_bound",
    "mask_cost",
    "quantization_distance",
    "quantization_distances",
    "swap_move",
    "theorem2_mu",
]
