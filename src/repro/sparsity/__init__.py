"""N:M structured sparsity: patterns, masks, saliency and pruning workflows."""

from .nm import (INDEX_BITS, MAX_GROUP_SIZE, NMPattern, apply_nm_mask,
                 compute_nm_mask, verify_nm)
from .permutation import (find_channel_permutation, permutation_gain,
                          retained_saliency)
from .pruner import NMPruner, prunable_parameters, prune_model
from .saliency import GradientSaliency, one_epoch_gradient_saliency

__all__ = [
    "NMPattern", "compute_nm_mask", "apply_nm_mask",
    "verify_nm", "MAX_GROUP_SIZE", "INDEX_BITS",
    "GradientSaliency", "one_epoch_gradient_saliency",
    "NMPruner", "prune_model", "prunable_parameters",
    "find_channel_permutation", "retained_saliency", "permutation_gain",
]
