"""Rep-Net continual learning: frozen backbone + tiny learnable parallel path."""

from .backbone import Backbone, BackboneClassifier, BasicBlock
from .continual import (ContinualLearner, TaskResult, TrainConfig, evaluate,
                        pretrain_backbone, sparsify_backbone)
from .model import RepNetModel, build_repnet_model
from .multitask import SequentialLearner, TaskLibrary
from .modules import ActivationConnector, RepNetModule

__all__ = [
    "Backbone", "BasicBlock", "BackboneClassifier",
    "RepNetModule", "ActivationConnector",
    "RepNetModel", "build_repnet_model",
    "ContinualLearner", "TaskResult", "TrainConfig",
    "TaskLibrary", "SequentialLearner",
    "evaluate", "pretrain_backbone", "sparsify_backbone",
]
