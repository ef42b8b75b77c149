"""Bi-classifier adversarial domain adaptation with cross-domain gradient
alignment, built on a self-contained first-order numpy autodiff core."""

from .tensor import Tensor, backward, no_grad
from .trainer import TrainConfig, CgdmTrainer, train, evaluate

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "backward",
    "no_grad",
    "TrainConfig",
    "CgdmTrainer",
    "train",
    "evaluate",
    "__version__",
]
