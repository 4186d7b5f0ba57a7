"""Minimal deterministic neural toolkit: dense, GRU, attention, Adam.

Everything runs on float64 numpy arrays with handwritten backward passes,
verified against central finite differences. No autodiff graph; the two
fixed architectures (feed-forward classifier, bidirectional GRU with
attention) cover the toolkit's needs.

Each network keeps its parameters in one flat buffer with named views, and
its gradients in a second buffer of the same layout (`ParamBuffer`); the
gradients a network returns are valid until its next loss_and_grads() call.
"""

from .layers import (
    ACTIVATIONS,
    AttentionHead,
    DenseLayer,
    GruCell,
    attend,
    binary_cross_entropy,
    forward_dense,
    forward_gru_bidirectional,
)
from .models import Mlp, SequenceClassifier
from .optim import AdamState, adam_step
from .params import ParamBuffer
from .gradcheck import check_gradients
from .serialize import load_params, save_params

__all__ = [
    "ACTIVATIONS",
    "AdamState",
    "AttentionHead",
    "DenseLayer",
    "GruCell",
    "Mlp",
    "ParamBuffer",
    "SequenceClassifier",
    "adam_step",
    "attend",
    "binary_cross_entropy",
    "check_gradients",
    "forward_dense",
    "forward_gru_bidirectional",
    "load_params",
    "save_params",
]
