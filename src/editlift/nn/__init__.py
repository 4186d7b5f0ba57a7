"""The two fixed networks of the pipeline and what trains them: the
feed-forward propensity network (`Mlp`), the bidirectional GRU clickbait
classifier with attention (`SequenceClassifier`), and Adam.

Everything runs on float64 numpy arrays with handwritten backward passes,
which the tests verify against central finite differences; there is no
autodiff graph. The GRU classifier always runs right-padded batches with a
validity mask.

Each network keeps its parameters in one flat buffer with named views, and
its gradients in a second buffer of the same layout (`ParamBuffer`). Adam
(`adam_step`) reads only that buffer, after `Mlp.gradients` or
`SequenceClassifier.loss_and_grads` has filled its gradients; the gradients
a network returns are valid until its next gradient call.
"""

from .layers import AttentionHead, GruCell, binary_cross_entropy
from .models import Mlp, SequenceClassifier
from .optim import AdamState, adam_step
from .params import ParamBuffer
from .serialize import load_params, params_to_bytes

__all__ = [
    "AdamState",
    "AttentionHead",
    "GruCell",
    "Mlp",
    "ParamBuffer",
    "SequenceClassifier",
    "adam_step",
    "binary_cross_entropy",
    "load_params",
    "params_to_bytes",
]
