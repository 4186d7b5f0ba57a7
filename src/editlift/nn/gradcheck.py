"""Analytic-gradient verification against central finite differences."""

from __future__ import annotations


def check_gradients(model, batch, h: float = 1e-5) -> float:
    """Max relative error between analytic and numeric gradients.

    `model` must expose `buffer` (a ParamBuffer holding its live parameters)
    and `loss_and_grads(*batch)`, which fills `buffer.grads`. Every entry of
    the flat parameter buffer is perturbed by +/- h.
    """
    model.loss_and_grads(*batch)
    # the next call overwrites the gradient buffer, so keep a copy
    analytic = model.buffer.grads.copy()
    values = model.buffer.values
    worst = 0.0
    for i in range(values.size):
        orig = values[i]
        values[i] = orig + h
        up, _ = model.loss_and_grads(*batch)
        values[i] = orig - h
        down, _ = model.loss_and_grads(*batch)
        values[i] = orig
        numeric = (up - down) / (2.0 * h)
        denom = max(1e-6, abs(analytic[i]) + abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst
