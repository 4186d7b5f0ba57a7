"""Flat parameter storage: one float64 buffer per network with named views.

A network's parameters lie back to back in one flat array, in a fixed name
order, and each named parameter is a reshaped view into it; the gradients
use a second buffer with the same layout. The optimizer then updates the
whole network with a few vector operations per step, and the tests'
gradient checker walks one flat array.
"""

from __future__ import annotations

import numpy as np


class ParamBuffer:
    """Named float64 arrays stored as views into one flat buffer.

    `values` holds the parameters and `grads` the gradients, both flat and
    in the same layout; `params` and `grad_views` map each name to its view.
    Writes through a view land in the buffer, so code that keeps a view
    (a layer's weights, say) must write into it and never rebind it.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        """Copy `arrays`, in their dict order, into fresh buffers; the
        gradients start at zero."""
        self.names = list(arrays)
        shapes = [np.shape(a) for a in arrays.values()]
        # offsets[i]:offsets[i + 1] is the slice of names[i]
        self.offsets = np.cumsum([0] + [int(np.prod(s)) for s in shapes])
        self.values = np.empty(self.offsets[-1], dtype=np.float64)
        self.grads = np.zeros(self.offsets[-1], dtype=np.float64)
        self.params: dict[str, np.ndarray] = {}
        self.grad_views: dict[str, np.ndarray] = {}
        bounds = zip(self.names, shapes, self.offsets[:-1], self.offsets[1:])
        for name, shape, start, stop in bounds:
            self.params[name] = self.values[start:stop].reshape(shape)
            self.grad_views[name] = self.grads[start:stop].reshape(shape)
        self.assign(arrays)

    def assign(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy every named array into its view; shapes must match exactly."""
        for name, view in self.params.items():
            src = np.asarray(arrays[name], dtype=np.float64)
            if src.shape != view.shape:
                raise ValueError(
                    f"parameter {name!r} has shape {src.shape}, expected {view.shape}"
                )
            view[...] = src

    def name_at(self, index: int) -> str:
        """Name of the parameter that holds flat position `index`."""
        return self.names[int(np.searchsorted(self.offsets, index, side="right")) - 1]
