"""Adam, the optimiser CommCNN trains with (Kingma & Ba 2015).

The loop backend steps it over ``model.parameters()``; the fused engine
(:mod:`repro.ml.nn.engine`) runs the same update on its packed vectors and
reads only the hyper-parameters from here.  Every ``fit`` builds a fresh
instance.

Moments and timesteps are keyed by the *parameter name* handed to
:meth:`Adam.step`, not by ``id(param)``: an array id can be recycled by the
allocator after a parameter is garbage collected, which would silently
splice stale state onto a fresh parameter.  Names are stable for the
lifetime of a model (``Sequential`` and ``ParallelConcat`` prefix them with
the layer/branch position), so they make a collision-free key as long as
each named parameter appears at most once per ``step`` call.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelConfigError


class Adam:
    """Adam optimiser (Kingma & Ba 2015); updates parameters in place given
    ``(name, param, grad)`` triples."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ModelConfigError("learning_rate must be positive")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ModelConfigError("beta1 and beta2 must be in [0, 1)")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._first_moment: dict[str, np.ndarray] = {}
        self._second_moment: dict[str, np.ndarray] = {}
        self._step_count: dict[str, int] = {}

    def step(self, parameters: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
        for name, param, grad in parameters:
            m = self._first_moment.get(name)
            if m is None:
                m = self._first_moment[name] = np.zeros_like(param)
            v = self._second_moment.get(name)
            if v is None:
                v = self._second_moment[name] = np.zeros_like(param)
            t = self._step_count.get(name, 0) + 1
            self._step_count[name] = t

            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad

            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
