"""Online Bayesian Optimization (OBO) with warm starts across activations.

§3.1: "The optimization process initializes with default parameters and, upon
activation of the QoE adjustment mechanism, leverages previously optimized
configurations as initialization points for subsequent iterations."  The
wrapper below keeps a per-user history of (parameters, exit rate) trials;
every new activation spins up a fresh :class:`BayesianOptimizer` seeded with a
decayed subset of that history so the search is responsive to temporal drift
while still benefiting from what was already learned.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.bayesopt.optimizer import BayesianOptimizer, Trial


class OnlineBayesianOptimizer:
    """Warm-started sequence of Bayesian optimization rounds."""

    def __init__(
        self,
        bounds: np.ndarray,
        acquisition: str = "ei",
        memory: int = 12,
        decay: float = 0.8,
        seed: int = 0,
    ) -> None:
        if memory < 1:
            raise ValueError("memory must be at least 1")
        if not 0 < decay <= 1:
            raise ValueError("decay must be in (0, 1]")
        self.bounds = np.asarray(bounds, dtype=float)
        self.acquisition = acquisition
        self.memory = memory
        self.decay = decay
        self.seed = seed
        self._history: list[Trial] = []
        self._round = 0
        self._active: BayesianOptimizer | None = None

    @property
    def history(self) -> list[Trial]:
        """Trials carried across activations."""
        return list(self._history)

    @property
    def best_trial(self) -> Trial | None:
        """Best trial across the whole history."""
        if not self._history:
            return None
        return min(self._history, key=lambda t: t.value)

    #: Warm-start trials whose decayed weight falls below this are dropped
    #: from the new round's surrogate entirely.
    MIN_WARM_START_WEIGHT = 0.1

    def start_round(self, incumbent: np.ndarray | None = None, incumbent_value: float | None = None) -> None:
        """Begin a new activation (``OBO.init`` in Algorithm 1).

        ``incumbent``/``incumbent_value`` optionally record the currently
        deployed parameters and their freshly measured objective, which become
        part of the warm start; supplying one without the other is an error
        (a half-specified incumbent used to be silently discarded).

        Decay semantics: the warm start walks the retained history from
        newest to oldest with weight ``decay ** age``.  A trial's weight both
        *gates* its inclusion (below :attr:`MIN_WARM_START_WEIGHT` it is
        dropped) and *weights* the surviving observation in the new
        surrogate — the GP's noise for that trial scales by ``1 / weight``,
        so stale measurements pull the posterior progressively less than
        fresh ones instead of counting as full-strength evidence.
        """
        if (incumbent is None) != (incumbent_value is None):
            raise ValueError(
                "incumbent and incumbent_value must be supplied together "
                "(got only one of them)"
            )
        self._round += 1
        optimizer = BayesianOptimizer(
            bounds=self.bounds,
            acquisition=self.acquisition,
            seed=self.seed + self._round,
        )
        if incumbent is not None and incumbent_value is not None:
            self._history.append(
                Trial(x=tuple(float(v) for v in np.asarray(incumbent, dtype=float)), value=float(incumbent_value))
            )
        # Decayed warm start: most recent trials, newest weighted strongest.
        recent = self._history[-self.memory :]
        for age, trial in enumerate(reversed(recent)):
            weight = self.decay**age
            if weight < self.MIN_WARM_START_WEIGHT:
                continue
            optimizer.update(np.asarray(trial.x), trial.value, weight=weight)
        self._active = optimizer

    def next_candidate(self) -> np.ndarray:
        """Next parameter vector to evaluate (``OBO.next_candidate``)."""
        obs.counter_add("obo.suggestions")
        with obs.span("obo.suggest"):
            if self._active is None:
                self.start_round()
            assert self._active is not None
            return self._active.suggest()

    def update(self, x: np.ndarray, value: float) -> None:
        """Record an evaluated candidate (``OBO.update``)."""
        if self._active is None:
            raise RuntimeError("update called before start_round")
        self._active.update(x, value)
        self._history.append(self._active.trials[-1])
        if len(self._history) > 10 * self.memory:
            del self._history[: len(self._history) - 10 * self.memory]
