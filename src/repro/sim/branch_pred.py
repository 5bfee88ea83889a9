"""Branch predictors.

The paper's machines use McFarling's gshare: a table of 2-bit saturating
counters indexed by the branch PC XORed with the global branch history.
Unconditional control flow (jumps, calls, returns) is predicted
perfectly, as in Table 1.
"""

from __future__ import annotations

from repro.sim.config import PredictorConfig


class GSharePredictor:
    """gshare with 2-bit counters and global history."""

    __slots__ = ("config", "_table", "_history", "_history_mask", "_index_mask",
                 "predictions", "mispredictions")

    def __init__(self, config: PredictorConfig | None = None):
        self.config = config or PredictorConfig()
        self._table = [1] * self.config.table_entries  # weakly not-taken
        self._history = 0
        self._history_mask = (1 << self.config.history_bits) - 1
        self._index_mask = self.config.table_entries - 1
        self.predictions = 0
        self.mispredictions = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._index_mask

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> bool:
        """Predict, train on the actual ``taken`` outcome, update global
        history, and return whether the prediction was correct."""
        index = self._index(pc)
        counter = self._table[index]
        predicted = counter >= 2
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        else:
            if counter > 0:
                self._table[index] = counter - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        self.predictions += 1
        correct = predicted == taken
        if not correct:
            self.mispredictions += 1
        return correct

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions


class PerfectPredictor:
    """Oracle predictor (used by ablations)."""

    __slots__ = ("predictions", "mispredictions")

    def __init__(self, config: PredictorConfig | None = None):
        self.predictions = 0
        self.mispredictions = 0

    def predict(self, pc: int) -> bool:  # pragma: no cover - trivially true
        return True

    def update(self, pc: int, taken: bool) -> bool:
        self.predictions += 1
        return True

    @property
    def accuracy(self) -> float:
        return 1.0
