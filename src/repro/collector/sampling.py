"""Kernel filtering and hierarchical sampling (paper Section 6.2).

Two overhead reducers for fine-grained analysis:

- *Filtering*: monitor only a user-specified subset of kernels (the
  paper's recommended workflow names interesting kernels after a coarse
  pass).
- *Sampling*: "GPU kernels show similar behaviors across loop
  iterations and across GPU thread blocks" — so instrument every Nth
  launch of each kernel (kernel sampling) and, within an instrumented
  launch, every Nth thread block (block sampling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import InvalidValueError


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling and filtering settings for fine-grained collection.

    The paper's evaluation (Figure 6) uses sampling periods of 20 for
    benchmarks and 100 for applications, monitoring all kernels for
    benchmarks and one hottest kernel (filtering) for applications.
    """

    kernel_sampling_period: int = 1
    block_sampling_period: int = 1
    #: ``None`` monitors every kernel; otherwise only the named ones.
    kernel_filter: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.kernel_sampling_period < 1 or self.block_sampling_period < 1:
            raise InvalidValueError("sampling periods must be >= 1")

    def filters(self, kernel_name: str) -> bool:
        """Whether the kernel passes the name filter."""
        return self.kernel_filter is None or kernel_name in self.kernel_filter


class KernelSampler:
    """Stateful sampler implementing the hierarchical scheme."""

    def __init__(self, config: SamplingConfig):
        self.config = config
        self._launch_counts: Dict[str, int] = {}
        self.instrumented_launches = 0
        self.skipped_launches = 0

    def should_instrument(self, kernel_name: str) -> bool:
        """Kernel filter + every-Nth-launch kernel sampling."""
        if not self.config.filters(kernel_name):
            self.skipped_launches += 1
            return False
        count = self._launch_counts.get(kernel_name, 0)
        self._launch_counts[kernel_name] = count + 1
        if count % self.config.kernel_sampling_period != 0:
            self.skipped_launches += 1
            return False
        self.instrumented_launches += 1
        return True

    def block_mask(self, grid: int) -> Optional[np.ndarray]:
        """Boolean mask of blocks to record, or None for all blocks."""
        period = self.config.block_sampling_period
        if period <= 1:
            return None
        mask = np.zeros(grid, dtype=bool)
        mask[::period] = True
        return mask
