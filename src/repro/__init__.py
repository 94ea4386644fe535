"""ValueExpert reproduction — value pattern profiling for GPU apps.

This package reproduces the ASPLOS 2022 paper *ValueExpert: Exploring
Value Patterns in GPU-Accelerated Applications* (Zhou, Hao,
Mellor-Crummey, Meng, Liu) over a simulated GPU substrate.

Quick start::

    from repro import ValueExpert, ToolConfig
    from repro.workloads import get_workload

    tool = ValueExpert(ToolConfig())
    profile = tool.profile(get_workload("rodinia/backprop")())
    print(profile.summary())

Public surface:

- :class:`ValueExpert` / :class:`ToolConfig` — the tool facade;
- :class:`ValueProfile` — profiling results (hits, flow graph, counters);
- :mod:`repro.gpu` — the simulated CUDA-like runtime workloads use;
- :mod:`repro.patterns` — the eight value-pattern detectors;
- :mod:`repro.flowgraph` — value flow graphs, slices, important graphs;
- :mod:`repro.workloads` — the paper's benchmarks and applications;
- :mod:`repro.experiments` — regenerators for every table and figure;
- :mod:`repro.errors` — the :class:`~repro.errors.ReproError` hierarchy
  every malformed input (trace, profile, configuration) raises.
"""

from repro.analysis.advisor import suggest
from repro.analysis.profile import ValueProfile
from repro.analysis.report import render_report
from repro.patterns.base import Pattern, PatternConfig
from repro.tool.config import ToolConfig
from repro.tool.valueexpert import ValueExpert

__version__ = "1.0.0"

__all__ = [
    "Pattern",
    "PatternConfig",
    "render_report",
    "suggest",
    "ToolConfig",
    "ValueExpert",
    "ValueProfile",
    "__version__",
]
