"""Online and offline analyzers plus the profile result model.

The online analyzer consumes collector observations during execution:
it recognizes value patterns and builds the value flow graph.  The
offline analyzer runs postmortem: it resolves access types by binary
slicing, annotates source lines, and finalizes the profile.

The package also hosts the beyond-the-paper analyses built on the same
measurement data (see docs/extensions.md): reuse distances, race
detection, and HTML reports.  Profile diffing lives in
:mod:`repro.tracediff` and the Chrome-trace timeline in
:mod:`repro.obs.export`.
"""

from repro.analysis.profile import ValueProfile
from repro.analysis.online import OnlineAnalyzer
from repro.analysis.offline import OfflineAnalyzer
from repro.analysis.advisor import OptimizationSuggestion, suggest
from repro.analysis.report import render_report
from repro.analysis.races import RaceDetector, RaceReport, detect_races
from repro.analysis.reuse import ReuseDistanceAnalyzer, analyze_launch
from repro.analysis.htmlreport import render_html

__all__ = [
    "analyze_launch",
    "detect_races",
    "OfflineAnalyzer",
    "OnlineAnalyzer",
    "OptimizationSuggestion",
    "RaceDetector",
    "RaceReport",
    "render_html",
    "render_report",
    "ReuseDistanceAnalyzer",
    "suggest",
    "ValueProfile",
]
