"""Cooperative spectrum sensing laboratory.

Simulates energy-detection based cooperative sensing with soft-decision
fusion (square-law combining and selection, maximal-ratio combining) and a
noise-uncertainty-aware dual-threshold decision rule, alongside the
closed-form false-alarm/detection analysis needed to validate the Monte
Carlo results.  Everything else is imported from its module
(``css_lab.harness``, ``css_lab.theory``, ...).
"""

__version__ = "0.1.0"

from .fusion import CombinerKind, cfar_threshold
from .harness import Scenario, roc_sweep
from .theory import NumericError

__all__ = ["CombinerKind", "NumericError", "Scenario", "cfar_threshold", "roc_sweep"]
