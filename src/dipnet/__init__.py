"""Simulator for multi-hop entangled qubit networks under a two-spin
dipolar coupling, with closed-form and dense-matrix channel paths and the
negativity / pi-tangle / steered-coherence quantifiers."""

from .netmodel import DipolarParams, NetworkConfig
from .measures import negativity, pi_tangle
from .scan import ExtensionSpec, ScanGrid, evaluate_point, sweep

__version__ = "0.1.0"
