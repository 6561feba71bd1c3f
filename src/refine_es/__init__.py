"""Two-stage policy refinement: PPO pretraining followed by evolution
strategies with bounded-support triangular perturbations."""
# the benchmark's tracer imports `noise` and counts its make_stream calls
from . import estimator as noise  # noqa: F401

__version__ = "0.1.0"
