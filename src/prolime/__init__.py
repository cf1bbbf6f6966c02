"""Local surrogate explanations with swappable neighborhood sampling.

The pipeline samples a neighborhood around the explained point, labels it
with the black-box model, weights it by an exponential proximity kernel, and
fits a weighted ridge surrogate whose coefficients form the explanation.
Neighborhoods come either from independent per-feature perturbation or from
the declared feature distribution itself; everything downstream of the
sampler is shared. A synthetic loan-approval benchmark with a known local
ground truth makes the two strategies comparable.
"""

from . import core, datasets, evaluation, explainer, plots, samplers, simulation
from .core import *
from .datasets import *
from .evaluation import *
from .explainer import *
from .plots import *
from .samplers import *
from .simulation import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *datasets.__all__,
    *evaluation.__all__,
    *explainer.__all__,
    *plots.__all__,
    *samplers.__all__,
    *simulation.__all__,
]
