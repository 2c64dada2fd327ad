"""Ambiguity-aware semi-supervised node classification on graphs.

The package trains message-passing backbones (GCN, SAGE, GIN, SGC) with an
optional contrastive regularizer that targets automatically discovered
ambiguous nodes: nodes whose temporally smoothed prediction entropy stays
high. It also ships graph-region analysis (class-frequency tiers crossed
with local structure), metrics, a stochastic block model generator, and a
small CLI (``disamgnn train|analyze|sweep|gen``).
"""

from . import ambiguity, data, graph, metrics, models, optim, regions, tensor
from . import train as _train
from .ambiguity import *
from .data import *
from .graph import *
from .metrics import *
from .models import *
from .optim import *
from .regions import *
from .tensor import *
# Binds the function over the submodule's name; the module stays reachable
# as sys.modules["disamgnn.train"].
from .train import *

__version__ = "0.1.0"

__all__ = [
    *ambiguity.__all__, *data.__all__, *graph.__all__, *metrics.__all__, *models.__all__,
    *optim.__all__, *regions.__all__, *tensor.__all__, *_train.__all__, "__version__",
]
