"""Ambiguity-aware semi-supervised node classification on graphs.

The package trains message-passing backbones (GCN, SAGE, GIN, SGC) with an
optional contrastive regularizer that targets automatically discovered
ambiguous nodes: nodes whose temporally smoothed prediction entropy stays
high. It also ships graph-region analysis (class-frequency tiers crossed
with local structure), metrics, a stochastic block model generator, and a
small CLI (``disamgnn train|analyze|sweep|gen``).
"""

from .ambiguity import (
    AmbiguityState,
    ContrastGroups,
    DisamConfig,
    NodePools,
    ambiguity_scores,
    build_contrast_groups,
    jsd_contrast_loss,
    select_ambiguous,
    similarity,
    update_memory,
)
from .data import (
    PRESET_NAMES,
    SbmSpec,
    ambiguity_preset,
    block_probability_matrix,
    get_preset,
    load_bundle,
    load_checkpoint,
    make_split,
    save_bundle,
    save_checkpoint,
    sbm_generate,
    separated_preset,
)
from .graph import (
    Graph,
    SplitMasks,
    build_graph,
    graph_homophily,
    node_homophily,
    node_homophily_vector,
)
from .metrics import (
    MetricsReport,
    accuracy,
    confusion_matrix,
    macro_auroc,
    macro_f1,
    metrics_report,
    per_class_f1,
)
from .models import (
    BACKBONES,
    ForwardOutput,
    ModelParams,
    cross_entropy_loss,
    forward,
    gcn_normalized_adjacency,
    init_model,
)
from .optim import AdamState, adam_step
from .regions import (
    NodeGroups,
    class_size_tiers,
    group_report,
    strategy1_groups,
    strategy2_groups,
)
from .tensor import Tensor, backward, softplus
from .train import (
    EpochRecord,
    TrainConfig,
    TrainHistory,
    TrainingDiverged,
    evaluate,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityState",
    "ContrastGroups",
    "DisamConfig",
    "NodePools",
    "ambiguity_scores",
    "build_contrast_groups",
    "jsd_contrast_loss",
    "select_ambiguous",
    "similarity",
    "update_memory",
    "PRESET_NAMES",
    "SbmSpec",
    "block_probability_matrix",
    "ambiguity_preset",
    "get_preset",
    "load_bundle",
    "load_checkpoint",
    "make_split",
    "save_bundle",
    "save_checkpoint",
    "sbm_generate",
    "separated_preset",
    "Graph",
    "SplitMasks",
    "build_graph",
    "graph_homophily",
    "node_homophily",
    "node_homophily_vector",
    "MetricsReport",
    "accuracy",
    "confusion_matrix",
    "macro_auroc",
    "macro_f1",
    "metrics_report",
    "per_class_f1",
    "BACKBONES",
    "ForwardOutput",
    "ModelParams",
    "cross_entropy_loss",
    "forward",
    "gcn_normalized_adjacency",
    "init_model",
    "AdamState",
    "adam_step",
    "NodeGroups",
    "class_size_tiers",
    "group_report",
    "strategy1_groups",
    "strategy2_groups",
    "Tensor",
    "backward",
    "softplus",
    "EpochRecord",
    "TrainConfig",
    "TrainHistory",
    "TrainingDiverged",
    "evaluate",
    "train",
    "__version__",
]
