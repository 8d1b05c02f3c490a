"""Cluster-based fuzzy hierarchical federated classification.

A deterministic, numpy-only simulator for federated intrusion detection on
heterogeneous edge hardware: fuzzy clustering of device profiles at the fog
tier, membership-weighted proximal aggregation, adaptive conformal
calibration of cluster models, and a documented timing model for
synchronization latency and straggler studies. Flat fedavg and fedprox
baselines run inside the same harness for like-for-like comparison.
"""

from .aggregation import (
    ClusterModel,
    cluster_aggregate,
    cluster_weights,
    global_aggregate,
    weighted_average,
)
from .calibration import (
    CalibratedModel,
    CalibrationConfig,
    CalibrationState,
    SUSPICIOUS,
    Decision,
    build_score_set,
    calibrate,
    predict_with_calibration,
    quantile,
    update_confidence,
)
from .clustering import (
    FuzzyPartition,
    ResourceWeights,
    fcm_fit,
)
from .data import (
    ClientDataset,
    CsvSource,
    DatasetSpec,
    SyntheticSource,
    generate_synthetic,
    load_csv,
    materialize_clients,
)
from .metrics import (
    ConfusionCounts,
    MetricReport,
    classification_metrics,
    confusion,
    roc_sweep,
    trapezoid_auc,
)
from .model import (
    LabeledBatch,
    ModelParams,
    TrainConfig,
    gradient,
    local_train,
    loss,
    predict_proba,
    prox_local_train,
)
from .simulator import (
    ARCHETYPES,
    ClusterConfig,
    RoundReport,
    Scenario,
    build_scenario,
    clusters_for_clients,
    init_state,
    run_lockstep,
    run_round,
    run_training,
    simulate_latency,
    straggler_metrics,
)

__version__ = "0.1.0"
