"""Robustness-bias detection and data-diversification toolkit.

Detects classes that are disproportionately fragile under input noise in
small feed-forward ReLU classifiers, then alleviates the imbalance by
diversifying the training data: per-class value bounds are relaxed by the
measured noise tolerance, inter-class overlaps are tightened away, synthetic
rows are drawn inside the resulting regions around clustered key features,
and near-duplicate rows are removed. The experiment harness re-measures the
bias score against random under/oversampling, SMOTE and ADASYN baselines
over seeded repeats.
"""

from .baselines import ResamplePlan, adasyn, resample, ros, rus, smote
from .data import (Dataset, load_csv, make_toy_blobs, save_csv,
                   split_stratified)
from .diversify import (DiversifiedDataset, DiversifyConfig, derive_seed,
                        diversify, dominant_clusters, minimize_redundancy,
                        sample_synthetic, tighten_overlaps, top_k_features,
                        validate_synthetic)
from .errors import (BiasMetricError, BiasdivError, ConfigError, DataError,
                     InfeasibleError, NeighborError, TrainingError)
from .harness import (ExperimentConfig, ExperimentReport, emit_report,
                      load_experiment_config, parse_experiment_config,
                      reference_probe, run_experiment)
from .mlp import (Mlp, MlpSpec, TrainSchedule, accuracy, init_mlp, scale_schedule,
                  train)
from .numerics import (Interval, IntervalSet, kmeans, kmeans_1d, pearson_corr,
                       substream)
from .probe import NoiseSpec, ProbeReport, compute_bias, noise_sweep

__version__ = "0.1.0"

__all__ = [
    "BiasMetricError",
    "BiasdivError",
    "ConfigError",
    "DataError",
    "Dataset",
    "DiversifiedDataset",
    "DiversifyConfig",
    "ExperimentConfig",
    "ExperimentReport",
    "InfeasibleError",
    "Interval",
    "IntervalSet",
    "Mlp",
    "MlpSpec",
    "NeighborError",
    "NoiseSpec",
    "ProbeReport",
    "ResamplePlan",
    "TrainSchedule",
    "TrainingError",
    "accuracy",
    "adasyn",
    "compute_bias",
    "derive_seed",
    "diversify",
    "dominant_clusters",
    "emit_report",
    "init_mlp",
    "kmeans",
    "kmeans_1d",
    "load_csv",
    "load_experiment_config",
    "make_toy_blobs",
    "minimize_redundancy",
    "noise_sweep",
    "parse_experiment_config",
    "pearson_corr",
    "reference_probe",
    "resample",
    "ros",
    "run_experiment",
    "rus",
    "sample_synthetic",
    "save_csv",
    "scale_schedule",
    "smote",
    "split_stratified",
    "substream",
    "tighten_overlaps",
    "top_k_features",
    "train",
    "validate_synthetic",
]
