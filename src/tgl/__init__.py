"""Graph-convolutional motion generation for a tactile multi-fingered hand.

From-scratch numeric core (a layer tape with hand-written backwards, Adam,
PCA), a 384-node hand sensor graph, GCN/MLP motion models, trajectory
preprocessing, a synthetic plant, training, closed-loop rollouts, and
node-feature analysis, behind one `tgl` command-line tool.
"""
from .analysis import ClusterReport, NodeFeatureStack, compare_force_traces, \
    extract_node_features, pca_node_map, silhouette
from .dataset import Dataset, PairSet, Trial, TrajectoryRecord, downsample, encode_labels, \
    preprocess, read_trial_csv, smooth, split, trim_static, write_trial_csv
from .models import MODEL_TABLE, ModelParams, ModelSpec, build_from_spec, conv_features, \
    forward, forward_batch, load_checkpoint, model_spec, predict, save_checkpoint
from .optim import AdamConfig, Parameter, adam_step, glorot_uniform
from .pca import pca
from .plant import Disturbance, Plant, PlantConfig, PlantState, SyntheticObject, \
    apply_disturbance, generate_dataset_trials, generate_object_trial, generate_trial, \
    initial_state, make_object, make_plant, object_catalog, plant_step
from .rollout import RolloutConfig, RolloutTrace, Verdict, judge_success, read_trace_forces, \
    rollout, total_grip_force, write_trace
from .tensor import NonFiniteError, Tensor, backward, mse_loss
from .topology import HandTopology, SensorNode, build_default_hand, build_small_hand, \
    load_topology, propagation_for, save_topology
from .training import TrainConfig, TrainReport, evaluate, fit_pairs, train

__version__ = "0.1.0"
