"""Graph-convolutional motion generation for a tactile multi-fingered hand.

From-scratch numeric core (tensors with reverse-mode autodiff, Adam,
PCA), a 384-node hand sensor graph, GCN/MLP motion models, trajectory
preprocessing, a synthetic plant, training, closed-loop rollouts, and
node-feature analysis, behind one `tgl` command-line tool.
"""
from .analysis import ClusterReport, NodeFeatureStack, compare_force_traces, \
    extract_node_features, pca_node_map, silhouette
from .dataset import Dataset, Pair, PairSet, Trial, TrajectoryRecord, downsample, \
    encode_labels, make_pairs, preprocess, preprocess_dataset, read_trial_csv, smooth, \
    split, trim_static, write_trial_csv
from .models import MODEL_TABLE, ModelParams, ModelSpec, build_from_spec, build_model, \
    conv_features, forward, forward_batch, load_checkpoint, model_spec, save_checkpoint
from .optim import AdamConfig, Parameter, adam_step, glorot_uniform, zero_grad
from .pca import pca
from .plant import Plant, PlantConfig, PlantState, SyntheticObject, apply_disturbance, \
    generate_dataset_trials, generate_object_trial, generate_trial, initial_state, make_object, \
    make_plant, object_catalog, plant_step
from .rollout import Disturbance, RolloutConfig, RolloutTrace, Verdict, judge_success, \
    read_trace_forces, rollout, total_grip_force, write_trace
from .tensor import NonFiniteError, Tensor, backward, concat, matmul, mse_loss, no_grad, \
    relu, reshape
from .topology import HandTopology, PropagationMatrix, SensorNode, build_default_hand, \
    build_small_hand, load_topology, normalize_adjacency, propagation_for, save_topology, \
    spectral_norm_bound
from .training import TrainConfig, TrainReport, evaluate, fit_pairs, train

__version__ = "0.1.0"
