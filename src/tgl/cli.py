"""Command-line pipeline: topology, gen-data, train, eval, rollout, pca, compare-forces.

Every run writes its outputs into --out plus a manifest.json recording
the resolved configuration, seeds, and sha256 hashes of the primary
outputs, so identical manifests imply byte-identical artifacts (wall
times live only in metrics.ndjson, which is not hashed).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import analysis, dataset, models, plant, topology as topo_mod, training
from .rollout import Disturbance, RolloutConfig, read_trace_forces, rollout as run_rollout, \
    write_trace
from .optim import AdamConfig
from .tensor import NonFiniteError

DEFAULT_TOPOLOGY_FILE = "allegro_uskin_384.json"
SMALL_TOPOLOGY_FILE = "small_hand_24.json"


class CliError(Exception):
    """Validation failure: maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are validation errors
        raise CliError(message)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: str, command: str, config: dict, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "outputs": {os.path.basename(p): _sha256(p) for p in sorted(outputs)},
    }
    dataset.write_json(os.path.join(out_dir, "manifest.json"), manifest, sort_keys=True)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _out_dir(path: str) -> str:
    """--out, checked as it is parsed: a directory, or a path that is not there yet."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} exists and is not a directory")
    return path


def _load_topology(spec: str) -> topo_mod.HandTopology:
    builders = {"default": topo_mod.build_default_hand, "small": topo_mod.build_small_hand}
    if spec in builders:
        return builders[spec]()
    if not os.path.exists(spec):
        raise CliError(f"topology file not found: {spec}")
    return topo_mod.load_topology(spec)


def _parse_triple(text: str) -> tuple[bool, bool, bool]:
    """'heavy,soft,slippery' -> property booleans, any order-fixed triple."""
    parts = [p.strip().lower() for p in text.split(",")]
    if len(parts) != 3:
        raise CliError(f"property triple must have 3 parts, got {text!r}")
    table = ({"light": False, "heavy": True},
             {"hard": False, "soft": True},
             {"non-slippery": False, "nonslip": False, "non_slippery": False, "slippery": True})
    for part, options in zip(parts, table):
        if part not in options:
            raise CliError(f"unknown property {part!r}; expected one of {sorted(options)}")
    return tuple(options[part] for part, options in zip(parts, table))  # type: ignore[return-value]


def _parse_disturbance(text: str) -> Disturbance:
    try:
        step, kind, mag = text.split(":")
        step, mag = int(step), float(mag)
    except ValueError:
        raise CliError(f"--disturb must look like step:kind:magnitude, got {text!r}") from None
    return Disturbance(step=step, kind=kind, magnitude=mag)


def _read_dataset(data_dir: str, target_length: int) -> dataset.Dataset:
    """Every trial CSV in data_dir, preprocessed to target_length."""
    if not os.path.isdir(data_dir):
        raise CliError(f"data directory not found: {data_dir}")
    paths = sorted(p for p in os.listdir(data_dir) if p.endswith(".csv"))
    if not paths:
        raise CliError(f"no trial CSVs in {data_dir}")
    trials = [dataset.read_trial_csv(os.path.join(data_dir, p)) for p in paths]
    return dataset.preprocess_dataset(dataset.Dataset(trials, target_length=target_length))


def _settings(args: argparse.Namespace, defaults: dict) -> dict:
    """Each key of defaults, resolved from its flag, the --config file or the default.

    The config file may hold only these keys; it is checked before anything
    is resolved.  A seed must be >= 0: numpy's generators take no other.
    """
    path, config = args.config, {}
    if path is not None:
        if not os.path.exists(path):
            raise CliError(f"config file not found: {path}")
        with open(path) as f:
            try:
                config = json.load(f)
            except json.JSONDecodeError as e:
                raise CliError(f"config {path} is not valid JSON: {e}") from None
        if not isinstance(config, dict):
            raise CliError(f"config {path} must hold a JSON object")
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise CliError(f"config {path} has unknown keys {unknown}; accepted: {sorted(defaults)}")
    settings = {key: _resolve(args, config, key, default) for key, default in defaults.items()}
    if settings.get("seed", 0) < 0:
        raise CliError(f"--seed must be >= 0, got {settings['seed']}")
    return settings


# JSON types a config value may take, by the type of the flag's default
_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                 str: ((str,), "a string")}


def _resolve(args: argparse.Namespace, config: dict, key: str, default):
    """Precedence: explicit flag > config file > default.

    A config value must have the default's type; an int stands for a float
    as is, and a JSON true/false is never a number.
    """
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key not in config:
        return default
    value = config[key]
    allowed, name = _CONFIG_TYPES[type(default)]
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise CliError(f"config key {key!r} must be {name}, got {json.dumps(value)}")
    return value


# ---------------------------------------------------------------------------
# subcommands

def cmd_topology(args) -> int:
    out = _ensure_out(args.out)
    topo, name = (topo_mod.build_small_hand(), SMALL_TOPOLOGY_FILE) if args.small \
        else (topo_mod.build_default_hand(), DEFAULT_TOPOLOGY_FILE)
    path = os.path.join(out, name)
    topo_mod.save_topology(topo, path)
    _write_manifest(out, "topology", {"small": bool(args.small), "nodes": topo.n,
                                      "edges": len(topo.edges)}, [path])
    print(f"wrote {path} ({topo.n} nodes, {len(topo.edges)} edges)")
    return 0


def cmd_gen_data(args) -> int:
    settings = _settings(args, {"seed": 7, "objects": 8, "trials-per": 10, "length": 700,
                                "topology": "default",
                                "noise": plant.PlantConfig().sensor_noise})
    seed, n_objects, trials_per, length, topo_spec, noise = settings.values()
    if trials_per < 1:
        raise CliError(f"--trials-per must be >= 1, got {trials_per}")
    if length < plant.MIN_TRIAL_LENGTH:
        raise CliError(f"--length must be >= {plant.MIN_TRIAL_LENGTH}, got {length}")
    topo = _load_topology(topo_spec)
    # generate_trial holds four [length, nodes, 3] float64 arrays at once: the
    # readings, the noise, the noise masked by contact and their sum
    need = 4 * length * topo.n * 3 * 8
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise CliError(f"--length {length} needs about {need / 2**30:,.0f} GiB for one trial, "
                       f"more than this machine's {memory / 2**30:,.1f} GiB of memory")
    pcfg = plant.PlantConfig(sensor_noise=noise)
    catalog = plant.object_catalog()
    if not (1 <= n_objects <= len(catalog)):
        raise CliError(f"--objects must lie in 1..{len(catalog)}, got {n_objects}")
    jobs = [(obj, oi, k) for oi, obj in enumerate(catalog[:n_objects]) for k in range(trials_per)]
    # train, eval and pca read every CSV in a data directory: another run's would join this one
    wanted = {f"{plant.trial_name(obj, k)}.csv" for obj, _, k in jobs}
    stale = sorted(p for p in os.listdir(args.out) if p.endswith(".csv") and p not in wanted) \
        if os.path.isdir(args.out) else []
    if stale:
        raise CliError(f"{args.out} holds trial CSVs this run would not write: "
                       f"{', '.join(stale)}; remove them or choose another --out")
    out = _ensure_out(args.out)
    paths = []
    for job in jobs:
        trial = plant.generate_object_trial(topo, *job, seed=seed, length=length, cfg=pcfg)
        paths.append(os.path.join(out, f"{trial.object_name}.csv"))
        dataset.write_trial_csv(trial, paths[-1])
    # the keys --config reads, so this config reproduces the run
    _write_manifest(out, "gen-data", settings, paths)
    print(f"wrote {len(paths)} trial CSVs to {out}")
    return 0


def _spec(model: str, conv: str | None, fc: str | None) -> models.ModelSpec:
    if conv is None and fc is None:
        return models.model_spec(model)
    if fc is None:
        raise CliError("--conv requires --fc")
    sizes = []
    for flag, text in (("--conv", conv or ""), ("--fc", fc)):
        try:
            sizes.append(tuple(int(x) for x in text.split(",") if x))
        except ValueError:
            raise CliError(f"{flag} must be comma-separated integers, got {text!r}") from None
    return models.ModelSpec("GCN" if sizes[0] else "MLP", *sizes)


def cmd_train(args) -> int:
    defaults = {"seed": 0, "epochs": 200, "batch-size": 100, "lr": 1e-5, "model": "III",
                "target-length": dataset.DEFAULT_TARGET_LENGTH, "topology": "default"}
    resume = training.resume_point(args.resume) if args.resume else None
    if resume:   # the checkpoint's recipe is the run's; "" stands for its model and graph
        spec, topo, got = resume.spec, resume.topology, resume.extra
        recorded = {"seed": got["train_seed"], "lr": got["lr"], "batch-size": got["batch_size"],
                    "target-length": got["target_length"]}
        defaults |= recorded | {"model": "", "topology": ""}
    settings = _settings(args, defaults)
    seed, epochs, batch, lr, model, target_length, topo_spec = settings.values()
    if target_length <= dataset.HORIZON:   # a trial of no more frames yields no pairs
        raise CliError(f"--target-length must be >= {dataset.HORIZON + 1}, got {target_length}")
    if not args.resume:
        spec, topo = _spec(model, args.conv, args.fc), _load_topology(topo_spec)
    else:   # only a flag or --config value can differ from the checkpoint
        where = f"--resume {args.resume}: checkpoint"
        for key, value in recorded.items():
            if settings[key] != value:
                raise CliError(f"{where} {key} {value} is not the run's {key} {settings[key]}")
        if (model or args.conv or args.fc) and _spec(model, args.conv, args.fc) != spec:
            raise CliError(f"{where} model {spec} is not the run's --model/--conv/--fc")
        if topo_spec and topo_mod.topology_doc(_load_topology(topo_spec)) != \
                topo_mod.topology_doc(topo):
            raise CliError(f"{where} 'topology' is not the graph of --topology {topo_spec}")
    cfg = training.TrainConfig(batch_size=batch, epochs=epochs,
                               adam=AdamConfig(learning_rate=lr), seed=seed,
                               checkpoint_every=args.checkpoint_every or 0, spec=spec)
    ds = _read_dataset(args.data, target_length)
    # training.train creates --out once the run is set up
    report = training.train(ds, cfg, topo, out_dir=args.out, resume_from=resume)
    outputs = [p for base in (report.final_checkpoint, report.best_checkpoint) if base
               for p in (base, models.checkpoint_blob(base))]
    config = {"seed": seed, "epochs": epochs, "batch_size": batch, "lr": lr,
              "model": model or None, "conv": args.conv, "fc": args.fc,
              "target_length": target_length, "topology": topo_spec or None,
              "resume": args.resume, "data": os.path.abspath(args.data)}
    _write_manifest(args.out, "train", config, sorted(set(outputs)))
    print(f"trained {report.epochs_run} epochs; final train loss "
          f"{report.train_losses[-1]:.6g}, best val {report.best_val:.6g}")
    return 0


def cmd_eval(args) -> int:
    params, extra = models.load_checkpoint(args.ckpt)
    done = training.recipe(args.ckpt, extra)   # the pairs training split and validated on
    seed, target_length = done["train_seed"], done["target_length"]
    ds = _read_dataset(args.data, target_length)
    train_set, val_set = dataset.split(ds, seed)
    pairs = train_set if args.split == "train" else val_set
    loss = training.mean_loss(params, pairs)
    out = _ensure_out(args.out)
    path = os.path.join(out, "eval.json")
    dataset.write_json(path, {"split": args.split, "pairs": len(pairs), "mse": loss})
    _write_manifest(out, "eval", {"ckpt": os.path.abspath(args.ckpt), "split": args.split,
                                  "seed": seed, "data": os.path.abspath(args.data),
                                  "target_length": target_length}, [path])
    print(f"{args.split} MSE over {len(pairs)} pairs: {loss:.6g}")
    return 0


def cmd_rollout(args) -> int:
    if args.seed < 0:   # as _settings checks the other commands' seeds
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    heavy, soft, slippery = _parse_triple(args.object)
    obj = plant.make_object(heavy, soft, slippery, radius=args.radius)
    labels = dataset.encode_labels(*_parse_triple(args.labels)) if args.labels \
        else obj.labels
    cfg = RolloutConfig(
        max_steps=args.max_steps, labels=labels,
        disturbance=_parse_disturbance(args.disturb) if args.disturb else None,
        command_stride=args.stride)
    params, _ = models.load_checkpoint(args.ckpt)
    pl = plant.make_plant(params.topology, obj)
    trace = run_rollout(params, pl, cfg, seed=args.seed)
    out = _ensure_out(args.out)
    csv_path = os.path.join(out, "trace.csv")
    sidecar = write_trace(trace, csv_path)
    config = {"ckpt": os.path.abspath(args.ckpt), "object": args.object,
              "labels": labels.tolist(), "max_steps": args.max_steps, "seed": args.seed,
              "disturb": args.disturb, "stride": args.stride, "radius": args.radius}
    _write_manifest(out, "rollout", config, [csv_path, sidecar])
    v = trace.verdict
    print(f"rollout {'succeeded' if v.success else 'failed'}: "
          f"distance {v.final_distance:.3f}, tilt {v.final_angle:.2f}")
    return 0


def cmd_pca(args) -> int:
    if args.window:
        try:
            start, stop = (int(x) for x in args.window.split(":"))
        except ValueError:
            raise CliError(f"--window must look like start:stop, got {args.window!r}") from None
        if not 0 <= start < stop:
            raise CliError(f"--window needs 0 <= start < stop, got {args.window!r}")
    params, extra = models.load_checkpoint(args.ckpt)
    if params.spec.kind != "GCN":
        raise CliError(f"pca maps a GCN's node features; {args.ckpt} holds an {params.spec.kind}")
    target_length = training.recipe(args.ckpt, extra)["target_length"]
    if not args.window:
        start, stop = max(0, target_length - 45), target_length
    elif stop > target_length:
        raise CliError(f"--window {args.window} ends past the checkpoint's target length "
                       f"{target_length}")
    ds = _read_dataset(args.data, target_length)
    stack = analysis.extract_node_features(params, params.topology, ds.trials, (start, stop))
    report = analysis.pca_node_map(stack)
    out = _ensure_out(args.out)
    csv_path = os.path.join(out, "node_map.csv")
    svg_path = os.path.join(out, "node_map.svg")
    json_path = os.path.join(out, "cluster_report.json")
    analysis.write_node_map_csv(report, csv_path)
    analysis.write_node_map_svg(report, svg_path)
    analysis.write_cluster_report_json(report, json_path)
    _write_manifest(out, "pca", {"ckpt": os.path.abspath(args.ckpt), "window": [start, stop],
                                 "data": os.path.abspath(args.data),
                                 "target_length": target_length},
                    [csv_path, svg_path, json_path])
    sil = "undefined" if report.silhouette is None else f"{report.silhouette:.4f}"
    print(f"node map over {stack.features.shape[1]} feature dims; silhouette {sil}")
    return 0


def cmd_compare_forces(args) -> int:
    cmp = analysis.compare_force_traces(read_trace_forces(args.trace_a),
                                        read_trace_forces(args.trace_b))
    out = _ensure_out(args.out)
    path = os.path.join(out, "force_comparison.json")
    dataset.write_json(path, {"fraction_b_higher": cmp.fraction_b_higher,
                              "mean_final_quarter_a": cmp.mean_final_quarter_a,
                              "mean_final_quarter_b": cmp.mean_final_quarter_b,
                              "steps": int(cmp.differences.shape[0])})
    _write_manifest(out, "compare-forces",
                    {"trace_a": os.path.abspath(args.trace_a),
                     "trace_b": os.path.abspath(args.trace_b)}, [path])
    print(f"fraction b>a: {cmp.fraction_b_higher:.3f}; final-quarter means "
          f"{cmp.mean_final_quarter_a:.4f} vs {cmp.mean_final_quarter_b:.4f}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="tgl", description="tactile graph-learning pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("topology", help="write a sensor-graph JSON (the 384-node hand by default)")
    sp.add_argument("--small", action="store_true", help="24-node desk-scale hand")
    sp.add_argument("--out", required=True, type=_out_dir)
    sp.set_defaults(func=cmd_topology)

    sp = sub.add_parser("gen-data", help="generate synthetic trial CSVs")
    sp.add_argument("--out", required=True, type=_out_dir)
    sp.add_argument("--config", help="JSON config supplying defaults for the flags")
    sp.add_argument("--objects", type=int, help="number of object property combos (1..8)")
    sp.add_argument("--trials-per", type=int, help="trials per object")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--length", type=int, help="raw trial length before preprocessing")
    sp.add_argument("--topology", help="default | small | path to topology JSON")
    sp.add_argument("--noise", type=float, help="per-node tactile noise std while in contact")
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("train", help="train a model on trial CSVs")
    sp.add_argument("--data", required=True, help="directory of trial CSVs")
    sp.add_argument("--out", required=True, type=_out_dir)
    sp.add_argument("--config", help="JSON config supplying defaults for the flags")
    sp.add_argument("--model", choices=sorted(models.MODEL_TABLE))
    sp.add_argument("--conv", help="custom conv widths, e.g. 8,16,24 (overrides --model)")
    sp.add_argument("--fc", help="custom hidden fc widths, e.g. 64,32")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--batch-size", type=int)
    sp.add_argument("--lr", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--target-length", type=int)
    sp.add_argument("--topology")
    sp.add_argument("--resume", help="checkpoint manifest to continue from")
    sp.add_argument("--checkpoint-every", type=int)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("eval", help="mean MSE of a checkpoint over a data split")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True, type=_out_dir)
    sp.add_argument("--split", choices=("train", "val"), default="val")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("rollout", help="closed-loop rollout of a checkpoint on the plant")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--out", required=True, type=_out_dir)
    sp.add_argument("--object", required=True,
                    help="true object properties, e.g. heavy,soft,nonslip")
    sp.add_argument("--labels", help="labels fed to the model (defaults to the object's)")
    sp.add_argument("--max-steps", type=int, default=120)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--disturb", help="step:kind:magnitude, e.g. 60:pull_down:2.0")
    sp.add_argument("--stride", type=int, default=1)
    sp.add_argument("--radius", type=float)
    sp.set_defaults(func=cmd_rollout)

    sp = sub.add_parser("pca", help="node-feature PCA map of a trained GCN")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True, type=_out_dir)
    sp.add_argument("--window", help="start:stop step range (default: final 45 steps)")
    sp.set_defaults(func=cmd_pca)

    sp = sub.add_parser("compare-forces", help="compare grip-force series of two traces")
    sp.add_argument("--trace-a", required=True)
    sp.add_argument("--trace-b", required=True)
    sp.add_argument("--out", required=True, type=_out_dir)
    sp.set_defaults(func=cmd_compare_forces)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, FileNotFoundError, NotADirectoryError, IsADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NonFiniteError, OSError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
