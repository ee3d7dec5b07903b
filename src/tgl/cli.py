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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

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


def thread_cap() -> int:
    raw = os.environ.get("TGL_THREADS", "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise CliError(f"TGL_THREADS must be an integer, got {raw!r}") from None
        if cap < 1:
            raise CliError(f"TGL_THREADS must be >= 1, got {cap}")
        return cap
    return os.cpu_count() or 1


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
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _load_topology(spec: str) -> topo_mod.HandTopology:
    if spec == "default":
        return topo_mod.build_default_hand()
    if spec == "small":
        return topo_mod.build_small_hand()
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
    out = []
    for part, options in zip(parts, table):
        if part not in options:
            raise CliError(f"unknown property {part!r}; expected one of {sorted(options)}")
        out.append(options[part])
    return tuple(out)  # type: ignore[return-value]


def _parse_disturbance(text: str) -> Disturbance:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"--disturb must look like step:kind:magnitude, got {text!r}")
    try:
        step, mag = int(parts[0]), float(parts[2])
    except ValueError:
        raise CliError(f"--disturb must look like step:kind:magnitude, got {text!r}") from None
    return Disturbance(step=step, kind=parts[1], magnitude=mag)


def _plant_config(path: str | None, noise: float | None) -> plant.PlantConfig:
    cfg = plant.PlantConfig.from_json(path) if path else plant.PlantConfig()
    if noise is not None:
        cfg = replace(cfg, sensor_noise=noise)
    return cfg


def _read_dataset(data_dir: str, target_length: int) -> dataset.Dataset:
    """Every trial CSV in data_dir, preprocessed to target_length."""
    if not os.path.isdir(data_dir):
        raise CliError(f"data directory not found: {data_dir}")
    paths = sorted(p for p in os.listdir(data_dir) if p.endswith(".csv"))
    if not paths:
        raise CliError(f"no trial CSVs in {data_dir}")
    trials = [dataset.read_trial_csv(os.path.join(data_dir, p)) for p in paths]
    return dataset.preprocess_dataset(dataset.Dataset(trials, target_length=target_length))


def _maybe_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise CliError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise CliError(f"config {path} must hold a JSON object")
    return doc


def _resolve(args: argparse.Namespace, config: dict, key: str, default):
    """Precedence: explicit flag > config file > default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


# ---------------------------------------------------------------------------
# subcommands

def cmd_topology(args) -> int:
    out = _ensure_out(args.out)
    if args.small:
        topo, name = topo_mod.build_small_hand(), SMALL_TOPOLOGY_FILE
    else:
        topo, name = topo_mod.build_default_hand(), DEFAULT_TOPOLOGY_FILE
    path = os.path.join(out, name)
    topo_mod.save_topology(topo, path)
    _write_manifest(out, "topology", {"small": bool(args.small), "nodes": topo.n,
                                      "edges": len(topo.edges)}, [path])
    print(f"wrote {path} ({topo.n} nodes, {len(topo.edges)} edges)")
    return 0


def cmd_gen_data(args) -> int:
    cfgfile = _maybe_config(args.config)
    out = _ensure_out(args.out)
    seed = _resolve(args, cfgfile, "seed", 7)
    n_objects = _resolve(args, cfgfile, "objects", 8)
    trials_per = _resolve(args, cfgfile, "trials-per", 10)
    length = _resolve(args, cfgfile, "length", 700)
    topo_spec = _resolve(args, cfgfile, "topology", "default")
    topo = _load_topology(topo_spec)
    pcfg = _plant_config(args.plant_config, args.noise)
    catalog = plant.object_catalog(pcfg)
    if not (1 <= n_objects <= len(catalog)):
        raise CliError(f"--objects must lie in 1..{len(catalog)}, got {n_objects}")
    jobs = [(obj, oi, k) for oi, obj in enumerate(catalog[:n_objects]) for k in range(trials_per)]

    def run(job):
        trial = plant.generate_object_trial(topo, *job, seed=seed, length=length, cfg=pcfg)
        path = os.path.join(out, f"{trial.object_name}.csv")
        dataset.write_trial_csv(trial, path)
        return path

    with ThreadPoolExecutor(max_workers=min(thread_cap(), len(jobs))) as pool:
        paths = list(pool.map(run, jobs))
    cfg_path = os.path.join(out, "plant_config.json")
    pcfg.to_json(cfg_path)
    config = {"seed": seed, "objects": n_objects, "trials_per": trials_per,
              "length": length, "topology": topo_spec, "sensor_noise": pcfg.sensor_noise}
    _write_manifest(out, "gen-data", config, paths + [cfg_path])
    print(f"wrote {len(paths)} trial CSVs to {out}")
    return 0


def _custom_spec(conv: str | None, fc: str | None) -> models.ModelSpec | None:
    if conv is None and fc is None:
        return None
    if fc is None:
        raise CliError("--conv requires --fc")
    fc_sizes = tuple(int(x) for x in fc.split(",") if x)
    conv_sizes = tuple(int(x) for x in conv.split(",") if x) if conv else ()
    kind = "GCN" if conv_sizes else "MLP"
    return models.ModelSpec(kind=kind, conv_channels=conv_sizes, fc_sizes=fc_sizes)


def cmd_train(args) -> int:
    cfgfile = _maybe_config(args.config)
    out = _ensure_out(args.out)
    seed = _resolve(args, cfgfile, "seed", 0)
    epochs = _resolve(args, cfgfile, "epochs", 200)
    batch = _resolve(args, cfgfile, "batch-size", 100)
    lr = _resolve(args, cfgfile, "lr", 1e-5)
    model = _resolve(args, cfgfile, "model", "III")
    target_length = _resolve(args, cfgfile, "target-length", dataset.DEFAULT_TARGET_LENGTH)
    topo_spec = _resolve(args, cfgfile, "topology", "default")
    topo = _load_topology(topo_spec)
    ds = _read_dataset(args.data, target_length)
    cfg = training.TrainConfig(model=model, batch_size=batch, epochs=epochs,
                               adam=AdamConfig(learning_rate=lr), seed=seed,
                               checkpoint_every=args.checkpoint_every or 0,
                               spec=_custom_spec(args.conv, args.fc))
    report = training.train(ds, cfg, topo, out_dir=out, resume_from=args.resume)
    outputs = [p for base in (report.final_checkpoint, report.best_checkpoint) if base
               for p in (base, base[:-5] + ".bin")]
    config = {"seed": seed, "epochs": epochs, "batch_size": batch, "lr": lr,
              "model": model, "conv": args.conv, "fc": args.fc,
              "target_length": target_length, "topology": topo_spec,
              "resume": args.resume, "data": os.path.abspath(args.data)}
    _write_manifest(out, "train", config, sorted(set(outputs)))
    print(f"trained {report.epochs_run} epochs; final train loss "
          f"{report.train_losses[-1]:.6g}, best val {report.best_val:.6g}")
    return 0


def cmd_eval(args) -> int:
    out = _ensure_out(args.out)
    topo = _load_topology(args.topology or "default")
    ds = _read_dataset(args.data, args.target_length)
    train_pairs, val_pairs = dataset.split(ds, args.seed)
    pairs = train_pairs if args.split == "train" else val_pairs
    loss = training.evaluate(args.ckpt, pairs, topo)
    path = os.path.join(out, "eval.json")
    with open(path, "w") as f:
        json.dump({"split": args.split, "pairs": len(pairs), "mse": loss}, f, indent=1)
        f.write("\n")
    _write_manifest(out, "eval", {"ckpt": os.path.abspath(args.ckpt), "split": args.split,
                                  "seed": args.seed, "data": os.path.abspath(args.data),
                                  "target_length": args.target_length}, [path])
    print(f"{args.split} MSE over {len(pairs)} pairs: {loss:.6g}")
    return 0


def cmd_rollout(args) -> int:
    out = _ensure_out(args.out)
    topo = _load_topology(args.topology or "default")
    params, _ = models.load_checkpoint(args.ckpt, topo)
    pcfg = _plant_config(args.plant_config, None)
    heavy, soft, slippery = _parse_triple(args.object)
    obj = plant.make_object(heavy, soft, slippery, pcfg, radius=args.radius)
    labels = dataset.encode_labels(*_parse_triple(args.labels)) if args.labels \
        else obj.labels
    cfg = RolloutConfig(
        max_steps=args.max_steps, labels=labels,
        disturbance=_parse_disturbance(args.disturb) if args.disturb else None,
        command_stride=args.stride)
    pl = plant.make_plant(topo, obj, pcfg)
    trace = run_rollout(params, pl, cfg, seed=args.seed)
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
    out = _ensure_out(args.out)
    topo = _load_topology(args.topology or "default")
    params, _ = models.load_checkpoint(args.ckpt, topo)
    ds = _read_dataset(args.data, args.target_length)
    if args.window:
        try:
            start, stop = (int(x) for x in args.window.split(":"))
        except ValueError:
            raise CliError(f"--window must look like start:stop, got {args.window!r}") from None
    else:
        start, stop = max(0, args.target_length - 45), args.target_length
    stack = analysis.extract_node_features(params, topo, ds.trials, (start, stop))
    report = analysis.pca_node_map(stack)
    csv_path = os.path.join(out, "node_map.csv")
    svg_path = os.path.join(out, "node_map.svg")
    json_path = os.path.join(out, "cluster_report.json")
    analysis.write_node_map_csv(report, csv_path)
    analysis.write_node_map_svg(report, svg_path)
    analysis.write_cluster_report_json(report, json_path)
    _write_manifest(out, "pca", {"ckpt": os.path.abspath(args.ckpt), "window": [start, stop],
                                 "data": os.path.abspath(args.data),
                                 "target_length": args.target_length},
                    [csv_path, svg_path, json_path])
    sil = "undefined" if report.silhouette is None else f"{report.silhouette:.4f}"
    print(f"node map over {stack.features.shape[1]} feature dims; silhouette {sil}")
    return 0


def cmd_compare_forces(args) -> int:
    out = _ensure_out(args.out)
    cmp = analysis.compare_force_traces(read_trace_forces(args.trace_a),
                                        read_trace_forces(args.trace_b))
    path = os.path.join(out, "force_comparison.json")
    with open(path, "w") as f:
        json.dump({"fraction_b_higher": cmp.fraction_b_higher,
                   "mean_final_quarter_a": cmp.mean_final_quarter_a,
                   "mean_final_quarter_b": cmp.mean_final_quarter_b,
                   "steps": int(cmp.differences.shape[0])}, f, indent=1)
        f.write("\n")
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

    sp = sub.add_parser("topology", help="write a sensor-graph JSON")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--default", action="store_true", help="384-node hand (the default)")
    group.add_argument("--small", action="store_true", help="24-node desk-scale hand")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_topology)

    sp = sub.add_parser("gen-data", help="generate synthetic trial CSVs")
    sp.add_argument("--out", required=True)
    sp.add_argument("--config", help="JSON config supplying defaults for the flags")
    sp.add_argument("--objects", type=int, help="number of object property combos (1..8)")
    sp.add_argument("--trials-per", type=int, help="trials per object")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--length", type=int, help="raw trial length before preprocessing")
    sp.add_argument("--topology", help="default | small | path to topology JSON")
    sp.add_argument("--plant-config", help="plant constant overrides (JSON)")
    sp.add_argument("--noise", type=float, help="per-node tactile noise std while in contact")
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("train", help="train a model on trial CSVs")
    sp.add_argument("--data", required=True, help="directory of trial CSVs")
    sp.add_argument("--out", required=True)
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
    sp.add_argument("--out", required=True)
    sp.add_argument("--split", choices=("train", "val"), default="val")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--target-length", type=int, default=dataset.DEFAULT_TARGET_LENGTH)
    sp.add_argument("--topology")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("rollout", help="closed-loop rollout of a checkpoint on the plant")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--object", required=True,
                    help="true object properties, e.g. heavy,soft,nonslip")
    sp.add_argument("--labels", help="labels fed to the model (defaults to the object's)")
    sp.add_argument("--max-steps", type=int, default=120)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--disturb", help="step:kind:magnitude, e.g. 60:pull_down:2.0")
    sp.add_argument("--stride", type=int, default=1)
    sp.add_argument("--radius", type=float)
    sp.add_argument("--topology")
    sp.add_argument("--plant-config")
    sp.set_defaults(func=cmd_rollout)

    sp = sub.add_parser("pca", help="node-feature PCA map of a trained GCN")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--window", help="start:stop step range (default: final 45 steps)")
    sp.add_argument("--target-length", type=int, default=dataset.DEFAULT_TARGET_LENGTH)
    sp.add_argument("--topology")
    sp.set_defaults(func=cmd_pca)

    sp = sub.add_parser("compare-forces", help="compare grip-force series of two traces")
    sp.add_argument("--trace-a", required=True)
    sp.add_argument("--trace-b", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_compare_forces)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, NotADirectoryError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NonFiniteError as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
