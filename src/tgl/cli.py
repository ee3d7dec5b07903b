"""Command-line pipeline: topology, gen-data, train, eval, rollout, pca, compare-forces.

Each option is declared once, in `COMMANDS`.  Every run writes its outputs
into --out plus a manifest.json recording the resolved configuration,
seeds, and sha256 hashes of the primary outputs, so identical manifests
imply byte-identical artifacts (wall times live only in metrics.ndjson,
which is not hashed).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from typing import NamedTuple

from . import analysis, dataset, models, plant, topology as topo_mod, training
from .rollout import Disturbance, RolloutConfig, read_trace_forces, rollout as run_rollout, \
    write_trace
from .optim import AdamConfig
from .tensor import NonFiniteError

DEFAULT_TOPOLOGY_FILE = "allegro_uskin_384.json"
SMALL_TOPOLOGY_FILE = "small_hand_24.json"


class Option(NamedTuple):
    """One flag of a subcommand: the parser, a --config file, a train --resume and the run
    manifest all read it, as tyro and SimpleParsing build a command line from one declaration."""
    flag: str
    type: type = str            # int, float or str as parsed and in --config; bool: a switch
    default: object = None      # when neither the flag nor --config gives a value
    help: str | None = None
    key: str | None = ""        # its key in the manifest's config: "" its dest, None not recorded
    config: bool = False        # a --config file may set it, under the flag's name
    least: int | None = None    # the least value the command line takes
    recipe: str | None = None   # its key in a train checkpoint's extra: --resume's default
    path: bool = False          # an input path: recorded absolute when given
    required: bool = False
    choices: tuple | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are validation errors
        raise ValueError(message)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args: argparse.Namespace, outputs: list[str], **derived) -> None:
    """--out's manifest.json: the config (each declared option's value under its key, a path
    made absolute, then the values the run derived, which win) and each output's sha256."""
    config = {}
    for opt in OPTIONS[args.command]:
        value = getattr(args, opt.dest)
        if opt.key is not None:
            config[opt.key or opt.dest] = os.path.abspath(value) if opt.path and value else value
    manifest = {
        "command": args.command,
        "config": config | derived,
        "outputs": {os.path.basename(p): _sha256(p) for p in sorted(outputs)},
    }
    dataset.write_json(os.path.join(args.out, "manifest.json"), manifest, sort_keys=True)


def _out_dir(path: str) -> str:
    """--out, checked as it is parsed: a directory, or a path that is not there yet."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} exists and is not a directory")
    return path


def _refuse_strays(out: str, what: str, suffixes: tuple[str, ...], own) -> None:
    """ValueError naming the files in `out` with these suffixes that `own(name, k)` refuses, k
    the number the name's digits spell or -1: the run's naming rule, tested file by file."""
    stray = sorted(p for p in os.listdir(out) if p.endswith(suffixes)
                   and not own(p, int("".join(filter(str.isdecimal, p)) or -1))) \
        if os.path.isdir(out) else []
    if stray:
        raise ValueError(f"{out} holds {what} this run would not write: {', '.join(stray)}; "
                         "remove them or choose another --out")


def _load_topology(spec: str) -> topo_mod.HandTopology:
    builders = {"default": topo_mod.build_default_hand, "small": topo_mod.build_small_hand}
    return builders[spec]() if spec in builders else topo_mod.load_topology(spec)


def _parse_triple(text: str) -> tuple[bool, bool, bool]:
    """'heavy,soft,slippery' -> property booleans, any order-fixed triple."""
    parts = [p.strip().lower() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"property triple must have 3 parts, got {text!r}")
    table = ({"light": False, "heavy": True},
             {"hard": False, "soft": True},
             {"non-slippery": False, "nonslip": False, "non_slippery": False, "slippery": True})
    for part, options in zip(parts, table):
        if part not in options:
            raise ValueError(f"unknown property {part!r}; expected one of {sorted(options)}")
    return tuple(options[part] for part, options in zip(parts, table))  # type: ignore[return-value]


def _parse_disturbance(text: str) -> Disturbance:
    try:
        step, kind, mag = text.split(":")
        step, mag = int(step), float(mag)
    except ValueError:
        raise ValueError(f"--disturb must look like step:kind:magnitude, got {text!r}") from None
    return Disturbance(step=step, kind=kind, magnitude=mag)


def _read_dataset(data_dir: str, target_length: int) -> dataset.Dataset:
    """Every trial CSV in data_dir, preprocessed to target_length."""
    paths = sorted(p for p in os.listdir(data_dir) if p.endswith(".csv"))
    if not paths:
        raise ValueError(f"no trial CSVs in {data_dir}")
    # each raw trial is dropped once preprocessed, so only one is held at a time
    return dataset.Dataset([dataset.preprocess(dataset.read_trial_csv(os.path.join(data_dir, p)),
                                               target_length) for p in paths], target_length)


# the JSON values a --config key takes, by its option's declared type: an int stands for a
# float as is, and true/false is never a number
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string")}


def _settings(args: argparse.Namespace, defaults: dict | None = None) -> None:
    """Resolve each declared option of the command in args: its flag, else its --config key
    (the file is checked first), else its default (`defaults`, by dest, or the declared one)."""
    options, path = OPTIONS[args.command], getattr(args, "config", None)
    config = {} if path is None else dataset.read_json(path)
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    accepted = sorted(opt.flag[2:] for opt in options if opt.config)
    unknown = sorted(set(config) - set(accepted))
    if unknown:
        raise ValueError(f"config {path} has unknown keys {unknown}; accepted: {accepted}")
    for opt in options:
        value, key = getattr(args, opt.dest), opt.flag[2:]
        if value is None and key in config:
            value = config[key]
            allowed, name = _JSON_TYPES[opt.type]
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"config key {key!r} must be {name}, got {json.dumps(value)}")
            if opt.choices and value not in opt.choices:   # as argparse checks the flag
                raise ValueError(f"config key {key!r} must be one of {list(opt.choices)}, "
                                 f"got {json.dumps(value)}")
        if value is None:
            value = (defaults or {}).get(opt.dest, opt.default)
        if opt.least is not None:
            dataset.at_least(opt.flag, value, opt.least)
        setattr(args, opt.dest, value)


# ---------------------------------------------------------------------------
# subcommands

def cmd_topology(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    topo, name = (topo_mod.build_small_hand(), SMALL_TOPOLOGY_FILE) if args.small \
        else (topo_mod.build_default_hand(), DEFAULT_TOPOLOGY_FILE)
    path = os.path.join(args.out, name)
    topo_mod.save_topology(topo, path)
    _write_manifest(args, [path], nodes=topo.n, edges=len(topo.edges))
    print(f"wrote {path} ({topo.n} nodes, {len(topo.edges)} edges)")
    return 0


def cmd_gen_data(args) -> int:
    _settings(args)
    topo = _load_topology(args.topology)
    # generate_trial holds four [length, nodes, 3] float64 arrays at once: the
    # readings, the noise, the noise masked by contact and their sum
    need = 4 * args.length * topo.n * 3 * 8
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise ValueError(f"--length {args.length} needs about {need / 2**30:,.0f} GiB for one "
                         f"trial, more than this machine's {memory / 2**30:,.1f} GiB of memory")
    pcfg = plant.PlantConfig(sensor_noise=args.noise)
    objects, trials_per = plant.object_catalog()[:args.objects], args.trials_per
    # train, eval and pca read every CSV in a data directory: another run's would join this one
    _refuse_strays(args.out, "trial CSVs", (".csv",), lambda name, k: 0 <= k < trials_per and any(
        name == f"{plant.trial_name(obj, k)}.csv" for obj in objects))
    # each cell of a row but t is a repr(float) of 3 or more characters and a comma or newline,
    # so the CSVs surely take this much: more than is free, with the run's own that they
    # replace, is refused
    need = len(objects) * trials_per * args.length * 4 * (
        dataset.JOINT_DIM + 3 * topo.n + dataset.LABEL_DIM)
    there = os.path.abspath(args.out)
    while not os.path.exists(there):
        there = os.path.dirname(there)
    own = os.listdir(there) if there == os.path.abspath(args.out) else []
    free = shutil.disk_usage(there).free + sum(os.path.getsize(os.path.join(there, p))
                                               for p in own if p.endswith(".csv"))
    if need > free:
        raise ValueError(f"--out {args.out}: the trial CSVs need at least {need / 2**30:,.1f} "
                         f"GiB, more than the {free / 2**30:,.1f} GiB free on {there}")
    os.makedirs(args.out, exist_ok=True)
    paths = []
    for trial in plant.generate_dataset_trials(topo, objects, trials_per, args.seed, args.length,
                                               pcfg):
        paths.append(os.path.join(args.out, f"{trial.object_name}.csv"))
        dataset.write_trial_csv(trial, paths[-1])
    _write_manifest(args, paths)   # its config, fed back as --config, reruns the run
    print(f"wrote {len(paths)} trial CSVs to {args.out}")
    return 0


def _spec(model: str | None, conv: str | None, fc: str | None) -> models.ModelSpec:
    if conv is None and fc is None:
        return models.model_spec(model)
    if fc is None:
        raise ValueError("--conv requires --fc")
    sizes = []
    for flag, text in (("--conv", conv or ""), ("--fc", fc)):
        try:
            sizes.append(tuple(int(x) for x in text.split(",") if x))
        except ValueError:
            raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None
    return models.ModelSpec("GCN" if sizes[0] else "MLP", *sizes)


def cmd_train(args) -> int:
    resume = training.resume_point(args.resume) if args.resume else None
    recipe = [opt for opt in OPTIONS["train"] if opt.recipe]
    # the checkpoint's recipe is the run's; None stands for its model and graph
    _settings(args, {opt.dest: resume.extra[opt.recipe] for opt in recipe}
              | {"model": None, "topology": None} if resume else None)
    if not resume:
        spec, topo = _spec(args.model, args.conv, args.fc), _load_topology(args.topology)
    else:   # only a flag or --config value can differ from the checkpoint
        spec, topo, where = resume.spec, resume.topology, f"--resume {args.resume}: checkpoint"
        for opt in recipe:
            theirs, ours, key = resume.extra[opt.recipe], getattr(args, opt.dest), opt.flag[2:]
            if ours != theirs:
                raise ValueError(f"{where} {key} {theirs} is not the run's {key} {ours}")
        if (args.model or args.conv or args.fc) and _spec(args.model, args.conv, args.fc) != spec:
            raise ValueError(f"{where} model {spec} is not the run's --model/--conv/--fc")
        if args.topology and _load_topology(args.topology) != topo:
            raise ValueError(f"{where} 'topology' is not the graph of --topology {args.topology}")
    cfg = training.TrainConfig(batch_size=args.batch_size, epochs=args.epochs,
                               adam=AdamConfig(learning_rate=args.lr), seed=args.seed,
                               checkpoint_every=args.checkpoint_every, spec=spec)
    if not resume:   # another run's checkpoints would pass for this one's
        every = cfg.checkpoint_every
        saved = range(every, cfg.epochs + 1, every) if every else ()  # k in saved tests, lists none
        _refuse_strays(args.out, "checkpoint files", (".ckpt.json", ".ckpt.bin"), lambda name, k:
                       name.rsplit(".ckpt.", 1)[0] in ("best", "final")
                       or k in saved and name.rsplit(".ckpt.", 1)[0] == f"epoch{k:06d}")
    ds = _read_dataset(args.data, args.target_length)
    # fit_pairs creates --out once the run is set up
    report = training.train(ds, cfg, topo, out_dir=args.out, resume_from=resume)
    outputs = [p for base in (report.final_checkpoint, report.best_checkpoint) if base
               for p in (base, models.checkpoint_blob(base))]
    _write_manifest(args, sorted(set(outputs)))
    print(f"trained {report.epochs_run} epochs; final train loss "
          f"{report.train_losses[-1]:.6g}, best val {report.best_val:.6g}")
    return 0


def cmd_eval(args) -> int:
    man = training.resume_point(args.ckpt)   # the pairs training split and validated on
    seed, target_length = man.extra["train_seed"], man.extra["target_length"]
    ds = _read_dataset(args.data, target_length)
    train_set, val_set = dataset.split(ds, seed)
    pairs = train_set if args.split == "train" else val_set
    loss = training.mean_loss(man.weights(), pairs)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "eval.json")
    dataset.write_json(path, {"split": args.split, "pairs": len(pairs), "mse": loss})
    _write_manifest(args, [path], seed=seed, target_length=target_length)
    print(f"{args.split} MSE over {len(pairs)} pairs: {loss:.6g}")
    return 0


def cmd_rollout(args) -> int:
    _settings(args)   # no --config here: it holds --seed to its least
    heavy, soft, slippery = _parse_triple(args.object)
    obj = plant.make_object(heavy, soft, slippery, radius=args.radius)
    labels = dataset.encode_labels(*_parse_triple(args.labels)) if args.labels \
        else obj.labels
    cfg = RolloutConfig(
        max_steps=args.max_steps, labels=labels,
        disturbance=_parse_disturbance(args.disturb) if args.disturb else None,
        command_stride=args.stride)
    params, _ = models.load_checkpoint(args.ckpt, weights_only=True)
    pl = plant.make_plant(params.topology, obj)
    trace = run_rollout(params, pl, cfg, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "trace.csv")
    sidecar = write_trace(trace, csv_path)
    _write_manifest(args, [csv_path, sidecar], labels=labels.tolist())
    v = trace.verdict
    print(f"rollout {'succeeded' if v.success else 'failed'}: "
          f"distance {v.final_distance:.3f}, tilt {v.final_angle:.2f}")
    return 0


def cmd_pca(args) -> int:
    if args.window:
        try:
            start, stop = (int(x) for x in args.window.split(":"))
        except ValueError:
            raise ValueError(f"--window must look like start:stop, got {args.window!r}") from None
        if not 0 <= start < stop:
            raise ValueError(f"--window needs 0 <= start < stop, got {args.window!r}")
    man = training.resume_point(args.ckpt)
    if man.spec.kind != "GCN":
        raise ValueError(f"pca maps a GCN's node features; {args.ckpt} holds an {man.spec.kind}")
    target_length = man.extra["target_length"]
    if not args.window:
        start, stop = max(0, target_length - 45), target_length
    elif stop > target_length:
        raise ValueError(f"--window {args.window} ends past the checkpoint's target length "
                         f"{target_length}")
    ds = _read_dataset(args.data, target_length)
    stack = analysis.extract_node_features(man.weights(), man.topology, ds.trials, (start, stop))
    report = analysis.pca_node_map(stack)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "node_map.csv")
    svg_path = os.path.join(args.out, "node_map.svg")
    json_path = os.path.join(args.out, "cluster_report.json")
    analysis.write_node_map_csv(report, csv_path)
    analysis.write_node_map_svg(report, svg_path)
    analysis.write_cluster_report_json(report, json_path)
    _write_manifest(args, [csv_path, svg_path, json_path], window=[start, stop],
                    target_length=target_length)
    sil = "undefined" if report.silhouette is None else f"{report.silhouette:.4f}"
    print(f"node map over {stack.features.shape[1]} feature dims; silhouette {sil}")
    return 0


def cmd_compare_forces(args) -> int:
    cmp = analysis.compare_force_traces(read_trace_forces(args.trace_a),
                                        read_trace_forces(args.trace_b))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "force_comparison.json")
    dataset.write_json(path, {"fraction_b_higher": cmp.fraction_b_higher,
                              "mean_final_quarter_a": cmp.mean_final_quarter_a,
                              "mean_final_quarter_b": cmp.mean_final_quarter_b,
                              "steps": int(cmp.differences.shape[0])})
    _write_manifest(args, [path])
    print(f"fraction b>a: {cmp.fraction_b_higher:.3f}; final-quarter means "
          f"{cmp.mean_final_quarter_a:.4f} vs {cmp.mean_final_quarter_b:.4f}")
    return 0


# ---------------------------------------------------------------------------
# the command line: each subcommand, and each of its options once

_TRAIN = training.TrainConfig()   # train's defaults
_CKPT = Option("--ckpt", path=True, required=True)
_DATA = Option("--data", help="directory of trial CSVs", path=True, required=True)

COMMANDS = {   # name: (function, help, options)
    "topology": (cmd_topology, "write a sensor-graph JSON (the 384-node hand by default)", [
        Option("--small", bool, False, "24-node desk-scale hand")]),
    "gen-data": (cmd_gen_data, "generate synthetic trial CSVs", [   # keyed as --config is,
        # its manifest's config reruns the run
        Option("--objects", int, 8, "number of object property combos", config=True,
               choices=tuple(range(1, len(plant.object_catalog()) + 1))),
        Option("--trials-per", int, 10, "trials per object", key="trials-per", config=True,
               least=1),
        Option("--seed", int, 7, config=True, least=0),
        Option("--length", int, 700, "raw trial length before preprocessing", config=True,
               least=plant.MIN_TRIAL_LENGTH),
        Option("--topology", str, "default", "default | small | path to topology JSON",
               config=True),
        Option("--noise", float, plant.PlantConfig().sensor_noise,
               "per-node tactile noise std while in contact", config=True)]),
    "train": (cmd_train, "train a model on trial CSVs", [
        _DATA,
        Option("--model", str, "III", config=True, choices=tuple(sorted(models.MODEL_TABLE))),
        Option("--conv", help="custom conv widths, e.g. 8,16,24 (overrides --model)"),
        Option("--fc", help="custom hidden fc widths, e.g. 64,32"),
        Option("--epochs", int, _TRAIN.epochs, config=True),
        Option("--batch-size", int, _TRAIN.batch_size, config=True, least=1,
               recipe="batch_size"),
        Option("--lr", float, _TRAIN.adam.learning_rate, config=True, recipe="lr"),
        Option("--seed", int, _TRAIN.seed, config=True, least=0, recipe="train_seed"),
        Option("--target-length", int, dataset.DEFAULT_TARGET_LENGTH, config=True,
               least=training.LEAST_TARGET_LENGTH, recipe="target_length"),
        Option("--topology", str, "default", config=True),
        Option("--resume", help="checkpoint manifest to continue from", path=True),
        Option("--checkpoint-every", int, _TRAIN.checkpoint_every, key=None)]),
    "eval": (cmd_eval, "mean MSE of a checkpoint over a data split", [
        _CKPT, _DATA, Option("--split", str, "val", choices=("train", "val"))]),
    "rollout": (cmd_rollout, "closed-loop rollout of a checkpoint on the plant", [
        _CKPT,
        Option("--object", help="true object properties, e.g. heavy,soft,nonslip",
               required=True),
        Option("--labels", help="labels fed to the model (defaults to the object's)"),
        Option("--max-steps", int, 120, least=1),
        Option("--seed", int, 0, least=0),
        Option("--disturb", help="step:kind:magnitude, e.g. 60:pull_down:2.0"),
        Option("--stride", int, 1, least=1),
        Option("--radius", float)]),
    "pca": (cmd_pca, "node-feature PCA map of a trained GCN", [
        _CKPT, _DATA, Option("--window", help="start:stop step range (default: final 45 steps)")]),
    "compare-forces": (cmd_compare_forces, "compare grip-force series of two traces", [
        Option("--trace-a", path=True, required=True),
        Option("--trace-b", path=True, required=True)]),
}
OPTIONS = {command: options for command, (_, _, options) in COMMANDS.items()}


def build_parser() -> _Parser:
    p = _Parser(prog="tgl", description="tactile graph-learning pipeline")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (func, text, options) in COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        if any(opt.config for opt in options):
            sp.add_argument("--config", help="JSON config supplying defaults for the flags")
        for opt in options:   # what --config may set is resolved once the file is read
            sp.add_argument(opt.flag, help=opt.help, required=opt.required,
                            default=None if opt.config else opt.default,
                            **{"action": "store_true"} if opt.type is bool
                            else {"type": opt.type, "choices": opt.choices})
        sp.add_argument("--out", required=True, type=_out_dir)   # where every command writes
        sp.set_defaults(func=func)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, FileNotFoundError, NotADirectoryError, IsADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (NonFiniteError, OSError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
