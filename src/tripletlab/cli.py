"""Command-line surface: data generation, field simulation, trajectory
rollout, training, and diagram export.

Every command resolves relative output paths against $TRIPLETLAB_OUT
(default: the working directory), writes its artifacts (each CSV from whole
columns through ``synthdata.write_table``) plus a JSON run manifest that
records its flag values exactly and the sha256 of each artifact, and is
byte-deterministic given its flags. ``tripletlab rerun <manifest>``
re-executes a recorded run next to the manifest and reports every
artifact: ok, MISMATCH, MISSING (recorded, not written) or UNRECORDED
(written, not recorded); any but ok exits 2 and keeps the manifest.

Exit codes: 0 success; 1 any invalid flag value, seed and class count too,
and an output prefix (``--out`` less ``.csv``) ending in "", . or ..;
2 an unreadable, malformed or non-finite input file or manifest, a
dataset of fewer than two rows, a train dataset with a one-member class,
or an unwritable output location; 3 a zero or overflowing row,
divergence, an overflowing SGD update or epoch mean loss, a non-finite
field or trajectory step, or overflowing generated data. A refusal
writes no manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .dynamics import StepParams, step, trajectory, vector_field
from .evaluation import diagram_extract
from .geometry import DegenerateVectorError, TripletCoord, unit_rows
from .losses import LossKind, LossSpec, is_hard
from .mining import Batch, MiningStrategy
from .svg import diagram_scatter, field_quiver, line_chart, trajectory_path
from .synthdata import (
    FLOAT_FMT,
    DatasetConfig,
    DatasetParseError,
    generate,
    load,
    read_table,
    save,
    write_table,
)
from .trainer import GradMode, ModelParams, TrainConfig, embed, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

OUT_DIR_ENV = "TRIPLETLAB_OUT"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _basenames(cfg: dict) -> dict:
    """The config with its output paths cut to names next to the manifest."""
    return {k: (Path(v).name if k in ("out", "out_prefix") else v)
            for k, v in cfg.items()}


def _triplet_columns(t) -> list[np.ndarray]:
    return [t.anchor, t.positive, t.negative, t.s_ap, t.s_an]


class _Artifacts:
    """The files of one run, named from its output prefix.

    Relative outputs resolve against out_base and inputs against in_base
    (absolute ones stay). The prefix splits once into ``dir`` and ``name``:
    each artifact is ``dir/<name><suffix>``, listed in the manifest under
    its key in the order added. A prefix ending in "", . or .. is refused.
    """

    def __init__(self, out_base: Path, in_base: Path, prefix: str):
        if os.path.basename(prefix) in ("", ".", ".."):
            raise ValueError(f"output prefix {prefix!r} ends in no file name")
        self.dir = out_base / Path(prefix).parent
        self.name = Path(prefix).name
        self.in_base = in_base
        self.outputs: dict[str, str] = {}

    def path(self, key: str, suffix: str) -> Path:
        """List an artifact and return where to write it."""
        self.outputs[key] = self.name + suffix
        self.dir.mkdir(parents=True, exist_ok=True)
        return self.dir / (self.name + suffix)

    def manifest(self, command: str, cfg: dict, summary: str) -> dict:
        """Record the command, its flag values exactly as given, and each
        artifact's checksum; print ``<summary> <manifest path>`` and
        return the checksums by name.

        Output names are stored relative to the manifest's own directory
        and the stored config carries basename prefixes, so a manifest
        plus its sibling files is a relocatable, re-runnable unit and a
        rerun rewrites the manifest byte-identically.
        """
        path = self.dir / f"{self.name}.manifest.json"
        checksums = {name: _sha256(self.dir / name)
                     for name in self.outputs.values()}
        path.write_text(json.dumps({
            "command": command,
            "config": _basenames(cfg),
            "seed": cfg.get("seed"),
            "outputs": self.outputs,
            "checksums": checksums,
        }, indent=2) + "\n")
        print(f"{summary} {path}")
        return checksums


# ---------------------------------------------------------------- commands
# Each runner writes its artifacts at ``arts.path`` and returns the start
# of its summary line; ``_execute`` then writes the manifest.


def run_gen_data(cfg: dict, arts: _Artifacts) -> str:
    ds = generate(DatasetConfig(
        cfg["classes"], cfg["per_class"], cfg["dim"], cfg["spread"],
        seed=cfg["seed"],
    ))
    path = arts.path("dataset", Path(cfg["out"]).name[len(arts.name):])
    save(ds, path)
    return f"wrote {path} ({len(ds)} rows) and"


def _step_params(cfg: dict) -> StepParams:
    return StepParams(
        learning_rate=cfg["beta_scale"],
        gamma=cfg["gamma"],
        entanglement_p=cfg["p"],
        loss=LossSpec(kind=LossKind(cfg["loss"]), margin=cfg["margin"]),
    )


def run_simulate(cfg: dict, arts: _Artifacts) -> str:
    field = vector_field(cfg["resolution"], _step_params(cfg))
    write_table(
        arts.path("field_csv", ".field.csv"),
        ["s_ap", "s_an", "d_sap", "d_san", "d_sap_total", "d_san_total"],
        [field.s_ap, field.s_an, field.d_sap, field.d_san,
         field.d_sap_total, field.d_san_total],
    )
    arts.path("field_svg", ".field.svg").write_text(field_quiver(
        field.s_ap, field.s_an, field.d_sap_total, field.d_san_total,
        f"{cfg['loss']} field (p={cfg['p']:g}, gamma={cfg['gamma']:g}, "
        f"beta_scale={cfg['beta_scale']:g})",
    ))
    return f"wrote {len(field)} cells under {arts.dir / arts.name}.* and"


def run_trajectory(cfg: dict, arts: _Artifacts) -> str:
    params = _step_params(cfg)
    start = TripletCoord(cfg["start_sap"], cfg["start_san"])
    points = np.array(trajectory(start, params, cfg["steps"]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        upd = step(TripletCoord(*points.T), params)
    if not np.isfinite([upd.d_sap_total, upd.d_san_total]).all():
        raise DegenerateVectorError("the step from the trajectory's last "
                                    "point is not finite")
    write_table(arts.path("trajectory_csv", ".trajectory.csv"),
                ["s_ap", "s_an", "d_sap", "d_san"],
                [*points.T, upd.d_sap_total, upd.d_san_total])
    arts.path("trajectory_svg", ".trajectory.svg").write_text(trajectory_path(
        *points.T,
        f"{cfg['loss']} trajectory from "
        f"({cfg['start_sap']:g}, {cfg['start_san']:g})",
    ))
    return f"rolled {cfg['steps']} steps; wrote"


def run_train(cfg: dict, arts: _Artifacts) -> str:
    config = TrainConfig(
        loss=LossSpec(
            kind=LossKind(cfg["loss"]), lam=cfg["lam"], margin=cfg["margin"]
        ),
        strategy=MiningStrategy(cfg["miner"]),
        grad_mode=GradMode(cfg["grad_mode"]),
        learning_rate=cfg["lr"],
        epochs=cfg["epochs"],
        classes_per_batch=cfg["classes_per_batch"],
        embed_dim=cfg["embed_dim"],
        seed=cfg["seed"],
        snapshot_every=cfg["snapshot_every"],
        batches_per_epoch=cfg["batches_per_epoch"],
    )
    params, logs = train(load(arts.in_base / cfg["data"]), config)
    columns = ["epoch", "mean_loss", "hard_fraction", "recall_at_1",
               "collapse"]
    records = [{"epoch": log.epoch} | {c: float(FLOAT_FMT % getattr(log, c))
                                       for c in columns[1:]} for log in logs]
    arts.path("epochs_json", ".epochs.json").write_text(
        json.dumps(records, indent=2) + "\n")
    write_table(arts.path("epochs_csv", ".epochs.csv"), columns,
                [np.array([r[c] for r in records]) for c in columns])
    write_table(arts.path("weights_csv", ".weights.csv"),
                [f"w{j}" for j in range(params.embed_dim)], params.weight.T)
    arts.path("curves_svg", ".curves.svg").write_text(line_chart(
        [
            ("recall@1", [log.recall_at_1 for log in logs]),
            ("hard_fraction", [log.hard_fraction for log in logs]),
        ],
        f"{cfg['loss']}+{cfg['miner']} (lr={cfg['lr']:g}, "
        f"seed={cfg['seed']})",
    ))
    for log in logs:
        if log.snapshot is not None:
            write_table(arts.path(f"snap_{log.epoch:04d}",
                                  f".snap{log.epoch:04d}.csv"),
                        ["anchor", "positive", "negative", "s_ap", "s_an"],
                        _triplet_columns(log.snapshot))
    final = logs[-1]
    return (
        f"trained {cfg['epochs']} epochs: recall@1={final.recall_at_1:.4f} "
        f"hard_fraction={final.hard_fraction:.4f} "
        f"collapse={final.collapse:.4f}; wrote"
    )


def run_diagram(cfg: dict, arts: _Artifacts) -> str:
    dataset = load(arts.in_base / cfg["data"])
    if cfg["weights"] is not None:
        params = ModelParams(read_table(arts.in_base / cfg["weights"])[2])
        if params.input_dim != dataset.dim:
            raise DatasetParseError(
                f"weights expect input_dim {params.input_dim}, "
                f"dataset has {dataset.dim}"
            )
        feats, _ = embed(params, dataset.points)
    else:
        feats, _ = unit_rows(dataset.points)
    triplets = diagram_extract(Batch(embeddings=feats, labels=dataset.labels))
    hard = is_hard(triplets)
    write_table(arts.path("diagram_csv", ".diagram.csv"),
                ["anchor", "positive", "negative", "s_ap", "s_an", "hard"],
                _triplet_columns(triplets) + [hard])
    arts.path("diagram_svg", ".diagram.svg").write_text(diagram_scatter(
        triplets.s_ap, triplets.s_an, hard,
        "easiest-positive / hardest-negative diagram",
    ))
    return (f"extracted {len(triplets)} diagram points "
            f"({np.count_nonzero(hard)} hard); wrote")


def _execute(commands: dict, command: str, cfg: dict, out_base: Path,
             in_base: Path) -> dict:
    """Run one command, then write its manifest and summary line; return
    the checksum of each artifact it wrote, by name."""
    run = commands[command].get_default("run")
    prefix = (cfg["out_prefix"] if "out_prefix" in cfg
              else cfg["out"].removesuffix(".csv"))
    arts = _Artifacts(out_base, in_base, prefix)
    return arts.manifest(command, cfg, run(cfg, arts))


def _flag_accepts(action: argparse.Action, value) -> bool:
    """Whether a manifest value is one the flag's parser could produce."""
    if value is None:
        return action.default is None and not action.required
    kinds = {int: int, float: (int, float)}.get(action.type, str)
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and (action.choices is None or value in action.choices))


def run_rerun(manifest_path: Path, commands: dict) -> int:
    """Re-execute a manifest's run next to it, compare what it wrote with
    what the manifest recorded name by name, and keep a diverged manifest."""
    try:
        raw = manifest_path.read_bytes()
        manifest = json.loads(raw.decode())
        command = manifest["command"]
        cfg = _basenames(dict(manifest["config"]))
        recorded = dict(manifest["checksums"])
        if command not in commands:
            raise ValueError(f"unknown command {command!r}")
        flags = commands[command].flags
        if set(cfg) != set(flags):
            raise ValueError(f"config keys {sorted(cfg)} do not match "
                             f"{command}'s flags")
        for key, value in cfg.items():
            if not _flag_accepts(flags[key], value):
                raise ValueError(f"config {key}={value!r} is not a valid "
                                 f"{flags[key].option_strings[0]} value")
    except (KeyError, TypeError) as exc:
        raise ValueError(exc) from exc
    base = manifest_path.parent
    # outputs land next to the manifest; inputs resolve relative to it too
    written = _execute(commands, command, cfg, base, base)
    diverged = 0
    for name in sorted(written.keys() | recorded.keys()):
        status = ("UNRECORDED" if name not in recorded
                  else "MISSING" if name not in written
                  else "ok" if written[name] == recorded[name]
                  else "MISMATCH")
        diverged += status != "ok"
        print(f"  {name}: {status}")
    if diverged:
        manifest_path.write_bytes(raw)
        print(f"rerun: {diverged} artifact(s) diverged")
        return EXIT_DATA
    print("rerun: all checksums match")
    return EXIT_OK


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """argparse with the package's exit-code contract (usage errors: 1).

    ``flags`` maps the destination of each flag added to this parser to
    its action, in order: a command's manifest config is exactly these
    keys.
    ``commands`` maps each command that writes a manifest to its parser,
    whose default ``run`` is the function that executes it.
    """

    def __init__(self, *args, **kwargs):
        self.flags: dict[str, argparse.Action] = {}
        self.commands: dict[str, _Parser] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.dest != "help":
            self.flags[action.dest] = action
        return action

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="tripletlab",
        description=(
            "Triplet-loss geometry lab: synthetic sphere data, diagram "
            "dynamics, mining, training, and retrieval evaluation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> _Parser:
        p = parser.commands[name] = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    p = command("gen-data", run_gen_data, "generate a labeled sphere dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--spread", type=float, required=True,
                   help="noise magnitude relative to the unit class center")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")

    p = command("simulate", run_simulate, "vector field over the diagram")
    p.add_argument("--loss", choices=["nca", "margin"], default="nca")
    p.add_argument("--p", type=float, default=0.0,
                   help="entanglement strength")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--beta-scale", type=float, default=0.05,
                   help="step size (beta = scale*sigma for nca, 2*scale "
                        "for margin)")
    p.add_argument("--resolution", type=int, default=41)
    p.add_argument("--margin", type=float, default=0.2)
    p.add_argument("--out-prefix", required=True)

    p = command("trajectory", run_trajectory, "multi-step diagram rollout")
    p.add_argument("--loss", choices=["nca", "margin"], default="nca")
    p.add_argument("--start-sap", type=float, required=True)
    p.add_argument("--start-san", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--beta-scale", type=float, default=0.1)
    p.add_argument("--margin", type=float, default=0.2)
    p.add_argument("--out-prefix", required=True)

    p = command("train", run_train, "train the linear embedding")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--loss", choices=["nca", "margin", "sct"], default="nca")
    p.add_argument("--miner",
                   choices=["random", "hn", "shn", "ep", "ephn"],
                   default="hn")
    p.add_argument("--grad-mode", choices=["post", "through"],
                   default="through")
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--classes-per-batch", type=int, default=8)
    p.add_argument("--embed-dim", type=int, default=8)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="selective-loss contrastive weight")
    p.add_argument("--margin", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--snapshot-every", type=int, default=10)
    p.add_argument("--batches-per-epoch", type=int, default=None,
                   help="default: one pass over the data")
    p.add_argument("--out-prefix", required=True)

    p = command("diagram", run_diagram,
                "easiest-positive/hardest-negative diagram")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--weights", default=None,
                   help="trained weights CSV (default: raw points)")
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("rerun", help="re-execute a manifest and verify")
    p.add_argument("manifest", help="path to a run manifest JSON")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "rerun":
            return run_rerun(Path(args.manifest), parser.commands)
        keys = parser.commands[args.command].flags
        cfg = {key: getattr(args, key) for key in keys}
        _execute(parser.commands, args.command, cfg,
                 Path(os.environ.get(OUT_DIR_ENV, ".")), Path("."))
        return EXIT_OK
    except (DatasetParseError, OSError) as exc:
        kind, code, error = "data", EXIT_DATA, exc
    except DegenerateVectorError as exc:
        kind, code, error = "numeric", EXIT_NUMERIC, exc
    except ValueError as exc:
        # every other refusal is an invalid flag value: bounds, seed and
        # class count; under rerun, the manifest recorded that value
        kind, code, error = "usage", EXIT_USAGE, exc
        if args.command == "rerun":
            kind, code = "data", EXIT_DATA
            error = f"{args.manifest}: malformed manifest ({exc})"
    print(f"tripletlab: {kind} error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
