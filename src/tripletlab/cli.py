"""Command-line surface: data generation, field simulation, trajectory
rollout, training, and diagram export.

Every command resolves relative output paths against $TRIPLETLAB_OUT
(default: the working directory), writes its artifacts (each CSV from whole
columns through ``synthdata.write_table``) plus a JSON run manifest with
sha256 checksums, and is byte-deterministic given its flags.
``tripletlab rerun <manifest>`` re-executes a recorded run next to the
manifest and verifies the checksums still match.

Exit codes: 0 success; 1 any invalid flag value, seed and class count too;
2 an unreadable, malformed or non-finite input file or manifest; 3 a zero
vector, divergence, an overflowing epoch mean loss, a non-finite field or
trajectory step, or generated data that overflows. A refusal writes no
manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import StepParams, step, trajectory, vector_field
from .evaluation import diagram_extract
from .geometry import DegenerateVectorError, TripletCoord
from .losses import LossKind, LossSpec, is_hard
from .mining import Batch, MiningStrategy, NoNegativesError
from .svg import diagram_scatter, field_quiver, line_chart, trajectory_path
from .synthdata import (
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


@dataclass(frozen=True)
class PathContext:
    """Where relative outputs and inputs resolve to (absolute ones stay)."""

    out_base: Path
    in_base: Path


def _round12(obj):
    """Round floats to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_round12(obj), indent=2) + "\n"


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

    Each artifact is ``<prefix><suffix>`` and is listed in the manifest
    under its key, in the order it was added.
    """

    def __init__(self, ctx: PathContext, prefix: str):
        self.ctx = ctx
        self.prefix = prefix
        self.outputs: dict[str, str] = {}

    def path(self, key: str, suffix: str) -> Path:
        """List an artifact and return where to write it."""
        self.outputs[key] = Path(self.prefix).name + suffix
        path = self.ctx.out_base / (self.prefix + suffix)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    def csv(self, key: str, suffix: str, header: list[str], columns) -> None:
        write_table(self.path(key, suffix), header, columns)

    def text(self, key: str, suffix: str, text: str) -> None:
        self.path(key, suffix).write_text(text)

    def manifest(self, command: str, cfg: dict, summary: str) -> None:
        """Record command, resolved config, and artifact checksums, then
        print ``<summary> <manifest path>``.

        Output names are stored relative to the manifest's own directory
        and the stored config carries basename prefixes, so a manifest
        plus its sibling files is a relocatable, re-runnable unit and a
        rerun rewrites the manifest byte-identically.
        """
        path = self.ctx.out_base / f"{self.prefix}.manifest.json"
        checksums = {
            name: _sha256(path.parent / name) for name in self.outputs.values()
        }
        path.write_text(_json_text({
            "command": command,
            "config": _basenames(cfg),
            "seed": cfg.get("seed"),
            "outputs": self.outputs,
            "checksums": checksums,
        }))
        print(f"{summary} {path}")


# ---------------------------------------------------------------- commands
# Each runner writes its artifacts through ``arts`` and returns the start
# of its summary line; ``_execute`` then writes the manifest.


def run_gen_data(cfg: dict, arts: _Artifacts) -> str:
    ds = generate(DatasetConfig(
        cfg["classes"], cfg["per_class"], cfg["dim"], cfg["spread"],
        seed=cfg["seed"],
    ))
    path = arts.path("dataset", cfg["out"][len(arts.prefix):])
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
    arts.csv(
        "field_csv", ".field.csv",
        ["s_ap", "s_an", "d_sap", "d_san", "d_sap_total", "d_san_total"],
        [field.s_ap, field.s_an, field.d_sap, field.d_san,
         field.d_sap_total, field.d_san_total],
    )
    arts.text(
        "field_svg", ".field.svg",
        field_quiver(
            field.s_ap, field.s_an, field.d_sap_total, field.d_san_total,
            f"{cfg['loss']} field (p={cfg['p']:g}, gamma={cfg['gamma']:g}, "
            f"beta_scale={cfg['beta_scale']:g})",
        ),
    )
    return (f"wrote {len(field)} cells under "
            f"{arts.ctx.out_base / arts.prefix}.* and")


def run_trajectory(cfg: dict, arts: _Artifacts) -> str:
    params = _step_params(cfg)
    start = TripletCoord(cfg["start_sap"], cfg["start_san"])
    points = np.array(trajectory(start, params, cfg["steps"]))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        upd = step(TripletCoord(*points.T), params)
    if not np.isfinite([upd.d_sap_total, upd.d_san_total]).all():
        raise DegenerateVectorError("the step from the trajectory's last "
                                    "point is not finite")
    arts.csv("trajectory_csv", ".trajectory.csv",
             ["s_ap", "s_an", "d_sap", "d_san"],
             [*points.T, upd.d_sap_total, upd.d_san_total])
    arts.text(
        "trajectory_svg", ".trajectory.svg",
        trajectory_path(
            points,
            f"{cfg['loss']} trajectory from "
            f"({cfg['start_sap']:g}, {cfg['start_san']:g})",
        ),
    )
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
    params, logs = train(load(arts.ctx.in_base / cfg["data"]), config)
    columns = ["epoch", "mean_loss", "hard_fraction", "recall_at_1",
               "collapse"]
    records = [{c: getattr(log, c) for c in columns} for log in logs]
    arts.text("epochs_json", ".epochs.json", _json_text(records))
    arts.csv("epochs_csv", ".epochs.csv", columns,
             [np.array([r[c] for r in records]) for c in columns])
    arts.csv("weights_csv", ".weights.csv",
             [f"w{j}" for j in range(params.embed_dim)], params.weight.T)
    arts.text(
        "curves_svg", ".curves.svg",
        line_chart(
            [
                ("recall@1", [log.recall_at_1 for log in logs]),
                ("hard_fraction", [log.hard_fraction for log in logs]),
            ],
            f"{cfg['loss']}+{cfg['miner']} (lr={cfg['lr']:g}, "
            f"seed={cfg['seed']})",
        ),
    )
    for log in logs:
        if log.snapshot is not None:
            arts.csv(f"snap_{log.epoch:04d}", f".snap{log.epoch:04d}.csv",
                     ["anchor", "positive", "negative", "s_ap", "s_an"],
                     _triplet_columns(log.snapshot))
    final = logs[-1]
    return (
        f"trained {cfg['epochs']} epochs: recall@1={final.recall_at_1:.4f} "
        f"hard_fraction={final.hard_fraction:.4f} "
        f"collapse={final.collapse:.4f}; wrote"
    )


def run_diagram(cfg: dict, arts: _Artifacts) -> str:
    dataset = load(arts.ctx.in_base / cfg["data"])
    if cfg["weights"] is not None:
        params = ModelParams(read_table(arts.ctx.in_base / cfg["weights"])[2])
        if params.input_dim != dataset.dim:
            raise DatasetParseError(
                f"weights expect input_dim {params.input_dim}, "
                f"dataset has {dataset.dim}"
            )
        feats = embed(params, dataset.points)
    else:
        norms = np.linalg.norm(dataset.points, axis=1, keepdims=True)
        if np.any(norms <= 1e-12):
            raise DegenerateVectorError("dataset contains a zero vector")
        feats = dataset.points / norms
    triplets = diagram_extract(Batch(embeddings=feats, labels=dataset.labels))
    hard = is_hard(triplets)
    arts.csv("diagram_csv", ".diagram.csv",
             ["anchor", "positive", "negative", "s_ap", "s_an", "hard"],
             _triplet_columns(triplets) + [hard])
    arts.text(
        "diagram_svg", ".diagram.svg",
        diagram_scatter(
            np.column_stack([triplets.s_ap, triplets.s_an, hard]),
            "easiest-positive / hardest-negative diagram",
        ),
    )
    return (f"extracted {len(triplets)} diagram points "
            f"({np.count_nonzero(hard)} hard); wrote")


def _execute(commands: dict, command: str, cfg: dict, ctx: PathContext):
    """Run one command, then write its manifest and summary line."""
    run = commands[command].get_default("run")
    if "out_prefix" in cfg:
        arts = _Artifacts(ctx, cfg["out_prefix"])
    else:
        arts = _Artifacts(ctx, cfg["out"].removesuffix(".csv"))
    arts.manifest(command, cfg, run(cfg, arts))


def _flag_accepts(action: argparse.Action, value) -> bool:
    """Whether a manifest value is one the flag's parser could produce."""
    if value is None:
        return action.default is None and not action.required
    kinds = {int: int, float: (int, float)}.get(action.type, str)
    return (isinstance(value, kinds) and not isinstance(value, bool)
            and (action.choices is None or value in action.choices))


def run_rerun(manifest_name: str, ctx: PathContext, commands: dict) -> int:
    manifest_path = ctx.in_base / manifest_name
    try:
        manifest = json.loads(manifest_path.read_text())
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
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetParseError(
            f"{manifest_path}: malformed manifest ({exc})"
        ) from exc
    base = manifest_path.parent
    # outputs land next to the manifest; inputs resolve relative to it too
    _execute(commands, command, cfg, PathContext(base, base))
    mismatched = 0
    for out_name, digest in sorted(recorded.items()):
        ok = _sha256(base / Path(out_name).name) == digest
        mismatched += not ok
        print(f"  {out_name}: {'ok' if ok else 'MISMATCH'}")
    if mismatched:
        print(f"rerun: {mismatched} artifact(s) diverged")
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
    ctx = PathContext(Path(os.environ.get(OUT_DIR_ENV, ".")), Path("."))
    try:
        if args.command == "rerun":
            return run_rerun(args.manifest, ctx, parser.commands)
        keys = parser.commands[args.command].flags
        cfg = {key: getattr(args, key) for key in keys}
        _execute(parser.commands, args.command, cfg, ctx)
        return EXIT_OK
    except (DatasetParseError, NoNegativesError, OSError) as exc:
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
