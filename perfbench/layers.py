"""The per-layer split: where each layer is wrapped and what it counts.

The layers are the package modules. Every public function a workload
reaches is wrapped at the name its caller looks up (see tracer.py); the
span names the module that defines it. Counts come from arguments and
return values only, so they repeat exactly from run to run.
"""

from __future__ import annotations

from tracer import Site, arg
from workloads import SWEEP_MARGINS, Rep


def _mine_counts(counts, args, kwargs, result):
    strategy = arg(args, kwargs, 1, "strategy")
    counts["mining.triplets"] += len(result)
    counts["mining.hard"] += sum(t.coord.s_an > t.coord.s_ap for t in result)
    if strategy == "shn":  # MiningStrategy is a str enum
        counts["mining.shn_triplets"] += len(result)
        counts["mining.shn_fallbacks"] += sum(
            t.coord.s_an >= t.coord.s_ap for t in result
        )


def _loss_counts(counts, args, kwargs, result):
    coord = arg(args, kwargs, 0, "coord")
    spec = arg(args, kwargs, 1, "spec")
    if spec.kind == "sct":
        counts["losses.sct_calls"] += 1
        counts["losses.sct_hard"] += coord.s_an > coord.s_ap


def _recall_counts(counts, args, kwargs, result):
    queries = arg(args, kwargs, 0, "queries")
    gallery = arg(args, kwargs, 1, "gallery")
    counts["evaluation.recall_queries"] += result.num_queries
    counts["evaluation.sim_bytes"] = max(
        counts["evaluation.sim_bytes"], len(queries) * len(gallery) * 8
    )


def _save_rows(counts, args, kwargs, result):
    counts["synthdata.rows"] += len(arg(args, kwargs, 0, "ds"))


def _load_rows(counts, args, kwargs, result):
    counts["synthdata.rows"] += len(result)


def _svg_bytes(counts, args, kwargs, result):
    counts["svg.bytes"] += len(result.encode("utf-8"))


def _cells(counts, args, kwargs, result):
    counts["dynamics.cells"] += len(result)


def _traj_steps(counts, args, kwargs, result):
    counts["dynamics.traj_steps"] += arg(args, kwargs, 2, "steps")


def _hashed(counts, args, kwargs, result):
    counts["cli.bytes_hashed"] += len(args[0]) if args else 0


def trace_sites() -> list[Site]:
    """Every public function a workload reaches, at its caller's name."""
    T, C = "tripletlab.trainer", "tripletlab.cli"
    return [
        Site(T, "train", "trainer.train"),
        Site(T, "_sample_batch", "trainer.sample_batch"),
        Site(T, "embed", "trainer.embed"),
        Site(T, "backward", "trainer.backward"),
        Site(T, "ModelParams", "trainer.update"),
        Site(T, "mine", "mining.mine", _mine_counts),
        Site(T, "loss_value", "losses.loss_value", _loss_counts),
        Site(T, "feature_grads", "losses.feature_grads"),
        Site(T, "TripletFeatures", "geometry.triplet_features"),
        Site(T, "recall_at_k", "evaluation.recall_at_k", _recall_counts),
        Site(T, "collapse_metric", "evaluation.collapse_metric"),
        Site("tripletlab.evaluation", "recall_at_k",
             "evaluation.recall_at_k", _recall_counts),
        Site("tripletlab.evaluation", "collapse_metric",
             "evaluation.collapse_metric"),
        Site("tripletlab.dynamics", "trajectory", "dynamics.trajectory",
             _traj_steps),
        Site(C, "main", "cli.main"),
        Site(C, "generate", "synthdata.generate"),
        Site(C, "save", "synthdata.save", _save_rows),
        Site(C, "load", "synthdata.load", _load_rows),
        Site(C, "diagram_extract", "evaluation.diagram_extract"),
        Site(C, "vector_field", "dynamics.vector_field", _cells),
        Site(C, "trajectory", "dynamics.trajectory", _traj_steps),
        Site(C, "step", "dynamics.step"),
        Site(C, "field_quiver", "svg.render", _svg_bytes),
        Site(C, "diagram_scatter", "svg.render", _svg_bytes),
        Site(C, "trajectory_path", "svg.render", _svg_bytes),
        Site(C, "line_chart", "svg.render", _svg_bytes),
        Site("hashlib", "sha256", None, _hashed),
    ]


def layer_metrics(tracer, rep: Rep) -> dict[str, float]:
    """The per-layer split of one traced repetition."""
    s, n, c = tracer.self_s, tracer.calls, tracer.counts

    def frac(part, base):
        return part / base if base else 0.0

    vf = s["dynamics.vector_field"]
    margins = {name: 0.0 for name in SWEEP_MARGINS}
    margins.update(rep.extra.get("margins", {}))
    return margins | {
        "trainer.sample_batch_s": s["trainer.sample_batch"],
        "trainer.embed_s": s["trainer.embed"],
        "trainer.backward_s": s["trainer.backward"],
        "trainer.update_s": s["trainer.update"],
        "trainer.epoch_eval_s": (
            tracer.nested[("trainer.train", "evaluation.recall_at_k")]
            + tracer.nested[("trainer.train", "evaluation.collapse_metric")]
        ),
        "trainer.self_s": s["trainer.train"],
        "trainer.steps": n["trainer.backward"],
        "mining.mine_s": s["mining.mine"],
        "mining.mine_calls": n["mining.mine"],
        "mining.triplets": c["mining.triplets"],
        "mining.hard_frac": frac(c["mining.hard"], c["mining.triplets"]),
        "mining.shn_triplets": c["mining.shn_triplets"],
        "mining.shn_fallback_frac": frac(c["mining.shn_fallbacks"],
                                         c["mining.shn_triplets"]),
        "losses.loss_value_s": s["losses.loss_value"],
        "losses.loss_value_calls": n["losses.loss_value"],
        "losses.feature_grads_s": s["losses.feature_grads"],
        "losses.feature_grads_calls": n["losses.feature_grads"],
        "losses.sct_calls": c["losses.sct_calls"],
        "losses.sct_hard_branch_frac": frac(c["losses.sct_hard"],
                                            c["losses.sct_calls"]),
        "geometry.triplet_features_s": s["geometry.triplet_features"],
        "geometry.triplet_features_calls": n["geometry.triplet_features"],
        "evaluation.recall_s": s["evaluation.recall_at_k"],
        "evaluation.recall_queries": c["evaluation.recall_queries"],
        "evaluation.collapse_s": s["evaluation.collapse_metric"],
        "evaluation.sim_bytes": c["evaluation.sim_bytes"],
        "evaluation.diagram_extract_s": s["evaluation.diagram_extract"],
        "synthdata.generate_s": s["synthdata.generate"],
        "synthdata.load_s": s["synthdata.load"],
        "synthdata.save_s": s["synthdata.save"],
        "synthdata.rows": c["synthdata.rows"],
        "svg.render_s": s["svg.render"],
        "svg.bytes": c["svg.bytes"],
        "cli.self_s": s["cli.main"],
        "cli.calls": n["cli.main"],
        "cli.bytes_written": rep.bytes_written,
        "cli.bytes_hashed": c["cli.bytes_hashed"],
        "dynamics.vector_field_s": vf,
        "dynamics.cells": c["dynamics.cells"],
        "dynamics.cells_per_s": frac(c["dynamics.cells"], vf),
        "dynamics.trajectory_s": s["dynamics.trajectory"],
        "dynamics.traj_steps": c["dynamics.traj_steps"],
        "dynamics.step_s": s["dynamics.step"],
        "dynamics.step_calls": n["dynamics.step"],
    }
