"""The benchmark's workloads and the checks that feed its error count.

Each workload turns the workload seed into inputs (``setup``), runs one
repetition of timed work (``rep``) and, once timing is over, checks a
seeded sample of its outputs against the oracles of the repository's own
test suite (``verify``). Library code receives only the generated inputs.

* sweep     -- the criterion-5 trio (NCA+HN, SCT+HN, NCA+SHN) through
               ``train()``; the workload seed is the training seed.
* retrieval -- CLI ``gen-data`` (64 classes x 64 points x 32 dims),
               ``diagram`` and ``rerun``, then ``recall_at_k`` at k=1 and
               k=10 and ``collapse_metric`` on the same 4,096 points.
* field     -- CLI ``simulate`` at resolution 201 for nca and margin, a
               ``rerun``, seeded very-hard ``trajectory`` rollouts and one
               long CLI ``trajectory``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import tripletlab as tl
from tripletlab import cli, dynamics, evaluation, trainer
from tripletlab.trainer import GradMode


@dataclass
class Rep:
    """One repetition: its wall time, timing samples, an exact digest of
    its outputs, and the checks made on them.

    An untraced repetition also times its workload's reference snippet
    (``probe``) at each ``mark``: at its start, between phases and at its
    end. A sample taken between two marks is later divided by their mean.
    """

    probe: Callable[[], None] | None = None
    wall: float = 0.0
    samples: dict[str, list[float]] = field(default_factory=dict)
    # index of the mark before each sample
    segments: dict[str, list[int]] = field(default_factory=dict)
    marks: list[float] = field(default_factory=list)
    probe_s: float = 0.0  # time spent in marks, left out of ``wall``
    digest: object = None
    checks: list[tuple[str, bool]] = field(default_factory=list)
    manifests: list[Path] = field(default_factory=list)
    bytes_written: int = 0
    extra: dict = field(default_factory=dict)

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)
        self.segments.setdefault(key, []).append(len(self.marks) - 1)

    def mark(self) -> None:
        """Fastest of REFERENCE_CALLS runs of the reference snippet."""
        if self.probe is None:
            return
        t0 = perf_counter()
        best = float("inf")
        for _ in range(REFERENCE_CALLS):
            t = perf_counter()
            self.probe()
            best = min(best, perf_counter() - t)
        self.marks.append(best)
        self.probe_s += perf_counter() - t0

    def check(self, name: str, ok) -> None:
        self.checks.append((name, bool(ok)))


@contextlib.contextmanager
def patched(module, attr: str, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield original
    finally:
        setattr(module, attr, original)


def run_cli(rep: Rep, argv: list[str], manifest: Path) -> tuple[float, str]:
    """Run one CLI command in-process; return its wall time and output."""
    out = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    elapsed = perf_counter() - t0
    rep.check(f"cli {argv[0]} exits 0", code == 0)
    rep.manifests.append(manifest)
    return elapsed, out.getvalue()


def manifest_checksums(path: Path) -> dict:
    return json.loads(path.read_text())["checksums"]


def written_bytes(manifests: list[Path]) -> int:
    """Bytes each CLI call wrote: its listed artifacts plus its manifest."""
    total = 0
    for path in manifests:
        outputs = json.loads(path.read_text())["outputs"]
        total += path.stat().st_size
        total += sum((path.parent / n).stat().st_size for n in outputs.values())
    return total


# ------------------------------------------------------------- references
# Fixed work, timed between the phases of every untraced repetition: the
# end-to-end times are ratios to it, which cancels the shared host's
# changes of speed.

REFERENCE_CALLS = 5

REF_MATRIX = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
REF_ROWS = np.sin(0.7 * np.arange(64 * 4096.0)).reshape(64, 4096)


def interpreter_reference() -> None:
    """Interpreter-bound work and 16x16 products, like the per-triplet
    training loop and the scalar trajectory steps."""
    table, acc = {}, 0.0
    for i in range(20000):
        table[i & 255] = acc
        acc += i * 0.5 - table.get((i * 7) & 255, 0.0) * 0.25
    for _ in range(300):
        REF_MATRIX @ REF_MATRIX


def sort_reference() -> None:
    """Stable descending argsorts of 4,096-long rows, like recall_at_k."""
    for row in REF_ROWS:
        np.argsort(-row, kind="stable")


# ------------------------------------------------------------------ sweep

SWEEP_CONFIGS = (
    ("nca_hn", tl.LossSpec(kind=tl.LossKind.NCA), tl.MiningStrategy.HARD_NEGATIVE),
    ("sct_hn", tl.LossSpec(kind=tl.LossKind.SCT, lam=1.0),
     tl.MiningStrategy.HARD_NEGATIVE),
    ("nca_shn", tl.LossSpec(kind=tl.LossKind.NCA),
     tl.MiningStrategy.SEMI_HARD_NEGATIVE),
)
SWEEP_EPOCHS = 2
SWEEP_BATCHES = 96
MINE_SAMPLE_PER_CONFIG = 16
# softmax-ratio loss lies in (0, log(1 + e^2)] on the sphere; the SCT hard
# branch lam * s_an reaches down to -lam
NCA_LOSS_MAX = math.log1p(math.e**2)
# criterion 5 per seed: SCT recall@1 over HN's, HN collapse over SCT's,
# and SHN's final collapse (criterion 5 wants it below 0.9)
SWEEP_MARGINS = ("trainer.sct_recall_margin", "trainer.hn_collapse_margin",
                 "trainer.shn_collapse_max")


def epoch_marker(stamps: list[float]):
    """Stand-in for the trainer's per-epoch recall call that stamps the time
    each epoch's batches ended."""
    recall = trainer.recall_at_k

    def marked(*args, **kwargs):
        stamps.append(perf_counter())
        return recall(*args, **kwargs)

    return marked


def mine_capture(wanted: set[int], captured: list):
    """Stand-in for the trainer's mine() that keeps the calls numbered in
    ``wanted`` for the brute-force check."""
    mine = trainer.mine
    calls = itertools.count()

    def capture(batch, strategy, seed):
        result = mine(batch, strategy, seed)
        if next(calls) in wanted:
            captured.append((batch, strategy, seed, [
                (t.anchor, t.positive, t.negative) for t in result
            ]))
        return result

    return capture


class Sweep:
    name = "sweep"
    reference = staticmethod(interpreter_reference)
    # end-to-end metric -> (what it stands for, timing samples, work units
    # per sample): a time is the samples' median, a rate units / median
    e2e = {"throughput_rel": ("train_steps_per_s", "epoch_s", SWEEP_BATCHES),
           "command_rel": ("train_s", "train_s", None)}

    def setup(self, seed: int) -> dict:
        dataset = tl.generate(tl.DatasetConfig(8, 32, 16, 2.0, seed=0))
        configs = [
            (label, tl.TrainConfig(
                loss=spec, strategy=strategy,
                grad_mode=GradMode.THROUGH_NORMALIZATION, learning_rate=0.5,
                epochs=SWEEP_EPOCHS, classes_per_batch=8, embed_dim=8,
                seed=seed, snapshot_every=1000,
                batches_per_epoch=SWEEP_BATCHES,
            ))
            for label, spec, strategy in SWEEP_CONFIGS
        ]
        rng = np.random.default_rng(seed)
        mine_sample = [
            set(rng.choice(SWEEP_EPOCHS * SWEEP_BATCHES,
                           MINE_SAMPLE_PER_CONFIG, replace=False).tolist())
            for _ in configs
        ]
        return {"dataset": dataset, "configs": configs,
                "mine_sample": mine_sample}

    def rep(self, inp: dict, workdir: Path, traced: bool) -> Rep:
        """Train the trio. Untraced, an epoch-boundary timestamp (the
        trainer's per-epoch recall call) and a capture of sampled mining
        calls are the only hooks; traced, the tracer replaces both."""
        rep = Rep(probe=None if traced else self.reference)
        finals = {}
        captured = []
        t_start = perf_counter()
        rep.mark()
        for (label, config), wanted in zip(inp["configs"], inp["mine_sample"]):
            stamps = []
            with contextlib.ExitStack() as hooks:
                if not traced:
                    hooks.enter_context(patched(trainer, "recall_at_k",
                                                epoch_marker(stamps)))
                    hooks.enter_context(patched(trainer, "mine",
                                                mine_capture(wanted, captured)))
                t0 = perf_counter()
                params, logs = trainer.train(inp["dataset"], config)
                rep.sample("train_s", perf_counter() - t0)
            for a, b in zip([t0] + stamps, stamps):
                rep.sample("epoch_s", b - a)
            rep.mark()
            finals[label] = (params, logs)
        rep.wall = perf_counter() - t_start - rep.probe_s
        rep.extra["captured"] = captured

        digest = []
        for label, config in inp["configs"]:
            params, logs = finals[label]
            sct = config.loss.kind == tl.LossKind.SCT
            loss_min = -config.loss.lam if sct else 0.0
            for log in logs:
                values = (log.mean_loss, log.hard_fraction, log.recall_at_1,
                          log.collapse)
                rep.check(
                    "epoch log finite and in range",
                    all(math.isfinite(v) for v in values)
                    and loss_min <= log.mean_loss <= NCA_LOSS_MAX
                    and 0.0 <= log.hard_fraction <= 1.0
                    and 0.0 <= log.recall_at_1 <= 1.0
                    and -1.0 <= log.collapse <= 1.0,
                )
            digest.append((label, params.weight.tobytes(),
                           tuple((log.mean_loss, log.hard_fraction,
                                  log.recall_at_1, log.collapse)
                                 for log in logs)))
        rep.digest = tuple(digest)
        hn, sct, shn = (finals[label][1][-1] for label, _, _ in SWEEP_CONFIGS)
        rep.extra["margins"] = dict(zip(SWEEP_MARGINS, (
            sct.recall_at_1 - hn.recall_at_1,
            hn.collapse - sct.collapse,
            shn.collapse,
        )))
        return rep

    def verify(self, inp: dict, reps: list[Rep]) -> list[tuple[str, bool]]:
        from test_mining import brute_force_mine

        checks = []
        for rep in reps:
            for batch, strategy, seed, got in rep.extra.get("captured", []):
                checks.append(("mined batch matches brute_force_mine",
                               got == brute_force_mine(batch, strategy, seed)))
        return checks


# -------------------------------------------------------------- retrieval

RETRIEVAL_SHAPE = (64, 64, 32)
RETRIEVAL_SPREAD = 2.0
RECALL_KS = (1, 10)
ORACLE_QUERIES = 64


class Retrieval:
    name = "retrieval"
    reference = staticmethod(sort_reference)
    e2e = {"throughput_rel": ("recall_queries_per_s", "recall_s",
                              RETRIEVAL_SHAPE[0] * RETRIEVAL_SHAPE[1]),
           "command_rel": ("diagram_s", "diagram_s", None)}

    def setup(self, seed: int) -> dict:
        classes, per_class, dim = RETRIEVAL_SHAPE
        ds = tl.generate(tl.DatasetConfig(classes, per_class, dim,
                                          RETRIEVAL_SPREAD, seed=seed))
        batch = tl.Batch(embeddings=ds.points, labels=ds.labels)
        rng = np.random.default_rng(seed)
        queries = np.sort(rng.choice(len(ds), ORACLE_QUERIES, replace=False))
        return {"seed": seed, "batch": batch, "oracle_queries": queries}

    def rep(self, inp: dict, workdir: Path, traced: bool) -> Rep:
        rep = Rep(probe=None if traced else self.reference)
        classes, per_class, dim = RETRIEVAL_SHAPE
        data = workdir / "data.csv"
        diag = workdir / "diag.manifest.json"
        batch = inp["batch"]
        t_start = perf_counter()
        rep.mark()
        run_cli(rep, [
            "gen-data", "--classes", str(classes), "--per-class",
            str(per_class), "--dim", str(dim), "--spread",
            repr(RETRIEVAL_SPREAD), "--seed", str(inp["seed"]),
            "--out", str(data),
        ], workdir / "data.manifest.json")
        rep.mark()
        seconds, _ = run_cli(rep, ["diagram", "--data", str(data),
                                   "--out-prefix", str(workdir / "diag")], diag)
        rep.sample("diagram_s", seconds)
        rep.mark()
        seconds, out = run_cli(rep, ["rerun", str(diag)], diag)
        rep.sample("rerun_s", seconds)
        rep.mark()
        results = []
        for k in RECALL_KS:
            t0 = perf_counter()
            result = evaluation.recall_at_k(batch, batch, k, exclude_self=True)
            rep.sample("recall_s", perf_counter() - t0)
            rep.mark()
            results.append(tuple(result))
        collapse = evaluation.collapse_metric(batch)
        rep.mark()
        rep.wall = perf_counter() - t_start - rep.probe_s

        rep.check("rerun reports all checksums match",
                  "all checksums match" in out)
        rep.check("recall and collapse finite and in range",
                  all(0.0 <= r[1] <= 1.0 for r in results)
                  and -1.0 <= collapse <= 1.0)
        rep.digest = (manifest_checksums(workdir / "data.manifest.json"),
                      manifest_checksums(diag), tuple(results), collapse)
        return rep

    def verify(self, inp: dict, reps: list[Rep]) -> list[tuple[str, bool]]:
        """Sampled queries ranked against the rest of the dataset, by the
        library and by the test suite's brute-force recall."""
        from test_evaluation import brute_force_recall

        batch = inp["batch"]
        q = inp["oracle_queries"]
        rest = np.setdiff1d(np.arange(len(batch)), q)
        queries = tl.Batch(embeddings=batch.embeddings[q],
                           labels=batch.labels[q])
        gallery = tl.Batch(embeddings=batch.embeddings[rest],
                           labels=batch.labels[rest])
        return [
            ("sampled recall matches brute_force_recall",
             evaluation.recall_at_k(queries, gallery, k).recall
             == brute_force_recall(queries, gallery, k, False))
            for k in RECALL_KS
        ]


# ------------------------------------------------------------------ field

FIELD_RESOLUTION = 201
FIELD_P = 1.0
FIELD_GAMMA = 1.0
FIELD_BETA_SCALE = 0.05
FIELD_MARGIN = 0.2
ROLLOUTS = 48
ROLLOUT_STEPS = 400
CLI_TRAJECTORY_STEPS = 20000
TRAJ_BETA_SCALE = 0.1
ORACLE_CELLS = 256


def very_hard_start(rng) -> tuple[float, float]:
    """A diagram point well above the diagonal: s_an > s_ap > 0.3."""
    s_ap = float(rng.uniform(0.3, 0.9))
    return s_ap, float(rng.uniform(s_ap + 0.05, 0.99))


class Field:
    name = "field"
    reference = staticmethod(interpreter_reference)
    e2e = {"throughput_rel": ("traj_steps_per_s", "rollout_s",
                              ROLLOUT_STEPS),
           "command_rel": ("simulate_s", "simulate_s", None)}

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        starts = [tl.TripletCoord(*very_hard_start(rng))
                  for _ in range(ROLLOUTS)]
        params = tl.StepParams(
            learning_rate=TRAJ_BETA_SCALE, gamma=FIELD_GAMMA,
            entanglement_p=FIELD_P, loss=tl.LossSpec(kind=tl.LossKind.NCA),
        )
        return {"starts": starts, "params": params,
                "cli_start": very_hard_start(rng),
                "seed": seed}

    def rep(self, inp: dict, workdir: Path, traced: bool) -> Rep:
        rep = Rep(probe=None if traced else self.reference)
        simulate = ["simulate", "--p", repr(FIELD_P), "--gamma",
                    repr(FIELD_GAMMA), "--beta-scale", repr(FIELD_BETA_SCALE),
                    "--margin", repr(FIELD_MARGIN), "--resolution",
                    str(FIELD_RESOLUTION)]
        start_sap, start_san = inp["cli_start"]
        t_start = perf_counter()
        rep.mark()
        for loss in ("nca", "margin"):
            seconds, _ = run_cli(
                rep, simulate + ["--loss", loss, "--out-prefix",
                                 str(workdir / loss)],
                workdir / f"{loss}.manifest.json",
            )
            rep.sample("simulate_s", seconds)
            rep.mark()
        seconds, out = run_cli(rep, ["rerun",
                                     str(workdir / "nca.manifest.json")],
                               workdir / "nca.manifest.json")
        rep.sample("rerun_s", seconds)
        rep.mark()
        rollouts = []
        for start in inp["starts"]:
            t0 = perf_counter()
            points = dynamics.trajectory(start, inp["params"], ROLLOUT_STEPS)
            rep.sample("rollout_s", perf_counter() - t0)
            rollouts.append(points)
        rep.mark()
        run_cli(rep, [
            "trajectory", "--loss", "nca", "--start-sap", repr(start_sap),
            "--start-san", repr(start_san), "--steps",
            str(CLI_TRAJECTORY_STEPS), "--p", repr(FIELD_P), "--gamma",
            repr(FIELD_GAMMA), "--beta-scale", repr(TRAJ_BETA_SCALE),
            "--out-prefix", str(workdir / "traj"),
        ], workdir / "traj.manifest.json")
        rep.mark()
        rep.wall = perf_counter() - t_start - rep.probe_s

        rep.check("rerun reports all checksums match",
                  "all checksums match" in out)
        for points in rollouts:
            arr = np.asarray(points, dtype=np.float64)
            rep.check("rollout has steps+1 finite points in the square",
                      arr.shape == (ROLLOUT_STEPS + 1, 2)
                      and np.all(np.isfinite(arr))
                      and np.all(np.abs(arr) <= 1.0))
        rep.digest = (
            tuple(manifest_checksums(workdir / f"{name}.manifest.json")
                  for name in ("nca", "margin", "traj")),
            tuple(tuple(p) for points in rollouts for p in points),
        )
        rep.extra["workdir"] = workdir
        return rep

    def verify(self, inp: dict, reps: list[Rep]) -> list[tuple[str, bool]]:
        """Sampled field cells against the explicit-vector sphere oracle."""
        from conftest import sphere_step_oracle

        workdir = reps[-1].extra["workdir"]
        rng = np.random.default_rng(inp["seed"])
        # the oracle runs at the grid's own coordinates: the CSV keeps 12
        # digits, which can flip the margin hinge's sign on its boundary
        axis = np.linspace(-1.0, 1.0, FIELD_RESOLUTION)
        grid = np.column_stack([np.repeat(axis, FIELD_RESOLUTION),
                                np.tile(axis, FIELD_RESOLUTION)])
        checks = []
        for loss in ("nca", "margin"):
            cells = np.loadtxt(workdir / f"{loss}.field.csv", delimiter=",",
                               skiprows=1, ndmin=2)
            ok = (cells.shape == (len(grid), 6)
                  and np.allclose(cells[:, :2], grid, rtol=0, atol=1e-12))
            checks.append((f"{loss} field has one row per grid cell", ok))
            if not ok:
                continue
            for i in rng.choice(len(cells), ORACLE_CELLS, replace=False):
                s_ap, s_an = grid[i]
                d_sap, d_san, t_sap, t_san = cells[i, 2:]
                if loss == "nca":
                    sigma = 1.0 / (1.0 + math.exp(s_ap - s_an))
                    want = sphere_step_oracle(s_ap, s_an, FIELD_GAMMA,
                                              FIELD_BETA_SCALE * sigma)
                else:
                    want = sphere_step_oracle(s_ap, s_an, FIELD_GAMMA,
                                              2 * FIELD_BETA_SCALE, "margin",
                                              FIELD_MARGIN)
                pq = FIELD_P * s_ap * s_an
                got = (d_sap, d_san, t_sap, t_san)
                expected = (want[5], want[6], want[5] + pq * want[6],
                            want[6] + pq * want[5])
                checks.append((
                    f"{loss} field cell matches sphere_step_oracle",
                    all(abs(g - e) <= 1e-9 for g, e in zip(got, expected)),
                ))
        return checks


WORKLOADS = {w.name: w for w in (Sweep(), Retrieval(), Field())}
