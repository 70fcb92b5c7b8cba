"""Run one benchmark workload against the program in ../src and print its metrics.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 30 --trace 0

The inputs are generated from ``--seed`` by ``gen.py`` in a child process, so
the generator's memory does not count towards ``peak_rss_mb``. The program is
driven only through ``invkge.cli.main``, with the argument lists a user would
type. Each command runs in a fresh interpreter of its own (``command.py``), as
on the command line, with the program's defaults. A round runs the workload's
whole command sequence once; rounds repeat while another one fits in
``--seconds``, and at least one runs (on desk, one per generated instance),
however long it takes. Every figure is a median over all the samples the
rounds gave. With ``--trace 1``
rounds run in pairs, untraced then traced, and the per-layer figures come
from the traced ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when a check of
the program's outputs fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import reference  # noqa: E402

MODELS = ("transe", "rotate")
NORMS = (1, 2)
# set-up is timed after every inference pass of an untraced round, so that its
# samples are spread over the run like the rates'; each time
SETUP_REPS = 2        # at least this many repetitions,
SETUP_SECONDS = 0.1   # and more while they add up to less than this


@dataclass(frozen=True)
class Shape:
    """What one round of a workload runs."""

    pretrain: dict            # CLI options shared by every pretrain command
    steps: dict               # (model, norm) -> pretrain steps
    truth: bool               # inference reads the planted ground-truth checkpoints
    # times each inference command (estimate, eval tc, eval lp per model) runs
    # in a round; its rate is a median over all of them
    inference_runs: int = 1
    min_rounds: int = 1


_WN11_PRETRAIN = dict(dim=300, gamma=0.5, alpha=1.0, neg=128, l2=1e-5, lr=1e-3, log_every=1)
SHAPES = {
    # criterion-6 TransE run dominates; short runs of the other three
    # model/norm pairs give their rates; inference commands last tens of
    # milliseconds and vary by +-20% from process to process, so each runs
    # three times a round and their rates are medians over ~9 runs
    "desk": Shape(pretrain=dict(dim=32, gamma=2.0, alpha=1.0, neg=8, l2=0.0, lr=1e-3,
                                batch_size=256, log_every=100),
                  steps={("transe", 1): 400, ("transe", 2): 100,
                         ("rotate", 1): 50, ("rotate", 2): 50},
                  truth=False, inference_runs=3, min_rounds=gen.DESK_INSTANCES),
    # WN11 reference hyper-parameters except the batch: at 128 a RotatE step
    # peaks at 1.5-2.0 GB, where 1024 would need more than 8 GB. Enough steps
    # that they, not loading, init or saving, take most of a pretrain command.
    # Inference reads the planted ground-truth checkpoints, not the tables
    # just trained, so that every answer is known. One round fills a run, so
    # each inference command runs twice and its rate is the mean of the two.
    "wn11": Shape(pretrain=dict(_WN11_PRETRAIN, batch_size=128),
                  steps={("transe", 1): 6, ("transe", 2): 6,
                         ("rotate", 1): 2, ("rotate", 2): 2},
                  truth=True, inference_runs=2),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    **{f"{m}.{k}": "1/s" for m in MODELS
                       for k in ("pretrain_triplets_per_s", "estimate_entities_per_s",
                                 "lp_queries_per_s", "tc_triplets_per_s")},
                    "lp_mrr": "ratio", "tc_accuracy": "ratio"}
_PAIRS = [f"{m}-l{n}" for m in MODELS for n in NORMS]
LAYER_UNITS = {"datasets.load_splits_s": "s", "models.load_checkpoint_s": "s",
               "models.save_checkpoint_s": "s", "core.triple_store_builds": "count",
               "core.triple_store_build_s": "s",
               **{f"training.step_ms.{p}": "ms" for p in _PAIRS},
               **{f"training.adam_ms.{p}": "ms" for p in _PAIRS},
               **{f"estimation.estimate_candidates_{k}.{m}": u for m in MODELS
                  for k, u in (("calls", "count"), ("s", "s"))},
               "reduction.build_correlation_s": "s",
               **{f"reduction.weights_reduce_s.{m}": "s" for m in MODELS},
               "evaluation.filter_index_build_s": "s",
               **{f"evaluation.filtered_rank_ms.{m}.{q}": "ms" for m in MODELS
                  for q in ("p50", "p90")},
               "evaluation.tune_thresholds_s": "s", "evaluation.lp_queries": "count",
               "evaluation.tc_triplets": "count",
               **{f"cli.{c}.self_s": "s" for c in ("pretrain", "estimate", "eval")},
               "tracing.overhead_s": "s"}


@dataclass
class Command:
    phase: str                # pretrain / estimate / tc / lp
    model: str
    norm: int
    argv: list[str]
    out: Path
    work: int = 0             # positive triplets a pretrain command trains on
    run: int = 0              # which of the round's inference runs this command is in
    wall: float = 0.0         # seconds inside invkge.cli.main


class Runner:
    def __init__(self, workload: str, inputs: Path, manifest: dict):
        self.workload = workload
        self.shape = SHAPES[workload]
        self.inputs = inputs
        self.manifest = manifest
        self.instances = manifest["instances"]
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0    # of the untraced command processes
        self.setup_times: list[float] = []
        self.spans: list[list[dict]] | None = None   # one list per command while tracing

    # -- command lists -----------------------------------------------------

    def _splits(self, inst: dict, kind: str) -> list[str]:
        d = self.inputs / inst["dir"] / kind
        return [a for name in reference.SPLITS for a in (f"--{name}", str(d / f"{name}.txt"))]

    def checkpoint(self, inst: dict, model: str) -> Path:
        if self.shape.truth:
            return self.inputs / self.manifest["truth"][model]
        return self.out_dir(inst, "pretrain", model, 1) / "checkpoint.bin"

    def out_dir(self, inst: dict, phase: str, model: str, norm: int = 1) -> Path:
        return self.inputs / "out" / inst["dir"] / f"{phase}-{model}-l{norm}"

    def round_commands(self, inst: dict) -> list[Command]:
        """The round's commands in passes: pass i pretrains with norm i+1 and
        then runs every inference command once, so that the samples of each
        rate are spread over the round rather than taken back to back."""
        sh = self.shape
        tc = self._splits(inst, "tc") + ["--task", "tc"]
        opts = [a for k, v in sh.pretrain.items() for a in (f"--{k.replace('_', '-')}", str(v))]
        cmds = []
        for run in range(max(len(NORMS), sh.inference_runs)):
            for model in MODELS if run < len(NORMS) else ():
                norm, steps = NORMS[run], sh.steps[(model, NORMS[run])]
                out = self.out_dir(inst, "pretrain", model, norm)
                argv = ["pretrain", *tc, *opts, "--model", model, "--norm", str(norm),
                        "--steps", str(steps), "--seed", str(inst["seed"]), "--out", str(out)]
                cmds.append(Command("pretrain", model, norm, argv, out,
                                    work=steps * sh.pretrain["batch_size"]))
            for model in MODELS if run < sh.inference_runs else ():
                # inference reads the L1 tables, written in pass 0; later
                # passes rewrite the same outputs
                ckpt = ["--checkpoint", str(self.checkpoint(inst, model)), "--threads", "1"]
                for phase, argv in (("estimate", ["estimate", *tc, *ckpt]),
                                    ("tc", ["eval", *tc, *ckpt]),
                                    ("lp", ["eval", *self._splits(inst, "lp"), "--task", "lp",
                                            *ckpt])):
                    out = self.out_dir(inst, phase, model)
                    cmds.append(Command(phase, model, 1, argv + ["--out", str(out)], out,
                                        run=run))
        return cmds

    # -- execution -----------------------------------------------------------

    def invoke(self, cmd: Command) -> bool:
        self.attempted += 1
        argv = [sys.executable, "-B", str(BENCH / "command.py")]
        spans_file = self.inputs / "spans.json"
        if self.spans is not None:
            tags = {"command": cmd.argv[0], "phase": cmd.phase, "model": cmd.model,
                    "norm": cmd.norm, "run": cmd.run}
            argv += ["--spans", str(spans_file), "--tags", json.dumps(tags)]
        proc = subprocess.run(argv + ["--", *cmd.argv], stdout=subprocess.PIPE, text=True)
        try:
            res = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            res = {"rc": f"none (the process exited with {proc.returncode})"}
        rc = res["rc"]
        if rc == 0:
            cmd.wall = res["wall_s"]
            if self.spans is None:
                self.peak_rss_mb = max(self.peak_rss_mb, res["peak_rss_mb"])
            else:
                self.spans.append(json.loads(spans_file.read_text(encoding="utf-8")))
        else:
            self.failed += 1
            print(f"command failed with exit code {rc}: invkge {' '.join(cmd.argv)}",
                  file=sys.stderr)
        return rc == 0

    def run_round(self, index: int) -> dict:
        inst = self.instances[index % len(self.instances)]
        cmds = self.round_commands(inst)
        t0 = time.perf_counter()
        ok, setup_s = True, 0.0
        for cmd in cmds:
            ok = self.invoke(cmd) and ok
            if ok and self.spans is None and cmd.phase == "lp" and cmd.model == MODELS[-1]:
                t1 = time.perf_counter()
                self.time_setup(inst)
                setup_s += time.perf_counter() - t1
        wall = time.perf_counter() - t0 - setup_s
        return {"instance": inst["dir"], "wall_s": wall, "ok": ok,
                "rates": self._rates(cmds) if ok else {},
                "commands": [{"phase": c.phase, "model": c.model, "norm": c.norm,
                              "wall_s": c.wall} for c in cmds]}

    def _rates(self, cmds: list[Command]) -> dict:
        """Rate samples of one round: one per inference command, one per model's pretraining."""
        rates: dict[str, list[float]] = {}
        for model in MODELS:
            pre = [c for c in cmds if c.phase == "pretrain" and c.model == model]
            rates[f"{model}.{RATE_NAMES['pretrain']}"] = [
                sum(c.work for c in pre) / sum(c.wall for c in pre)]
        for cmd in cmds:
            if cmd.phase != "pretrain":
                work = self._work_done(cmd)
                rates.setdefault(f"{cmd.model}.{RATE_NAMES[cmd.phase]}", []).append(work / cmd.wall)
        return rates

    @staticmethod
    def _work_done(cmd: Command) -> int:
        if cmd.phase == "estimate":
            return len((cmd.out / "ookg_manifest.tsv").read_text(encoding="utf-8").splitlines())
        return int(reference.read_report(cmd.out / "report.csv")["num_queries"])

    def time_setup(self, inst: dict) -> None:
        """Time what every command repeats: load the splits and a checkpoint per model."""
        from invkge import load_checkpoint, load_splits
        paths = [self.inputs / inst["dir"] / "tc" / f"{n}.txt" for n in reference.SPLITS]
        times: list[float] = []
        while len(times) < SETUP_REPS or sum(times) < SETUP_SECONDS:
            t0 = time.perf_counter()
            load_splits(*paths, task="classification")
            for model in MODELS:
                load_checkpoint(self.checkpoint(inst, model))
            times.append(time.perf_counter() - t0)
        self.setup_times += times


RATE_NAMES = {"pretrain": "pretrain_triplets_per_s", "estimate": "estimate_entities_per_s",
              "lp": "lp_queries_per_s", "tc": "tc_triplets_per_s"}


# -- checks ------------------------------------------------------------------

F32_TOL = 1e-6        # max |estimate row - planted point| for RotatE rows
MRR_TOL = 1e-3        # program MRR vs benchmark re-computation (desk)


def check_outputs(runner: Runner, ran: set[str]) -> tuple[list[str], dict]:
    """Failures found in the outputs on disk, and the quality figures of TransE."""
    problems: list[str] = []
    quality = {"lp_mrr": [], "tc_accuracy": []}
    for inst in runner.instances:
        if inst["dir"] not in ran:
            continue
        tc = reference.read_splits(runner.inputs / inst["dir"] / "tc", labeled=True)
        where = f"{runner.workload}/{inst['dir']}"
        for model in MODELS:
            for norm in NORMS:
                out = runner.out_dir(inst, "pretrain", model, norm)
                if not reference.losses_ok(reference.read_losses(out / "loss.csv")):
                    problems.append(f"{where} pretrain {model}-l{norm}: non-finite or negative loss")
                ck = reference.read_checkpoint(out / "checkpoint.bin")
                dim = runner.shape.pretrain["dim"]
                if (ck.model, ck.norm_order, ck.dim) != (model, norm, dim) \
                        or ck.entity.shape != (len(tc.entities), dim) \
                        or ck.relation.shape != (len(tc.relations), dim) \
                        or not (np.isfinite(ck.entity).all() and np.isfinite(ck.relation).all()):
                    problems.append(f"{where} pretrain {model}-l{norm}: checkpoint does not "
                                    "load finite with the vocabulary's shape")
            ck = reference.read_checkpoint(runner.checkpoint(inst, model))
            lp_rep = reference.read_report(runner.out_dir(inst, "lp", model) / "report.csv")
            tc_rep = reference.read_report(runner.out_dir(inst, "tc", model) / "report.csv")
            mrr, acc = float(lp_rep["mrr"]), float(tc_rep["accuracy"])
            if model == "transe":
                quality["lp_mrr"].append(mrr)
                quality["tc_accuracy"].append(acc)
            if int(lp_rep["dangling"]) or int(tc_rep["dangling"]):
                problems.append(f"{where} {model}: dangling OOKG entities in a report")
            problems += _check_estimate(runner, inst, tc, ck, model, where)
            if runner.shape.truth:
                if (mrr, float(lp_rep["hits_at_1"]), acc) != (1.0, 1.0, 1.0):
                    problems.append(f"{where} {model}: planted answers not recovered "
                                    f"(MRR {mrr}, Hits@1 {lp_rep['hits_at_1']}, accuracy {acc})")
                continue
            lp = reference.read_splits(runner.inputs / inst["dir"] / "lp", labeled=False)
            ref_mrr, n_q = reference.link_prediction_mrr(ck, lp)
            ref_acc, n_tc = reference.classification_accuracy(ck, tc)
            if abs(ref_mrr - mrr) > MRR_TOL or n_q != int(lp_rep["num_queries"]):
                problems.append(f"{where} {model}: MRR {mrr} vs re-computed {ref_mrr:.6f}")
            if abs(ref_acc - acc) * n_tc > 1.0 + 1e-9:
                problems.append(f"{where} {model}: accuracy {acc} vs re-computed {ref_acc:.6f}")
            if model == "transe":
                floor = 5.0 * reference.random_mrr(len(np.unique(tc.train[:, [0, 2]])))
                if mrr < floor:
                    problems.append(f"{where}: TransE MRR {mrr} below 5x random ({floor:.4f})")
    return problems, quality


def _check_estimate(runner: Runner, inst: dict, tc, ck, model: str, where: str) -> list[str]:
    """Rows of ``estimate`` against the planted points or the degree-weighted re-computation."""
    out = runner.out_dir(inst, "estimate", model)
    names = [line.split("\t")[2] for line in
             (out / "ookg_manifest.tsv").read_text(encoding="utf-8").splitlines()]
    dangling = (out / "dangling.txt").read_text(encoding="utf-8").strip()
    width = 2 * ck.dim if model == "rotate" else ck.dim
    rows = np.fromfile(out / "ookg_embeddings.f32", dtype="<f4").reshape(-1, width)
    if dangling or len(names) != inst["ookg_entities"] or len(rows) != len(names):
        return [f"{where} estimate {model}: {len(names)} rows for {inst['ookg_entities']} "
                "OOKG entities, or dangling entities"]
    entity_id = {name: i for i, name in enumerate(tc.entities)}
    ids = np.array([entity_id[n] for n in names], dtype=np.int64)
    if runner.shape.truth:
        want = np.ascontiguousarray(ck.entity[ids])
    else:
        est = reference.Estimator(ck, tc)
        want = np.stack([est.embed(int(e), "degree") for e in ids])
    want = want.view(np.float64).astype("<f4").astype(np.float64)
    err = float(np.abs(rows - want).max()) if len(rows) else 0.0
    tol = 0.0 if runner.shape.truth and model == "transe" else F32_TOL * max(1.0, np.abs(want).max())
    if err > tol:
        return [f"{where} estimate {model}: rows differ from the expected points by {err:.3g}"]
    return []


# -- per-layer figures from spans ---------------------------------------------

def layer_metrics(commands: list[list[dict]], steps: dict, lp_queries: int,
                  tc_triplets: int) -> dict:
    """Per-layer figures of one traced round, from the span rows of each of its commands.

    Only the round's first inference run counts, so that the figures are those
    of one pass through the command sequence whatever ``inference_runs`` is.
    """
    spans: list[dict] = []
    for rows in commands:   # one list, with parents re-indexed into it
        if rows and rows[0].get("run", 0):
            continue
        base = len(spans)
        spans += [dict(r, parent=r["parent"] + base if r["parent"] >= 0 else -1) for r in rows]
    by_name: dict[str, list] = {}
    for i, s in enumerate(spans):
        s["index"], s["duration"] = i, s["end"] - s["start"]
        by_name.setdefault(s["name"], []).append(s)

    def durations(name, **tags):
        return [s["duration"] for s in by_name.get(name, [])
                if all(s.get(k) == v for k, v in tags.items())]

    def median(values):
        return statistics.median(values) if values else 0.0

    m = {"datasets.load_splits_s": median(durations("datasets.load_splits")),
         "models.load_checkpoint_s": median(durations("models.load_checkpoint")),
         "models.save_checkpoint_s": median(durations("models.save_checkpoint")),
         "core.triple_store_builds": len(durations("core.TripleStore.__init__")),
         "core.triple_store_build_s": sum(durations("core.TripleStore.__init__")),
         "reduction.build_correlation_s": sum(durations("reduction.build_correlation")),
         "evaluation.filter_index_build_s": sum(durations("evaluation.FilterIndex.__init__")),
         "evaluation.tune_thresholds_s": sum(durations("evaluation.tune_thresholds")),
         "evaluation.lp_queries": lp_queries,
         "evaluation.tc_triplets": tc_triplets}
    for s in by_name.get("training.train", []):
        model, norm = s["model"], s["norm"]
        init = sum(c["duration"] for c in by_name.get("models.init_tables", [])
                   if c["parent"] == s["index"])
        m[f"training.step_ms.{model}-l{norm}"] = 1e3 * (s["duration"] - init) / steps[(model, norm)]
        m[f"training.adam_ms.{model}-l{norm}"] = 1e3 * median(
            durations("training.Adam.step", model=model, norm=norm))
    for model in MODELS:
        m[f"estimation.estimate_candidates_calls.{model}"] = len(
            durations("estimation.estimate_candidates", model=model))
        m[f"estimation.estimate_candidates_s.{model}"] = sum(
            durations("estimation.estimate_candidates", model=model))
        m[f"reduction.weights_reduce_s.{model}"] = sum(
            durations("reduction.candidate_weights", model=model)
            + durations("reduction.reduce_candidates", model=model))
        ranks = sorted(1e3 * d for d in durations("evaluation.filtered_rank", model=model))
        m[f"evaluation.filtered_rank_ms.{model}.p50"] = median(ranks)
        m[f"evaluation.filtered_rank_ms.{model}.p90"] = (
            statistics.quantiles(ranks, n=10)[8] if len(ranks) > 1 else median(ranks))
    for command in ("pretrain", "estimate", "eval"):
        m[f"cli.{command}.self_s"] = sum(s["self_s"] for s in spans
                                         if s["name"].startswith("cli.")
                                         and s["command"] == command)
    return m


# -- main ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    tag = f"{workload}-s{seed}-t{int(trace)}"
    inputs = BENCH / "inputs" / f"{tag}-{os.getpid()}"
    results = BENCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        gen_cmd = [sys.executable, "-B", str(BENCH / "gen.py"), "--workload", workload,
                   "--seed", str(seed), "--out", str(inputs)]
        if subprocess.run(gen_cmd, stdout=subprocess.DEVNULL).returncode != 0:
            print("error: input generation failed", file=sys.stderr)
            return 1
        manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
        return _run(workload, seconds, trace, inputs, manifest, results / tag)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def _run(workload, seconds, trace, inputs, manifest, record) -> int:
    runner = Runner(workload, inputs, manifest)
    rounds, traced_rounds, layer, span_rows = [], [], [], []
    t_start = time.perf_counter()
    index = 0
    while True:
        plain = runner.run_round(index)
        rounds.append(plain)
        if trace:
            runner.spans = []
            traced = runner.run_round(index)
            traced["overhead_s"] = traced["wall_s"] - plain["wall_s"]
            traced_rounds.append(traced)
            span_rows.append(runner.spans)
            if traced["ok"]:
                inst = runner.instances[index % len(runner.instances)]
                lp_q, tc_t = (sum(int(reference.read_report(
                    runner.out_dir(inst, phase, m) / "report.csv")["num_queries"])
                    for m in MODELS) for phase in ("lp", "tc"))
                layer.append(layer_metrics(runner.spans, runner.shape.steps, lp_q, tc_t))
            runner.spans = None
        index += 1
        if not (plain["ok"] and (not trace or traced["ok"])):
            break
        elapsed = time.perf_counter() - t_start
        min_rounds = 1 if trace else runner.shape.min_rounds
        if index >= min_rounds and elapsed + elapsed / index > seconds:
            break
    ok = all(r["ok"] for r in rounds + traced_rounds)
    problems, quality = ["a command failed; outputs were not checked"], {}
    if ok:
        try:
            problems, quality = check_outputs(runner, {r["instance"] for r in rounds})
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"outputs could not be read: {exc!r}"]

    if trace:
        metrics = {name: _median([m[name] for m in layer]) for name in layer[0]} if layer else {}
        metrics["tracing.overhead_s"] = _median([r["overhead_s"] for r in traced_rounds])
        units = LAYER_UNITS
    else:
        metrics = {"setup_s": _median(runner.setup_times) if ok else None,
                   "wall_s": _median([r["wall_s"] for r in rounds]),
                   "peak_rss_mb": runner.peak_rss_mb}
        for key in (k for k in END_TO_END_UNITS if k.count(".")):
            metrics[key] = _median([x for r in rounds for x in r["rates"][key]]) if ok else None
        for key, values in quality.items():
            metrics[key] = float(np.mean(values)) if values else None
        units = END_TO_END_UNITS
    result = {"correct": not problems, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": metrics.get(k), "unit": units[k]} for k in units}}
    Path(f"{record}.json").write_text(json.dumps(
        {**result, "problems": problems, "manifest": manifest,
         "rounds": rounds, "traced_rounds": traced_rounds}, indent=1) + "\n", encoding="utf-8")
    if trace:
        Path(f"{record}-spans.json").write_text(json.dumps(span_rows) + "\n", encoding="utf-8")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one invkge benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "invkge" / "__init__.py").is_file():
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import invkge
    if Path(invkge.__file__).resolve().parent != SRC / "invkge":
        print(f"error: imported invkge from {invkge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
