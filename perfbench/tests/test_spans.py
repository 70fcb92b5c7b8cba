"""The tracer records nested spans around public functions and restores them."""

import contextlib
import io
import json
import subprocess
import sys

import invkge.cli
import invkge.datasets
from invkge import generate_planted_splits, save_checkpoint, write_splits
import run
from spans import Tracer


def _eval_argv(tmp_path):
    splits, truth = generate_planted_splits(3, 150, 6, 420, 0.1, task="classification")
    write_splits(splits, tmp_path)
    save_checkpoint(truth, tmp_path / "gt.bin")
    argv = ["eval", "--task", "tc", "--checkpoint", str(tmp_path / "gt.bin"),
            "--out", str(tmp_path / "out")]
    for name in ("train", "valid", "aux", "test"):
        argv += [f"--{name}", str(tmp_path / f"{name}.txt")]
    return argv


def test_spans_nest_under_the_command_and_are_removed(tmp_path):
    argv = _eval_argv(tmp_path)
    original = invkge.cli.load_splits

    tracer = Tracer()
    tracer.install()
    try:
        assert invkge.cli.load_splits is not original
        tracer.tags = {"command": "eval"}
        with contextlib.redirect_stdout(io.StringIO()):
            assert invkge.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert invkge.cli.load_splits is original
    assert invkge.datasets.load_splits is original

    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent == -1
    for needed in ("cli.cmd_eval", "datasets.load_splits", "models.load_checkpoint",
                   "core.TripleStore.__init__", "evaluation.tune_thresholds",
                   "evaluation.triplet_classification", "estimation.estimate_candidates"):
        assert needed in names
    for i, span in enumerate(tracer.spans):
        assert span.parent < i and span.end >= span.start
        assert span.tags == {"command": "eval"}
        children = sum(c.duration for c in tracer.spans if c.parent == i)
        assert abs(span.self_s - (span.duration - children)) < 1e-9
        assert span.self_s >= -1e-9


def test_command_process_reports_its_run_and_writes_tagged_spans(tmp_path):
    argv = _eval_argv(tmp_path)
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, "-B", str(run.BENCH / "command.py"),
                           "--spans", str(spans), "--tags", json.dumps({"command": "eval"}),
                           "--", *argv], stdout=subprocess.PIPE, text=True, check=True)
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["rc"] == 0 and res["wall_s"] > 0 and res["peak_rss_mb"] > 0
    rows = json.loads(spans.read_text(encoding="utf-8"))
    assert rows[0]["name"] == "cli.main" and rows[0]["parent"] == -1
    assert all(r["command"] == "eval" for r in rows)
    assert (tmp_path / "out" / "report.csv").is_file()

    argv[argv.index("--checkpoint") + 1] = str(tmp_path / "missing.bin")
    bad = subprocess.run([sys.executable, "-B", str(run.BENCH / "command.py"), "--", *argv],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    assert json.loads(bad.stdout.splitlines()[-1])["rc"] != 0
