"""Property test: no ``--config`` file makes ``pretrain``, ``estimate`` or ``eval`` raise.

Each example writes a key=value file of known and unknown keys with values
that include ``nan``, ``inf``, empty values, non-ASCII text and bytes that
are not UTF-8, plus lines without ``=``, comments and blank lines, and runs
one command on tiny planted splits with it. The split files, the checkpoint
and the output directory come from flags, which take precedence over the
file, as do ``--steps`` and ``--dim`` of ``pretrain``, which bound its run
time. Every run must end with exit code 0, 1 or 2 and never raise.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invkge.cli import _SPECS, main
from invkge.datasets import generate_planted_splits, write_splits
from invkge.models import save_checkpoint

COMMANDS = ("pretrain", "estimate", "eval")
KNOWN = sorted({key for command in COMMANDS for key in _SPECS[command]})
KEYS = st.sampled_from(KNOWN + ["command", "bogus", "Seed", "séed", " dim ", ""])
VALUES = st.sampled_from(["", "0", "1", "2", "3", "-1", "0.5", "1e-3", "1e400", "nan", "inf",
                          "-inf", "true", "no", "maybe", "transe", "rotate", "lp", "tc",
                          "classification", "degree", "uniform", "correlation", "pretrain",
                          "é", "日本", "a=b"])
TEXT = st.text(st.sampled_from(list("ab =#é日\t")), max_size=6)
LINES = st.one_of(
    st.tuples(KEYS, VALUES).map(lambda kv: f"{kv[0]}={kv[1]}".encode("utf-8")),
    TEXT.map(lambda t: ("#" + t).encode("utf-8")),          # a comment
    TEXT.filter(lambda t: "=" not in t).map(lambda t: t.encode("utf-8")),  # no '='
    st.sampled_from([b"", b"seed=\xff", b"\xfe\xff=1", b"\xef\xbb\xbfseed=1"]),
)
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_fuzz")
    splits, tables = generate_planted_splits(5, 150, 6, 420, 0.1)
    write_splits(splits, root)
    save_checkpoint(tables, root / "gt.bin", seed=5)
    return root


@SETTINGS
@given(command=st.sampled_from(COMMANDS), lines=st.lists(LINES, max_size=8),
       line_end=st.sampled_from([b"\n", b"\r\n"]))
def test_config_files_never_raise(planted, command, lines, line_end):
    splits = [f"--{name}={planted / f'{name}.txt'}" for name in ("train", "valid", "aux", "test")]
    extra = (["--steps", "2", "--dim", "4"] if command == "pretrain"
             else ["--checkpoint", str(planted / "gt.bin")])
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.txt"
        config.write_bytes(line_end.join(lines))
        rc = main([command, "--config", str(config), *splits, *extra,
                   "--out", str(Path(tmp) / "out")])
    assert rc in (0, 1, 2)
