"""Property test: a damaged checkpoint header ends ``invkge eval`` with an exit code.

Valid checkpoints of a small planted benchmark (TransE and RotatE, link
prediction and classification) get one header field rewritten: magic,
version, model, norm order, width, entity or relation count, or seed.
The tables may then be cut or zero-padded to the size the new header
implies, so that a rewrite is not always caught by the size check alone, or
the file may be truncated anywhere or extended. Whatever the damage,
``eval`` must return 0, 1 or 2 and never raise.
"""

import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invkge.cli import main
from invkge.datasets import generate_planted_splits, write_splits
from invkge.models import ROTATE, init_tables, save_checkpoint

# the documented header: magic, version, model, norm order, width, entities, relations, seed
HEADER = struct.Struct("<4sHBBIIIQ")


def _unsigned(bits):
    return st.one_of(st.integers(0, 3), st.integers(0, 2 ** bits - 1))


FIELD_VALUES = [st.one_of(st.just(b"IKGE"), st.binary(min_size=4, max_size=4)),
                _unsigned(16), _unsigned(8), _unsigned(8), _unsigned(32), _unsigned(32),
                _unsigned(32), _unsigned(64)]


@pytest.fixture(scope="module")
def benchmarks(tmp_path_factory):
    """task -> (split flags, {model: checkpoint bytes})."""
    root = tmp_path_factory.mktemp("checkpoint_fuzz")
    cases = {}
    for task in ("lp", "classification"):
        splits, truth = generate_planted_splits(5, 150, 6, 420, 0.1, task=task)
        write_splits(splits, root / task)
        rotate = init_tables(5, ROTATE, 3, splits.vocab.num_entities, splits.vocab.num_relations)
        raw = {}
        for tables in (truth, rotate):
            save_checkpoint(tables, root / task / "ck.bin", seed=5)
            raw[tables.model] = (root / task / "ck.bin").read_bytes()
        flags = [f"--{name}={root / task / name}.txt" for name in ("train", "valid", "aux", "test")]
        cases[task] = (flags, raw)
    return cases


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_damaged_checkpoint_header_ends_eval_with_an_exit_code(benchmarks, data):
    model = data.draw(st.sampled_from(["transe", "rotate"]))
    field = data.draw(st.integers(0, 7))
    value = data.draw(FIELD_VALUES[field])
    size = data.draw(st.sampled_from(["fit", "keep", "truncate", "extend"]))
    for task, (flags, checkpoints) in benchmarks.items():
        fields = list(HEADER.unpack_from(checkpoints[model]))
        fields[field] = value
        raw = HEADER.pack(*fields) + checkpoints[model][HEADER.size:]
        _, _, code, _, dim, n_ent, n_rel, _ = fields
        implied = HEADER.size + 4 * (n_ent * dim * (2 if code == 1 else 1) + n_rel * dim)
        if size == "fit" and implied <= 1 << 20:
            raw = raw[:implied].ljust(implied, b"\0")
        elif size == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif size == "extend":
            raw += data.draw(st.binary(min_size=1, max_size=64))
        with tempfile.TemporaryDirectory() as tmp:
            with open(f"{tmp}/ck.bin", "wb") as f:
                f.write(raw)
            rc = main(["eval", *flags, "--task", task, "--checkpoint", f"{tmp}/ck.bin",
                       "--out", f"{tmp}/out"])
        assert rc in (0, 1, 2)
        if field == 7 and size in ("fit", "keep"):  # any seed is valid
            assert rc == 0
