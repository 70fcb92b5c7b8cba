"""Property tests: the bulk split loader against a per-line reference parser.

The reference reads each file line by line in text mode and numbers names
one triplet at a time, as the loader did before it parsed files in bulk. For
random split files (names with spaces and non-ASCII characters, blank lines,
``\\n``, ``\\r\\n`` and lone ``\\r`` line ends, no final newline, wrong column
counts, empty fields, bad labels and structural violations) both must give
the same vocabulary order, ids, labels and entity sets, or the same exception
type and message.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from invkge.datasets import (DatasetFormatError, DatasetValidationError, generate_planted_splits,
                             generate_trainable_splits, load_split_dir, load_splits, write_splits)

SPLITS = ("train", "valid", "aux", "test")
# no tab or line break; U+0085, U+2028 and form feed are not line ends in text-mode reading
NAME_CHARS = st.sampled_from(list("abxyz019 _-.é日ßΩ😀") + ["\u0085", "\u2028", "\x0c"])
NAMES = st.text(NAME_CHARS, min_size=1, max_size=6)
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _reference(paths, task):
    """(entities, relations, id lists, valid labels, test labels, ikg, ookg, dangling)."""
    labeled = task == "classification"
    rows = {}
    for name, path in zip(SPLITS, paths):
        width = 4 if labeled and name in ("valid", "test") else 3
        rows[name] = []
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                cols = line.split("\t")
                if len(cols) != width:
                    detail = "label column unexpected for this task" if len(cols) == 4 and width == 3 \
                        else f"expected {width} tab-separated columns, got {len(cols)}"
                    raise DatasetFormatError(f"{path}:{lineno}: {detail}")
                if "" in cols[:3]:
                    raise DatasetFormatError(f"{path}:{lineno}: empty entity or relation field")
                label = None
                if width == 4:
                    if cols[3] not in ("1", "-1", "0"):
                        raise DatasetFormatError(f"{path}:{lineno}: bad label {cols[3]!r} "
                                                 "(expected 1, -1 or 0)")
                    label = 1 if cols[3] == "1" else -1
                rows[name].append((cols[0], cols[1], cols[2], label))

    entities, relations = {}, {}
    trips, labels = {}, {}
    for name in SPLITS:
        trips[name], labels[name] = [], []
        for h, r, t, lab in rows[name]:
            hid = entities.setdefault(h, len(entities))
            rid = relations.setdefault(r, len(relations))
            trips[name].append((hid, rid, entities.setdefault(t, len(entities))))
            labels[name].append(lab)
    names = list(entities)

    def ends(name):
        return {e for h, _, t in trips[name] for e in (h, t)}

    def show(h, r, t):
        return f"({names[h]}, {list(relations)[r]}, {names[t]})"

    ikg = ends("train")
    ookg = (ends("aux") | ends("test")) - ikg
    violations = [f"valid triplet {show(*t)} uses an entity absent from train"
                  for t in trips["valid"] if t[0] not in ikg or t[2] not in ikg]
    for t in trips["aux"]:
        n = (t[0] in ookg) + (t[2] in ookg)
        if n != 1:
            kind = "no out-of-graph entity" if n == 0 else "two out-of-graph entities"
            violations.append(f"aux triplet {show(*t)} has {kind}")
    violations += [f"test triplet {show(*t)} has no out-of-graph entity"
                   for t in trips["test"] if t[0] not in ookg and t[2] not in ookg]
    if not trips["aux"] and trips["test"]:
        violations.append("aux split is empty but test is not: test entities cannot be estimated")
    if violations:
        raise DatasetValidationError(violations)
    dangling = {e for e in ends("test") if e in ookg and e not in ends("aux")}
    return (names, list(relations), [trips[n] for n in SPLITS],
            labels["valid"] if labeled else None, labels["test"] if labeled else None,
            ikg, ookg, dangling)


def _outcome(load, paths, task):
    try:
        return load(paths, task)
    except (DatasetFormatError, DatasetValidationError) as exc:
        return type(exc), str(exc)


def _load(paths, task):
    s = load_splits(*paths, task=task)
    ids = [np.asarray(getattr(s, name)).tolist() for name in SPLITS]
    return (s.vocab.entity_names, s.vocab.relation_names, [[tuple(t) for t in x] for x in ids],
            s.valid_labels, s.test_labels, set(s.ikg_entities), set(s.ookg_entities),
            set(s.dangling_ookg))


@st.composite
def _benchmark(draw):
    """Task and four split files as bytes: a benchmark, sometimes with entities drawn
    from the wrong pool, and now and then one damaged line per file."""
    task = draw(st.sampled_from(["lp", "classification"]))
    pool = draw(st.lists(NAMES, min_size=3, max_size=9, unique=True))
    ikg, ookg = pool[:max(2, len(pool) // 2)], pool[max(2, len(pool) // 2):]
    relations = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    files = {}
    for name in SPLITS:
        labeled = task == "classification" and name in ("valid", "test")
        chaos = draw(st.integers(0, 9)) == 0  # entities drawn from the whole pool
        lines = []
        for _ in range(draw(st.integers(0 if name != "train" else 1, 6))):
            if chaos or name in ("train", "valid") or not ookg:
                h, t = (draw(st.sampled_from(pool if chaos else ikg)) for _ in range(2))
            else:
                h, t = draw(st.sampled_from(ookg)), draw(st.sampled_from(ikg))
                if draw(st.booleans()):
                    h, t = t, h
            cols = [h, draw(st.sampled_from(relations)), t]
            if labeled:
                cols.append(draw(st.sampled_from(["1", "-1", "0"])))
            lines.append(cols)
            if draw(st.integers(0, 7)) == 0:
                lines.append([""])  # a blank line
        damage = draw(st.sampled_from([None] * 20 + ["drop", "extra", "empty", "label"]))
        if damage and lines:
            cols = draw(st.sampled_from(lines))
            if damage == "drop":
                cols.pop()
            elif damage == "extra":
                cols.append("1")
            elif damage == "empty" and len(cols) > 1:
                cols[draw(st.integers(0, 2))] = ""
            elif damage == "label" and labeled and len(cols) == 4:
                cols[3] = draw(st.sampled_from(["2", "+1", " 1", "yes", ""]))
        lines = ["\t".join(cols) for cols in lines]
        ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
        text = "".join(line + end for line, end in zip(lines, ends))
        if lines and draw(st.booleans()):
            text = text[:-len(ends[-1])]  # no final newline
        files[name] = text.encode("utf-8")
    return task, files


@SETTINGS
@given(_benchmark())
def test_bulk_loader_matches_per_line_reference(case):
    task, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{name}.txt" for name in SPLITS]
        for path, name in zip(paths, SPLITS):
            path.write_bytes(files[name])
        assert _outcome(_load, paths, task) == _outcome(_reference, paths, task)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["planted", "trainable"]), st.integers(0, 2 ** 16),
       st.sampled_from(["lp", "classification"]))
def test_write_then_load_round_trip(generator, seed, task):
    if generator == "planted":
        splits, _ = generate_planted_splits(seed, 150, 6, 420, 0.1, task=task)
    else:
        splits, _ = generate_trainable_splits(seed, 40, 3, 200, 0.1, task=task)
    with tempfile.TemporaryDirectory() as tmp:
        write_splits(splits, tmp)
        loaded = load_split_dir(tmp, task=task)
    assert loaded == splits
    assert loaded.vocab.entity_names == splits.vocab.entity_names
    for name in SPLITS:
        assert np.array_equal(np.asarray(getattr(loaded, name)), np.asarray(getattr(splits, name)))
    assert (loaded.valid_labels, loaded.test_labels) == (splits.valid_labels, splits.test_labels)
    assert loaded.ookg_entities == splits.ookg_entities
    assert loaded.dangling_ookg == splits.dangling_ookg
