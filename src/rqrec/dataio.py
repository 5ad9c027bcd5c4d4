"""Interaction logs, k-core filtering, leave-one-out splits, embedding matrix I/O, and the
refusal of a bad input file, which names the stage that writes the file."""
from __future__ import annotations

import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

EMB_HEADER = "ITEM_EMB v1"


@dataclass
class InteractionDataset:
    """Users, items, and per-user chronological (item, timestamp) sequences.

    Invariant: `users` / `items` are exactly the ids occurring in `sequences`,
    and each sequence is sorted non-decreasing by timestamp (ties keep input order).
    """

    users: set[str]
    items: set[str]
    sequences: dict[str, list[tuple[str, int]]]
    skipped_lines: int = field(default=0, compare=False)

    @classmethod
    def from_sequences(cls, sequences: dict[str, list[tuple[str, int]]],
                       skipped_lines: int = 0) -> "InteractionDataset":
        users = {u for u, seq in sequences.items() if seq}
        items = {i for seq in sequences.values() for i, _ in seq}
        return cls(users=users, items=items,
                   sequences={u: list(sequences[u]) for u in sequences if sequences[u]},
                   skipped_lines=skipped_lines)

    def num_interactions(self) -> int:
        return sum(len(s) for s in self.sequences.values())


@dataclass
class SplitDataset:
    """Leave-one-out split: per-user train history plus single valid/test items."""

    train: dict[str, list[str]]
    valid: dict[str, str]
    test: dict[str, str]
    dropped_users: list[str] = field(default_factory=list, compare=False)


@dataclass
class EmbeddingMatrix:
    """Dense real item embeddings: row k of `vectors` belongs to `items[k]`.

    The items are sorted and unique: training batches index rows, so the row
    order is part of every artifact built from the matrix.
    """

    items: list[str]
    vectors: np.ndarray  # (len(items), dim) float64

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.items):
            raise ValueError(f"{len(self.items)} items for vectors of shape {self.vectors.shape}")
        if any(a >= b for a, b in zip(self.items, self.items[1:])):
            raise ValueError("embedding items must be sorted and unique")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


# out_dir file -> the stage that writes it, which a refusal of the file names
PRODUCED_BY = {
    "train.tsv": "prepare",
    "valid.tsv": "prepare",
    "test.tsv": "prepare",
    "collab.emb": "embed-collab",
    "codes_ceid.tsv": "build-index",
    "codes_seid.tsv": "build-index",
    "scorer_ceid.txt": "train-scorers",
    "scorer_seid.txt": "train-scorers",
    "ranked_ceid.jsonl": "retrieve",
    "ranked_seid.jsonl": "retrieve",
    "fused.jsonl": "rerank",
}


def refusal(path: str | Path, problem: str, lineno: int | None = None,
            produced: bool = True) -> str:
    """`path[:lineno]: problem`, and the stage to rerun when one writes the file.

    An outside input (`produced` false: the interactions, the semantic
    embeddings, the config) gets no hint, whatever its name.
    """
    where = str(path) if lineno is None else f"{path}:{lineno}"
    producer = PRODUCED_BY.get(Path(path).name) if produced else None
    rerun = f"; rerun {producer!r} to rewrite it" if producer else ""
    return f"{where}: {problem}{rerun}"


def decoded(path: str | Path, data: bytes, produced: bool = True) -> str:
    """A file's bytes as text. A byte that is not UTF-8 is a refusal naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode; one more character ends its line
        lineno = len((data[:exc.start] + b".").decode("utf-8").splitlines())
        raise ValueError(refusal(path, f"byte {data[exc.start]:#04x} is not UTF-8",
                                 lineno, produced)) from None


def load_interactions(path: str | Path) -> InteractionDataset:
    """Parse `user<TAB>item<TAB>timestamp` lines into a dataset.

    Malformed lines are skipped and counted; an empty result is an error. An id
    holding a line break (one `str.splitlines` ends a line at, such as U+0085)
    is refused with its line: the split files, code tables and embeddings that
    carry ids are read a line per `splitlines` line.
    """
    path = Path(path)
    raw: dict[str, list[tuple[str, int]]] = {}
    skipped = 0
    text = decoded(path, path.read_bytes(), produced=False)
    # lines end as a text-mode read ends them, so a line break inside an id is found
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3 or not parts[0] or not parts[1]:
            skipped += 1
            continue
        try:
            ts = int(parts[2])
        except ValueError:
            skipped += 1
            continue
        for name in parts[:2]:
            if name.splitlines() != [name]:
                raise ValueError(refusal(path, f"id {name!r} holds a line break", lineno,
                                         produced=False))
        raw.setdefault(parts[0], []).append((parts[1], ts))
    if skipped:
        log.warning("%s: skipped %d malformed line(s)", path, skipped)
    if not raw:
        raise ValueError(f"{path}: no valid interaction lines")
    # stable sort keeps input order for equal timestamps
    for u in raw:
        raw[u].sort(key=lambda pair: pair[1])
    return InteractionDataset.from_sequences(raw, skipped_lines=skipped)


def write_interactions(ds: InteractionDataset, path: str | Path) -> None:
    with replace_on_close(path) as fh:
        for u in sorted(ds.sequences):
            for item, ts in ds.sequences[u]:
                fh.write(f"{u}\t{item}\t{ts}\n")


def kcore_filter(ds: InteractionDataset, k: int) -> InteractionDataset:
    """Iteratively drop users/items with fewer than k interactions until fixpoint."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sequences = {u: list(seq) for u, seq in ds.sequences.items()}
    while True:
        item_counts: dict[str, int] = {}
        for seq in sequences.values():
            for item, _ in seq:
                item_counts[item] = item_counts.get(item, 0) + 1
        bad_items = {i for i, c in item_counts.items() if c < k}
        changed = False
        for u in list(sequences):
            seq = sequences[u]
            if bad_items:
                kept = [(i, t) for i, t in seq if i not in bad_items]
                if len(kept) != len(seq):
                    sequences[u] = kept
                    seq = kept
                    changed = True
            if len(seq) < k:
                del sequences[u]
                changed = True
        if not changed:
            break
    return InteractionDataset.from_sequences(sequences, skipped_lines=ds.skipped_lines)


def leave_one_out_split(ds: InteractionDataset, max_len: int = 20) -> SplitDataset:
    """Per user: last item to test, second-to-last to valid, the rest to train.

    Train histories keep only the last `max_len` items. Users with fewer than
    3 interactions are excluded from all splits and reported.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    train: dict[str, list[str]] = {}
    valid: dict[str, str] = {}
    test: dict[str, str] = {}
    dropped: list[str] = []
    for u, seq in ds.sequences.items():
        items = [i for i, _ in seq]
        if len(items) < 3:
            dropped.append(u)
            continue
        train[u] = items[:-2][-max_len:]
        valid[u] = items[-2]
        test[u] = items[-1]
    if dropped:
        log.warning("leave-one-out: excluded %d user(s) with < 3 interactions", len(dropped))
    return SplitDataset(train=train, valid=valid, test=test, dropped_users=sorted(dropped))


def write_split(split: SplitDataset, out_dir: str | Path) -> None:
    """Write the split manifest as train/valid/test TSV files."""
    out_dir = Path(out_dir)
    with replace_on_close(out_dir / "train.tsv") as fh:
        for u in sorted(split.train):
            for item in split.train[u]:
                fh.write(f"{u}\t{item}\n")
    for name, mapping in (("valid", split.valid), ("test", split.test)):
        with replace_on_close(out_dir / f"{name}.tsv") as fh:
            for u in sorted(mapping):
                fh.write(f"{u}\t{mapping[u]}\n")


def load_split(out_dir: str | Path) -> SplitDataset:
    """Read train/valid/test.tsv; a line that is not 'user<TAB>item' names path:lineno."""
    split: dict[str, dict] = {"train": {}}
    for name in ("train", "valid", "test"):
        path = Path(out_dir) / f"{name}.tsv"
        lines = decoded(path, path.read_bytes()).splitlines()
        try:
            if name == "train":
                for line in lines:
                    u, item = line.split("\t")
                    split["train"].setdefault(u, []).append(item)
            else:
                split[name] = dict(line.split("\t") for line in lines)
        except ValueError:  # a line with no tab or with two
            lineno = next(n for n, line in enumerate(lines, 1) if line.count("\t") != 1)
            raise ValueError(refusal(path, "expected 'user<TAB>item'", lineno)) from None
    return SplitDataset(**split)


@contextmanager
def replace_on_close(path: str | Path):
    """A text file to write in place of path, moved onto it once the block succeeds.

    The file is a temporary in path's directory, so `os.replace` swaps it in
    whole: a reader of path sees the old bytes or the new ones, never a part.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_embedding_matrix(path: str | Path, produced: bool = True) -> EmbeddingMatrix:
    """Read the `ITEM_EMB v1` text format into item-sorted rows; errors name the line,
    and the stage to rerun for a `produced` file."""
    path = Path(path)
    lines = decoded(path, path.read_bytes(), produced).splitlines()

    def refused(problem: str, lineno: int | None = None) -> ValueError:
        return ValueError(refusal(path, problem, lineno, produced))

    if not lines or lines[0] != EMB_HEADER:
        raise refused(f"expected header '{EMB_HEADER}'", 1)
    if len(lines) < 2:
        raise refused("missing 'n d' size line", 2)
    try:
        n, d = (int(x) for x in lines[1].split())
    except ValueError:
        raise refused(f"malformed size line {lines[1]!r}", 2) from None
    if n < 0 or d < 1:
        raise refused(f"size line {lines[1]!r} needs n >= 0 rows and d >= 1 dimensions", 2)
    rows: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines[2:2 + n], start=3):
        parts = line.split()
        if len(parts) != d + 1:
            raise refused(f"expected {d + 1} fields, got {len(parts)}", lineno)
        item = parts[0]
        if item in rows:
            raise refused(f"duplicate item id {item!r}", lineno)
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError:
            raise refused("non-numeric value", lineno) from None
        if not np.all(np.isfinite(vec)):
            raise refused("non-finite value", lineno)
        rows[item] = vec
    if len(rows) != n:
        raise refused(f"expected {n} rows, found {len(rows)}")
    for lineno, line in enumerate(lines[2 + n:], start=3 + n):
        if line.strip():
            raise refused(f"a row beyond the {n} the size line declares", lineno)
    items = sorted(rows)
    vectors = np.array([rows[i] for i in items], dtype=np.float64).reshape(n, d)
    return EmbeddingMatrix(items, vectors)


def write_embedding_matrix(emb: EmbeddingMatrix, path: str | Path) -> None:
    """Write the `ITEM_EMB v1` text format, one row per item in stored order."""
    finite = np.isfinite(emb.vectors).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {emb.items[int(np.argmin(finite))]!r} has non-finite values")
    with replace_on_close(path) as fh:
        fh.write(f"{EMB_HEADER}\n{len(emb.items)} {emb.dim}\n")
        for item, vec in zip(emb.items, emb.vectors.tolist()):
            fh.write(item + " " + " ".join(map(repr, vec)) + "\n")
