"""Binary behavioral feature dataset: loading, labeling, splitting.

A sample is a set of fired behavioral events. Each event is a feature name
of the form ``<CATEGORY>:<identifier>`` where the category is one of the
seven behavioral groups (API calls, dropped-file extensions, registry ops,
file ops, file extensions touched, directory ops, embedded strings).
Feature values are binary, so a row is stored as the sorted set of active
column ordinals rather than a dense vector.

Two on-disk formats are supported and produce identical in-memory results:
a dense CSV (header ``sample_id,family_id,<names...>``, cells "0"/"1") and
a sparse tab-separated format (canonical for wide matrices):

    #FEATURES <d>
    <feature name>          (d lines, column order)
    #SAMPLES <n>
    <sample_id>\t<family_id>\t<name name ...>

``file_format`` tells them apart, so ``load`` and ``load_dictionary`` read
either without being told which.

Family ID 0 is goodware; IDs 1..11 are ransomware families. The binary
label is simply ``family_id != 0``.
"""

from __future__ import annotations

import array
import contextlib
import csv
import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, SplitError

CATEGORY_CODES = ("API", "DROP", "REG", "FILES", "FILES_EXT", "DIR", "STR")

# A feature name starts with one of these.
NAME_PREFIXES = tuple(code + ":" for code in CATEGORY_CODES)

MAX_FAMILY_ID = 11

# Column ordinals are stored as int32.
INT32_LIMIT = 2**31

# Dictionary names are read from a file, hashed and written with their MI
# scores this many at a time, which bounds the memory a block of them holds.
BLOCK_LINES = 8192


def needs_quotes(text: str) -> bool:
    """Whether ``text`` holds a comma, a ``"`` or a line break: RFC 4180 quotes such a field."""
    return any(c in text for c in ',"\r\n')


def csv_field(text: str) -> str:
    """``text`` as one CSV field: in quotes, each ``"`` doubled, if it ``needs_quotes``."""
    return '"' + text.replace('"', '""') + '"' if needs_quotes(text) else text


@dataclass(frozen=True)
class FeatureDictionary:
    """Ordered feature names, checked by the loader that read them. Only
    ``load_dictionary``'s holds ``members``, the names as a set ``unknown`` reads."""

    names: tuple[str, ...]
    members: frozenset | None = field(default=None, repr=False, compare=False)
    _sha256: str | None = field(init=False, default=None, repr=False, compare=False)

    def __len__(self):
        return len(self.names)

    def unknown(self, names: set[str]) -> set[str]:
        """The ``names`` the dictionary does not hold."""
        return names.difference(self.members)

    def sha256(self) -> str:
        """Content hash used in model fingerprints, computed on first call."""
        if self._sha256 is None:
            h = hashlib.sha256()
            for start in range(0, len(self.names), BLOCK_LINES):
                block = self.names[start:start + BLOCK_LINES]
                h.update(("\n".join(block) + "\n").encode("utf-8"))
            object.__setattr__(self, "_sha256", h.hexdigest())
        return self._sha256


def name_table(names: tuple[str, ...], ordinals: bool = False, dense: bool = False):
    """``names`` as a frozenset, or a name -> ordinal dict with ``ordinals``, once checked: one
    name or more, each category-prefixed, none repeated, with ``dense`` each one line (only a CSV
    header cell can hold "\\n"; ``sha256`` joins names with it). The first offender is named."""
    if not names:
        raise DataFormatError("feature dictionary is empty")
    # A set built from a dict is sized once, half the table it grows to from a tuple.
    table = dict(zip(names, range(len(names)))) if ordinals else frozenset(dict.fromkeys(names))
    if len(table) < len(names) or not all(
            map(str.startswith, names, itertools.repeat(NAME_PREFIXES))) or dense and any(
            "\n" in name for name in names):
        seen = set()
        for name in names:
            if not name.startswith(NAME_PREFIXES):
                raise DataFormatError(f"feature name {name!r} lacks a valid category prefix")
            if "\n" in name:
                raise DataFormatError(f"feature name {name!r} holds a line break")
            if name in seen:
                raise DataFormatError(f"duplicate feature name {name!r}")
            seen.add(name)
    return table


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """n x d sparse binary matrix in compressed sparse row form, stored read-only.

    Row i's active column ordinals are ``indices[indptr[i]:indptr[i+1]]``,
    strictly increasing and below ``n_features``. The loaders check their rows
    before they build one; the matrix itself checks nothing.
    """

    n_features: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        for name, dtype in (("indptr", np.int64), ("indices", np.int32)):
            array = np.asarray(getattr(self, name), dtype=dtype)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def from_rows(cls, n_features, rows):
        """Build from one sorted ordinal sequence per row."""
        indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
        indices = np.concatenate([np.asarray(r, dtype=np.int32) for r in rows]
                                 or [np.zeros(0, dtype=np.int32)])
        return cls(n_features, indptr, indices)

    @property
    def n_samples(self) -> int:
        return len(self.indptr) - 1


def load_dense_csv(path) -> tuple[DataMatrix, FeatureDictionary, np.ndarray]:
    """Load the dense CSV format.

    Header row must be ``sample_id,family_id,<feature names...>``; body
    cells are strictly "0"/"1". Blank lines are skipped, also before the header.
    """
    rows, labels, seen = [], [], set()
    with _reading(path, "CSV"), open(path, "rb") as fh:
        reader = csv.reader(_decoded_lines(fh))
        names = _dense_names(reader)
        name_table(names, dense=True)  # the cells are read by position
        d = len(names)
        for cells in filter(None, reader):
            line_no = reader.line_num
            if len(cells) != d + 2:
                raise DataFormatError(f"line {line_no}: expected {d + 2} cells, got {len(cells)}")
            labels.append(_sample_label(cells[0], cells[1], seen, f"line {line_no}"))
            values = cells[2:]
            rows.append([j for j, cell in enumerate(values) if cell == "1"])
            if len(rows[-1]) + values.count("0") != d:
                j = next(j for j, cell in enumerate(values) if cell not in ("0", "1"))
                raise DataFormatError(
                    f"line {line_no}: cell for feature {names[j]!r} "
                    f"is {values[j]!r}, expected 0 or 1"
                )
    return DataMatrix.from_rows(d, rows), FeatureDictionary(names), _read_only_labels(labels)


def _sample_label(sample_id: str, family: str, seen: set, where: str) -> int:
    """The binary label of a sample line: 1 ransomware (family_id 1..11), 0
    goodware (family_id 0). A sample ID already in ``seen`` is rejected, and
    the new one is added to it."""
    try:
        family_id = int(family)
    except ValueError:
        raise DataFormatError(f"{where}: family_id {family!r} is not an integer") from None
    if not 0 <= family_id <= MAX_FAMILY_ID:
        raise DataFormatError(f"{where}: family_id {family_id} outside [0, {MAX_FAMILY_ID}]")
    if sample_id in seen:
        raise DataFormatError(f"{where}: duplicate sample id {sample_id!r}")
    seen.add(sample_id)
    return int(family_id != 0)


def _read_only_labels(labels: list) -> np.ndarray:
    array = np.array(labels, dtype=np.int64)
    array.setflags(write=False)
    return array


@contextlib.contextmanager
def _reading(path, kind: str):
    """Names ``path`` at the start of every ``DataFormatError`` raised while
    it is read; a file that is not UTF-8 ``kind`` raises one."""
    try:
        yield
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: not readable as UTF-8 {kind}: {exc}") from None
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _section_count(head, tag: str) -> int:
    """The count of a ``<tag> <count>`` section header line, which has no other word."""
    words = head.split() if head and head.startswith(tag + " ") else ()
    try:
        count = int(words[1]) if len(words) == 2 else -1
    except ValueError:
        count = -1
    if not 0 <= count <= INT32_LIMIT:
        raise DataFormatError(f"expected a '{tag} <count>' header, got {head!r}")
    return count


def _decoded_lines(fh):
    """Lines of a binary file, each decoded from UTF-8 only when it is reached."""
    return (raw.decode("utf-8") for raw in fh)


def _nonblank(fh):
    """Non-blank lines of a binary file without their trailing newline, each
    decoded from UTF-8 only when it is reached."""
    return (raw.decode("utf-8").rstrip("\n") for raw in fh if raw != b"\n")


def _sparse_names(fh) -> tuple[str, ...]:
    """The names of the ``#FEATURES`` section of a sparse file open in binary mode.

    The names are read in blocks of at most ``BLOCK_LINES`` lines, and each
    block is decoded and split once, blank lines dropped. No line after
    the last name is read.
    """
    d = _section_count(next(_nonblank(fh), None), "#FEATURES")
    names = []
    while len(names) < d:
        block = list(itertools.islice(fh, min(d - len(names), BLOCK_LINES)))
        if not block:
            raise DataFormatError("dictionary section truncated")
        # Blank lines, and the newline that ends the block, split off as "".
        names += filter(None, b"".join(block).decode("utf-8").split("\n"))
    return tuple(names)


def _dense_names(reader) -> tuple[str, ...]:
    """The feature names of a dense CSV's header row, its first non-blank row."""
    header = next(filter(None, reader), [])
    if header[:2] != ["sample_id", "family_id"]:
        raise DataFormatError(f"header must start with 'sample_id,family_id', got {header[:2]}")
    return tuple(header[2:])


def file_format(path) -> str:
    """"dense" when the first non-blank line of ``path`` starts with the dense
    CSV header's ``sample_id,family_id``, else "sparse". Only the start of
    that line is looked at."""
    prefix = b"sample_id,family_id"
    with open(path, "rb") as fh:
        head = b"\n"
        while head == b"\n":
            head = fh.readline(len(prefix))
    return "dense" if head == prefix else "sparse"


def load_dictionary(path) -> FeatureDictionary:
    """Only the feature dictionary of a dataset file, in either format.

    It is checked exactly as ``load`` checks it and holds ``members``; the
    sample section is not parsed, and no byte after the dictionary is decoded.
    """
    dense = file_format(path) == "dense"
    with _reading(path, "CSV" if dense else "text"), open(path, "rb") as fh:
        names = _dense_names(csv.reader(_decoded_lines(fh))) if dense else _sparse_names(fh)
        return FeatureDictionary(names, name_table(names, dense=dense))


def load(path) -> tuple[DataMatrix, FeatureDictionary, np.ndarray]:
    """The matrix, dictionary and labels of a dataset file, in either format."""
    return (load_dense_csv if file_format(path) == "dense" else load_sparse)(path)


def load_sparse(path) -> tuple[DataMatrix, FeatureDictionary, np.ndarray]:
    """Load the sparse tab-separated format (see module docstring).

    Each sample's tokens are mapped to ordinals as its line is read and go onto
    one int32 buffer, which becomes ``indices`` uncopied: no token list or row
    array outlives its line. Blank lines are skipped; a token repeated within
    a line counts once. A non-blank line after the last ``#SAMPLES`` line is an error.
    """
    indices, indptr, labels, seen = array.array("i"), [0], [], set()
    with _reading(path, "text"), open(path, "rb") as fh:
        names = _sparse_names(fh)
        ordinal = name_table(names, ordinals=True).__getitem__
        lines = _nonblank(fh)
        n = _section_count(next(lines, None), "#SAMPLES")
        for i in range(n):
            line = next(lines, None)
            if line is None:
                raise DataFormatError(f"sample section truncated at row {i}")
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataFormatError(f"sample line {i}: expected 3 tab-separated fields")
            sample_id, family, tokens = parts[0], parts[1], parts[2].split()
            try:
                ordinals = np.fromiter(map(ordinal, tokens), dtype=np.int32, count=len(tokens))
            except KeyError as exc:
                raise DataFormatError(
                    f"sample {sample_id!r}: unknown feature {exc.args[0]!r}") from None
            ordinals.sort()
            if (ordinals[1:] == ordinals[:-1]).any():
                ordinals = np.unique(ordinals)
            indices.frombytes(ordinals.tobytes())
            indptr.append(len(indices))
            labels.append(_sample_label(sample_id, family, seen, f"sample {sample_id!r}"))
        if next(lines, None) is not None:
            raise DataFormatError(f"more sample lines than '#SAMPLES {n}' gives")
    matrix = DataMatrix(len(names), indptr, np.frombuffer(indices, dtype=np.int32))
    return matrix, FeatureDictionary(names), _read_only_labels(labels)


def stratified_split(
    y: np.ndarray, seed: int, test_fraction: float
) -> tuple[list[int], list[int]]:
    """Partition the indices of ``y`` into (train, test), deterministic per seed.

    Each class contributes round(class_count * test_fraction) test samples.
    """
    rng = np.random.default_rng(seed)
    classes = np.unique(y)
    if len(classes) < 2:
        raise SplitError("stratified split requires both classes present")
    test = np.zeros(len(y), dtype=bool)
    for c in classes:
        members = np.flatnonzero(y == c)
        k = round(len(members) * test_fraction)
        if not 0 < k < len(members):
            raise SplitError(
                f"test_fraction {test_fraction} empties a partition "
                f"for class {c}"
            )
        test[rng.permutation(members)[:k]] = True
    return np.flatnonzero(~test).tolist(), np.flatnonzero(test).tolist()


def take_rows(matrix: DataMatrix, indices) -> DataMatrix:
    """Row subset in the given index order."""
    bounds = matrix.indptr.tolist()
    rows = [matrix.indices[bounds[i]:bounds[i + 1]] for i in indices]
    return DataMatrix.from_rows(matrix.n_features, rows)

