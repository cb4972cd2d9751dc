"""Binary behavioral feature dataset: loading, labeling, splitting, synthesis.

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

Family ID 0 is goodware; IDs 1..11 are ransomware families. The binary
label is simply ``family_id != 0``.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, SplitError

CATEGORY_CODES = ("API", "DROP", "REG", "FILES", "FILES_EXT", "DIR", "STR")

MAX_FAMILY_ID = 11

# Column ordinals are stored as int32.
INT32_LIMIT = 2**31

ARRAY_FIELDS = ("indptr", "indices", "family_ids", "sample_ids")


@dataclass(frozen=True)
class FeatureDictionary:
    """Ordered feature names with name -> column ordinal lookup."""

    names: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)
    _sha256: str | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.names:
            raise DataFormatError("feature dictionary is empty")
        index = {}
        for j, name in enumerate(self.names):
            prefix = name.split(":", 1)[0]
            if prefix not in CATEGORY_CODES or ":" not in name:
                raise DataFormatError(
                    f"feature name {name!r} lacks a valid category prefix"
                )
            if name in index:
                raise DataFormatError(f"duplicate feature name {name!r}")
            index[name] = j
        object.__setattr__(self, "_index", index)

    def __len__(self):
        return len(self.names)

    def ordinal(self, name: str) -> int:
        return self._index[name]

    def lookup(self, names) -> tuple[list[int], list[str]]:
        """Ordinals of the known ``names`` and the unknown names, each in input order."""
        known, unknown = [], []
        for name in names:
            j = self._index.get(name)
            if j is None:
                unknown.append(name)
            else:
                known.append(j)
        return known, unknown

    def sha256(self) -> str:
        """Content hash used in model fingerprints, computed on first call."""
        if self._sha256 is None:
            h = hashlib.sha256()
            for name in self.names:
                h.update(name.encode("utf-8"))
                h.update(b"\n")
            object.__setattr__(self, "_sha256", h.hexdigest())
        return self._sha256


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """n x d sparse binary matrix in compressed sparse row form, stored read-only.

    Row i's active column ordinals are ``indices[indptr[i]:indptr[i+1]]``,
    strictly increasing. Without ``family_ids`` every row is goodware and
    without ``sample_ids`` rows are named by their numbers.
    """

    n_features: int
    indptr: np.ndarray
    indices: np.ndarray
    family_ids: np.ndarray | None = None
    sample_ids: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.indptr) - 1
        d = self.n_features
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = np.asarray(self.indices, dtype=np.int64)
        family_ids = np.zeros(n, dtype=np.int64) if self.family_ids is None \
            else np.asarray(self.family_ids)
        sample_ids = np.asarray(
            [str(i) for i in range(n)] if self.sample_ids is None else self.sample_ids,
            dtype=object,
        )
        if not (d <= INT32_LIMIT and len(family_ids) == n == len(sample_ids)
                and indptr[-1] == len(indices)):
            raise DataFormatError(f"inconsistent {n}-row matrix with {d} features")

        def reject(row, problem):
            raise DataFormatError(f"sample {sample_ids[row]!r}: {problem}")

        bad = np.flatnonzero((family_ids < 0) | (family_ids > MAX_FAMILY_ID))
        if len(bad):
            reject(bad[0], f"family_id {family_ids[bad[0]]} outside [0, {MAX_FAMILY_ID}]")
        entry_rows = np.repeat(np.arange(n), np.diff(indptr))
        bad = np.flatnonzero((np.diff(indices) <= 0) & (np.diff(entry_rows) == 0))
        if len(bad):
            reject(entry_rows[bad[0]], "active ordinals not strictly sorted")
        bad = np.flatnonzero((indices < 0) | (indices >= d))
        if len(bad):
            reject(entry_rows[bad[0]], f"ordinal {indices[bad[0]]} outside [0, {d})")
        ids, counts = np.unique(sample_ids, return_counts=True)
        if np.any(counts > 1):
            raise DataFormatError(f"duplicate sample id {ids[counts > 1][0]!r}")

        arrays = (indptr, indices.astype(np.int32), family_ids.astype(np.int64), sample_ids)
        for name, array in zip(ARRAY_FIELDS, arrays):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def from_rows(cls, n_features, rows, family_ids=None, sample_ids=None):
        """Build from one sorted ordinal sequence per row."""
        indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
        indices = np.concatenate([np.asarray(r, dtype=np.int64) for r in rows]
                                 or [np.zeros(0, dtype=np.int64)])
        return cls(n_features, indptr, indices, family_ids, sample_ids)

    def __eq__(self, other):
        if not isinstance(other, DataMatrix):
            return NotImplemented
        return self.n_features == other.n_features and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in ARRAY_FIELDS)

    @property
    def n_samples(self) -> int:
        return len(self.indptr) - 1

    def row_ordinals(self) -> list[np.ndarray]:
        """Active ordinals of every row, as views into ``indices``."""
        bounds = self.indptr.tolist()
        return [self.indices[a:b] for a, b in zip(bounds, bounds[1:])]

    def entry_rows(self) -> np.ndarray:
        """Row number of every entry of ``indices``."""
        return np.repeat(np.arange(self.n_samples), np.diff(self.indptr))

    def to_dense(self) -> np.ndarray:
        """Materialize as a (n_samples, n_features) uint8 array."""
        out = np.zeros((self.n_samples, self.n_features), dtype=np.uint8)
        out[self.entry_rows(), self.indices] = 1
        return out


@dataclass(frozen=True)
class LabelVector:
    """Binary labels: 0 goodware, 1 ransomware."""

    labels: tuple[int, ...]

    def __len__(self):
        return len(self.labels)

    def to_array(self) -> np.ndarray:
        return np.asarray(self.labels, dtype=np.int64)

    @classmethod
    def from_families(cls, family_ids) -> "LabelVector":
        return cls(tuple(int(f != 0) for f in family_ids))


@dataclass(frozen=True)
class SplitSpec:
    """Seeded stratified train/test split parameters.

    The default fraction yields a 503-sample test partition on the
    1524-sample reference dataset shape.
    """

    seed: int = 0
    test_fraction: float = 503 / 1524

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise SplitError(f"test_fraction {self.test_fraction} not in (0,1)")


def load_dense_csv(path) -> tuple[DataMatrix, FeatureDictionary, LabelVector]:
    """Load the dense CSV format.

    Header row must be ``sample_id,family_id,<feature names...>``; body
    cells are strictly "0"/"1".
    """
    rows, family_ids, sample_ids = [], [], []
    try:
        with open(path, "rb") as fh:
            reader = csv.reader(_decoded_lines(fh))
            dictionary = _dense_dictionary(reader, path)
            d = len(dictionary)
            for line_no, cells in enumerate(reader, start=2):
                if not cells:
                    continue
                if len(cells) != d + 2:
                    raise DataFormatError(
                        f"{path}: line {line_no}: expected {d + 2} cells, got {len(cells)}"
                    )
                family_ids.append(_parse_family(cells[1], f"{path}: line {line_no}"))
                values = cells[2:]
                rows.append([j for j, cell in enumerate(values) if cell == "1"])
                if len(rows[-1]) + values.count("0") != d:
                    j = next(j for j, cell in enumerate(values) if cell not in ("0", "1"))
                    raise DataFormatError(
                        f"line {line_no}: cell for feature {dictionary.names[j]!r} "
                        f"is {values[j]!r}, expected 0 or 1"
                    )
                sample_ids.append(cells[0])
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"{path}: not readable as UTF-8 CSV: {exc}") from None
    matrix = DataMatrix.from_rows(d, rows, family_ids, sample_ids)
    return matrix, dictionary, LabelVector.from_families(matrix.family_ids)


def _parse_family(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataFormatError(f"{where}: family_id {text!r} is not an integer") from None


def _section_count(head, tag: str, path) -> int:
    """The count of a ``<tag> <count>`` section header line."""
    try:
        count = int(head.split()[1]) if head and head.startswith(tag + " ") else -1
    except (IndexError, ValueError):
        count = -1
    if not 0 <= count <= INT32_LIMIT:
        raise DataFormatError(f"{path}: expected a '{tag} <count>' header, got {head!r}")
    return count


def _decoded_lines(fh):
    """Lines of a binary file, each decoded from UTF-8 only when it is reached."""
    return (raw.decode("utf-8") for raw in fh)


def _nonblank(raw_lines):
    """Lines without their trailing newline, blank ones skipped."""
    return (line for line in (raw.rstrip("\n") for raw in raw_lines) if line)


def _sparse_dictionary(lines, path) -> FeatureDictionary:
    """The ``#FEATURES`` section, read from the non-blank lines of a sparse file."""
    d = _section_count(next(lines, None), "#FEATURES", path)
    names = tuple(itertools.islice(lines, d))
    if len(names) < d:
        raise DataFormatError(f"{path}: dictionary section truncated")
    return FeatureDictionary(names)


def _dense_dictionary(reader, path) -> FeatureDictionary:
    """The feature names of a dense CSV's header row."""
    header = next(reader, [])
    if header[:2] != ["sample_id", "family_id"]:
        raise DataFormatError(
            f"{path}: header must start with 'sample_id,family_id', got {header[:2]}"
        )
    return FeatureDictionary(tuple(header[2:]))


def load_dictionary(path, fmt: str) -> FeatureDictionary:
    """Only the feature dictionary of a ``fmt`` ("sparse" or "dense") dataset file.

    It is checked exactly as ``load_sparse`` and ``load_dense_csv`` check
    it; the sample section is not parsed. The file is decoded one line at
    a time, so no byte after the dictionary is read as text.
    """
    try:
        with open(path, "rb") as fh:
            if fmt == "dense":
                return _dense_dictionary(csv.reader(_decoded_lines(fh)), path)
            return _sparse_dictionary(_nonblank(_decoded_lines(fh)), path)
    except (UnicodeDecodeError, csv.Error) as exc:
        kind = "CSV" if fmt == "dense" else "text"
        raise DataFormatError(f"{path}: not readable as UTF-8 {kind}: {exc}") from None


def load_sparse(path) -> tuple[DataMatrix, FeatureDictionary, LabelVector]:
    """Load the sparse tab-separated format (see module docstring).

    The file is read line by line and each sample's tokens are mapped to
    ordinals as its line is read, so no whole-file token list is held.
    Blank lines are skipped; a token repeated within a line counts once.
    """
    rows, family_ids, sample_ids = [], [], []
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            lines = _nonblank(fh)
            dictionary = _sparse_dictionary(lines, path)
            d = len(dictionary)
            for i in range(_section_count(next(lines, None), "#SAMPLES", path)):
                line = next(lines, None)
                if line is None:
                    raise DataFormatError(f"{path}: sample section truncated at row {i}")
                parts = line.split("\t")
                if len(parts) != 3:
                    raise DataFormatError(
                        f"{path}: sample line {i}: expected 3 tab-separated fields"
                    )
                sample_id, family, tokens = parts[0], parts[1], parts[2].split()
                try:
                    ordinals = np.fromiter(map(dictionary._index.__getitem__, tokens),
                                           dtype=np.int64, count=len(tokens))
                except KeyError as exc:
                    raise DataFormatError(
                        f"{path}: sample {sample_id!r}: unknown feature {exc.args[0]!r}"
                    ) from None
                rows.append(np.unique(ordinals))
                family_ids.append(_parse_family(family, f"{path}: sample {sample_id!r}"))
                sample_ids.append(sample_id)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not readable as UTF-8 text: {exc}") from None
    matrix = DataMatrix.from_rows(d, rows, family_ids, sample_ids)
    return matrix, dictionary, LabelVector.from_families(matrix.family_ids)


def write_dense_csv(path, matrix: DataMatrix, dictionary: FeatureDictionary) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "family_id", *dictionary.names])
        for sid, family, row in zip(matrix.sample_ids, matrix.family_ids, matrix.to_dense()):
            writer.writerow([sid, str(family), *map(str, row.tolist())])


def write_sparse(path, matrix: DataMatrix, dictionary: FeatureDictionary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#FEATURES {matrix.n_features}\n")
        fh.writelines(name + "\n" for name in dictionary.names)
        fh.write(f"#SAMPLES {matrix.n_samples}\n")
        for sid, family, active in zip(
            matrix.sample_ids, matrix.family_ids.tolist(), matrix.row_ordinals()
        ):
            feats = " ".join(dictionary.names[j] for j in active.tolist())
            fh.write(f"{sid}\t{family}\t{feats}\n")


def stratified_split(
    matrix: DataMatrix, y: LabelVector, spec: SplitSpec
) -> tuple[list[int], list[int]]:
    """Partition row indices into (train, test), deterministic per seed.

    Each class contributes round(class_count * test_fraction) test samples.
    """
    n = matrix.n_samples
    if n < 2:
        raise SplitError("need at least 2 samples to split")
    if len(y) != n:
        raise SplitError(f"labels length {len(y)} != n_samples {n}")
    rng = np.random.default_rng(spec.seed)
    labels = y.to_array()

    classes = np.unique(labels)
    if len(classes) < 2:
        raise SplitError("stratified split requires both classes present")
    test_idx: list[int] = []
    for c in classes:
        members = np.flatnonzero(labels == c)
        k = round(len(members) * spec.test_fraction)
        if k == 0 or k == len(members):
            raise SplitError(
                f"test_fraction {spec.test_fraction} empties a partition "
                f"for class {c}"
            )
        perm = rng.permutation(members)
        test_idx.extend(int(i) for i in perm[:k])

    test_set = set(test_idx)
    train_idx = [i for i in range(n) if i not in test_set]
    return train_idx, sorted(test_idx)


def take_rows(matrix: DataMatrix, indices) -> DataMatrix:
    """Row subset in the given index order."""
    rows = np.asarray(indices, dtype=np.int64)
    starts = matrix.indptr[rows]
    lengths = matrix.indptr[rows + 1] - starts
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    # Position in ``matrix.indices`` of every kept entry, row after row.
    positions = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
    return DataMatrix(
        matrix.n_features, indptr, matrix.indices[positions],
        matrix.family_ids[rows], matrix.sample_ids[rows],
    )


def take_labels(y: LabelVector, indices) -> LabelVector:
    return LabelVector(tuple(y.labels[i] for i in indices))


def synthesize_dataset(
    n: int,
    d: int,
    sparsity: float,
    class_signal: list[tuple[int, float, float]],
    seed: int,
    positive_rate: float = 0.5,
) -> tuple[DataMatrix, LabelVector]:
    """Generate a reproducible synthetic binary dataset.

    ``class_signal`` entries are (ordinal, P(x=1 | y=0), P(x=1 | y=1));
    every other feature is class-independent Bernoulli(sparsity).
    Positive samples get family_id 1, negatives 0.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    signal = {}
    for ordinal, p0, p1 in class_signal:
        if not 0 <= ordinal < d:
            raise ValueError(f"signal ordinal {ordinal} out of range [0, {d})")
        if not (0.0 <= p0 <= 1.0 and 0.0 <= p1 <= 1.0):
            raise ValueError("class-conditional probabilities must be in [0,1]")
        signal[ordinal] = (p0, p1)

    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < positive_rate).astype(np.int64)
    cells = rng.random((n, d))

    thresholds = np.full((n, d), sparsity)
    for ordinal, (p0, p1) in signal.items():
        thresholds[:, ordinal] = np.where(labels == 1, p1, p0)
    dense = cells < thresholds

    matrix = DataMatrix.from_rows(
        d, [np.flatnonzero(row) for row in dense], labels, [f"synth{i:05d}" for i in range(n)]
    )
    return matrix, LabelVector(tuple(int(v) for v in labels))


def generic_dictionary(d: int, category: str = "STR") -> FeatureDictionary:
    """Placeholder dictionary for synthetic matrices."""
    return FeatureDictionary(tuple(f"{category}:f{j:05d}" for j in range(d)))
