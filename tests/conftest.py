import numpy as np
import pytest
from hypothesis import strategies as st

from rwdetect.dataset import (
    DataMatrix,
    FeatureDictionary,
)


def matrix_from_dense(dense, labels=None, family_ids=None):
    """Build a DataMatrix straight from a 0/1 array (test convenience)."""
    dense = np.asarray(dense)
    n = len(dense)
    if family_ids is None:
        family_ids = labels if labels is not None else [0] * n
    rows = [np.flatnonzero(row) for row in dense]
    m = DataMatrix.from_rows(dense.shape[1], rows, family_ids, [f"s{i}" for i in range(n)])
    y = np.asarray(labels, dtype=np.int64) if labels is not None else None
    return (m, y) if labels is not None else m


def random_dense(rng, n, d, p=0.5):
    return (rng.random((n, d)) < p).astype(np.uint8)


@st.composite
def mutated_lines(draw, data: bytes, fragments):
    """``data`` after one to three line mutations: delete, duplicate,
    replace with a fragment or random bytes, splice one into a line, or
    append a fragment as a line after the last one."""
    for _ in range(draw(st.integers(1, 3))):
        lines = data.split(b"\n")
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "replace", "splice", "append"]))
        if op == "append":
            # before the empty piece that a final newline leaves
            lines.insert(len(lines) - (lines[-1] == b""), draw(fragments))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "replace":
            lines[i] = draw(fragments | st.binary(max_size=6))
        else:
            at = draw(st.integers(0, len(lines[i])))
            insert = draw(fragments | st.binary(max_size=3))
            lines[i] = lines[i][:at] + insert + lines[i][at:]
        data = b"\n".join(lines)
    return data


@pytest.fixture
def small_dictionary():
    return FeatureDictionary(
        ("API:CreateFileW", "REG:SetValue", "FILES:write", "STR:bitcoin")
    )
