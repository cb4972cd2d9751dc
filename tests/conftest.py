import numpy as np
import pytest

from rwdetect.dataset import (
    DataMatrix,
    FeatureDictionary,
    LabelVector,
)


def matrix_from_dense(dense, labels=None, family_ids=None):
    """Build a DataMatrix straight from a 0/1 array (test convenience)."""
    dense = np.asarray(dense)
    n = len(dense)
    if family_ids is None:
        family_ids = labels if labels is not None else [0] * n
    rows = [np.flatnonzero(row) for row in dense]
    m = DataMatrix.from_rows(dense.shape[1], rows, family_ids, [f"s{i}" for i in range(n)])
    y = LabelVector(tuple(int(v) for v in labels)) if labels is not None else None
    return (m, y) if labels is not None else m


def random_dense(rng, n, d, p=0.5):
    return (rng.random((n, d)) < p).astype(np.uint8)


@pytest.fixture
def small_dictionary():
    return FeatureDictionary(
        ("API:CreateFileW", "REG:SetValue", "FILES:write", "STR:bitcoin")
    )
