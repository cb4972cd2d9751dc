import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from rwdetect.dataset import (
    DataMatrix,
    FeatureDictionary,
)


def matrix_from_dense(dense, labels=None):
    """Build a DataMatrix straight from a 0/1 array (test convenience), paired
    with ``labels`` as an int64 array when they are given."""
    dense = np.asarray(dense)
    m = DataMatrix.from_rows(dense.shape[1], [np.flatnonzero(row) for row in dense])
    return m if labels is None else (m, np.asarray(labels, dtype=np.int64))


def xy(dense, labels):
    """A 0/1 uint8 array and its int64 labels, as the fitters take them."""
    return np.asarray(dense, dtype=np.uint8), np.asarray(labels, dtype=np.int64)


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


SRC = Path(__file__).resolve().parent.parent / "src"


def run_limited(argv, fsize=None, address_space=None):
    """Run ``python -m rwdetect.cli argv`` in a child process that may write
    no file past ``fsize`` bytes (a write beyond that fails with EFBIG) and,
    given ``address_space``, may map no more than that many bytes (an
    allocation beyond that fails), with one BLAS thread.

    Returns the exit code, the child's stderr and the name and bytes of
    every file in its ``--out`` directory afterwards. Skipped where the
    ``resource`` module is missing."""
    resource = pytest.importorskip("resource")

    def limit():  # runs in the child only, before it starts Python
        if fsize is not None:
            resource.setrlimit(resource.RLIMIT_FSIZE, (fsize, fsize))
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        if address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    argv = [str(a) for a in argv]
    child = subprocess.run([sys.executable, "-m", "rwdetect.cli", *argv], env=env,
                           preexec_fn=limit, capture_output=True, text=True, timeout=300)
    out = Path(argv[argv.index("--out") + 1])
    files = {}
    if out.is_dir():
        files = {p.name: p.read_bytes() if p.is_file() else None for p in out.iterdir()}
    return child.returncode, child.stderr, files
