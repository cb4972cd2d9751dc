"""Seeded mutation run: does tier-1 fail when one operator of ``src/rwdetect`` changes?

    python tests/mutate.py --sample 40 --seed 0 --modules cli.py classifiers/forest.py

A mutation point is one of:
- a comparison ``<`` ``<=`` ``>`` ``>=`` ``==`` ``!=``, swapped for its
  neighbour (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``);
- a binary ``+`` or ``-``, swapped for the other;
- an ``and`` or ``or``, swapped for the other;
- an int constant in 0-64, plus 1.
Points inside f-strings are left out. ``--sample`` points are drawn with
``random.Random(--seed)`` from those of ``--modules`` (paths below
``src/rwdetect``; default every module).

The tree (``src/``, ``tests/``, ``bench/``, ``pyproject.toml``) is copied
to a temporary directory, and the unmutated copy runs ``pytest -x`` first:
unless it passes, no mutant runs, since a copy that fails on its own kills
every mutant. ``tests/test_bench_spans.py`` reads ``bench/``, so a copy
without it once reported 36 of 36 mutants killed. Then each mutant, one at
a time, is written over its module in the copy and runs ``pytest -x``; the
module is put back after. Each prints ``file:line before -> after``, the
mutated line, and ``killed`` with the first failing test (or ``timeout``),
or ``survived``. A mutant is killed by a timeout of three times the
unmutated run plus 30 s.

Known equivalent mutants, whose survival is no gap in the tests:
- ``classifiers/io.py:172`` ``min(max(j, -1), n_features)`` -> ``-2``: a knn
  ordinal beyond int64 is clamped only so that the flat check finds it out of
  range, and any negative stand-in is; the message quotes the row's own ordinal.
- ``selection.py:58`` ``np.full(matrix.n_features, -1, ...)`` -> ``-2``: the
  sentinel marks a column that is not selected, and any negative one fails
  ``remapped >= 0`` alike.
- ``dataset.py:99`` ``len(table) < len(names)`` -> ``<=``, and
  ``dataset.py:100`` ``dense and any(...)`` -> ``or``: more dictionaries
  then take the per-name loop, or a sparse one is searched for a line break
  it cannot hold; the loop finds the same first defect or none, so only the
  time differs.
- ``dataset.py:212`` and ``:214``, the ``-1`` that ``_section_count`` gives a
  header it cannot read -> ``-2``: any negative count fails ``0 <= count`` alike.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "rwdetect")
COPIED = ("src", "tests", "bench", "pyproject.toml")

SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
         ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.And: ("and", "or"),
         ast.Or: ("or", "and")}


def mutation_points(module: str, source: str):
    """``(module, (row, col), before, after)`` of every mutation point of
    ``source``; ``row`` counts from 1 and ``col`` is a character offset."""
    tree = ast.parse(source)
    lines = source.splitlines()

    def at(row, byte_col):  # ast counts columns in UTF-8 bytes, tokenize in characters
        return row, len(lines[row - 1].encode("utf-8")[:byte_col].decode("utf-8"))

    in_fstring = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr)
                  for n in ast.walk(f)}
    spans = []  # (start, end, operator text, replacement) with the operator between
    for node in ast.walk(tree):
        if id(node) in in_fstring:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            spans += [(operands[i], operands[i + 1], *SWAPS[type(op)])
                      for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            spans.append((node.left, node.right, *SWAPS[type(node.op)]))
        elif isinstance(node, ast.BoolOp):
            spans += [(a, b, *SWAPS[type(node.op)]) for a, b in zip(node.values, node.values[1:])]
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and 0 <= node.value <= 64):
            yield (module, at(node.lineno, node.col_offset),
                   ast.get_source_segment(source, node), str(node.value + 1))

    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NAME)]
    by_text = {}
    for left, right, before, after in spans:
        begin, end = at(left.end_lineno, left.end_col_offset), at(right.lineno, right.col_offset)
        for token in by_text.setdefault(before, [t for t in tokens if t.string == before]):
            if begin <= token.start < end:
                yield module, token.start, before, after
                break


def mutate(source: str, at, before: str, after: str) -> str:
    lines = source.splitlines(keepends=True)
    row, col = at
    line = lines[row - 1]
    assert line[col:col + len(before)] == before, (at, before)
    lines[row - 1] = line[:col] + after + line[col + len(before):]
    return "".join(lines)


def run_tests(copy: Path, timeout: float | None):
    """``pytest -x`` in ``copy``: (passed, first failing test or a reason, seconds)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                             cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, start_new_session=True)
    try:
        output, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # pytest and any command it started
        child.communicate()
        return False, "timeout", time.perf_counter() - start
    seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    reason = failed[1] if failed else f"pytest exit {child.returncode}"
    return child.returncode == 0, reason, seconds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--sample", type=int, default=40, help="number of mutants (default 40)")
    p.add_argument("--seed", type=int, default=0, help="seed of the draw (default 0)")
    p.add_argument("--modules", nargs="+", metavar="PATH",
                   help="modules below src/rwdetect, e.g. cli.py classifiers/forest.py")
    args = p.parse_args(argv)

    package = ROOT / PACKAGE
    modules = args.modules or sorted(p.relative_to(package).as_posix()
                                     for p in package.rglob("*.py"))
    sources = {m: (package / m).read_text(encoding="utf-8") for m in modules}
    points = [pt for m in modules for pt in mutation_points(m, sources[m])]
    sample = sorted(random.Random(args.seed).sample(points, min(args.sample, len(points))))
    print(f"{len(points)} mutation points in {len(modules)} modules; running {len(sample)}",
          flush=True)

    with tempfile.TemporaryDirectory(prefix="rwdetect-mutate-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        passed, reason, seconds = run_tests(copy, None)
        if not passed:
            print(f"the unmutated copy fails ({reason}); no mutant was run", file=sys.stderr)
            return 1
        print(f"unmutated copy passes in {seconds:.1f} s", flush=True)
        timeout = 3 * seconds + 30

        survived = 0
        for module, at, before, after in sample:
            target = copy / PACKAGE / module
            mutant = mutate(sources[module], at, before, after)
            target.write_text(mutant, encoding="utf-8")
            try:
                passed, reason, seconds = run_tests(copy, timeout)
            finally:
                target.write_text(sources[module], encoding="utf-8")
            survived += passed
            line = mutant.splitlines()[at[0] - 1].strip()
            verdict = "survived" if passed else f"killed ({reason})"
            print(f"{module}:{at[0]} {before} -> {after}  | {line} |  {verdict}, {seconds:.1f} s",
                  flush=True)
    print(f"killed {len(sample) - survived} of {len(sample)}, survived {survived}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
