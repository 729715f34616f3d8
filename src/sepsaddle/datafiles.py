"""File formats: numeric CSV matrices, libsvm feature files, and the
problem-directory layout written by ``generate`` and read by ``run --problem
file``.

A problem directory holds ``meta.txt`` (sorted ``key = value`` lines) plus
the data matrices as CSV. Floats are serialized with ``repr`` (shortest
round-trip form), so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import FormatError
from .matrices import BlockPartition, DenseMatrix, _values


def _lines(path, comments: bool = False):
    """(line number, stripped line) for the nonblank lines of the ASCII
    text file ``path``, skipping ``#`` lines where ``comments``. A line with
    a byte that is not ASCII (a UTF-8 byte-order mark, say) is a
    ``FormatError`` naming the file and the line."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                raise FormatError("not ASCII text", line=lineno, path=path)
            line = raw.strip()
            if line and not (comments and line.startswith("#")):
                yield lineno, line


def load_matrix_csv(path) -> DenseMatrix:
    """Comma-separated numeric rows of uniform width."""
    rows = []
    width = None
    for lineno, line in _lines(path):
        parts = line.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise FormatError(f"expected {width} columns, found {len(parts)}",
                              line=lineno, path=path)
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"non-numeric entry ({exc})", line=lineno, path=path) from None
        if not all(map(math.isfinite, row)):
            raise FormatError("non-finite entry", line=lineno, path=path)
        rows.append(row)
    if not rows:
        raise FormatError("empty matrix file", path=path)
    return DenseMatrix(rows)


def save_matrix_csv(path, matrix) -> None:
    values = _values(matrix)
    if values.ndim == 1:
        values = values[:, None]
    with open(path, "w", encoding="ascii") as fh:
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def load_libsvm(path, num_features: int | None = None):
    """``label idx:val ...`` lines with 1-based indices, each at most once
    per line; absent entries are zero. Returns (features, labels); width is
    ``num_features`` or the largest index seen."""
    labels = []
    entries = []
    max_index = 0
    for lineno, line in _lines(path, comments=True):
        parts = line.split()
        try:
            labels.append(float(parts[0]))
        except ValueError:
            raise FormatError(f"bad label {parts[0]!r}", line=lineno, path=path) from None
        row = {}
        for token in parts[1:]:
            try:
                idx_text, val_text = token.split(":", 1)
                idx = int(idx_text)
                val = float(val_text)
            except ValueError:
                raise FormatError(f"bad feature token {token!r}", line=lineno, path=path) from None
            if idx < 1:
                raise FormatError(f"indices are 1-based, got {idx}", line=lineno, path=path)
            if num_features is not None and idx > num_features:
                raise FormatError(f"feature index {idx} exceeds width {num_features}",
                                  line=lineno, path=path)
            if not math.isfinite(val):
                raise FormatError(f"non-finite value in {token!r}", line=lineno, path=path)
            if idx in row:
                raise FormatError(f"feature index {idx} repeated", line=lineno, path=path)
            row[idx] = val
            max_index = max(max_index, idx)
        entries.append(row)
    if not entries:
        raise FormatError("empty libsvm file", path=path)
    width = num_features if num_features is not None else max_index
    data = np.zeros((len(entries), width))
    for i, row in enumerate(entries):
        for idx, val in row.items():
            data[i, idx - 1] = val
    return DenseMatrix(data), np.asarray(labels)


def _format_meta_value(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def meta_text(meta: dict) -> dict:
    """``meta`` with each value as the text ``meta.txt`` holds for it."""
    return {key: _format_meta_value(value) for key, value in meta.items()}


def write_meta(path, meta: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for key, value in sorted(meta_text(meta).items()):
            fh.write(f"{key} = {value}\n")


def read_meta(path) -> dict:
    meta = {}
    for lineno, line in _lines(path, comments=True):
        if "=" not in line:
            raise FormatError("expected 'key = value'", line=lineno, path=path)
        key, _, value = line.partition("=")
        meta[key.strip()] = value.strip()
    return meta


def save_problem_dir(path, kind: str, arrays: dict, meta: dict) -> Path:
    """Write a problem directory: meta.txt plus one CSV per named array."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    write_meta(root / "meta.txt", {**meta, "problem": kind})
    for name, arr in arrays.items():
        save_matrix_csv(root / f"{name}.csv", arr)
    return root


def load_problem_dir(path):
    """Read a problem directory back as (kind, arrays, meta)."""
    root = Path(path)
    meta = read_meta(root / "meta.txt")
    kind = meta.pop("problem", None)
    if kind is None:
        raise FormatError("missing 'problem' key", path=root / "meta.txt")
    arrays = {}
    for csv_path in sorted(root.glob("*.csv")):
        arrays[csv_path.stem] = load_matrix_csv(csv_path)
    return kind, arrays, meta


def meta_value(meta: dict, key: str, parse, root):
    """``parse`` of the text that ``<root>/meta.txt`` holds for ``key``; a
    ``FormatError`` naming the file and the key when it is absent or does
    not parse (``parse`` raises ValueError)."""
    if key not in meta:
        raise FormatError(f"{root}/meta.txt: no {key!r} key")
    try:
        return parse(meta[key])
    except ValueError as exc:
        raise FormatError(f"{root}/meta.txt: key {key!r}: {exc}") from None


def positive_float(text: str) -> float:
    """``text`` as a finite float > 0; ValueError otherwise."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"expected a finite positive number, got {text!r}")
    return value


def groups_from_meta(meta: dict, root) -> BlockPartition:
    """The group sizes of ``meta.txt``'s ``groups`` key, comma-separated."""
    return meta_value(meta, "groups",
                      lambda text: BlockPartition(int(s) for s in text.split(",")), root)
