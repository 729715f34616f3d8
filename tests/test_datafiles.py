import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sepsaddle.datafiles import (
    groups_from_meta,
    load_libsvm,
    load_matrix_csv,
    load_problem_dir,
    read_meta,
    save_matrix_csv,
    save_problem_dir,
    write_meta,
)
from sepsaddle.errors import FormatError
from sepsaddle.problems import gen_lasso


class TestMatrixCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        M = load_matrix_csv(p)
        assert np.array_equal(M.values, [[1, 2], [3, 4]])

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(FormatError, match="line 2"):
            load_matrix_csv(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,x\n")
        with pytest.raises(FormatError, match="line 1"):
            load_matrix_csv(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_matrix_csv(p)

    def test_roundtrip_full_precision(self, tmp_path, rng):
        M = rng.standard_normal((3, 4))
        p = tmp_path / "m.csv"
        save_matrix_csv(p, M)
        back = load_matrix_csv(p)
        assert np.array_equal(back.values, M)

    def test_vector(self, tmp_path):
        p = tmp_path / "v.csv"
        save_matrix_csv(p, np.array([1.5, -2.0]))
        assert np.array_equal(load_matrix_csv(p).values[:, 0], [1.5, -2.0])


class TestLibsvm:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("+1 1:0.5 3:2\n-1 2:1\n")
        X, z = load_libsvm(p, num_features=3)
        assert np.array_equal(X.values, [[0.5, 0, 2], [0, 1, 0]])
        assert np.array_equal(z, [1, -1])

    def test_width_from_max_index(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 2:3\n")
        X, _ = load_libsvm(p)
        assert X.shape == (1, 2)

    def test_bad_token(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 1:0.5\n1 oops\n")
        with pytest.raises(FormatError, match="line 2"):
            load_libsvm(p)

    def test_zero_index_rejected(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("1 0:2\n")
        with pytest.raises(FormatError, match="1-based"):
            load_libsvm(p)

    def test_repeated_index_rejected(self, tmp_path):
        """A repeated index is refused, not resolved to its last value."""
        p = tmp_path / "d.libsvm"
        p.write_text("-1 2:1\n1 1:0.5 3:2.0 1:7.0\n")
        with pytest.raises(FormatError, match="line 2: feature index 1 repeated") as info:
            load_libsvm(p)
        assert info.value.line == 2

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "d.libsvm"
        p.write_text("\n")
        with pytest.raises(FormatError, match="empty"):
            load_libsvm(p)


class TestMeta:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "meta.txt"
        write_meta(p, {"seed": 7, "lam": 0.25, "groups": [4, 16]})
        meta = read_meta(p)
        assert meta == {"seed": "7", "lam": "0.25", "groups": "4,16"}
        assert groups_from_meta(meta, tmp_path).block_sizes == (4, 16)

    def test_malformed(self, tmp_path):
        p = tmp_path / "meta.txt"
        p.write_text("no equals sign\n")
        with pytest.raises(FormatError, match="line 1"):
            read_meta(p)


class TestProblemDir:
    def test_lasso_roundtrip_byte_identical(self, tmp_path):
        A, b, lam = gen_lasso(6, 10, 3, seed=4)
        meta = {"m": 6, "n": 10, "d": 3, "seed": 4, "lam": lam}
        d1 = save_problem_dir(tmp_path / "one", "lasso", {"A": A, "b": b}, meta)
        kind, arrays, loaded_meta = load_problem_dir(d1)
        assert kind == "lasso"
        d2 = save_problem_dir(
            tmp_path / "two", "lasso",
            {"A": arrays["A"], "b": arrays["b"].values[:, 0]},
            {k: (float(v) if k == "lam" else int(v)) for k, v in loaded_meta.items()},
        )
        for name in ("A.csv", "b.csv", "meta.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_missing_problem_key(self, tmp_path):
        root = tmp_path / "p"
        root.mkdir()
        (root / "meta.txt").write_text("seed = 1\n")
        with pytest.raises(FormatError, match="problem"):
            load_problem_dir(root)


BOM = b"\xef\xbb\xbf"
VALID = {
    "csv": b"1.5,-2.0,0.25\n3.0,4e-3,-0.0\n\n7,8,9\n",
    "libsvm": b"# comment\n+1 1:0.5 3:2\n-1 2:1e-3\n\n1 4:7 1:-2\n",
    "meta": b"# comment\nlam = 0.5\ngroups = 1,3\n\nproblem = group-lasso\n",
}
LOADERS = {
    "csv": load_matrix_csv,
    "libsvm": lambda path: load_libsvm(path, num_features=4),
    "meta": read_meta,
}


class TestParserErrorsNameTheFile:
    @pytest.mark.parametrize("fmt", sorted(VALID))
    @pytest.mark.parametrize("where", ["first", "third"])
    def test_non_ascii_byte_names_file_and_line(self, tmp_path, fmt, where):
        """A UTF-8 byte-order mark, or any byte that is not ASCII, is a
        FormatError naming the file and its line, not a codec error."""
        lines = VALID[fmt].splitlines(keepends=True)
        if where == "first":
            lines[0] = BOM + lines[0]
            line = 1
        else:
            lines[2] = b"\xe9" + lines[2]
            line = 3
        path = tmp_path / f"data.{fmt}"
        path.write_bytes(b"".join(lines))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line {line}: not ASCII") as info:
            LOADERS[fmt](path)
        assert info.value.line == line and info.value.path == path

    @pytest.mark.parametrize("fmt, text, line", [
        ("libsvm", "1 1:0.5\nx 2:1\n", 2),
        ("libsvm", "1 1:0.5\n1 oops\n", 2),
        ("libsvm", "1 0:2\n", 1),
        ("libsvm", "1 5:2\n", 1),
        ("libsvm", "1 1:inf\n", 1),
        ("libsvm", "1 1:1 1:2\n", 1),
        ("meta", "a = 1\nno equals sign\n", 2),
        ("csv", "1,2\n3\n", 2),
        ("csv", "1,x\n", 1),
        ("csv", "1,nan\n", 1),
    ])
    def test_line_errors_name_the_file(self, tmp_path, fmt, text, line):
        path = tmp_path / f"data.{fmt}"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line {line}: ") as info:
            LOADERS[fmt](path)
        assert info.value.line == line


def mutate(data: bytes, edits, line_edits) -> bytes:
    """``data`` after byte edits (replace, insert or delete at a position)
    and then line edits (drop, duplicate or swap with the next line)."""
    buf = bytearray(data)
    for op, at, chunk in edits:
        at %= len(buf) + 1
        if op == "replace":
            buf[at:at + len(chunk)] = chunk
        elif op == "insert":
            buf[at:at] = chunk
        else:
            del buf[at:at + len(chunk)]
    lines = bytes(buf).splitlines(keepends=True)
    for op, at in line_edits:
        if not lines:
            break
        at %= len(lines)
        if op == "drop":
            del lines[at]
        elif op == "dup":
            lines.insert(at, lines[at])
        elif at + 1 < len(lines):
            lines[at], lines[at + 1] = lines[at + 1], lines[at]
    return b"".join(lines)


CHUNKS = st.sampled_from([
    b"0", b"9", b"-", b"+", b".", b"e", b",", b":", b"=", b"#", b" ", b"\t", b"\n",
    b"\r", b"\r\n", b"\x00", b"\x0b", b"\x1c", b"\x7f", b"\x80", b"\xe9", b"\xff",
    BOM, b"nan", b"inf", b"-inf", b"1e999", b"1_0", b"0x1", b"99999", b"\xc3\xa9",
]) | st.binary(min_size=1, max_size=3)
EDITS = st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                           st.integers(0, 200), CHUNKS), max_size=4)
LINE_EDITS = st.lists(st.tuples(st.sampled_from(["drop", "dup", "swap"]),
                                st.integers(0, 20)), max_size=3)


@pytest.mark.parametrize("fmt", sorted(VALID))
@given(edits=EDITS, line_edits=LINE_EDITS)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_files_load_or_raise_a_format_error_naming_the_file(fmt, edits, line_edits):
    """Mutated bytes and lines of a CSV matrix, a libsvm file or a
    ``meta.txt`` either load or raise a FormatError that names the file."""
    data = mutate(VALID[fmt], edits, line_edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"data.{fmt}"
        path.write_bytes(data)
        try:
            LOADERS[fmt](path)
        except FormatError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
            assert exc.path == path
