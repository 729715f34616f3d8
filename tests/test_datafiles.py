import numpy as np
import pytest

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
