import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossclust.numerics as numerics
from crossclust.errors import ContractViolationError, DegenerateRowError
from crossclust.numerics import (
    entropy,
    openblas,
    row_l2_normalize,
    row_norms,
    row_softmax,
    similarity_matrix,
)

from oracles import row_softmax_reference, similarity_matrix_reference

# Stacked batch sizes for the bit-identity checks against the reference bodies.
PAIRWISE_SIZES = (2, 130, 256, 1024)
# Shapes at which similarity_matrix must give the bits of numpy's z @ z.T.
SYRK_SIZES = (*range(2, 70), 96, 130, 250, 254, 256, 500, 512, 1000, 1022, 1024, 2000)
SYRK_DIMS = (1, 2, 3, 7, 8, 31, 32, 33, 64)

BLAS = openblas() if sys.platform.startswith("linux") else None
needs_blas = pytest.mark.skipif(BLAS is None, reason="no OpenBLAS whose thread count can be set")


def numpy_wheel_openblas() -> bool:
    """Whether numpy loaded an OpenBLAS from its own package or wheel directory."""
    numpy_dir = os.path.dirname(np.__file__)
    with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
        paths = {fields[5] for fields in map(str.split, maps) if len(fields) == 6}
    return any(
        "openblas" in os.path.basename(p).lower()
        and p.startswith((numpy_dir + os.sep, numpy_dir + ".libs" + os.sep))
        for p in paths
    )


class TestRowL2Normalize:
    def test_three_four_five(self):
        out = row_l2_normalize(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_axis_vectors(self):
        out = row_l2_normalize(np.array([[1.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 1.0]])

    def test_random_rows_become_unit(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(5, 8))
        out = row_l2_normalize(m)
        # independent recomputation of the row norms
        norms = np.sqrt((out * out).sum(axis=1))
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_direction_preserved(self):
        m = np.array([[2.0, 0.0, 0.0], [0.0, -3.0, 0.0]])
        out = row_l2_normalize(m)
        np.testing.assert_array_equal(out, [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])

    def test_zero_row_identified(self):
        with pytest.raises(DegenerateRowError) as exc:
            row_l2_normalize(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        assert exc.value.row == 1

    def test_rejects_non_finite(self):
        with pytest.raises(ContractViolationError):
            row_l2_normalize(np.array([[np.inf, 1.0]]))

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
    def test_rows_of_underflowing_squares_become_unit(self, scale):
        # at 1e-160 the squares are subnormal and the plain norm is 5.6e-6 off;
        # at 1e-170 they are 0
        out = row_l2_normalize(np.array([[1.0, 2.0], [3.0, 4.0]]) * scale)
        np.testing.assert_allclose(out, [[1 / math.sqrt(5), 2 / math.sqrt(5)], [0.6, 0.8]], rtol=1e-15)
        np.testing.assert_allclose(similarity_matrix(out).diagonal(), 1.0, rtol=1e-15)

    def test_rows_above_the_rescale_floor_keep_the_plain_norm(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(64, 8)) * np.logspace(-149, 149, 64)[:, None]
        want = m / np.linalg.norm(m, axis=1)[:, None]
        assert row_l2_normalize(m).tobytes() == want.tobytes()


class TestRowNorms:
    def test_underflowing_and_zero_rows(self):
        m = np.array([[3e-170, 4e-170], [0.0, 0.0], [-1e-320, 0.0], [3.0, 4.0]])
        np.testing.assert_allclose(row_norms(m), [5e-170, 0.0, 1e-320, 5.0], rtol=1e-15)
        assert row_norms(m)[3] == np.linalg.norm([3.0, 4.0])


class TestSimilarityMatrix:
    def test_identical_rows_all_ones(self):
        z = np.tile(np.array([[0.6, 0.8]]), (3, 1))
        np.testing.assert_allclose(similarity_matrix(z), np.ones((3, 3)), atol=1e-12)

    def test_orthogonal_rows(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(similarity_matrix(z), np.eye(2))

    def test_antipodal_rows(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(similarity_matrix(z), [[1.0, -1.0], [-1.0, 1.0]])

    def test_symmetry_diagonal_and_range(self):
        rng = np.random.default_rng(1)
        z = row_l2_normalize(rng.normal(size=(40, 6)))
        s = similarity_matrix(z)
        np.testing.assert_array_equal(s, s.T)
        np.testing.assert_allclose(np.diag(s), 1.0, atol=1e-12)
        assert s.max() <= 1 + 1e-12 and s.min() >= -1 - 1e-12

    def test_rejects_unnormalized_rows(self):
        with pytest.raises(ContractViolationError, match="row 1"):
            similarity_matrix(np.array([[1.0, 0.0], [0.5, 0.5]]))

    @pytest.mark.parametrize("n2", PAIRWISE_SIZES)
    @pytest.mark.parametrize("dim", [3, 32])
    def test_bit_identical_to_reference(self, n2, dim):
        z = row_l2_normalize(np.random.default_rng(n2 + dim).normal(size=(n2, dim)))
        assert np.array_equal(similarity_matrix(z), similarity_matrix_reference(z))

    @needs_blas
    @pytest.mark.parametrize("threads", [1, 2])
    def test_same_bits_as_numpys_product(self, monkeypatch, threads):
        # every size of the grid takes the direct dsyrk path where it can;
        # a row-strided z and d = 1 take numpy's product
        monkeypatch.setattr(numerics, "_SYRK_MIN_ROWS", 2)
        before = BLAS.get_threads()
        differ = []
        try:
            BLAS.set_threads(threads)
            for n2 in SYRK_SIZES:
                for dim in SYRK_DIMS:
                    z = row_l2_normalize(np.random.default_rng(100 * n2 + dim).normal(size=(n2, dim)))
                    for layout, m in (("c", z), ("row_strided", np.repeat(z, 2, axis=0)[::2])):
                        if similarity_matrix(m).tobytes() != (m @ m.T).tobytes():
                            differ.append((n2, dim, layout))
        finally:
            BLAS.set_threads(before)
        assert differ == []

    @pytest.mark.parametrize("n2", [500, 1024, 2000])
    def test_same_bits_when_the_lookup_fails(self, monkeypatch, n2):
        z = row_l2_normalize(np.random.default_rng(n2).normal(size=(n2, 32)))
        direct = similarity_matrix(z)
        monkeypatch.setattr(numerics, "openblas", lambda: None)
        assert similarity_matrix(z).tobytes() == direct.tobytes()

    @pytest.mark.parametrize("layout", ["c", "fortran", "row_strided"])
    def test_exactly_symmetric_at_1024(self, layout):
        z = row_l2_normalize(np.random.default_rng(3).normal(size=(1024, 32)))
        z = {
            "c": z,
            "fortran": np.asfortranarray(z),
            "row_strided": np.repeat(z, 2, axis=0)[::2],
        }[layout]
        s = similarity_matrix(z)
        assert np.array_equal(s, s.T)


class TestEntropy:
    def test_uniform_over_ten(self):
        assert entropy(np.full(10, 0.1)) == pytest.approx(math.log(10), abs=1e-15)

    def test_one_hot_is_zero(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_fair_coin(self):
        assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ContractViolationError):
            entropy([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ContractViolationError):
            entropy([0.5, 0.6])

    @given(st.integers(2, 30), st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_uniform_is_maximal(self, m, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(m))
        p = p / p.sum()
        assert entropy(p) <= math.log(m) + 1e-12


class TestRowSoftmax:
    def test_rows_are_probability_vectors(self):
        rng = np.random.default_rng(2)
        out = row_softmax(rng.normal(scale=50, size=(10, 7)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert (out > 0).all()

    def test_matches_direct_formula(self):
        x = np.array([[0.0, 1.0, 2.0]])
        expected = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(row_softmax(x), expected, atol=1e-15)

    @pytest.mark.parametrize("n2", PAIRWISE_SIZES)
    def test_bit_identical_to_reference_and_input_untouched(self, n2):
        x = np.random.default_rng(n2).normal(scale=50, size=(n2, n2))
        x[0, :] = -np.inf
        x[0, -1] = 3.0
        before = x.copy()
        assert np.array_equal(row_softmax(x), row_softmax_reference(x))
        assert np.array_equal(x, before)


class TestOpenblas:
    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_sets_and_reads_the_thread_count_of_numpys_openblas(self):
        blas = openblas.__wrapped__()
        if blas is None:
            pytest.skip("numpy loaded no OpenBLAS with known thread-count symbols")
        before = blas.get_threads()
        try:
            blas.set_threads(1)
            assert blas.get_threads() == 1
        finally:
            blas.set_threads(before)
        assert blas.get_threads() == before

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_binds_dsyrk_of_numpys_wheel(self):
        # numpy's wheels ship an OpenBLAS with 64-bit integers and suffixed
        # names (scipy_cblas_dsyrk64_ on numpy 2, cblas_dsyrk64_ on 1.x); a
        # lookup that misses them would silently lose the direct dsyrk
        if not numpy_wheel_openblas():
            pytest.skip("numpy was not built with the OpenBLAS of its wheel")
        assert openblas() is not None and openblas().dsyrk is not None

    def test_none_without_proc(self, monkeypatch):
        def no_proc(*args, **kwargs):
            raise FileNotFoundError("/proc/self/maps")

        monkeypatch.setattr(numerics, "open", no_proc, raising=False)
        assert openblas.__wrapped__() is None

    def test_tries_numpys_own_directories_first(self, monkeypatch):
        import io

        numpy_dir = os.path.dirname(np.__file__)
        site = os.path.dirname(numpy_dir)
        paths = [
            os.path.join(site, "numpy-extra", "libopenblas.so"),
            os.path.join("/usr", "lib", "libopenblas.so"),
            os.path.join(numpy_dir + ".libs", "libscipy_openblas64_.so"),
            os.path.join(numpy_dir, "linalg", "libopenblas.so"),
        ]
        maps = "".join(f"7f-8f r-xp 0 08:01 1 {path}\n" for path in paths)
        tried = []

        def no_library(path, mode):
            tried.append(path)
            raise OSError("not loaded")

        monkeypatch.setattr(numerics, "open", lambda *a, **k: io.StringIO(maps), raising=False)
        monkeypatch.setattr(numerics.ctypes, "CDLL", no_library)
        assert openblas.__wrapped__() is None
        assert set(tried[:2]) == set(paths[2:]) and set(tried[2:]) == set(paths[:2])

    @pytest.mark.parametrize(
        "flavor, dsyrk",
        [
            ("scipy_openblas_{}_num_threads64_", "scipy_cblas_dsyrk64_"),
            ("openblas_{}_num_threads64_", "cblas_dsyrk64_"),
            ("openblas_{}_num_threads", None),
        ],
        ids=["numpy2_wheel", "numpy1_wheel", "plain_names"],
    )
    def test_binds_dsyrk_only_where_its_integers_are_64_bits(self, monkeypatch, flavor, dsyrk):
        import io
        import types

        names = {flavor.format("get"), flavor.format("set"), "cblas_dsyrk", dsyrk}

        def library(path, mode):
            return types.SimpleNamespace(**{name: lambda *a: None for name in names if name})

        maps = "7f-8f r-xp 0 08:01 1 /usr/lib/libopenblas.so\n"
        monkeypatch.setattr(numerics, "open", lambda *a, **k: io.StringIO(maps), raising=False)
        monkeypatch.setattr(numerics.ctypes, "CDLL", library)
        blas = openblas.__wrapped__()
        assert blas is not None
        assert (blas.dsyrk is not None) == (dsyrk is not None)
