import math
import warnings

import numpy as np
import pytest

from commcalc import decfun as df
from commcalc import matrix_oracle as mo


def rand_complex(rng, n):
    return (rng.standard_normal((n, n))
            + 1j * rng.standard_normal((n, n))) / math.sqrt(2 * n)


class TestDenseMatrix:
    def test_shape_and_finite(self):
        with pytest.raises(df.DomainError):
            mo.DenseMatrix(2, np.zeros((2, 3)))
        with pytest.raises(df.DomainError):
            mo.DenseMatrix(1, np.array([[np.inf]]))

    def test_config_guards(self):
        with pytest.raises(df.DomainError):
            mo.OracleConfig(trials=0)
        with pytest.raises(df.DomainError):
            mo.OracleConfig(tol=0.0)


class TestSingularProfile:
    def test_identity(self):
        p = mo.singular_profile(np.eye(2))
        assert p(0.1) == 1.0 and p(0.9) == 1.0

    def test_diag(self):
        p = mo.singular_profile(np.diag([3.0, 1.0]))
        assert p(0.25) == 3.0 and p(0.75) == 1.0

    def test_matches_svd(self):
        rng = np.random.default_rng(5)
        for n in (3, 8, 17):
            a = rand_complex(rng, n)
            p = mo.singular_profile(a)
            sig = np.linalg.svd(a, compute_uv=False)
            for k in range(n):
                t = (k + 0.5) / n
                assert abs(p(t) - sig[k]) < 1e-10


class TestFkDetMatrix:
    def test_unitary(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rand_complex(rng, 6))
        assert abs(mo.fk_det_matrix(q) - 1.0) < 1e-12

    def test_diag(self):
        assert abs(mo.fk_det_matrix(np.diag([2.0, 2.0])) - 2.0) < 1e-12

    def test_singular(self):
        assert mo.fk_det_matrix(np.diag([1.0, 0.0])) == 0.0

    def test_multiplicative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            a = rand_complex(rng, n) + np.eye(n)
            b = rand_complex(rng, n) + np.eye(n)
            lhs = mo.fk_det_matrix(a @ b)
            rhs = mo.fk_det_matrix(a) * mo.fk_det_matrix(b)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, rhs)


class TestShoda:
    def test_two_by_two(self):
        A, B, rep = mo.shoda_decompose(np.diag([1.0, -1.0]))
        assert rep["residual"] < 1e-10

    def test_zero(self):
        A, B, rep = mo.shoda_decompose(np.zeros((3, 3)))
        assert rep["residual"] == 0.0
        assert np.all(B.entries == 0.0)

    def test_empty(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            A, B, rep = mo.shoda_decompose(np.zeros((0, 0)))
        assert A.entries.shape == B.entries.shape == (0, 0)
        assert rep == {"residual": 0.0, "A_norm_ratio": 0.0,
                       "B_norm_ratio": 0.0}

    def test_nonzero_trace_rejected(self):
        with pytest.raises(df.DomainError):
            mo.shoda_decompose(np.eye(2))

    def test_random_residuals(self):
        rng = np.random.default_rng(13)
        for n in (2, 4, 8, 16):
            for _ in range(5):
                t = rand_complex(rng, n)
                t -= np.trace(t) / n * np.eye(n)
                norm = np.linalg.norm(t, 2)
                _, _, rep = mo.shoda_decompose(t)
                assert rep["residual"] <= 1e-9 * norm

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        t = rand_complex(rng, 6)
        t -= np.trace(t) / 6 * np.eye(6)
        A1, B1, _ = mo.shoda_decompose(t)
        A2, B2, _ = mo.shoda_decompose(t)
        assert np.array_equal(A1.entries, A2.entries)
        assert np.array_equal(B1.entries, B2.entries)


def counted_rotations(monkeypatch):
    calls = []
    apply = mo._apply_rotation

    def counted(*args):
        calls.append(args[3:5])
        return apply(*args)

    monkeypatch.setattr(mo, "_apply_rotation", counted)
    return calls


class TestShodaOnePass:
    @pytest.mark.parametrize("n", [2, 3, 5, 9, 12, 15, 16, 17, 33, 64])
    def test_residual_and_rotation_count(self, n, monkeypatch):
        calls = counted_rotations(monkeypatch)
        rng = np.random.default_rng(n)
        t = rand_complex(rng, n)
        t -= np.trace(t) / n * np.eye(n)
        _, _, rep = mo.shoda_decompose(t)
        assert rep["residual"] <= 1e-12 * np.linalg.norm(t, 2)
        assert len(calls) <= n * (n - 1) // 2

    def test_nilpotent_jordan_block(self):
        t = np.diag(np.ones(7), 1)
        _, _, rep = mo.shoda_decompose(t)
        assert rep["residual"] <= 1e-12 * np.linalg.norm(t, 2)

    def test_diagonal_input(self, monkeypatch):
        # q = r = 0 in every pair: the rotation mixes the diagonal alone
        calls = counted_rotations(monkeypatch)
        t = np.diag([3.0, -1.0, -1.0, -1.0])
        _, _, rep = mo.shoda_decompose(t)
        assert rep["residual"] <= 1e-12 * 3.0
        assert 0 < len(calls) <= 6

    def test_zero_diagonal_needs_no_rotation(self, monkeypatch):
        calls = counted_rotations(monkeypatch)
        rng = np.random.default_rng(19)
        t = rand_complex(rng, 9)
        np.fill_diagonal(t, 0.0)
        _, _, rep = mo.shoda_decompose(t)
        assert calls == []
        assert rep["residual"] <= 1e-12 * np.linalg.norm(t, 2)

    def test_tolerated_trace_ends_after_one_pass(self, monkeypatch):
        # a trace within the tolerance cannot be rotated away; the diagonal
        # is made equal once and the trace stays in the residual
        calls = counted_rotations(monkeypatch)
        rng = np.random.default_rng(23)
        t = rand_complex(rng, 12)
        t -= np.trace(t) / 12 * np.eye(12)
        t[0, 0] += 1e-10
        _, _, rep = mo.shoda_decompose(t)
        assert len(calls) <= 66
        assert rep["residual"] <= 1e-10


class TestPairRotation:
    @pytest.mark.parametrize("w", [0.0, 0.25, 0.5, 1.0])
    def test_moves_the_first_entry_by_the_weight(self, w):
        rng = np.random.default_rng(29)
        for _ in range(20):
            t = rand_complex(rng, 2)
            p, u = t[0, 0], t[1, 1]
            theta, phi = mo._pair_rotation(p, u, t[0, 1], t[1, 0], w)
            mo._apply_rotation(t, np.eye(2, dtype=complex), 0, 1,
                               theta, phi)
            assert abs(t[0, 0] - ((1 - w) * p + w * u)) <= 1e-12
            assert abs(t[0, 0] + t[1, 1] - (p + u)) <= 1e-12

    def test_equal_entries_need_no_rotation(self):
        assert mo._pair_rotation(1.0 + 1j, 1.0 + 1j, 2.0, 3.0, 0.5) \
            == (0.0, 0.0)


class TestSuites:
    def test_snumb(self):
        cfg = mo.OracleConfig(seed=101, dims=(2, 5, 9), trials=20)
        rep = mo.run_property_suite(cfg, "snumb")
        assert rep["failures"] == [] and rep["min_margin"] >= 0.0

    def test_soplus(self):
        cfg = mo.OracleConfig(seed=103, dims=(2, 6, 11), trials=20)
        rep = mo.run_property_suite(cfg, "soplus")
        assert rep["failures"] == []

    def test_lemma_nec(self):
        cfg = mo.OracleConfig(seed=107, dims=(4, 16), trials=15)
        for N in (1, 2, 3):
            rep = mo.run_property_suite(cfg, "lemma_nec", N=N)
            assert rep["failures"] == [], rep

    def test_pluri(self):
        cfg = mo.OracleConfig(seed=109, dims=(2, 8), trials=10)
        rep = mo.run_property_suite(cfg, "pluri")
        assert rep["failures"] == [], rep

    def test_pluri_zero_pair(self):
        n = 4
        eye = np.eye(n)
        lhs = math.log(mo.fk_det_matrix(eye))
        assert lhs == 0.0

    def test_brown_phi(self):
        cfg = mo.OracleConfig(seed=113, dims=(3, 12), trials=15)
        rep = mo.run_property_suite(cfg, "brown_phi")
        assert rep["failures"] == [], rep

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            mo.run_property_suite(mo.OracleConfig(dims=(2,), trials=1),
                                  "nope")

    def test_schedule_independence(self):
        cfg = mo.OracleConfig(seed=127, dims=(4,), trials=5)
        r1 = mo.run_property_suite(cfg, "snumb")
        r2 = mo.run_property_suite(cfg, "snumb")
        assert r1 == r2
