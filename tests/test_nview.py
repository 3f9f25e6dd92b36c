import numpy as np
import pytest

from itertools import combinations

from colsfm.errors import DuplicateEdge, IndexOutOfRange, MissingBlock, RankNot2, ValidationError
from colsfm.geometry import bifocal_from_pair, nearest_rotation
from colsfm.nview import (
    NViewBifocal,
    block_index,
    block_matrix,
    certify_collinear_essential,
    certify_collinear_fundamental,
    certify_general,
)
from colsfm.nview import _eig_sorted, _vhat_alignment
from colsfm.synthetic import MeasurementNoise, generate, measure

import spectral_oracle
from conftest import exact_nview, exact_triplet, geodesic_angle, scene_cameras, without
from geometry_oracle import fix_sign


def _scene_stack(scene):
    """Every sorted camera pair of a scene and its true-scale tensor."""
    pairs = list(combinations(range(scene.n), 2))
    return pairs, np.array([bifocal_from_pair(*scene_cameras(scene), i, j) for i, j in pairs])


class TestAssemble:
    def test_dense_three_view(self, collinear_scene):
        pairs, tensors = _scene_stack(collinear_scene)
        m = NViewBifocal.assemble(3, pairs[:2] + pairs[5:6], tensors[[0, 1, 5]], "essential")
        assert m.pairs.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert np.array_equal(m.dense(), exact_triplet(collinear_scene, (0, 1, 2)))
        assert m.kind == "essential"
        assert not m.pairs.flags.writeable and not m.tensors.flags.writeable

    def test_reversed_pair_transposed_and_sorted(self, collinear_scene):
        pairs, tensors = _scene_stack(collinear_scene)
        # (3, 1) arrives first, transposed: stored as (1, 3) in sorted place
        given = [(3, 1), (0, 2), (0, 1)]
        blocks = [tensors[pairs.index((1, 3))].T, tensors[pairs.index((0, 2))],
                  tensors[pairs.index((0, 1))]]
        m = NViewBifocal.assemble(4, given, blocks, "essential")
        assert m.pairs.tolist() == [[0, 1], [0, 2], [1, 3]]
        for (i, j), t in zip(m.pairs.tolist(), m.tensors):
            assert np.array_equal(t, tensors[pairs.index((i, j))])
        assert m.slots([(1, 3), (0, 1)]).tolist() == [2, 0]

    def test_rank3_block_rejected(self, collinear_scene):
        pairs, tensors = _scene_stack(collinear_scene)
        tensors[4] = np.eye(3)
        with pytest.raises(RankNot2, match=rf"block \({pairs[4][0]},{pairs[4][1]}\) is not rank 2"):
            NViewBifocal.assemble(collinear_scene.n, pairs, tensors, "fundamental")
        # only a strict assembly checks the rank
        NViewBifocal.assemble(collinear_scene.n, pairs, tensors, "fundamental", strict=False)

    def test_duplicate_and_range_checks(self, collinear_scene):
        pairs, tensors = _scene_stack(collinear_scene)
        t = tensors[0]
        with pytest.raises(IndexOutOfRange, match=r"edge \(0,5\) outside \[0,2\)"):
            NViewBifocal.assemble(2, [(0, 5)], [t], "essential")
        with pytest.raises(IndexOutOfRange, match=r"edge \(-1,1\) outside"):
            NViewBifocal.assemble(3, [(-1, 1)], [t], "essential")
        with pytest.raises(IndexOutOfRange, match=r"diagonal block \(1,1\)"):
            NViewBifocal.assemble(3, [(0, 1), (1, 1)], [t, t], "essential")
        with pytest.raises(DuplicateEdge, match=r"edge \(0,1\) given twice"):
            NViewBifocal.assemble(3, [(0, 1), (1, 0)], [t, t.T], "essential")
        with pytest.raises(DuplicateEdge, match=r"edge \(0,1\) given twice"):
            NViewBifocal.assemble(3, [(0, 1), (0, 2), (0, 1)], [t, t, t], "essential")

    def test_unknown_kind_rejected(self, collinear_scene):
        pairs, tensors = _scene_stack(collinear_scene)
        with pytest.raises(ValueError, match="unknown tensor kind 'projective'"):
            NViewBifocal.assemble(collinear_scene.n, pairs, tensors, "projective")
        with pytest.raises(ValueError, match="unknown tensor kind 'projective'"):
            NViewBifocal.assemble(3, [], [], "projective")  # checked with no pairs too

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("bad", ["nan", "inf", "zero", "underflowing", "overflowing"])
    def test_tensor_unfit_to_normalize_rejected(self, collinear_scene, strict, bad):
        # entries or a norm that `normalized_tensor` cannot divide by end
        # typed, naming the edge in the given order, strict or not
        pairs, tensors = _scene_stack(collinear_scene)
        given = [(j, i) for i, j in pairs]  # reversed pairs keep their order and names
        blocks = tensors.swapaxes(1, 2).copy()
        if bad in ("nan", "inf"):
            blocks[4, 1, 2] = float(bad)
        else:
            blocks[4] *= {"zero": 0.0, "underflowing": 1e-200, "overflowing": 1e200}[bad]
        i, j = given[4]
        with pytest.raises(ValidationError, match=rf"edge 4 \({i}, {j}\): tensor and its norm must be finite"):
            NViewBifocal.assemble(collinear_scene.n, given, blocks, "essential", strict=strict)

    def test_pair_and_tensor_counts_must_match(self):
        with pytest.raises(ValueError, match="2 pairs but 1 tensors"):
            NViewBifocal.assemble(3, [(0, 1), (0, 2)], [np.zeros((3, 3))], "essential")

    def test_sparse_dense_names_missing_block(self, collinear_scene):
        m = without(exact_nview(collinear_scene), (0, 3))
        assert len(m.pairs) == 14
        with pytest.raises(MissingBlock, match=r"cover edge \(0, 3\) has no measured tensor"):
            m.dense()
        with pytest.raises(MissingBlock, match=r"cover edge \(0, 3\)"):
            m.slots([(0, 1), (0, 3), (0, 4)])
        with pytest.raises(MissingBlock, match=r"cover edge \(0, 8\)"):
            m.slots([(0, 8)])  # outside the camera range


class TestDense:
    def test_two_view_layout(self, rng):
        from conftest import random_rotation

        R = np.array([random_rotation(rng), random_rotation(rng)])
        t = bifocal_from_pair(np.eye(3)[None].repeat(2, axis=0), R, [[0.0, 0, 0], [1.0, 0, 0]], 0, 1)
        m = NViewBifocal.assemble(2, [(0, 1)], [t], "essential")
        D = m.dense()
        assert np.allclose(D[0:3, 3:6], t)
        assert np.allclose(D[3:6, 0:3], t.T)

    def test_symmetry_and_zero_trace(self, collinear_scene):
        D = exact_nview(collinear_scene).dense()
        assert np.array_equal(D, D.T)
        w = np.linalg.eigvalsh(D)
        assert abs(np.sum(w)) < 1e-9 * np.max(np.abs(w))


def _loop_block_matrix(k, block):
    """Oracle: the former double loop, block(u, v) written above the
    diagonal and its transpose below, diagonal blocks left zero."""
    M = np.zeros((3 * k, 3 * k))
    for u in range(k):
        for v in range(u + 1, k):
            B = block(u, v)
            M[3 * u:3 * u + 3, 3 * v:3 * v + 3] = B
            M[3 * v:3 * v + 3, 3 * u:3 * u + 3] = B.T
    return M


class TestOneAssembler:
    """Every block matrix comes from `block_matrix`; each former assembler
    is checked against the double loop it replaced, bit for bit."""

    @staticmethod
    def _noisy():
        scene = generate("general", 7, 8, seed=21)
        m, _ = measure(scene, MeasurementNoise(0.5, 0.5), seed=3)
        return m

    @staticmethod
    def _block(m, i, j):
        return m.tensors[m.slots([(i, j)])[0]]

    def test_dense(self):
        m = self._noisy()
        assert np.array_equal(m.dense(), _loop_block_matrix(m.n, lambda u, v: self._block(m, u, v)))

    def test_submatrix_unsorted_ids(self):
        m = self._noisy()
        for ids in ((5, 1, 3, 0), (6, 2, 0), (4, 3)):
            s = sorted(ids)
            want = _loop_block_matrix(len(s), lambda u, v: self._block(m, s[u], s[v]))
            assert np.array_equal(m.submatrix(ids), want)
        # a sparse matrix gathers the sub-blocks it holds and names one it lacks
        sparse = without(m, (0, 2), (3, 6), (1, 5))
        assert np.array_equal(sparse.submatrix((6, 4, 0)), m.submatrix((0, 4, 6)))
        with pytest.raises(MissingBlock, match=r"cover edge \(1, 5\)"):
            sparse.submatrix((5, 1, 3))

    def test_exact_triplet(self):
        scene = generate("mixed", 6, 8, seed=22)
        ids = (5, 1, 3)
        s = sorted(ids)
        want = _loop_block_matrix(
            3, lambda u, v: bifocal_from_pair(*scene_cameras(scene), s[u], s[v]))
        assert np.array_equal(exact_triplet(scene, ids), want)

    def test_default_layout_built_once_per_size(self, monkeypatch, rng):
        import colsfm.nview

        calls = []
        real = colsfm.nview.block_index
        monkeypatch.setattr(colsfm.nview, "block_index", lambda slots: calls.append(1) or real(slots))
        colsfm.nview._stack_index.cache_clear()
        blocks = rng.normal(size=(3, 3, 3))
        first = block_matrix(blocks)
        assert np.array_equal(block_matrix(blocks), first) and len(calls) == 1
        index = colsfm.nview._stack_index(3)
        assert not index.flags.writeable and index.flags.c_contiguous
        local = [(0, 1), (0, 2), (1, 2)]
        assert np.array_equal(first, _loop_block_matrix(3, lambda u, v: blocks[local.index((u, v))]))

    def test_stacked_layout_gathers(self, rng):
        # the ADMM gather: triplet k reads its pairs from the consensus stack
        blocks = rng.normal(size=(7, 3, 3))
        slots = rng.integers(0, 7, size=(5, 3))
        got = block_matrix(blocks, block_index(slots))
        # reductions over the stack depend on its memory order
        assert got.flags.c_contiguous
        local = [(0, 1), (0, 2), (1, 2)]
        for k in range(5):
            want = _loop_block_matrix(3, lambda u, v: blocks[slots[k, local.index((u, v))]])
            assert np.array_equal(got[k], want)


class TestSvdSpectralMap:
    def test_orthonormal_output_and_reconstruction(self, rng):
        # lemma's SVD -> spectral map on any orthonormal [U V]:
        # X = sqrt(.5)(U + V), Y = sqrt(.5)(V - U)
        A = rng.normal(size=(12, 4))
        Q, _ = np.linalg.qr(A)
        U, V = Q[:, :2], Q[:, 2:]
        sigma = np.diag([2.0, 1.0])
        X, Y = np.sqrt(0.5) * (U + V), np.sqrt(0.5) * (V - U)
        B = np.hstack([X, Y])
        assert np.linalg.norm(B.T @ B - np.eye(4)) < 1e-12
        lhs = X @ sigma @ X.T - Y @ sigma @ Y.T
        rhs = U @ sigma @ V.T + V @ sigma @ U.T
        assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_eigenvectors_of_consistent_collinear(self, collinear_scene):
        # oracle: eigendecomposition of the dense matrix; the factor pair
        # (U_hat, V_hat) built from the eigen split is a valid thin SVD of E
        # and the forward map must land back in the eigenspaces
        E = exact_nview(collinear_scene).dense()
        w, V = np.linalg.eigh(E)
        lam = w[-1]
        Epos = V[:, np.abs(w - lam) < 1e-8 * lam]
        Eneg = V[:, np.abs(w + lam) < 1e-8 * lam]
        # spectral -> SVD factors: U = sqrt(.5)(X - Y), V = sqrt(.5)(X + Y)
        Uh, Vh = np.sqrt(0.5) * (Epos - Eneg), np.sqrt(0.5) * (Epos + Eneg)
        sigma = lam * np.eye(2)
        # lemma's SVD form reproduces E
        assert np.linalg.norm(Uh @ sigma @ Vh.T + Vh @ sigma @ Uh.T - E) < 1e-9 * lam
        # SVD -> spectral factors: X = sqrt(.5)(U + V), Y = sqrt(.5)(V - U)
        X, Y = np.sqrt(0.5) * (Uh + Vh), np.sqrt(0.5) * (Vh - Uh)
        assert np.linalg.norm(X @ sigma @ X.T - Y @ sigma @ Y.T - E) < 1e-9 * lam
        for k in range(2):
            r = X[:, k] - Epos @ (Epos.T @ X[:, k])
            assert np.linalg.norm(r) < 1e-8
            r = Y[:, k] - Eneg @ (Eneg.T @ Y[:, k])
            assert np.linalg.norm(r) < 1e-8


def _rotations_from_vhat(v_hat):
    """Oracle of the recovery direction: each 3x2 block of V_hat, completed
    by the cross-product third column and scaled by sqrt(n), is R_i^T up to
    one global rotation."""
    n = v_hat.shape[0] // 3
    out = []
    for B in v_hat.reshape(n, 3, 2):
        T = np.sqrt(n) * np.column_stack([B, np.sqrt(n) * np.cross(B[:, 0], B[:, 1])])
        if np.linalg.det(T) < 0:
            T[:, 2] = -T[:, 2]
        out.append(nearest_rotation(T))
    return out


class TestCertifyCollinearEssential:
    def test_collinear_passes_with_pattern(self):
        scene = generate("collinear", 10, 8, seed=11)
        cert = certify_collinear_essential(exact_nview(scene), tol=1e-8)
        assert cert.passed
        assert cert.rank_estimate == 4
        assert cert.pattern_residual < 1e-8
        assert cert.orthogonality_residual < 1e-8
        w = cert.eigenvalues
        lam = w[0]
        assert np.allclose(sorted(np.abs(w))[-4:], [lam] * 4, rtol=1e-8)

    def test_general_position_fails_with_six_eigenvalues(self):
        scene = generate("general", 10, 8, seed=12)
        cert = certify_collinear_essential(exact_nview(scene))
        assert not cert.passed
        assert cert.rank_estimate == 6
        assert not cert.conditions["eigen_count"]

    def test_perturbation_moves_residual(self):
        scene = generate("collinear", 6, 8, seed=13)
        m = exact_nview(scene)
        D = m.dense()
        B = np.zeros_like(D)
        rngl = np.random.default_rng(0)
        P = rngl.normal(size=(3, 3))
        scale = np.linalg.norm(D[0:3, 3:6])
        B[0:3, 3:6] = 1e-3 * scale * P / np.linalg.norm(P)
        B[3:6, 0:3] = B[0:3, 3:6].T
        cert = certify_collinear_essential(D + B, tol=1e-6)
        assert not cert.passed
        assert 1e-5 < cert.pattern_residual < 1e-1

    def test_rotation_round_trip(self):
        # Thm 1 recovery direction: V_hat blocks extend to rotations matching
        # the oracle R_i^T up to one global rotation
        scene = generate("collinear", 7, 8, seed=14)
        cert = certify_collinear_essential(exact_nview(scene), tol=1e-8)
        rots = _rotations_from_vhat(cert.v_hat)
        for i in range(scene.n):
            for j in range(i + 1, scene.n):
                rel_est = rots[i] @ rots[j].T
                rel_true = scene.rotations[i].T @ scene.rotations[j]
                a = geodesic_angle(rel_est, rel_true)
                b = geodesic_angle(rel_est, rel_true.T)  # transpose branch of the gauge
                assert min(a, b) < 1e-7


def _golden_min(f, a, b, iters=90):
    g = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - g * (b - a)
    d = a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _search_alignment(X, Y, n):
    """Oracle: the former 256-point theta grid plus a golden-section search
    per reflection."""
    bx = X.reshape(n, 3, 2)
    by = Y.reshape(n, 3, 2)
    target = np.eye(2) / n

    def residual_sq(theta, refl):
        c, s = np.cos(theta), np.sin(theta)
        Q = np.array([[c, -s], [s, c]]) @ np.diag([1.0, refl])
        Vh = np.sqrt(0.5) * (bx + by @ Q)
        G = np.einsum("nij,nik->njk", Vh, Vh) - target
        return float(np.sum(G * G))

    best = (np.inf, 0.0, 1.0)
    for refl in (1.0, -1.0):
        thetas = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
        vals = [residual_sq(t, refl) for t in thetas]
        k = int(np.argmin(vals))
        lo = thetas[k] - 2.0 * np.pi / 256
        hi = thetas[k] + 2.0 * np.pi / 256
        x, fx = _golden_min(lambda t: residual_sq(t, refl), lo, hi)
        if fx < best[0]:
            best = (fx, x, refl)
    _, theta, refl = best
    c, s = np.cos(theta), np.sin(theta)
    Q = np.array([[c, -s], [s, c]]) @ np.diag([1.0, refl])
    Vh = np.sqrt(0.5) * (bx + by @ Q)
    G = np.einsum("nij,nik->njk", Vh, Vh) - target
    maxres = float(np.max(np.sqrt(np.sum(G * G, axis=(1, 2)))))
    return maxres, Vh.reshape(3 * n, 2)


def _alignment_objective(v_hat, n):
    B = v_hat.reshape(n, 3, 2)
    G = np.einsum("nij,nik->njk", B, B) - np.eye(2) / n
    return float(np.sum(G * G))


class TestClosedFormAlignment:
    """The degree-4 trigonometric minimiser against the former search."""

    @staticmethod
    def _matrices():
        for seed in range(12):
            n = 3 + seed % 8
            scene = generate("collinear", n, 8, seed=200 + seed)
            yield "exact", exact_nview(scene).dense()
            noisy, _ = measure(scene, MeasurementNoise(0.5, 0.5), seed=seed)
            yield "noisy", noisy.dense()
            yield "general", exact_nview(generate("general", n, 8, seed=300 + seed)).dense()

    def test_objective_no_larger_and_same_conditions(self):
        for label, M in self._matrices():
            n = M.shape[0] // 3
            w, V = _eig_sorted(M)
            X, Y = V[:, [0, 1]], V[:, [len(w) - 1, len(w) - 2]]
            old_res, old_vhat = _search_alignment(X, Y, n)
            new_res, new_vhat = _vhat_alignment(X, Y, n)
            assert _alignment_objective(new_vhat, n) <= _alignment_objective(old_vhat, n) + 1e-12, label
            for tol in (1e-6, 1e-3):
                cert = certify_collinear_essential(M, tol=tol)
                assert cert.orthogonality_residual == new_res
                assert cert.conditions == dict(cert.conditions, orthogonality=old_res < tol), label

    def test_eigenvector_signs_match_fix_sign(self, rng):
        for n in (3, 6, 9, 12):
            A = rng.normal(size=(n, n))
            A = A + A.T
            w, V = _eig_sorted(A)
            ref_w, ref_V = np.linalg.eigh(A)
            order = np.argsort(ref_w)[::-1]
            assert np.array_equal(w, ref_w[order])
            assert np.array_equal(V, np.column_stack([fix_sign(v) for v in ref_V[:, order].T]))

    def test_exact_input_reaches_machine_precision(self):
        scene = generate("collinear", 5, 8, seed=7)
        cert = certify_collinear_essential(exact_nview(scene))
        assert cert.orthogonality_residual < 1e-12


class TestSpectralOracles:
    """Each spectral step against the per-case, per-row code it replaced
    (`tests/spectral_oracle.py`): the polynomial-root alignment is never
    worse than the grid-and-Newton one, and every certificate keeps its
    verdicts."""

    @staticmethod
    def _matrices():
        """(label, matrix, kind) for n = 3..10: exact, noisy and general."""
        for n in range(3, 11):
            for layout in ("collinear", "general"):
                for intrinsics, kind in (("calibrated", "essential"), ("varied", "fundamental")):
                    scene = generate(layout, n, 8, seed=400 + n, intrinsics_mode=intrinsics)
                    yield f"{layout} {kind} n={n} exact", exact_nview(scene).dense(), kind
                    noisy, _ = measure(scene, MeasurementNoise(0.5, 0.5), seed=n)
                    yield f"{layout} {kind} n={n} noisy", noisy.dense(), kind

    def test_alignment_objective_no_larger(self):
        flat = np.zeros((15, 2))  # X = Y = 0: f is constant
        cases = [("flat", flat, flat)]
        for label, M, _ in self._matrices():
            w, V = _eig_sorted(M)
            cases.append((label, V[:, [0, 1]], V[:, [len(w) - 1, len(w) - 2]]))
        for label, X, Y in cases:
            n = len(X) // 3
            _, new_vhat = _vhat_alignment(X, Y, n)
            _, old_vhat = spectral_oracle.vhat_alignment(X, Y, n)
            assert _alignment_objective(new_vhat, n) <= _alignment_objective(old_vhat, n) + 1e-12, label

    def test_certificate_verdicts_unchanged(self):
        for label, M, kind in self._matrices():
            for tol in (1e-8, 1e-6, 1e-3):
                cert = certify_collinear_essential(M, tol=tol)
                want = spectral_oracle.collinear_essential_conditions(M, tol)
                assert (cert.conditions, cert.passed) == (want, all(want.values())), label
                for k in {kind, "essential"}:
                    cert = certify_general(M, kind=k, tol=tol)
                    want = spectral_oracle.general_conditions(M, k, tol)
                    assert (cert.conditions, cert.passed) == (want, all(want.values())), label
            cert = certify_collinear_fundamental(M)
            want = spectral_oracle.collinear_fundamental_conditions(M)
            assert (cert.conditions, cert.passed) == (want, all(want.values())), label
            n = len(M) // 3
            assert cert.block_row_ranks == [spectral_oracle.block_row_rank(M, i) for i in range(n)]

    def test_rotation_residual_at_one_sign_case(self):
        # on consistent input the one sign case of the sign search is the
        # per-case minimum, to the last bits
        for n in range(3, 11):
            M = exact_nview(generate("general", n, 8, seed=400 + n)).dense()
            w, V = _eig_sorted(M)
            old, _ = spectral_oracle.block_rotation_residual(V[:, :3], V[:, :-4:-1], n)
            new = certify_general(M, kind="essential").rotation_residual
            assert new < 1e-9 and abs(new - old) < 1e-12


class TestCertifyCollinearFundamental:
    def test_collinear_projective_passes(self, collinear_projective_scene):
        cert = certify_collinear_fundamental(exact_nview(collinear_projective_scene))
        assert cert.passed
        assert cert.signature == (2, 2)
        assert all(r == 2 for r in cert.block_row_ranks)

    def test_signature_31_fails_condition1(self, rng):
        # rank-4 PSD-heavy construction: X X^T with a single negative dyad
        X = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        M = X @ X.T - 0.1 * np.outer(y, y)
        for i in range(5):
            M[3 * i:3 * i + 3, 3 * i:3 * i + 3] = 0.0
        cert = certify_collinear_fundamental(M)
        assert not cert.conditions["rank4_signature"]

    def test_general_position_block_rows_rank3(self):
        scene = generate("general", 6, 8, seed=15, intrinsics_mode="varied")
        cert = certify_collinear_fundamental(exact_nview(scene))
        assert not cert.passed
        assert any(r == 3 for r in cert.block_row_ranks)

    def test_eigen_split_reconstruction(self, collinear_projective_scene):
        # Lemma: F = U V^T + V U^T from the (2,2) eigen-split
        F = exact_nview(collinear_projective_scene).dense()
        w, V = np.linalg.eigh(F)
        pos = np.argsort(w)[-2:]
        neg = np.argsort(w)[:2]
        X = V[:, pos] * np.sqrt(w[pos])
        Y = V[:, neg] * np.sqrt(-w[neg])
        U = np.sqrt(0.5) * (X - Y)
        W = np.sqrt(0.5) * (X + Y)
        assert np.linalg.norm(U @ W.T + W @ U.T - F) < 1e-10 * np.linalg.norm(F)


class TestCertifyGeneral:
    def test_calibrated_triplet_passes(self):
        scene = generate("general", 3, 8, seed=16)
        cert = certify_general(exact_nview(scene), tol=1e-8)
        assert cert.passed
        assert cert.rank_estimate == 6
        assert cert.signature == (3, 3)
        assert cert.rotation_residual < 1e-8

    def test_collinear_triplet_fails_rank(self):
        scene = generate("collinear", 3, 8, seed=17)
        cert = certify_general(exact_nview(scene))
        assert not cert.passed
        assert cert.rank_estimate == 4

    def test_rotation_residual_tracks_perturbation(self):
        scene = generate("general", 3, 8, seed=18)
        M = exact_nview(scene).dense()
        cert0 = certify_general(M, kind="essential")
        rngl = np.random.default_rng(1)
        # perturb in a way that keeps the spectrum-side conditions roughly
        # intact but disturbs the eigenvector block structure
        P = rngl.normal(size=M.shape)
        P = (P + P.T) / 2
        M2 = M + 1e-2 * np.linalg.norm(M) / np.linalg.norm(P) * P
        cert = certify_general(M2, kind="essential")
        assert cert.rotation_residual > cert0.rotation_residual
        assert 1e-4 < cert.rotation_residual < 0.5

    def test_raw_matrix_needs_kind(self):
        with pytest.raises(ValueError, match="kind required for raw matrices"):
            certify_general(np.eye(9))

    def test_essential_without_positive_levels(self):
        # every level (top_i - bottom_i) / 2 of the identity is 0, so no
        # pairing is measured and the pattern residual reads its maximum
        cert = certify_general(np.eye(9), kind="essential")
        assert cert.pattern_residual == 1.0
        assert cert.conditions["eigen_pairing"] is False
        assert not cert.passed

    def test_fundamental_rank6_signature(self):
        scene = generate("general", 4, 8, seed=19, intrinsics_mode="varied")
        cert = certify_general(exact_nview(scene))
        assert cert.passed
        assert cert.signature == (3, 3)


class TestSparseCertificates:
    def test_sparse_input_rejected(self, collinear_scene):
        from colsfm.errors import ValidationError

        sparse = without(exact_nview(collinear_scene), (0, 2))
        for fn in (certify_collinear_essential, certify_collinear_fundamental, certify_general):
            with pytest.raises(ValidationError, match=r"cover edge \(0, 2\)"):
                fn(sparse)
        # per-triplet certification of the sparse matrix still works
        cert = certify_collinear_essential(sparse.submatrix((1, 2, 3)))
        assert cert.conditions["eigen_pattern"]
