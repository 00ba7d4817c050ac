"""Tests for the Hermitian container types, marginals and the propagator."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from qthermo import (
    BipartiteState,
    DensityMatrix,
    HermitianMatrix,
    InvalidInput,
    InvalidState,
    NumericalError,
    UnitaryMatrix,
    tensor_product,
    trace_distance,
)
from qthermo.linalg import (
    TOL_HERM,
    _check_unitary,
    _density_spectra,
    _expi,
    _hermitian_part,
    _kron,
    _ptrace_stack,
    _trace_distance,
)
from qthermo.rand import rand_bipartite, rand_density, rand_hermitian, rand_unitary
from qthermo.thermo import _states


def test_hermitian_symmetrizes_roundoff():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rand_hermitian(rng, 4).mat
        noisy = a + 1e-14 * rng.standard_normal((4, 4))
        h = HermitianMatrix(noisy)
        assert np.all(h.mat == h.mat.conj().T)
        assert np.max(np.abs(h.mat - a)) < 1e-13


def test_hermitian_rejects_gross_asymmetry():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidInput):
        HermitianMatrix(a)
    with pytest.raises(InvalidInput):
        HermitianMatrix(np.ones((2, 3)))


def test_density_matrix_validation():
    with pytest.raises(InvalidState):
        DensityMatrix(np.diag([0.9, 0.3]))  # trace 1.2
    with pytest.raises(InvalidState):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    d = DensityMatrix(np.diag([0.25, 0.75]))
    assert d.dim == 2
    assert abs(np.trace(d.mat) - 1.0) < 1e-15


def test_density_matrix_is_read_only():
    d = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        d.mat[0, 0] = 5.0


def test_unitary_matrix_validation():
    rng = np.random.default_rng(1)
    u = rand_unitary(rng, 3)
    assert isinstance(u, UnitaryMatrix)
    with pytest.raises(InvalidInput):
        UnitaryMatrix(np.ones((3, 3)))


def test_bipartite_marginals_match_index_loops():
    # Oracle: partial traces written as explicit index sums.
    rng = np.random.default_rng(2)
    for _ in range(10):
        d_s, d_e = rng.integers(2, 4), rng.integers(2, 4)
        state = rand_bipartite(rng, d_s, d_e)
        full = state.mat.reshape(d_s, d_e, d_s, d_e)
        rho_s = np.zeros((d_s, d_s), dtype=complex)
        rho_e = np.zeros((d_e, d_e), dtype=complex)
        for i in range(d_s):
            for j in range(d_s):
                for k in range(d_e):
                    rho_s[i, j] += full[i, k, j, k]
        for i in range(d_e):
            for j in range(d_e):
                for k in range(d_s):
                    rho_e[i, j] += full[k, i, k, j]
        assert np.max(np.abs(state.rho_sys.mat - rho_s)) < 1e-14
        assert np.max(np.abs(state.rho_env.mat - rho_e)) < 1e-14


def test_bipartite_dimension_checks():
    with pytest.raises(InvalidInput):
        BipartiteState(2, 3, np.eye(5) / 5)
    with pytest.raises(InvalidState):
        BipartiteState(2, 2, np.diag([2.0, -1.0, 0.0, 0.0]))


def test_tensor_product_marginals_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rand_density(rng, 2)
        b = rand_density(rng, 3)
        prod = tensor_product(a, b)
        assert np.max(np.abs(prod.mat - np.kron(a.mat, b.mat))) < 1e-15
        state = BipartiteState(2, 3, prod.mat)
        assert np.max(np.abs(state.rho_sys.mat - a.mat)) < 1e-14
        assert np.max(np.abs(state.rho_env.mat - b.mat)) < 1e-14


def test_trace_distance_fixed_oracle():
    # Oracle: half the sum of |eigenvalues| of the difference, by hand.
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    sig = np.array([[0.5, 0.05j], [-0.05j, 0.5]])
    t = trace_distance(DensityMatrix(rho), DensityMatrix(sig))
    assert abs(t - 0.32015621187164245) < 1e-14


def test_trace_distance_properties():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a = rand_density(rng, 4)
        b = rand_density(rng, 4)
        t = trace_distance(a, b)
        oracle = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.mat - b.mat)))
        assert abs(t - oracle) < 1e-13
        assert 0.0 <= t <= 1.0
        assert trace_distance(a, a) < 1e-15
    # orthogonal pure states are perfectly distinguishable
    up = DensityMatrix(np.diag([1.0, 0.0]))
    down = DensityMatrix(np.diag([0.0, 1.0]))
    assert abs(trace_distance(up, down) - 1.0) < 1e-15


def test_unitary_step_matches_expm_propagator():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = rand_hermitian(rng, 4)
        dt = 0.37
        u = _expi(h.mat, dt)
        oracle = sla.expm(-1j * h.mat * dt)
        UnitaryMatrix(u)  # raises unless unitary within TOL_UNITARY
        assert np.max(np.abs(u - oracle)) < 1e-12


@pytest.mark.parametrize("norm", [1e-8, 1e-3, 0.3, 1.0, 7.0, 1e3])
def test_expi_matches_expm_on_a_matrix_and_a_stack(norm):
    # ||H dt||_1 above 1/2 runs the squaring path.  The last four shapes are
    # the chunks a driven segment of 150 steps stacks at d = 4, 6 and 12.
    rng = np.random.default_rng(30)
    for n, d in ((3, 2), (3, 4), (3, 6), (3, 12), (150, 4), (150, 6), (56, 12), (38, 12)):
        hs = np.stack([rand_hermitian(rng, d).mat for _ in range(n)])
        dt = norm / np.abs(hs).sum(axis=-1).max()
        stack = _expi(hs, dt)
        for h, u in zip(hs, stack):
            oracle = sla.expm(-1j * h * dt)
            assert np.max(np.abs(_expi(h, dt) - oracle)) < 1e-12
            assert np.max(np.abs(u - oracle)) < 1e-12
            UnitaryMatrix(u)  # raises unless unitary within TOL_UNITARY


def test_expi_of_zero_is_the_identity():
    for dt in (0.0, 0.37, 1e3):
        assert np.array_equal(_expi(0.0 * np.eye(3), dt), np.eye(3))
    assert np.array_equal(_expi(np.zeros((2, 4, 4)), 0.5), np.broadcast_to(np.eye(4), (2, 4, 4)))


def _horner_reference(h, dt):
    """_expi's series summed out of place in real block form: a fresh array per
    Horner and squaring step, the block [[Re X, -Im X], [Im X, Re X]] of
    X = A / 2^s acting on P stored as [Re P; Im P], and 1 added on the diagonal
    of the real half only."""
    theta, s = abs(dt) * float(np.abs(h).sum(axis=-1).max()), 0
    while theta > 0.5:
        theta, s = theta / 2.0, s + 1
    m, term = 0, theta
    while term > 2.0 ** -53:
        m += 1
        term *= theta / (m + 1)
    d, c = h.shape[-1], dt / 2.0 ** s
    hs = h.reshape(-1, d, d)
    blk = np.block([[c * hs.imag, c * hs.real], [-c * hs.real, c * hs.imag]])
    eye = np.eye(2 * d, d, dtype=bool)
    p = blk[:, :, :d] * (1.0 / m)
    for k in range(m - 1, 0, -1):
        p = blk @ np.where(eye, p + 1.0, p) * (1.0 / k)
    p = np.where(eye, p + 1.0, p)
    for _ in range(s):
        p = np.block([[p[:, :d], -p[:, d:]], [p[:, d:], p[:, :d]]]) @ p
    return np.stack([p[:, :d], p[:, d:]], axis=-1).view(complex)[..., 0].reshape(h.shape)


@pytest.mark.parametrize("norm", [1e-3, 0.3, 7.0, 1e3])
def test_expi_in_place_matches_the_out_of_place_sum_bit_for_bit(norm):
    rng = np.random.default_rng(34)
    for d in (2, 4, 6, 12):
        hs = np.stack([rand_hermitian(rng, d).mat for _ in range(5)])
        dt = norm / np.abs(hs).sum(axis=-1).max()
        for h in (hs, hs[2]):
            u = _expi(h, dt)
            assert u.shape == h.shape
            assert u.tobytes() == _horner_reference(h, dt).tobytes(), d


def test_expi_past_the_float_range_raises_numerical_error():
    # 2^s at s >= 1024 raised a bare OverflowError.
    with pytest.raises(NumericalError, match="^segment propagation: "):
        _expi(np.diag([1e308, 1e308]) + 0j, 1.0)


def test_expi_of_an_infinite_norm_raises_rather_than_halving_forever():
    # ||H dt||_1 overflows to inf, which the scaling loop once halved forever:
    # a child process with a timeout fails a hang instead of stalling the suite.
    code = "import numpy as np\nfrom qthermo.linalg import _expi\n_expi(np.full((4, 4), 1e308 + 0j), 1.0)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert "qthermo.errors.NumericalError: segment propagation: " in run.stderr


def _spoiled(mat, value, i, j):
    out = np.array(mat, dtype=complex)
    out[i, j] += value
    return out


_NON_FINITE = [c for v in (np.nan, np.inf, -np.inf) for c in (complex(v, 0.0), complex(0.0, v))]


@pytest.mark.parametrize("value", _NON_FINITE,
                         ids=[f"{p}-{v}" for v in ("nan", "inf", "-inf") for p in ("re", "im")])
@pytest.mark.parametrize("i, j", [(1, 1), (0, 2)], ids=["diagonal", "off-diagonal"])
def test_non_finite_entries_are_rejected_by_name(value, i, j):
    rng = np.random.default_rng(31)
    h = rand_hermitian(rng, 3).mat
    with pytest.raises(InvalidInput, match="^HermitianMatrix contains non-finite entries$"):
        HermitianMatrix(_spoiled(h, value, i, j))
    stack = np.stack([rand_density(rng, 3).mat for _ in range(3)])
    with pytest.raises(InvalidInput, match="^DensityMatrix contains non-finite entries$"):
        DensityMatrix(_spoiled(stack[1], value, i, j))
    stack[1] = _spoiled(stack[1], value, i, j)
    with pytest.raises(InvalidInput, match="^DensityMatrix contains non-finite entries$"):
        _states(stack)


def test_infinite_diagonal_is_rejected_without_a_warning():
    # A - A^dag would meet inf - inf on this diagonal; no RuntimeWarning may precede the error.
    stack = np.stack([np.eye(2) / 2.0, [[np.inf, 0.0], [0.0, 1.0]]]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="^HermitianMatrix contains non-finite entries$"):
            HermitianMatrix([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidInput, match="^DensityMatrix contains non-finite entries$"):
            _states(stack)


def test_exactly_self_adjoint_input_is_stored_as_given():
    # A drive value base + sin(w t) V of exactly self-adjoint pieces is exactly
    # self-adjoint: stored as given, which is (A + A^dag)/2 bit for bit, in a copy.
    rng = np.random.default_rng(35)
    for d in (2, 4, 12):
        base, drive = rand_hermitian(rng, d).mat, rand_hermitian(rng, d).mat
        a = base + np.sin(2.3) * drive
        assert (a == a.conj().T).all()
        given = a.copy()
        h = HermitianMatrix(a)
        assert h.mat.tobytes() == given.tobytes() == ((a + a.conj().T) / 2.0).tobytes()
        assert not h.mat.flags.writeable and not np.shares_memory(h.mat, a)
        a[0, 1] += 1.0
        assert h.mat.tobytes() == given.tobytes()
        stack = np.stack([given, -given])
        part = _hermitian_part(stack)
        assert part.tobytes() == stack.tobytes() and not np.shares_memory(part, stack)


def test_input_one_ulp_off_self_adjoint_is_symmetrized():
    rng = np.random.default_rng(36)
    for d in (2, 4, 12):
        a = rand_hermitian(rng, d).mat.copy()
        a[0, d - 1] = complex(np.nextafter(a[0, d - 1].real, np.inf), a[0, d - 1].imag)
        assert not (a == a.conj().T).all()
        h = HermitianMatrix(a)
        assert (h.mat == h.mat.conj().T).all()
        assert h.mat.tobytes() == ((a + a.conj().T) / 2.0).tobytes()


def test_symmetrizing_next_to_the_float_maximum_stays_finite_without_a_warning():
    # (A + A^dag)/2 overflowed here, to inf + nan*j with a RuntimeWarning; halving
    # before the sum keeps the entry.
    a = [[1e308, 1.0], [np.nextafter(1.0, 2.0), 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = HermitianMatrix(a)
    assert np.isfinite(h.mat).all() and h.mat[0, 0] == 1e308
    assert (h.mat == h.mat.conj().T).all()


def test_hermiticity_tolerance_is_relative_to_each_matrix():
    rng = np.random.default_rng(32)
    big = 1e6 * rand_hermitian(rng, 4).mat
    big[0, 1] += 1e-7
    HermitianMatrix(big)
    small = rand_hermitian(rng, 4).mat.copy()
    _hermitian_part(np.stack([small, big]))
    big[0, 1] += 1e-5
    with pytest.raises(InvalidInput, match="not Hermitian"):
        HermitianMatrix(big)
    # A large row does not widen the tolerance of a small one.
    small[0, 1] += 1e-7
    with pytest.raises(InvalidInput, match="not Hermitian"):
        _hermitian_part(np.stack([small, 1e6 * rand_hermitian(rng, 4).mat]))


def test_frobenius_fast_test_keeps_every_entrywise_decision():
    # ||A - A^dag||_F above TOL_HERM with every entry within it: still accepted,
    # stored as (A + A^dag)/2 bit for bit.
    rng = np.random.default_rng(33)
    a = rand_hermitian(rng, 6, scale=0.4).mat + np.triu(np.full((6, 6), 0.9e-12), 1)
    skew = a - a.conj().T
    assert np.abs(skew).max() <= TOL_HERM < np.linalg.norm(skew)
    assert np.array_equal(HermitianMatrix(a).mat, (a + a.conj().T) / 2.0)
    stack = np.stack([rand_hermitian(rng, 6).mat, a, 1e3 * rand_hermitian(rng, 6).mat])
    assert np.array_equal(_hermitian_part(stack), (stack + stack.conj().swapaxes(1, 2)) / 2.0)
    # Just past TOL_HERM: accepted only where the row's largest entry widens it.
    stack[2, 0, 1] += 2e-12
    _hermitian_part(stack)
    stack[1, 0, 1] += 2e-12
    with pytest.raises(InvalidInput, match="^matrix is not Hermitian: max"):
        _hermitian_part(stack)
    for value in (np.nan, np.inf, -np.inf):
        spoiled = stack.copy()
        spoiled[0, 2, 2] = value
        with np.errstate(invalid="ignore"):
            with pytest.raises(InvalidInput, match="^matrix contains non-finite entries$"):
                _hermitian_part(spoiled)


def test_rand_unitary_is_unitary():
    rng = np.random.default_rng(8)
    for dim in (2, 3, 6):
        u = rand_unitary(rng, dim)
        err = np.max(np.abs(u.mat @ u.mat.conj().T - np.eye(dim)))
        assert err < 1e-13


def test_rand_density_is_valid_state():
    rng = np.random.default_rng(9)
    for dim in (2, 4, 6):
        rho = rand_density(rng, dim)
        ev = np.linalg.eigvalsh(rho.mat)
        assert abs(np.sum(ev) - 1.0) < 1e-13
        assert ev[0] > -1e-14
    low = rand_density(rng, 4, rank=2)
    ev = np.sort(np.linalg.eigvalsh(low.mat))
    assert ev[1] < 1e-13 and ev[2] > 1e-6


def test_density_matrix_spectrum_is_cached_and_read_only():
    # Validation keeps the whole eigvalsh spectrum; a trusted state computes
    # the same array on first use.  Neither may be written through.
    rng = np.random.default_rng(10)
    mat = rand_density(rng, 5).mat
    for rho in (DensityMatrix(mat), DensityMatrix._trusted(mat)):
        w = rho._spectrum()
        assert w is rho._spectrum()
        assert np.array_equal(w, np.linalg.eigvalsh(rho.mat))
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 1.0


def test_validation_decomposes_each_bipartite_matrix_once(monkeypatch):
    rng = np.random.default_rng(11)
    mat = rand_density(rng, 6).mat
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    state = BipartiteState(2, 3, DensityMatrix(mat))
    # The joint state and both marginals, one eigvalsh each.
    assert len(calls) == 3
    for rho in (state.state, state.rho_sys, state.rho_env):
        rho._spectrum()
    assert len(calls) == 3


def test_stacked_kernels_match_one_matrix_calls():
    # Every row of a stacked kernel equals the public call on that row alone.
    rng = np.random.default_rng(12)
    for d_s, d_e in ((1, 2), (2, 3), (3, 4)):
        states = [rand_bipartite(rng, d_s, d_e) for _ in range(5)]
        joint = np.stack([s.mat for s in states])
        for k, marginals in (("S", [s.rho_sys for s in states]),
                             ("E", [s.rho_env for s in states])):
            stack = _hermitian_part(_ptrace_stack(joint, d_s, d_e, k))
            spectra = _density_spectra(stack)
            for row, eigs, rho in zip(stack, spectra, marginals):
                assert np.array_equal(row, rho.mat)
                assert np.array_equal(eigs, rho._spectrum())
        others = np.stack([rand_density(rng, d_s * d_e).mat for _ in states])
        dist = _trace_distance(joint, others)
        assert dist.tolist() == [trace_distance(s.state, DensityMatrix(o))
                                 for s, o in zip(states, others)]
        sys = np.stack([s.rho_sys.mat for s in states])
        env = np.stack([s.rho_env.mat for s in states])
        assert all(np.array_equal(p, np.kron(a, b)) for p, a, b in zip(_kron(sys, env), sys, env))
        u = np.stack([rand_unitary(rng, d_e).mat for _ in states])
        _check_unitary(u)


def _negative_eigenvalue(m):
    # Unit trace, smallest eigenvalue -1e-6.
    w, v = np.linalg.eigh(m)
    w = w + np.array([-1e-6 - w[0], 0.0, 0.0, 1e-6 + w[0]])
    return (v * w) @ v.conj().T


@pytest.mark.parametrize("spoil, error", [
    (lambda m: 1.1 * m, InvalidState),
    (_negative_eigenvalue, InvalidState),
    (lambda m: m + np.triu(np.full(m.shape, 1e-3), 1), InvalidInput),
], ids=["trace", "eigenvalue", "hermiticity"])
def test_one_invalid_row_fails_the_stack_as_it_fails_alone(spoil, error):
    rng = np.random.default_rng(13)
    stack = np.stack([rand_density(rng, 4).mat for _ in range(6)])
    stack[3] = spoil(stack[3])
    with pytest.raises(error) as alone:
        DensityMatrix(stack[3])
    with pytest.raises(error) as stacked:
        _density_spectra(_hermitian_part(stack))
    assert str(stacked.value) == str(alone.value)
