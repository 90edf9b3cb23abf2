import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zenokit as zk
from conftest import GAMMA_Q, G_D, exponential_optimum, exponential_residual_jacobian
from zenokit import lindblad
from zenokit.cli import main
from zenokit.io import COMPARISON_CSV_HEADER, read_columns_csv
from zenokit.units import TWO_PI


def plus_state(dim, excited_index):
    """|+><+| between ground and the excited basis state, padded to dim."""
    psi = np.zeros(dim, dtype=complex)
    psi[0] = psi[excited_index] = 1.0 / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


# a defect with coupling 0 leaves the qubit on its own; a defect's decay
# must be > 0, and 0.5/us keeps the default step of the tests below
UNCOUPLED = zk.DefectParams(freq=0.0, coupling=0.0, decay=0.5)


def bare_qubit(**rates):
    """The model of a qubit on its own: coupled to no defect, at the
    defect's frequency."""
    return zk.LindbladModel(qubit_freq=UNCOUPLED.freq, defect=UNCOUPLED, **rates)


class TestEvolve:
    def test_identity_evolution(self):
        # detuned from an uncoupled defect, with no rates of its own, the
        # qubit stays exactly in |e,0>
        model = zk.LindbladModel(qubit_freq=123.0, defect=UNCOUPLED)
        trajectory = zk.evolve(model, t_final=5.0)
        assert np.array_equal(trajectory.states[-1], model.initial_excited())

    def test_pure_decay_population(self):
        model = bare_qubit(qubit_decay=0.1, dephasing=0.7)
        trajectory = zk.evolve(model, t_final=20.0)
        expected = np.exp(-0.1 * trajectory.times)
        assert np.max(np.abs(trajectory.populations() - expected)) < 1e-8

    def test_dephasing_only_keeps_populations(self):
        # on the plus state the Lindbladian keeps every population and
        # takes the |g,0>-|e,0> coherence at exactly the dephasing rate
        model = bare_qubit(dephasing=0.8)
        rho = plus_state(4, 2)
        coherences = rho - np.diag(np.diag(rho))
        derivative = model.superoperator() @ rho.reshape(-1)
        assert np.array_equal(derivative, -0.8 * coherences.reshape(-1))

    def test_vacuum_rabi_exchange(self, strong_defect):
        lossless = zk.DefectParams(freq=strong_defect.freq, coupling=G_D, decay=1e-12)
        model = zk.LindbladModel(qubit_freq=strong_defect.freq, defect=lossless)
        trajectory = zk.evolve(model, t_final=0.8, dt=0.001)
        expected = np.cos(G_D * trajectory.times) ** 2
        assert np.max(np.abs(trajectory.populations() - expected)) < 1e-7

    def test_conservation_invariants(self, strong_defect):
        model = zk.LindbladModel(
            qubit_freq=strong_defect.freq, dephasing=0.5, qubit_decay=GAMMA_Q, defect=strong_defect
        )
        trajectory = zk.evolve(model, t_final=3.0)
        assert trajectory.trace_errors().max() < 1e-9
        for rho in trajectory.states[:: len(trajectory.states) // 7 + 1]:
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_step_halving_is_fourth_order(self, strong_defect):
        model = zk.LindbladModel(
            qubit_freq=strong_defect.freq, dephasing=0.5, qubit_decay=GAMMA_Q, defect=strong_defect
        )
        base_dt = 0.04 / model.rate_scale()
        finals = []
        for k in range(5):
            trajectory = zk.evolve(
                model, t_final=1.0, dt=base_dt / 2**k, sample_stride=10**9
            )
            finals.append(trajectory.populations()[-1])
        errors = [abs(p - finals[-1]) for p in finals[:-1]]
        order = np.polyfit(np.log([base_dt / 2**k for k in range(4)]), np.log(errors), 1)[0]
        assert order >= 3.7

    def test_dt_precondition(self, strong_defect):
        model = zk.LindbladModel(qubit_freq=strong_defect.freq, defect=strong_defect)
        with pytest.raises(zk.DomainError):
            zk.evolve(model, t_final=1.0, dt=1.0)

    @pytest.mark.parametrize(
        "step",
        [
            {"dt": -0.001},
            {"dt": -1.0},
            {"dt": 0.0},
            {"dt": np.nan},
            {"dt": np.inf},
            {"t_final": np.inf},
            {"sample_stride": 2.5},
            {"sample_stride": 2.0},
            {"sample_stride": 0},
            {"sample_stride": -3},
        ],
    )
    def test_bad_step_or_stride_is_refused(self, strong_defect, step):
        # a negative dt used to take one RK4 step of the whole t_final
        model = zk.LindbladModel(qubit_freq=strong_defect.freq + 3.0, defect=strong_defect)
        with pytest.raises(zk.DomainError):
            zk.evolve(model, **{"t_final": 0.1, **step})

    def test_step_count_is_capped(self):
        # past MAX_STEPS steps rounding alone could break the trace
        # tolerance, so such a trajectory is refused before it is integrated
        model = bare_qubit(qubit_decay=1e-9)
        dt = 2.0**-20  # exact multiples, so the step counts are exact
        trajectory = zk.evolve(model, t_final=lindblad.MAX_STEPS * dt, dt=dt)
        assert trajectory.times[-1] == lindblad.MAX_STEPS * dt
        with pytest.raises(zk.DomainError, match=f"takes {lindblad.MAX_STEPS + 1} steps"):
            zk.evolve(model, t_final=(lindblad.MAX_STEPS + 1) * dt, dt=dt)
        assert lindblad.MAX_STEPS == 4503599  # TRACE_TOL / eps

    def test_non_finite_sample(self, monkeypatch):
        # a NaN Lindbladian makes every stored sample non-finite
        monkeypatch.setattr(
            zk.LindbladModel, "superoperator", lambda self: np.full((16, 16), complex(np.nan))
        )
        model = bare_qubit()
        with pytest.raises(zk.StabilityError, match=r"^t=0\.01 us: non-finite entry \(0, 0\)"):
            zk.evolve(model, t_final=1.0, dt=0.01, sample_stride=1)

    def test_check_density_matrix_tolerances(self):
        good = np.diag([0.25, 0.75]).astype(complex)
        zk.check_density_matrix(good)
        with pytest.raises(zk.StabilityError):
            zk.check_density_matrix(np.diag([0.5, 0.6]).astype(complex))
        with pytest.raises(zk.StabilityError):
            zk.check_density_matrix(np.array([[0.5, 1e-6], [0.0, 0.5]], dtype=complex))
        with pytest.raises(zk.StabilityError):
            zk.check_density_matrix(np.diag([1.1, -0.1]).astype(complex))
        with pytest.raises(zk.StabilityError, match=r"^rho: trace error 1\.00e\+00 > "):
            zk.check_density_matrix(np.zeros((2, 2)), "rho")  # no entry to check
        for value in (np.nan, np.inf, complex(0.0, -np.inf)):
            bad = np.diag([0.25, 0.75]).astype(complex)
            bad[1, 0] = value
            with pytest.raises(zk.StabilityError, match=r"^rho: non-finite entry \(1, 0\)"):
                zk.check_density_matrix(bad, "rho")

    @pytest.mark.parametrize(
        "rho",
        [
            np.ones(3),
            np.full((2, 2, 2), 0.25),
            np.ones((2, 3)),
            np.zeros((0, 0)),
            [["1", "0"], ["0", "0"]],
        ],
        ids=["vector", "stack", "not-square", "empty", "strings"],
    )
    def test_check_density_matrix_needs_one_square_matrix(self, rho):
        shape = re.escape(str(np.shape(rho)))
        with pytest.raises(zk.DomainError, match=f"^rho: .* got shape {shape}"):
            zk.check_density_matrix(rho, "rho")

    def test_check_density_matrix_takes_nested_lists(self):
        zk.check_density_matrix([[1, 0], [0, 0]])
        with pytest.raises(zk.StabilityError, match=r"^rho: trace error 1\.00e\+00 > "):
            zk.check_density_matrix([[1, 0], [0, 1]], "rho")


def reference_rk4(model, rho0, t_final, dt=None, sample_stride=None):
    """The per-step RK4 loop on the whole of vec(rho) that the
    precomputed step matrix on the sector replaced.

    Same step rule and sampling as ``evolve``; returns ``(times, states)``.
    """
    scale = model.rate_scale()
    if dt is None:
        dt = 0.01 / scale
    n_steps = max(1, int(math.ceil(t_final / dt)))
    dt = t_final / n_steps
    if sample_stride is None:
        sample_stride = max(1, -(-n_steps // 4000))
    S = model.superoperator()
    vec = rho0.reshape(-1)
    times, states = [0.0], [vec]
    half = 0.5 * dt
    sixth = dt / 6.0
    for step in range(1, n_steps + 1):
        k1 = S @ vec
        k2 = S @ (vec + half * k1)
        k3 = S @ (vec + half * k2)
        k4 = S @ (vec + dt * k3)
        vec = vec + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % sample_stride == 0 or step == n_steps:
            times.append(step * dt)
            states.append(vec)
    d = model.dim
    return np.asarray(times), np.asarray(states).reshape(-1, d, d)


def random_full_rank_state(dim):
    """A density matrix with no zero entry."""
    g = np.random.default_rng(7).normal(size=(dim, dim, 2)) @ [1.0, 1j]
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# initial states besides |e,0>, which only the per-step loop starts from
OTHER_INITIAL_STATES = {
    "plus": lambda: plus_state(4, 2),
    "full-rank": lambda: random_full_rank_state(4),
}

# 7 and 20 leave a partial last stride, n_steps - 1 one full stride and
# one single step; TestStepMatrix.test_doubling_matches_per_step_loop
# takes the sample counts around powers of two
STRIDES = [1, 7, 20, "n_steps", "n_steps - 1", 10**9]


def check_against_loop(model, stride, n_reached):
    """``evolve`` against the whole-state loop from ``|e,0>``: same times,
    the entries that the loop leaves exactly zero are zero, and
    ``n_reached`` are not."""
    n_steps = math.ceil(1.0 / (0.01 / model.rate_scale()))
    stride = {"n_steps": n_steps, "n_steps - 1": n_steps - 1}.get(stride, stride)
    assert n_steps % 7 and n_steps % 20
    times, states = reference_rk4(model, model.initial_excited(), t_final=1.0, sample_stride=stride)
    assert len(times) == 1 + n_steps // stride + (n_steps % stride > 0)
    trajectory = zk.evolve(model, t_final=1.0, sample_stride=stride)
    assert np.array_equal(trajectory.times, times)
    assert trajectory.states.shape == states.shape
    unreached = np.all(states == 0, axis=0)
    assert unreached.size - unreached.sum() == n_reached
    assert np.all(trajectory.states[:, unreached] == 0)
    reference = np.einsum("tij,ji->t", states, model.excited_projector()).real
    assert np.max(np.abs(trajectory.populations() - reference)) <= 1e-12


class TestStepMatrix:
    """``evolve`` applies the RK4 step as one matrix on the entries of
    vec(rho) that ``|e,0>`` reaches; pin it to the whole-state loop."""

    @pytest.mark.parametrize("coupled", [True, False], ids=["defect", "bare-qubit"])
    @pytest.mark.parametrize("stride", STRIDES)
    def test_matches_per_step_loop(self, strong_defect, stride, coupled):
        # |e,0> reaches 5 of the 16 entries with the defect coupled, and
        # only the populations of |g,0> and |e,0> without
        rates = {"dephasing": 0.5, "qubit_decay": GAMMA_Q}
        if coupled:
            model = zk.LindbladModel(qubit_freq=strong_defect.freq, defect=strong_defect, **rates)
        else:
            model = bare_qubit(**rates)
        check_against_loop(model, stride, n_reached=5 if coupled else 2)

    @pytest.mark.parametrize("rest", [0, 2], ids=["whole-strides", "last-sample-apart"])
    @pytest.mark.parametrize("n_full", [1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65])
    def test_doubling_matches_per_step_loop(self, strong_defect, n_full, rest):
        # samples are filled by doubling, so counts around powers of two
        # end on a whole or a partial last product; the rest steps after
        # the last full stride make one more sample
        model = zk.LindbladModel(
            qubit_freq=strong_defect.freq, defect=strong_defect, dephasing=0.5, qubit_decay=GAMMA_Q
        )
        dt, stride = 2.0**-10, 3
        t_final = (stride * n_full + rest) * dt  # exact, so no step is rounded away
        times, states = reference_rk4(model, model.initial_excited(), t_final, dt, stride)
        assert len(times) == 1 + n_full + (rest > 0)
        trajectory = zk.evolve(model, t_final=t_final, dt=dt, sample_stride=stride)
        assert np.array_equal(trajectory.times, times)
        assert np.max(np.abs(trajectory.states - states)) <= 1e-14

    def test_reduced_check_fails_as_the_whole_matrices(self, strong_defect, monkeypatch):
        # without dephasing the RK4 undershoot of the |e,0> trajectory
        # reaches -7.7e-11 at t = 0.25 us; between the tolerance and that
        # the failing sample lies in a later block, after blocks that pass,
        # and its message must be the whole matrices'
        model = zk.LindbladModel(
            qubit_freq=strong_defect.freq, qubit_decay=GAMMA_Q, defect=strong_defect
        )
        trajectory = zk.evolve(model, t_final=3.0)
        monkeypatch.setattr(lindblad, "EIGENVALUE_TOL", -5e-11)
        monkeypatch.setattr(lindblad, "_CHECK_BLOCK", 64)
        i, problem = eigvalsh_first_violation(trajectory.states[1:])
        assert i >= 2 * lindblad._CHECK_BLOCK and problem.startswith("eigenvalue")
        with pytest.raises(zk.StabilityError) as raised:
            zk.evolve(model, t_final=3.0)
        assert str(raised.value).startswith(f"t={trajectory.times[1 + i]:.6g} us: {problem}; ")

    def test_eigenvalues_only_of_whole_matrices(self, strong_defect, monkeypatch):
        # with no certificate every block is decided by eigvalsh, and that
        # on the whole 4x4 states, never on the sector's entries alone
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            shapes.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(lindblad, "_sector_clears", lambda columns: False)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        model = zk.LindbladModel(
            qubit_freq=strong_defect.freq, dephasing=0.5, qubit_decay=GAMMA_Q, defect=strong_defect
        )
        trajectory = zk.evolve(model, t_final=3.0)
        blocks = -(-(trajectory.times.size - 1) // lindblad._CHECK_BLOCK)
        assert len(shapes) == blocks  # the initial state is built, not checked
        assert all(shape[1:] == (4, 4) for shape in shapes)

    def test_first_failing_sample_is_named(self, monkeypatch):
        # a generator that only empties |e,0> leaves a trace of exp(-t), so
        # the trace error crosses 1/2 at t = ln 2, in the second block of a
        # 256-sample batched check
        generator = np.zeros((16, 16), dtype=complex)
        generator[10, 10] = -1.0  # the |e,0><e,0| entry of row-major vec(rho)
        monkeypatch.setattr(zk.LindbladModel, "superoperator", lambda self: generator)
        monkeypatch.setattr(lindblad, "TRACE_TOL", 0.5)
        monkeypatch.setattr(lindblad, "_CHECK_BLOCK", 256)
        assert 0.694 / 0.002 > lindblad._CHECK_BLOCK
        with pytest.raises(zk.StabilityError, match=r"^t=0\.694 us: trace error .*reduce dt below"):
            zk.evolve(bare_qubit(), t_final=2.0, dt=0.002)

    def test_golden_contexts_need_no_eigenvalues(self, monkeypatch, tmp_path):
        # the golden oracle contexts are propagated exactly, with no RK4 run;
        # the certificate on the sector's entries clears every exact sample
        # in one pass per context, so neither the whole-matrix fallback nor
        # eigenvalues run, and the initial state is not checked
        calls = {"evolve": 0, "check_density_matrix": 0, "_sector_clears": 0, "eigvalsh": 0}

        def counting(name, func):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapped

        for owner, name in [
            (lindblad, "evolve"),
            (lindblad, "check_density_matrix"),
            (lindblad, "_sector_clears"),
            (np.linalg, "eigvalsh"),
        ]:
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        config = Path(__file__).parent / "data" / "oracle_config.json"
        assert main(["oracle", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert calls == {"evolve": 0, "check_density_matrix": 0, "_sector_clears": 4, "eigvalsh": 0}

    def test_kron_is_numpy_kron(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m, n, p, q = rng.integers(1, 5, size=4)
            a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            b = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
            assert np.array_equal(lindblad._kron(a, b), np.kron(a, b))


def kron_superoperator(model):
    """The Lindbladian built from scratch with ``_kron``, every channel's
    dissipator formed anew: the reference for the shared dissipators."""
    eye, eye2 = np.eye(4, dtype=complex), np.eye(2, dtype=complex)
    sz = np.diag([-1.0, 1.0]).astype(complex)
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    jumps = [
        (model.dephasing, 0.5 * model.dephasing, lindblad._kron(sz, eye2)),
        (model.qubit_decay, model.qubit_decay, lindblad._kron(sm, eye2)),
        (model.defect.decay, model.defect.decay, lindblad._kron(eye2, sm)),
    ]
    H = model.hamiltonian()
    S = -1j * (lindblad._kron(H, eye) - lindblad._kron(eye, H.T))
    for rate, coef, L in jumps:
        if rate > 0:
            LdL = L.conj().T @ L
            S += coef * (
                lindblad._kron(L, L.conj())
                - 0.5 * (lindblad._kron(LdL, eye) + lindblad._kron(eye, LdL.T))
            )
    return S


def test_superoperator_is_bit_equal_to_kron_reference():
    rng = np.random.default_rng(11)
    for trial in range(200):
        # the qubit's rates each zero or not, the defect coupled on every
        # other trial; a defect's decay is > 0
        dephasing, qubit_decay = rng.uniform(0.1, 20.0, 2) * rng.integers(0, 2, 2)
        defect = zk.DefectParams(
            freq=rng.normal(),
            coupling=rng.uniform(0.0, 20.0) * (trial % 2),
            decay=rng.uniform(0.1, 20.0),
        )
        model = zk.LindbladModel(
            qubit_freq=rng.normal(0.0, 10.0), dephasing=dephasing, qubit_decay=qubit_decay, defect=defect
        )
        # bit for bit, signed zeros included
        expected = kron_superoperator(model).view(np.uint64)
        assert np.array_equal(model.superoperator().view(np.uint64), expected)
        assert np.array_equal(model.superoperator().view(np.uint64), expected)


def eigvalsh_first_violation(rho):
    """``_first_violation`` on whole matrices, deciding positivity by
    ``eigvalsh`` alone: the reference for the column-wise kernel."""
    finite = np.isfinite(rho).all(axis=(1, 2))
    checked = np.where(finite[:, np.newaxis, np.newaxis], rho, 0.0)
    rho_h = checked.conj().transpose(0, 2, 1)
    herm = np.max(np.abs(checked - rho_h), axis=(1, 2))
    trace_err = np.abs(np.einsum("tii->t", checked).real - 1.0)
    eigmin = np.linalg.eigvalsh(0.5 * (checked + rho_h))[:, 0]
    bad = np.flatnonzero(
        ~finite
        | (herm > lindblad.HERMITICITY_TOL)
        | (trace_err > lindblad.TRACE_TOL)
        | (eigmin < lindblad.EIGENVALUE_TOL)
    )
    if not bad.size:
        return None
    i = int(bad[0])
    if not finite[i]:
        j, k = np.argwhere(~np.isfinite(rho[i]))[0]
        return i, f"non-finite entry ({j}, {k}): {rho[i, j, k]}"
    if herm[i] > lindblad.HERMITICITY_TOL:
        return i, f"Hermiticity error {herm[i]:.2e} > {lindblad.HERMITICITY_TOL}"
    if trace_err[i] > lindblad.TRACE_TOL:
        return i, f"trace error {trace_err[i]:.2e} > {lindblad.TRACE_TOL}"
    return i, f"eigenvalue {eigmin[i]:.2e} < {lindblad.EIGENVALUE_TOL}"


def states_with_smallest_eigenvalue(rng, dim, smallest, rank_deficient):
    """Unit-trace Hermitian matrices with the given smallest eigenvalues
    (each at most ``1 / dim``).

    A rank-deficient state has the oracle's shape: the row and column of
    ``|e,1>``, the last basis state, are zero, so it carries an exact
    zero eigenvalue beside ``smallest``.
    """
    span = dim - 1 if rank_deficient else dim
    states = np.zeros((len(smallest), dim, dim), dtype=complex)
    for state, low in zip(states, smallest):
        rest = np.linspace(1.0, 2.0, span - 1)
        eigenvalues = np.concatenate(([low], low + (1.0 - span * low) * rest / rest.sum()))
        z = rng.normal(size=(span, span)) + 1j * rng.normal(size=(span, span))
        q, _ = np.linalg.qr(z)
        state[:span, :span] = (q * eigenvalues) @ q.conj().T
    return states


def arrow_states(rng, dim, smallest):
    """Unit-trace Hermitian matrices with the given smallest eigenvalues
    (each below ``1 / dim``) whose only entries off the diagonal are in
    row and column 0, so a Cholesky factorization fills in every other
    entry above the diagonal."""
    states = np.zeros((len(smallest), dim, dim), dtype=complex)
    for state, low in zip(states, smallest):
        state[0, 1:] = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
        state += state.conj().T
        state[np.diag_indices(dim)] = rng.uniform(1.0, 2.0, dim)
        state /= np.trace(state).real
        # an affine map of the spectrum keeps the zeros and the unit trace
        lowest = np.linalg.eigvalsh(state)[0]
        scale = (1.0 - dim * low) / (1.0 - dim * lowest)
        state *= scale
        state[np.diag_indices(dim)] += low - scale * lowest
    return states


class TestPositivityCertificate:
    """The whole-matrix check decides positivity exactly as ``eigvalsh``
    does."""

    @pytest.mark.parametrize("tolerance", [lindblad.EIGENVALUE_TOL, 0.05])
    def test_fills_in_zero_entries(self, monkeypatch, tolerance):
        # the entries off row and column 0 are zero in every matrix, a
        # pattern that a factorization would have to fill in; the check
        # must decide on it as on any other
        monkeypatch.setattr(lindblad, "EIGENVALUE_TOL", tolerance)
        rng = np.random.default_rng(3)
        decided = set()
        for offset in self.OFFSETS:
            smallest = [tolerance + 0.02, tolerance + offset, tolerance + 0.03]
            stack = arrow_states(rng, 4, smallest)
            assert np.all(stack[:, 1:, 1:][:, ~np.eye(3, dtype=bool)] == 0)
            expected = eigvalsh_first_violation(stack)
            assert lindblad._first_violation(stack) == expected
            decided.add(expected is None)
        assert decided == {True, False}  # both verdicts were reached

    OFFSETS = [-1e-11, -1e-12, -1e-13, 0.0, 1e-13, 1e-12, 1e-11]

    @pytest.mark.parametrize("tolerance", [lindblad.EIGENVALUE_TOL, 0.2])
    @pytest.mark.parametrize("dim,rank_deficient", [(2, False), (4, False), (4, True)])
    def test_matches_eigvalsh(self, monkeypatch, tolerance, dim, rank_deficient):
        monkeypatch.setattr(lindblad, "EIGENVALUE_TOL", tolerance)
        rng = np.random.default_rng(dim + 10 * rank_deficient)
        decided = set()
        for offset in self.OFFSETS:
            smallest = [tolerance + 0.02, tolerance + 0.03, tolerance + offset, tolerance + 0.02]
            stack = states_with_smallest_eigenvalue(rng, dim, smallest, rank_deficient)
            expected = eigvalsh_first_violation(stack)
            assert lindblad._first_violation(stack) == expected
            decided.add(expected is None)
        if not (rank_deficient and tolerance > 0):
            assert decided == {True, False}  # both verdicts were reached


def random_states(rng, dim, n):
    """``n`` random density matrices; for ``dim > 1`` half of them have
    the oracle's zero ``|e,1>`` row and column."""
    g = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    if dim > 1:
        g[n // 2 :, -1] = 0.0
    states = g @ g.conj().transpose(0, 2, 1)
    return states / np.einsum("tii->t", states).real[:, np.newaxis, np.newaxis]


@st.composite
def planted_stacks(draw):
    """Random states with defects planted at the tolerances' edges."""
    dim = draw(st.sampled_from([2, 4]))
    block = lindblad._CHECK_BLOCK
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, 2 * block), st.just(block + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = random_states(rng, dim, n)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, n - 1))
        j, k = draw(st.sampled_from([(j, k) for j in range(dim) for k in range(dim) if j != k]))
        kind = draw(st.sampled_from(["hermiticity", "trace", "eigenvalue", "non-finite"]))
        if kind == "hermiticity":
            scale = draw(st.sampled_from([0.999, 1.0, 1.001]))
            stack[i, j, k] += scale * lindblad.HERMITICITY_TOL * np.exp(1j * rng.uniform(0, 2 * np.pi))
        elif kind == "trace":
            scale = draw(st.sampled_from([-1.001, -1.0, -0.999, 0.999, 1.0, 1.001]))
            stack[i, j, j] += scale * lindblad.TRACE_TOL
        elif kind == "eigenvalue":
            offset = draw(st.sampled_from([-1e-12, -1e-13, 0.0, 1e-13, 1e-12]))
            smallest = [lindblad.EIGENVALUE_TOL + offset]
            stack[i] = states_with_smallest_eigenvalue(rng, dim, smallest, draw(st.booleans()))[0]
        else:
            stack[i, j, k] = draw(st.sampled_from([np.nan, np.inf, complex(0.0, -np.inf)]))
    return stack


def random_sector_states(rng, n):
    """``n`` random states in the shape of the oracle's samples: a
    population of ``|g,0>`` beside a block on ``|g,1>`` and ``|e,0>``,
    with ``|e,1>`` empty."""
    g = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    block = g @ g.conj().transpose(0, 2, 1)
    p_g0 = rng.uniform(0.0, 2.0, n)
    norm = p_g0 + np.einsum("tii->t", block).real
    states = np.zeros((n, 4, 4), dtype=complex)
    states[:, 0, 0] = p_g0 / norm
    states[:, 1:3, 1:3] = block / norm[:, np.newaxis, np.newaxis]
    return states


def plant_smallest_eigenvalue(state, rng, low, on_g0):
    """Give a state in the sector's shape the smallest eigenvalue ``low``,
    beside ``|e,1>``'s zero: on ``|g,0>``, or on the block, whose
    coherence then takes part in it."""
    high = rng.uniform(0.2, 0.8)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    if on_g0:
        state[0, 0] = low
        state[1:3, 1:3] = (q * [high, 1.0 - low - high]) @ q.conj().T
    else:
        state[0, 0] = 1.0 - low - high
        state[1:3, 1:3] = (q * [low, high]) @ q.conj().T


def sector_stack_below_tolerance(on_g0):
    """Three sector states, the middle one's smallest eigenvalue 1e-12
    below the tolerance: on ``|g,0>``, or on the block."""
    rng = np.random.default_rng(41)
    stack = random_sector_states(rng, 3)
    plant_smallest_eigenvalue(stack[1], rng, lindblad.EIGENVALUE_TOL - 1e-12, on_g0)
    return stack


@st.composite
def planted_sector_stacks(draw):
    """Random states in the sector's shape with defects of one kind
    planted, on the sector's entries, at the tolerances' edges; one kind
    per stack, so that a defect the sector misses is seldom hidden behind
    one it finds."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = random_sector_states(rng, n)
    kind = draw(st.sampled_from(["eigenvalue", "hermiticity", "trace", "non-finite"]))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, n - 1))
        j, k = draw(st.sampled_from([(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)]))
        if kind == "hermiticity":
            scale = draw(st.sampled_from([0.999, 1.0, 1.001]))
            if j == k:  # an imaginary part of a population counts twice
                stack[i, j, j] += 0.5j * scale * lindblad.HERMITICITY_TOL
            else:
                stack[i, j, k] += scale * lindblad.HERMITICITY_TOL * np.exp(1j * rng.uniform(0, 2 * np.pi))
        elif kind == "trace":
            scale = draw(st.sampled_from([-1.001, -1.0, -0.999, 0.999, 1.0, 1.001]))
            stack[i, j, j] += scale * lindblad.TRACE_TOL
        elif kind == "eigenvalue":
            offset = draw(st.sampled_from([-1e-11, -1e-12, 0.0, 1e-12, 1e-11]))
            plant_smallest_eigenvalue(stack[i], rng, lindblad.EIGENVALUE_TOL + offset, draw(st.booleans()))
        else:
            stack[i, j, k] = draw(st.sampled_from([np.nan, np.inf, complex(0.0, -np.inf)]))
    return stack


# every trajectory the sector tests cover, with how many entries of
# vec(rho) the per-step loop from its initial state makes nonzero: |e,0>
# reaches the 5 of the sector, and 2 of them for a qubit coupled to no
# defect; the other states reach 9 and all 16
INITIAL_STATES = {"excited": 5, "bare-qubit": 2, "plus": 9, "full-rank": 16}

# the trajectories that evolve integrates, all from |e,0>
SECTOR_STATES = ["excited", "bare-qubit"]


def test_sector_is_closed():
    # no Lindbladian of the model leads out of the sector, so the whole-state
    # loop from |e,0> leaves every other entry exactly zero, and a coupled
    # defect makes every entry of the sector nonzero; the qubit's rates and
    # the coupling are each zero or not, and a defect's decay is > 0
    rng = np.random.default_rng(29)
    outside = np.ones(16, dtype=bool)
    outside[lindblad._SECTOR] = False
    coupled_models = 0
    for _ in range(40):
        dephasing, qubit_decay, coupling = rng.uniform(0.1, 20.0, 3) * rng.integers(0, 2, 3)
        defect = zk.DefectParams(freq=rng.normal(), coupling=coupling, decay=rng.uniform(0.1, 20.0))
        model = zk.LindbladModel(
            qubit_freq=rng.normal(0.0, 10.0), dephasing=dephasing, qubit_decay=qubit_decay, defect=defect
        )
        assert np.all(model.superoperator()[np.ix_(outside, ~outside)] == 0)
        _, states = reference_rk4(model, model.initial_excited(), t_final=2.0 / model.rate_scale())
        flat = states.reshape(len(states), -1)
        assert np.all(flat[:, outside] == 0)
        if coupling:
            coupled_models += 1
            assert np.all(np.any(flat[:, ~outside] != 0, axis=0))
    assert 0 < coupled_models < 40


def undamped_trajectory(state, strong_defect):
    """A trajectory from ``state`` without dephasing, where the RK4
    undershoot leaves some samples below zero, and its model and initial
    state; ``evolve``'s from ``|e,0>``, the per-step loop's from the
    others."""
    defect = replace(strong_defect, coupling=0.0) if state == "bare-qubit" else strong_defect
    model = zk.LindbladModel(qubit_freq=strong_defect.freq + 3.0, qubit_decay=1.0, defect=defect)
    if state in OTHER_INITIAL_STATES:
        rho0 = OTHER_INITIAL_STATES[state]()
        return model, rho0, zk.Trajectory(model, *reference_rk4(model, rho0, t_final=3.0))
    return model, model.initial_excited(), zk.evolve(model, t_final=3.0)


def per_sample(name, states):
    """The quantity that ``name`` bounds, per state."""
    if name == "EIGENVALUE_TOL":
        return np.linalg.eigvalsh(0.5 * (states + states.conj().transpose(0, 2, 1)))[:, 0]
    return np.abs(np.einsum("tii->t", states).real - 1.0)


class TestSectorCertificate:
    """``evolve`` checks its samples on the columns of the sector's
    entries; that must decide as the whole matrices do."""

    @pytest.mark.parametrize("state", INITIAL_STATES)
    def test_reached_entries_are_the_loops_nonzero_ones(self, strong_defect, state):
        # the entries the whole-state loop makes nonzero are the closure of
        # the generator's links from the initial state's nonzero ones, and
        # from |e,0> they lie in the sector
        model, rho0, _ = undamped_trajectory(state, strong_defect)
        d = model.dim
        links = model.superoperator() != 0
        closure = rho0.reshape(-1) != 0
        for _ in range(d * d):
            closure |= links[:, closure].any(axis=1)
        _, states = reference_rk4(model, rho0, t_final=3.0)
        nonzero = np.any(states.reshape(-1, d * d) != 0, axis=0)
        assert nonzero.sum() == INITIAL_STATES[state]
        assert np.array_equal(nonzero, closure)
        outside = np.ones(d * d, dtype=bool)
        outside[lindblad._SECTOR] = False
        assert (state in SECTOR_STATES) == (not nonzero[outside].any())

    @pytest.mark.parametrize("state", SECTOR_STATES)
    @pytest.mark.parametrize("name", ["EIGENVALUE_TOL", "TRACE_TOL"])
    def test_screen_of_reached_entries_is_the_whole_matrices(
        self, strong_defect, monkeypatch, state, name
    ):
        # on evolve's own trajectories, at the tolerance and at the median
        # sample's value, the sector clears only what the whole matrices
        # pass, and at the tolerance it clears every sample
        _, _, trajectory = undamped_trajectory(state, strong_defect)
        samples = trajectory.states[1:]
        flat = samples.reshape(len(samples), -1)
        columns = np.ascontiguousarray(flat[:, lindblad._SECTOR].T)
        certified = []
        for tolerance in [getattr(lindblad, name), np.median(per_sample(name, samples))]:
            monkeypatch.setattr(lindblad, name, tolerance)
            clears = lindblad._sector_clears(columns)
            if clears:
                assert eigvalsh_first_violation(samples) is None
            certified.append(clears)
        assert certified[0]

    @settings(max_examples=100, deadline=None)
    @given(stack=planted_sector_stacks())
    @example(stack=sector_stack_below_tolerance(on_g0=True))
    @example(stack=sector_stack_below_tolerance(on_g0=False))
    def test_clears_only_what_the_whole_matrices_pass(self, stack):
        # sound: the sector clears a stack only when every whole matrix
        # passes; and it clears every stack at least 1e-11 inside each
        # tolerance (the Hermiticity error, bit for bit the whole
        # matrices', needs no margin, and the tolerance is below 1e-11)
        columns = stack.reshape(len(stack), -1)[:, lindblad._SECTOR].T
        clears = lindblad._sector_clears(np.ascontiguousarray(columns))
        if clears:
            assert eigvalsh_first_violation(stack) is None
        if np.isfinite(stack).all():
            stack_h = stack.conj().transpose(0, 2, 1)
            herm = np.max(np.abs(stack - stack_h))
            trace_err = np.max(np.abs(np.einsum("tii->t", stack).real - 1.0))
            eigmin = np.linalg.eigvalsh(0.5 * (stack + stack_h))[:, 0].min()
            inside = (
                herm <= lindblad.HERMITICITY_TOL
                and trace_err <= lindblad.TRACE_TOL - 1e-11
                and eigmin >= lindblad.EIGENVALUE_TOL + 1e-11
            )
            assert clears or not inside

    @pytest.mark.parametrize("state", INITIAL_STATES)
    @pytest.mark.parametrize("name", ["EIGENVALUE_TOL", "TRACE_TOL"])
    def test_first_failing_sample_is_the_whole_matrices(
        self, strong_defect, monkeypatch, state, name
    ):
        # with the tolerance at the median sample's value, the failing
        # samples are found, named and described as eigvalsh names them:
        # by evolve from |e,0>, by the column kernel from the other states
        model, rho0, trajectory = undamped_trajectory(state, strong_defect)
        samples = trajectory.states[1:]
        monkeypatch.setattr(lindblad, name, np.median(per_sample(name, samples)))
        monkeypatch.setattr(lindblad, "_CHECK_BLOCK", 256)
        found = eigvalsh_first_violation(samples)
        if state in OTHER_INITIAL_STATES:
            assert lindblad._first_violation(samples) == found
            return
        if found is None:
            # a bare qubit's |g,1> and |e,1> rows are zero, so its smallest
            # eigenvalue is 0 in every sample and the median fails none
            assert (state, name) == ("bare-qubit", "EIGENVALUE_TOL")
            zk.evolve(model, t_final=3.0)
            return
        i, problem = found
        with pytest.raises(zk.StabilityError) as raised:
            zk.evolve(model, t_final=3.0)
        assert str(raised.value).startswith(f"t={trajectory.times[1 + i]:.6g} us: {problem}; ")


class TestColumnKernel:
    """The column-wise kernel against the whole-matrix reference."""

    @settings(max_examples=100, deadline=None)
    @given(stack=planted_stacks())
    def test_matches_whole_matrix_reference(self, stack):
        assert lindblad._first_violation(stack) == eigvalsh_first_violation(stack)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_hermiticity_and_trace_are_bit_equal(self, monkeypatch, dim):
        # each verdict flips exactly at the reference value, so the
        # kernel's Hermiticity and trace errors equal those of the whole
        # matrices, the trace error being the one the tracer reads
        rng = np.random.default_rng(dim)
        scale = np.geomspace(1e-14, 1e-8, 40)[:, np.newaxis, np.newaxis]
        noise = rng.normal(size=(40, dim, dim)) + 1j * rng.normal(size=(40, dim, dim))
        stack = random_states(rng, dim, 40) + scale * noise
        herm = np.max(np.abs(stack - stack.conj().transpose(0, 2, 1)), axis=(1, 2))
        trace_err = np.abs(np.einsum("tii->t", stack).real - 1.0)
        assert np.array_equal(trace_err, zk.Trajectory(None, None, stack).trace_errors())
        for rho, h, t in zip(stack[:, np.newaxis], herm, trace_err):
            for name, value, problem in [
                ("HERMITICITY_TOL", h, "Hermiticity"),
                ("TRACE_TOL", t, "trace"),
            ]:
                monkeypatch.setattr(lindblad, "HERMITICITY_TOL", np.inf)
                monkeypatch.setattr(lindblad, name, value)
                found = lindblad._first_violation(rho)
                assert found is None or not found[1].startswith(problem)
                monkeypatch.setattr(lindblad, name, np.nextafter(value, -np.inf))
                assert lindblad._first_violation(rho)[1].startswith(problem)


class TestExtractDecayRate:
    def test_bare_qubit_rate(self):
        model = bare_qubit(qubit_decay=0.01)
        trajectory = zk.evolve(model, t_final=300.0, dt=0.05)
        rate, report = zk.extract_decay_rate(trajectory, (1.0, 300.0))
        assert rate == pytest.approx(0.01, abs=1e-6)
        assert not report.warnings

    def test_adiabatic_regime_matches_closed_form(self, adiabatic_defect):
        model = zk.LindbladModel(
            qubit_freq=adiabatic_defect.freq, qubit_decay=0.0, defect=adiabatic_defect
        )
        trajectory = zk.evolve(model, t_final=30.0)
        rate, _ = zk.extract_decay_rate(trajectory, (1.2, 30.0))
        closed = zk.generalized_purcell(
            zk.QubitParams(freq=adiabatic_defect.freq), adiabatic_defect
        )
        assert rate == pytest.approx(closed, rel=0.05)

    def test_strong_coupling_raises_oscillation_warning(self, strong_defect):
        model = zk.LindbladModel(
            qubit_freq=strong_defect.freq, qubit_decay=GAMMA_Q, defect=strong_defect
        )
        trajectory = zk.evolve(model, t_final=30.0)
        with pytest.warns(zk.OscillationWarning):
            rate, report = zk.extract_decay_rate(trajectory, (0.0, 30.0))
        assert report.warnings

    def test_rate_is_the_least_squares_optimum(self):
        # a benchmark context on which the LM descent stops at gradient
        # 9.95e-11 after 3 iterations, 3.8e-11 short of the optimum's rate
        coupling, decay, qubit_decay = TWO_PI * 0.16772871187518845, 10.8443951267903, 0.018816800402261247
        detuning, dephasing = TWO_PI * 0.20600902673540553, TWO_PI * 0.3844970042968171
        defect = zk.DefectParams(freq=0.0, coupling=coupling, decay=decay)
        model = zk.LindbladModel(
            qubit_freq=detuning, dephasing=dephasing, qubit_decay=qubit_decay, defect=defect
        )
        # the window of validate_kk
        purcell = zk.generalized_purcell(
            zk.QubitParams(freq=detuning, decay=qubit_decay, dephasing=dephasing), defect
        )
        t_start = 12.0 / (decay + 2.0 * dephasing)
        t_final = t_start + 4.5 / min(purcell, decay / 2.0 + qubit_decay)
        trajectory = zk.evolve(model, t_final=t_final)
        rate, report = zk.extract_decay_rate(trajectory, (t_start, t_final))
        assert report.converged
        # one more Gauss-Newton step from the reported point
        tt = np.geomspace(t_start, t_final, lindblad.FIT_SAMPLES)
        pp = np.interp(tt, trajectory.times, trajectory.populations())
        theta = np.array([report.parameters["amplitude"], rate])
        r, J = exponential_residual_jacobian(tt, pp)(theta)
        step = np.linalg.lstsq(J, -r)[0]
        assert abs(step[1]) <= 1e-13 * rate

    @pytest.mark.parametrize("seed", range(12))
    def test_weak_rate_is_the_two_parameter_optimum(self, seed):
        # fast-defect contexts like the benchmark's (g/kappa <= 0.12)
        rng = np.random.default_rng([23, seed])
        decay, qubit_decay = rng.uniform(9.0, 11.0), rng.uniform(0.005, 0.02)
        detuning, dephasing = rng.uniform(-0.5, 0.5) * decay, rng.uniform(0.5, 3.0)
        width = dephasing + decay / 2.0 - qubit_decay / 2.0
        purcell = decay / 40.0 * rng.uniform(0.98, 1.02)
        coupling = math.sqrt(purcell * (width**2 + detuning**2) / (2.0 * width))
        defect = zk.DefectParams(freq=0.0, coupling=coupling, decay=decay)
        trajectory, window = oracle_fit_input(defect, detuning, dephasing, qubit_decay)
        rate, report = zk.extract_decay_rate(trajectory, window)
        assert report.converged and not report.warnings
        (amplitude, optimum), oscillating = two_parameter_fit(trajectory, window)
        assert not oscillating
        assert abs(rate - optimum) <= 1e-14 * optimum
        assert report.parameters["amplitude"] == pytest.approx(amplitude, rel=1e-13)

    def test_oscillation_flags_match_the_two_parameter_fit(self):
        # couplings across the onset of coherent exchange with the defect
        rng = np.random.default_rng(5)
        flags = []
        for _ in range(16):
            decay, coupling = 1.0 / rng.uniform(0.095, 0.11), TWO_PI * rng.uniform(0.2, 0.7)
            detuning = rng.uniform(1.0, 3.0)
            dephasing = 0.0 if rng.uniform() < 0.5 else rng.uniform(0.5, 0.9)
            defect = zk.DefectParams(freq=0.0, coupling=coupling, decay=decay)
            trajectory, window = oracle_fit_input(defect, detuning, dephasing, GAMMA_Q)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", zk.OscillationWarning)
                _, report = zk.extract_decay_rate(trajectory, window)
            flags.append((bool(report.warnings), two_parameter_fit(trajectory, window)[1]))
        assert all(ours == theirs for ours, theirs in flags)
        assert 0 < sum(ours for ours, _ in flags) < len(flags)  # both verdicts occur

    def test_window_must_see_a_decay(self):
        model = bare_qubit(qubit_decay=0.01)
        trajectory = zk.evolve(model, t_final=10.0, dt=0.05)
        with pytest.raises(zk.DomainError):
            zk.extract_decay_rate(trajectory, (0.1, 10.0))  # only 10% decay

    def test_window_beyond_trajectory(self):
        model = bare_qubit(qubit_decay=0.5)
        trajectory = zk.evolve(model, t_final=5.0)
        with pytest.raises(zk.DomainError):
            zk.extract_decay_rate(trajectory, (0.1, 50.0))


def oracle_fit_input(defect, detuning, dephasing, qubit_decay):
    """The trajectory and fit window of one ``validate_kk`` context."""
    model = zk.LindbladModel(
        qubit_freq=detuning, dephasing=dephasing, qubit_decay=qubit_decay, defect=defect
    )
    purcell = zk.generalized_purcell(
        zk.QubitParams(freq=detuning, decay=qubit_decay, dephasing=dephasing), defect
    )
    t_start = 12.0 / (defect.decay + 2.0 * dephasing)
    t_final = t_start + 4.5 / min(purcell, defect.decay / 2.0 + qubit_decay)
    return zk.evolve(model, t_final=t_final), (t_start, t_final)


def two_parameter_fit(trajectory, window):
    """``(A, rate)`` of ``A exp(-rate t)`` fitted on ``extract_decay_rate``'s
    samples by :func:`conftest.exponential_optimum`, and whether its
    residual reaches ``OSCILLATION_FRACTION`` of its envelope."""
    tt = np.geomspace(*window, lindblad.FIT_SAMPLES)
    pp = np.interp(tt, trajectory.times, trajectory.populations())
    theta = exponential_optimum(tt, pp)
    envelope = abs(theta[0]) * np.exp(-theta[1] * tt)
    residual = exponential_residual_jacobian(tt, pp)(theta)[0]
    oscillating = np.max(np.abs(residual) / envelope) > lindblad.OSCILLATION_FRACTION
    return theta, bool(oscillating)


def oscillator_superoperator(model):
    """The model's Lindbladian with the defect as a 3-level oscillator.

    Basis: qubit (ground, excited) times defect Fock states 0, 1, 2;
    row-major vec(rho), as ``LindbladModel.superoperator``.
    """
    eye3 = np.eye(3, dtype=complex)
    lower = np.diag([1.0, math.sqrt(2.0)], 1).astype(complex)
    sz = np.diag([-1.0, 1.0]).astype(complex)
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    swap = np.kron(sm.conj().T, lower)
    H = 0.5 * (model.qubit_freq - model.defect.freq) * np.kron(sz, eye3)
    H = H + model.defect.coupling * (swap + swap.conj().T)
    jumps = [
        (0.5 * model.dephasing, np.kron(sz, eye3)),
        (model.qubit_decay, np.kron(sm, eye3)),
        (model.defect.decay, np.kron(np.eye(2), lower)),
    ]
    eye = np.eye(6, dtype=complex)
    S = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for rate, L in jumps:
        LdL = L.conj().T @ L
        S += rate * (np.kron(L, L.conj()) - 0.5 * (np.kron(LdL, eye) + np.kron(eye, LdL.T)))
    return S


def exact_populations(S, rho0, projector, times):
    """Tr(P rho(t)) with rho(t) = exp(S t) rho0, by eigendecomposition."""
    eigvals, vecs = np.linalg.eig(S)
    coef = np.linalg.solve(vecs, rho0.reshape(-1))
    states = vecs @ (coef[:, None] * np.exp(eigvals[:, None] * times[None, :]))
    d = rho0.shape[0]
    return np.einsum("ijt,ji->t", states.reshape(d, d, -1), projector).real


class TestTwoLevelDefect:
    """From |e,0> no defect level above the first is reached."""

    @pytest.mark.parametrize("defect_name", ["adiabatic_defect", "strong_defect"])
    def test_matches_three_level_oscillator(self, request, defect_name):
        defect = request.getfixturevalue(defect_name)
        model = zk.LindbladModel(
            qubit_freq=defect.freq + 3.0, dephasing=1.0, qubit_decay=GAMMA_Q, defect=defect
        )
        assert model.dim == bare_qubit().dim == 4
        assert model.initial_excited()[2, 2] == 1.0
        times = np.array([0.05, 0.2, 0.5, 1.0])
        two_level = exact_populations(
            model.superoperator(), model.initial_excited(), model.excited_projector(), times
        )
        rho0 = np.zeros((6, 6), dtype=complex)
        rho0[3, 3] = 1.0  # |excited, vacuum>
        oscillator = exact_populations(
            oscillator_superoperator(model), rho0, np.diag([0.0] * 3 + [1.0] * 3), times
        )
        assert np.all(oscillator > 1e-3)
        assert np.max(np.abs(two_level - oscillator)) <= 1e-12


class TestValidateKk:
    def test_adiabatic_three_way_agreement(self, adiabatic_defect):
        spectrum = zk.ParametricSpectrum(
            background=GAMMA_Q, peaks=(adiabatic_defect.spectral_peak(),)
        )
        contexts = [
            zk.MeasurementContext(freq=adiabatic_defect.freq + det, dephasing=gphi)
            for det in (0.0, 12.0)
            for gphi in (0.0, 3.0)
        ]
        rows = zk.validate_kk(spectrum, adiabatic_defect, contexts, qubit_decay=GAMMA_Q)
        for row in rows:
            assert row.dev_kk < 0.05
            assert row.dev_purcell < 0.05
            assert not row.flagged
            assert not row.oscillating

    def test_zeno_and_antizeno_signs(self, adiabatic_defect):
        # on resonance (W > |detuning|) dephasing slows the decay;
        # far detuned (W < |detuning|) it accelerates it
        spectrum = zk.ParametricSpectrum(
            background=GAMMA_Q, peaks=(adiabatic_defect.spectral_peak(),)
        )
        dephasings = (0.0, 1.0, 3.0)
        for detuning, sign in ((0.0, -1), (12.0, +1)):
            contexts = [
                zk.MeasurementContext(freq=adiabatic_defect.freq + detuning, dephasing=g)
                for g in dephasings
            ]
            rates = [
                row.oracle_rate
                for row in zk.validate_kk(
                    spectrum, adiabatic_defect, contexts, qubit_decay=GAMMA_Q
                )
            ]
            assert np.all(np.sign(np.diff(rates)) == sign)

    def test_strong_coupling_rows_flagged(self, strong_defect):
        spectrum = zk.ParametricSpectrum(
            background=GAMMA_Q, peaks=(strong_defect.spectral_peak(),)
        )
        contexts = [zk.MeasurementContext(freq=strong_defect.freq, dephasing=0.0)]
        rows = zk.validate_kk(spectrum, strong_defect, contexts, qubit_decay=GAMMA_Q)
        assert rows[0].flagged
        assert rows[0].oscillating
        assert rows[0].dev_kk > 0.10

    def test_mismatched_spectrum_rejected(self, adiabatic_defect, strong_defect):
        spectrum = zk.ParametricSpectrum(
            background=GAMMA_Q, peaks=(strong_defect.spectral_peak(),)
        )
        ctx = [zk.MeasurementContext(freq=adiabatic_defect.freq, dephasing=0.0)]
        with pytest.raises(zk.DomainError):
            zk.validate_kk(spectrum, adiabatic_defect, ctx, qubit_decay=GAMMA_Q)
        two_peaks = zk.ParametricSpectrum(
            background=GAMMA_Q,
            peaks=(adiabatic_defect.spectral_peak(), strong_defect.spectral_peak()),
        )
        with pytest.raises(zk.DomainError):
            zk.validate_kk(two_peaks, adiabatic_defect, ctx, qubit_decay=GAMMA_Q)
        good_spectrum = zk.ParametricSpectrum(
            background=0.5, peaks=(adiabatic_defect.spectral_peak(),)
        )
        with pytest.raises(zk.DomainError):
            zk.validate_kk(good_spectrum, adiabatic_defect, ctx, qubit_decay=GAMMA_Q)
        # a table has no peaks to compare: this was an AttributeError
        table = zk.TabulatedSpectrum([0.0, 1.0], [GAMMA_Q, GAMMA_Q])
        expected = zk.ParametricSpectrum(GAMMA_Q, (adiabatic_defect.spectral_peak(),))
        with pytest.raises(zk.DomainError) as error:
            zk.validate_kk(table, adiabatic_defect, ctx, qubit_decay=GAMMA_Q)
        assert str(error.value) == f"validate_kk needs the defect's own spectrum, {expected}"


# g = kappa/4 with no detuning, dephasing or qubit decay: the one-excitation
# block's two eigenvalues meet, and the sector's eigenbasis is defective
EXCEPTIONAL_POINT = zk.DefectParams(freq=0.0, coupling=2.5, decay=10.0)


def seeded_oracle_context(defect, seed):
    """A ``validate_kk`` context on ``defect`` at a seeded detuning and
    dephasing: its RK4 trajectory and its fit window."""
    rng = np.random.default_rng(seed)
    detuning, dephasing = rng.uniform(-20.0, 20.0), rng.uniform(0.0, 5.0)
    return oracle_fit_input(defect, defect.freq + detuning, dephasing, GAMMA_Q)


def sector_entries(states):
    return states.reshape(len(states), -1)[:, lindblad._SECTOR]


class TestExactSamples:
    """``validate_kk`` reads its fit's samples from the exact propagator."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("defect_name", ["adiabatic_defect", "strong_defect"])
    def test_match_evolve_and_expm(self, request, defect_name, seed):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        trajectory, window = seeded_oracle_context(request.getfixturevalue(defect_name), seed)
        picked = lindblad._fit_sample_indices(trajectory.times, window)
        exact = lindblad._exact_samples(trajectory.model, trajectory.times[picked])
        assert np.array_equal(exact.times, trajectory.times[picked])
        rk4 = sector_entries(trajectory.states[picked])
        got = sector_entries(exact.states)
        assert np.max(np.abs(got - rk4)) <= 1e-10 * np.max(np.abs(rk4))
        S = lindblad._sector_generator(trajectory.model)
        x0 = lindblad._initial_sector(trajectory.model)
        expm = np.array([scipy_linalg.expm(S * t) @ x0 for t in exact.times])
        assert np.max(np.abs(got - expm)) <= 1e-13
        # the entries outside the sector stay exactly zero
        outside = np.delete(exact.states.reshape(len(picked), -1), lindblad._SECTOR, axis=1)
        assert not outside.any()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("defect_name", ["adiabatic_defect", "strong_defect"])
    def test_fit_reads_only_the_picked_samples(self, request, defect_name, seed):
        trajectory, window = seeded_oracle_context(request.getfixturevalue(defect_name), seed)
        picked = lindblad._fit_sample_indices(trajectory.times, window)
        assert picked.size <= 2 * lindblad.FIT_SAMPLES + 3
        model, times, states = trajectory.model, trajectory.times, trajectory.states
        subset = zk.Trajectory(model, times[picked], states[picked])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", zk.OscillationWarning)
            assert zk.extract_decay_rate(subset, window) == zk.extract_decay_rate(
                trajectory, window
            )

    def test_samples_that_fail_the_check_fall_back_to_rk4(self, monkeypatch, adiabatic_defect):
        trajectory, window = seeded_oracle_context(adiabatic_defect, 1)
        times = trajectory.times[lindblad._fit_sample_indices(trajectory.times, window)]
        assert lindblad._exact_samples(trajectory.model, times) is not None
        # with no trace tolerance the samples' round-off fails the check
        monkeypatch.setattr(lindblad, "TRACE_TOL", 0.0)
        assert lindblad._exact_samples(trajectory.model, times) is None

    def test_exceptional_point_falls_back_to_rk4(self):
        model = zk.LindbladModel(qubit_freq=0.0, defect=EXCEPTIONAL_POINT)
        w, V = np.linalg.eig(lindblad._sector_generator(model))
        assert np.linalg.cond(V) > lindblad.EIGENBASIS_COND_LIMIT
        assert lindblad._exact_samples(model, np.array([0.0, 0.1, 1.0])) is None
        spectrum = zk.ParametricSpectrum(
            background=0.0, peaks=(EXCEPTIONAL_POINT.spectral_peak(),)
        )
        context = zk.MeasurementContext(freq=0.0, dephasing=0.0)
        (row,) = zk.validate_kk(spectrum, EXCEPTIONAL_POINT, [context])
        with pytest.warns(zk.OscillationWarning):
            trajectory, window = oracle_fit_input(EXCEPTIONAL_POINT, 0.0, 0.0, 0.0)
            assert row.oracle_rate == zk.extract_decay_rate(trajectory, window)[0]

    def test_golden_contexts_match_the_rk4_path(self, monkeypatch, tmp_path):
        config = Path(__file__).parent / "data" / "oracle_config.json"

        def oracle_rates(out):
            assert main(["oracle", "--config", str(config), "--out", str(out)]) == 0
            columns = read_columns_csv(out / "comparison.csv", COMPARISON_CSV_HEADER)
            return columns[COMPARISON_CSV_HEADER.split(",").index("oracle_per_us")]

        exact = oracle_rates(tmp_path / "exact")
        monkeypatch.setattr(lindblad, "_exact_samples", lambda model, times: None)
        rk4 = oracle_rates(tmp_path / "rk4")
        assert exact.size == 4
        assert np.max(np.abs(exact - rk4) / rk4) <= 1e-12


class TestModelValidation:
    def test_negative_rates_rejected(self):
        with pytest.raises(zk.DomainError):
            bare_qubit(dephasing=-1.0)

    def test_defect_is_required(self):
        # a bare qubit is a defect with coupling 0, not a missing one
        with pytest.raises(TypeError):
            zk.LindbladModel(qubit_freq=0.0)
