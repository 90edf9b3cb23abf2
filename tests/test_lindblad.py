import math
from pathlib import Path

import numpy as np
import pytest

import zenokit as zk
from conftest import GAMMA_Q, G_D
from zenokit import lindblad
from zenokit.cli import main


def plus_state(dim, excited_index):
    """|+><+| between ground and the excited basis state, padded to dim."""
    psi = np.zeros(dim, dtype=complex)
    psi[0] = psi[excited_index] = 1.0 / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


class TestEvolve:
    def test_identity_evolution(self):
        model = zk.LindbladModel(qubit_freq=123.0)  # rotating frame kills H
        rho0 = plus_state(2, 1)
        trajectory = zk.evolve(model, rho0=rho0, t_final=5.0, dt=0.01)
        assert np.allclose(trajectory.states[-1], rho0, atol=1e-14)

    def test_pure_decay_population(self):
        model = zk.LindbladModel(qubit_freq=0.0, qubit_decay=0.1, dephasing=0.7)
        trajectory = zk.evolve(model, t_final=20.0)
        expected = np.exp(-0.1 * trajectory.times)
        assert np.max(np.abs(trajectory.populations() - expected)) < 1e-8

    def test_dephasing_only_keeps_populations(self):
        model = zk.LindbladModel(qubit_freq=0.0, dephasing=0.8)
        trajectory = zk.evolve(model, rho0=plus_state(2, 1), t_final=4.0)
        populations = trajectory.populations()
        assert np.max(np.abs(populations - populations[0])) < 1e-12
        coherences = np.abs(trajectory.states[:, 0, 1])
        expected = 0.5 * np.exp(-0.8 * trajectory.times)
        assert np.max(np.abs(coherences - expected)) < 1e-8

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

    def test_invalid_initial_state(self):
        model = zk.LindbladModel(qubit_freq=0.0)
        bad = np.array([[0.6, 0.0], [0.0, 0.6]], dtype=complex)  # trace 1.2
        with pytest.raises(zk.DomainError):
            zk.evolve(model, rho0=bad, t_final=1.0)

    @pytest.mark.parametrize("dim,value", [(2, np.nan), (4, np.nan), (4, np.inf)])
    def test_non_finite_initial_state(self, strong_defect, dim, value):
        defect = strong_defect if dim == 4 else None
        model = zk.LindbladModel(qubit_freq=strong_defect.freq, defect=defect)
        rho0 = plus_state(dim, dim // 2)
        rho0[0, dim // 2] = rho0[dim // 2, 0] = value
        with pytest.raises(zk.DomainError, match=rf"^initial state: non-finite entry \(0, {dim // 2}\)"):
            zk.evolve(model, rho0=rho0, t_final=1.0)

    def test_non_finite_sample(self, monkeypatch):
        # a NaN Lindbladian makes every stored sample non-finite
        monkeypatch.setattr(
            zk.LindbladModel, "superoperator", lambda self: np.full((4, 4), complex(np.nan))
        )
        model = zk.LindbladModel(qubit_freq=0.0)
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
        for value in (np.nan, np.inf, complex(0.0, -np.inf)):
            bad = np.diag([0.25, 0.75]).astype(complex)
            bad[1, 0] = value
            with pytest.raises(zk.StabilityError, match=r"^rho: non-finite entry \(1, 0\)"):
                zk.check_density_matrix(bad, "rho")


def reference_rk4(model, t_final, dt=None, sample_stride=None):
    """The per-step RK4 loop that the precomputed step matrix replaced.

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
    vec = model.initial_excited().reshape(-1)
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


class TestStepMatrix:
    """``evolve`` applies the RK4 step as one matrix; pin it to the loop."""

    # samples are advanced in blocks of isqrt(full strides): 7 leaves a
    # partial last block and a partial last stride, 20 whole blocks and a
    # partial last stride, n_steps - 1 one full stride and one single step
    @pytest.mark.parametrize("stride", [1, 7, 20, "n_steps", "n_steps - 1", 10**9])
    def test_matches_per_step_loop(self, strong_defect, stride):
        model = zk.LindbladModel(
            qubit_freq=strong_defect.freq, dephasing=0.5, qubit_decay=GAMMA_Q, defect=strong_defect
        )
        n_steps = math.ceil(1.0 / (0.01 / model.rate_scale()))
        stride = {"n_steps": n_steps, "n_steps - 1": n_steps - 1}.get(stride, stride)
        assert n_steps % 7 and n_steps % 20
        assert n_steps // 7 % math.isqrt(n_steps // 7)
        assert n_steps // 20 % math.isqrt(n_steps // 20) == 0
        times, states = reference_rk4(model, t_final=1.0, sample_stride=stride)
        assert len(times) == 1 + n_steps // stride + (n_steps % stride > 0)
        trajectory = zk.evolve(model, t_final=1.0, sample_stride=stride)
        assert np.array_equal(trajectory.times, times)
        assert trajectory.states.shape == states.shape
        reference = np.einsum("tij,ji->t", states, model.excited_projector()).real
        assert np.max(np.abs(trajectory.populations() - reference)) <= 1e-12

    def test_first_failing_sample_is_named(self, monkeypatch):
        # the excited population of rho0 = diag(1/2, 1/2) decays as exp(-t)/2,
        # so the smallest eigenvalue crosses 1/4 at t = ln 2, in the second
        # block of the batched check
        monkeypatch.setattr(lindblad, "EIGENVALUE_TOL", 0.25)
        model = zk.LindbladModel(qubit_freq=0.0, qubit_decay=1.0)
        rho0 = np.diag([0.5, 0.5]).astype(complex)
        assert 0.694 / 0.002 > lindblad._CHECK_BLOCK
        with pytest.raises(zk.StabilityError, match=r"^t=0\.694 us: eigenvalue .*reduce dt below"):
            zk.evolve(model, rho0=rho0, t_final=2.0, dt=0.002)

    def test_golden_contexts_need_no_eigenvalues(self, monkeypatch, tmp_path):
        # the Cholesky certificate clears every stored sample of the
        # golden oracle run, so the eigenvalue fallback never runs
        calls = {"evolve": 0, "eigvalsh": 0}
        evolve, eigvalsh = lindblad.evolve, np.linalg.eigvalsh

        def counting(name, func):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(lindblad, "evolve", counting("evolve", evolve))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", eigvalsh))
        config = Path(__file__).parent / "data" / "oracle_config.json"
        assert main(["oracle", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert calls == {"evolve": 4, "eigvalsh": 0}

    def test_kron_is_numpy_kron(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m, n, p, q = rng.integers(1, 5, size=4)
            a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            b = rng.normal(size=(p, q)) + 1j * rng.normal(size=(p, q))
            assert np.array_equal(lindblad._kron(a, b), np.kron(a, b))


def eigvalsh_first_violation(rho):
    """``_first_violation`` for finite stacks, deciding positivity by
    ``eigvalsh`` alone: the reference for the Cholesky certificate."""
    rho_h = rho.conj().transpose(0, 2, 1)
    herm = np.max(np.abs(rho - rho_h), axis=(1, 2))
    trace_err = np.abs(np.einsum("tii->t", rho).real - 1.0)
    eigmin = np.linalg.eigvalsh(0.5 * (rho + rho_h))[:, 0]
    bad = np.flatnonzero(
        (herm > lindblad.HERMITICITY_TOL)
        | (trace_err > lindblad.TRACE_TOL)
        | (eigmin < lindblad.EIGENVALUE_TOL)
    )
    if not bad.size:
        return None
    i = int(bad[0])
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


class TestPositivityCertificate:
    """The Cholesky certificate decides exactly as ``eigvalsh`` does."""

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


class TestExtractDecayRate:
    def test_bare_qubit_rate(self):
        model = zk.LindbladModel(qubit_freq=0.0, qubit_decay=0.01)
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

    def test_window_must_see_a_decay(self):
        model = zk.LindbladModel(qubit_freq=0.0, qubit_decay=0.01)
        trajectory = zk.evolve(model, t_final=10.0, dt=0.05)
        with pytest.raises(zk.DomainError):
            zk.extract_decay_rate(trajectory, (0.1, 10.0))  # only 10% decay

    def test_window_beyond_trajectory(self):
        model = zk.LindbladModel(qubit_freq=0.0, qubit_decay=0.5)
        trajectory = zk.evolve(model, t_final=5.0)
        with pytest.raises(zk.DomainError):
            zk.extract_decay_rate(trajectory, (0.1, 50.0))


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
        assert zk.LindbladModel(qubit_freq=0.0).dim == 2
        assert model.dim == 4
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


class TestModelValidation:
    def test_negative_rates_rejected(self):
        with pytest.raises(zk.DomainError):
            zk.LindbladModel(qubit_freq=0.0, dephasing=-1.0)
