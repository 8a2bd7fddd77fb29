"""Discrete action: closed-form oracles, derivatives, symmetries, limits."""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from hypchoreo import action, optimizer
from hypchoreo.action import (
    COLLISION_THRESHOLD,
    ActionEvaluation,
    CollisionError,
    Configuration,
    action_value,
    evaluate,
    hyperboloid_energies,
    pairwise_separations,
    quadrature_size,
    _coefficients,
    _NodeState,
    _pair_curvature,
    _pair_kernel,
    _pair_slope,
    _second_order,
    _transform,
)
from hypchoreo.geometry import BOUNDARY_MARGIN, OutOfDiskError
from hypchoreo.optimizer import phase1_bfgs, random_seed
from hypchoreo.solutions import bundled_names, load_bundled
from hypchoreo.trigpath import TrigPath, nodes, pack_vars, unpack_vars
from circles import circle_action, circle_path


FD_CONFIGS = [
    Configuration(n=3, R=1.5, K=8),
    Configuration(n=4, R=2.0, K=6, omega=1.3),
    Configuration(n=5, R=math.inf, K=6, omega=2.8),
    Configuration(n=3, R=math.inf, K=6),
]


def feasible_point(config, rng):
    x = pack_vars(random_seed(config, modes=min(5, config.K), rng_seed=int(rng.integers(1 << 20))))
    return x + 0.005 * rng.standard_normal(x.size)


def pair_by_pair_hessian(x, config):
    """The Hessian assembled block by block: every pair's six Hankel and
    Toeplitz blocks gathered on their own from (k +- l) mod M tables and
    framed by that pair's shift phases, 6(n-1) + 4 gathers in all.  The
    slow reference for evaluate's assembly, which folds the pairs."""
    state = _NodeState(_coefficients(x, config), config)
    kinetic, pairs = _second_order(state)
    sp, w, dw = state.sp, state.w, state.multipliers[-1]
    dwc = np.conj(dw)
    kmod = np.arange(-config.K, config.K + 1) % sp.M

    def hank(f):
        return f[(kmod[:, None] + kmod[None, :]) % sp.M]

    def toep(f):
        return f[(kmod[:, None] - kmod[None, :]) % sp.M]

    A00, A01, A11, B00, B01, B11 = pairs
    f = sp.transform(np.vstack([w * row for row in kinetic] + [w * A01, w * A00, w * A11, w * B00, w * B01, w * B11]))
    Wm = dw[:, None] * toep(f[0]) * dwc[None, :]
    T = hank(f[1]) + 2.0 * hank(f[2]) * dw[None, :]
    Wm += toep(f[3])
    Wm += 2.0 * toep(f[4]) * dwc[None, :]
    for f01, f00, f11, g00, g01, g11, sig in zip(*np.split(f[5:], 6), state.multipliers[1:-1]):
        sigc = np.conj(sig)
        T += hank(f00)
        T += 2.0 * hank(f01) * sig[None, :]
        T += sig[:, None] * hank(f11) * sig[None, :]
        Wm += toep(g00)
        Wm += 2.0 * toep(g01) * sigc[None, :]
        Wm += sig[:, None] * toep(g11) * sigc[None, :]

    T = 0.5 * (T + T.T)
    Wm = 0.5 * (Wm + Wm.conj().T)
    Haa = 2.0 * (T.real + Wm.real)
    Hbb = 2.0 * (Wm.real - T.real)
    Hab = 2.0 * (Wm.imag - T.imag)
    return config.sigma ** 2 * np.block([[Haa, Hab], [Hab.T, Hbb]])


def reference_value_and_gradient(x, config, precise=False):
    """The action and its gradient transcribed term by term in plain numpy:
    the multiplier table built in place, a fancy-index scatter into the
    spectrum and a take out of it, and every term formed where it is used.
    evaluate's value and fast gradient (precise=False) and its precise
    gradient (precise=True, long double) must equal it bit for bit.
    Returns (value, gradient), both None at an infeasible point; only the
    float64 value is evaluate's."""
    real = np.longdouble if precise else np.float64
    pi = np.longdouble("3.14159265358979323846264338327950288") if precise else np.pi
    n, K, M = config.n, config.K, quadrature_size(config.K)
    half = x.size // 2
    p = config.sigma * (x[:half] + 1j * x[half:])
    k = np.arange(-K, K + 1)
    kmod = k % M
    roots = np.exp(2j * pi * np.arange(n, dtype=real) / n)
    multipliers = np.vstack((roots[np.arange(n)[:, None] * k % n], 1j * (k.astype(real) + config.omega)))
    spectrum = np.zeros((n + 1, M), dtype=np.result_type(real, 1j))
    spectrum[:, kmod] = multipliers * p
    nodes = np.fft.ifft(spectrum, axis=-1, norm="forward")
    squares = (nodes * nodes.conj()).real
    z, u, zz, uu = nodes[:-1], nodes[-1], squares[:-1], squares[-1]
    eps = (1 / real(config.R)) ** 2
    a = 1.0 - 0.25 * eps * zz
    lam = 1.0 / (a[0] * a[0])
    dp = z[0] - z[1:]
    P = (dp * dp.conj()).real / (a[0] * a[1:])
    if zz[0].max() * (0.25 * eps) >= (1.0 - BOUNDARY_MARGIN) ** 2 or (P <= COLLISION_THRESHOLD ** 2).any():
        return None, None
    w = 0.5 * n * (2.0 * pi / M)
    b = 1.0 + 0.5 * eps * P
    G = P * (1.0 + 0.25 * eps * P)
    inv_root = 1.0 / np.sqrt(G)
    value = w * (float(lam @ uu) + float((b * inv_root).sum()))

    dF = -0.5 * inv_root / G
    kappa = z.conj() * (0.25 * eps / a)
    a0 = 1.0 / dp + kappa[0]
    a1 = kappa[1:] - 1.0 / dp
    wg = 2.0 * config.sigma * w
    wFpP = wg * dF * P
    wlam = wg * lam
    rows = np.empty((n + 1, M), dtype=kappa.dtype)
    np.multiply(2.0 * wlam * uu, kappa[0], out=rows[0])
    rows[0] += (wFpP * a0).sum(axis=0)
    np.multiply(wFpP, a1, out=rows[1:-1])
    np.multiply(wlam, u.conj(), out=rows[-1])
    v = (np.fft.ifft(rows, axis=-1, norm="forward").take(kmod, axis=-1) * multipliers).sum(axis=0)
    return value, np.concatenate([v.real, -v.imag]).astype(float, copy=False)


def reference_evaluate(x, config, order, precise=False):
    """evaluate for orders 0 and 1 on reference_value_and_gradient."""
    x = np.asarray(x, dtype=float)
    value, gradient = reference_value_and_gradient(x, config, precise)
    if value is None:
        return ActionEvaluation(math.inf)
    return ActionEvaluation(value, gradient if order >= 1 else None)


class TestQuadratureSize:
    def test_formula(self):
        assert quadrature_size(27) == 111
        assert quadrature_size(1) == 7


class TestCircleOracle:
    @pytest.mark.parametrize(
        "config,r",
        [
            (Configuration(n=2, R=1.6, K=4), 0.5),
            (Configuration(n=3, R=1.3, K=4), 0.4),
            (Configuration(n=5, R=2.0, K=6, omega=2.8), 0.55),
            (Configuration(n=2, R=2.0, K=4, omega=0.7), 0.6),
            (Configuration(n=3, R=math.inf, K=4), 0.7),
            (Configuration(n=5, R=math.inf, K=4, omega=-1.2), 0.9),
        ],
    )
    def test_action_matches_closed_form(self, config, r):
        got = action_value(pack_vars(circle_path(r, config.K)), config)
        expect = circle_action(r, config)
        assert got == pytest.approx(expect, rel=1e-13)

    def test_separations_match_chord_formula(self):
        config = Configuration(n=5, R=1.7, K=3)
        r = 0.62
        path = TrigPath(np.concatenate([np.zeros(4), [r], np.zeros(2)]))
        lam = 4.0 * config.R ** 4 / (config.R ** 2 - r * r) ** 2
        seps = pairwise_separations(path, config)
        assert seps.shape == (config.n - 1, quadrature_size(config.K)) and seps.dtype == float
        for j, s in enumerate(seps, start=1):
            expect = math.sqrt(lam) * 2.0 * r * math.sin(math.pi * j / config.n)
            worst = float(np.max(np.abs(s - expect)))
            assert worst <= 1e-13 * expect, f"pair {j}"


class TestDerivatives:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        h = 1e-6
        for config in FD_CONFIGS:
            for _ in range(4):
                x = feasible_point(config, rng)
                g = evaluate(x, config, order=1).gradient
                idx = rng.choice(x.size, size=10, replace=False)
                for i in idx:
                    e = np.zeros(x.size)
                    e[i] = h
                    fd = (action_value(x + e, config) - action_value(x - e, config)) / (2 * h)
                    assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd)), f"{config}: var {i}"

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for config in FD_CONFIGS:
            x = feasible_point(config, rng)
            H = evaluate(x, config, order=2).hessian
            idx = rng.choice(x.size, size=6, replace=False)
            for i in idx:
                e = np.zeros(x.size)
                e[i] = h
                plus, minus = (evaluate(x + s * e, config, order=1).gradient for s in (1, -1))
                fd_col = (plus - minus) / (2 * h)
                scale = max(1.0, float(np.max(np.abs(fd_col))))
                assert float(np.max(np.abs(H[:, i] - fd_col))) <= 1e-5 * scale, f"{config}: col {i}"

    def test_hessian_symmetric(self):
        rng = np.random.default_rng(43)
        for config in FD_CONFIGS:
            x = feasible_point(config, rng)
            H = evaluate(x, config, order=2).hessian
            assert float(np.max(np.abs(H - H.T))) <= 1e-12 * float(np.max(np.abs(H)))

    def test_orders_consistent(self):
        rng = np.random.default_rng(44)
        config = FD_CONFIGS[0]
        x = feasible_point(config, rng)
        e0 = evaluate(x, config, order=0)
        e1 = evaluate(x, config, order=1)
        e2 = evaluate(x, config, order=2)
        assert e0.value == e1.value == e2.value
        assert e0.gradient is None and e0.hessian is None
        assert e1.hessian is None and e2.gradient is None
        assert e1.gradient.shape == (x.size,) and e2.hessian.shape == (x.size, x.size)

    def test_order_is_required(self):
        config = FD_CONFIGS[0]
        x = feasible_point(config, np.random.default_rng(44))
        with pytest.raises(TypeError, match="order"):
            evaluate(x, config)

    @pytest.mark.parametrize("size", [21, 35])
    def test_wrong_variable_count_raises(self, size):
        config = FD_CONFIGS[0]  # K = 8: 34 packed variables
        with pytest.raises(ValueError, match="expected 34 variables, got " + str(size)):
            evaluate(np.zeros(size), config, order=0)

    @pytest.mark.parametrize("name", bundled_names())
    def test_hessian_matches_pair_by_pair_assembly_bundled(self, name):
        choreo = load_bundled(name)
        x = pack_vars(choreo.path)
        H = evaluate(x, choreo.config, order=2).hessian
        assert float(np.max(np.abs(H - pair_by_pair_hessian(x, choreo.config)))) <= 1e-14 * float(np.max(np.abs(H)))

    @pytest.mark.parametrize(
        "config",
        FD_CONFIGS + [
            # One pair; n > 2K + 1, so several k share k mod n; rotating flat.
            Configuration(n=2, R=1.5, K=4),
            Configuration(n=7, R=3.0, K=2),
            Configuration(n=6, R=math.inf, K=5, omega=-1.1),
        ],
    )
    def test_hessian_matches_pair_by_pair_assembly(self, config):
        rng = np.random.default_rng(46)
        for _ in range(2):
            x = feasible_point(config, rng)
            H = evaluate(x, config, order=2).hessian
            assert np.all(np.isfinite(H))
            assert float(np.max(np.abs(H - pair_by_pair_hessian(x, config)))) <= 1e-14 * float(np.max(np.abs(H)))

    @pytest.mark.parametrize("config", FD_CONFIGS)
    def test_precise_gradient_agrees(self, config):
        rng = np.random.default_rng(45)
        x = feasible_point(config, rng)
        fast = evaluate(x, config, order=1).gradient
        slow = evaluate(x, config, order=1, precise=True).gradient
        assert float(np.max(np.abs(fast - slow))) <= 1e-11 * float(np.linalg.norm(fast))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="long double is double precision here"
    )
    @pytest.mark.parametrize("K", [10, 52, 152])
    def test_long_double_transform_matches_exact_twiddle_dft(self, K):
        # The reference reduces m k mod M before exp, so its twiddles carry
        # no rounding from large arguments.
        sp = _transform(K, True)
        k = np.arange(-K, K + 1)
        r = (np.arange(sp.M)[:, None] * k[None, :]) % sp.M
        pi = np.longdouble("3.14159265358979323846264338327950288")
        E = np.exp(1j * (2 * pi * r.astype(np.longdouble) / sp.M))
        rng = np.random.default_rng(K)

        def random_complex(size):
            return (rng.standard_normal(size) + 1j * rng.standard_normal(size)).astype(np.clongdouble)

        c, d = random_complex(k.size), random_complex(sp.M)
        for got, want in ((sp.values(c), E @ c), (sp.adjoint(d), E.T @ d)):
            assert got.dtype == np.clongdouble
            error = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            assert error <= 20 * float(np.finfo(np.longdouble).eps)


class TestPointwiseKernels:
    """Kernels written for speed, checked against their textbook forms."""

    @pytest.mark.parametrize("real", [np.float64, np.longdouble], ids=["float64", "long_double"])
    @pytest.mark.parametrize("R", [math.inf, 1.2])
    def test_pair_kernel_matches_fractional_powers(self, real, R):
        P = np.logspace(-20, 6, 2601).astype(real)
        eps = (1 / real(R)) ** 2
        b = 1.0 + 0.5 * eps * P
        G = P * (1.0 + 0.25 * eps * P)
        want = (b * G ** real(-0.5), real(-0.5) * G ** real(-1.5), real(0.75) * b * G ** real(-2.5))
        G, inv_root, F = _pair_kernel(P, eps)
        for got, ref in zip((F, _pair_slope(G, inv_root), _pair_curvature(G, F)), want):
            assert got.dtype == real
            assert np.all(np.abs(got - ref) <= 8 * np.finfo(real).eps * np.abs(ref))

    @pytest.mark.parametrize("precise", [False, True], ids=["float64", "long_double"])
    def test_transform_is_unscaled_inverse_fft(self, precise):
        sp = _transform(27, precise)
        rng = np.random.default_rng(60)
        d = (rng.standard_normal((3, sp.M)) + 1j * rng.standard_normal((3, sp.M))).astype(
            np.result_type(sp.real, 1j)
        )
        got, want = sp.transform(d), sp.M * np.fft.ifft(d, axis=-1)
        assert got.dtype == want.dtype == np.result_type(sp.real, 1j)
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(sp.real).eps * np.max(np.abs(want))


class TestStackedEvaluation:
    @pytest.mark.parametrize("precise", [False, True], ids=["float64", "long_double"])
    def test_stacked_transforms_match_rows_bitwise(self, precise):
        sp = _transform(27, precise)
        rng = np.random.default_rng(49)

        def random_complex(shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
                np.result_type(sp.real, 1j)
            )

        c, d = random_complex((4, sp.k.size)), random_complex((4, sp.M))
        for transform, rows in ((sp.values, c), (sp.adjoint, d)):
            out = transform(rows)
            assert out.dtype == np.result_type(sp.real, 1j)
            # Equal values; tobytes would also compare long double's padding bytes.
            for row, got in zip(rows, out):
                assert np.array_equal(transform(row), got)

    def test_one_ifft_per_stage(self, monkeypatch):
        calls, gradients = [], []
        ifft, first_order = np.fft.ifft, action._first_order

        def counted(*args, **kwargs):
            calls.append(1)
            return ifft(*args, **kwargs)

        def counted_gradient(state):
            gradients.append(1)
            return first_order(state)

        config = Configuration(n=5, R=1.2, K=10)
        x = feasible_point(config, np.random.default_rng(50))
        monkeypatch.setattr(np.fft, "ifft", counted)
        monkeypatch.setattr(action, "_first_order", counted_gradient)
        value = evaluate(x, config, order=0).value
        assert len(calls) == 1
        # The Hessian at the same point reuses the node values and adds
        # its one stage, with no gradient.
        got = evaluate(x, config, order=2)
        assert len(calls) == 2 and gradients == []
        assert got.value == value and got.gradient is None
        # So does the gradient.
        evaluate(x, config, order=1)
        assert len(calls) == 3 and len(gradients) == 1

    def test_precise_gradient_builds_no_hessian_tables(self):
        config = Configuration(n=3, R=1.5, K=13)
        x = feasible_point(config, np.random.default_rng(53))
        evaluate(x, config, order=1, precise=True)
        assert _transform(config.K, True)._folds == {}
        evaluate(x, config, order=2)
        assert config.n in _transform(config.K, False)._folds

    @pytest.mark.parametrize("n", [2, 5])
    def test_hessian_tables_need_more_than_4k_nodes(self, n):
        # On M <= 4K nodes, k + l and k - l no longer have one slot each.
        with pytest.raises(ValueError, match="M > 4K"):
            _transform(6, False, 24).fold(n)
        assert len(_transform(6, False, 25).fold(n)[0]) == 13

    @staticmethod
    def _fresh(x, config, order, precise=False):
        """An evaluation that cannot reuse a kept state: another point comes between."""
        other = Configuration(n=2, R=math.inf, K=1)
        evaluate(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), other, order=0)
        return evaluate(x.copy(), config, order=order, precise=precise)

    def test_reused_state_follows_in_place_edit(self):
        config = FD_CONFIGS[0]
        x = feasible_point(config, np.random.default_rng(51))
        before = evaluate(x, config, order=0).value
        x[3] += 1e-3
        got = evaluate(x, config, order=2)
        want = self._fresh(x, config, 2)
        assert got.value != before
        assert got.value == want.value
        assert np.array_equal(got.hessian, want.hessian)
        got = evaluate(x, config, order=1).gradient
        assert np.array_equal(got, self._fresh(x, config, 1).gradient)

    @pytest.mark.parametrize("change", [{"R": 1.7}, {"omega": 0.4}], ids=["R", "omega"])
    def test_reused_state_follows_configuration(self, change):
        config = FD_CONFIGS[0]
        x = feasible_point(config, np.random.default_rng(52))
        before = evaluate(x, config, order=0).value
        other = replace(config, **change)
        got = evaluate(x, other, order=1)
        want = self._fresh(x, other, 1)
        assert got.value != before
        assert got.value == want.value
        assert np.array_equal(got.gradient, want.gradient)

    def test_second_precise_gradient_reused(self, monkeypatch):
        # A second precise gradient at the same bytes and configuration is
        # the kept array itself: no transform runs.
        calls = []
        ifft = np.fft.ifft

        def counted(*args, **kwargs):
            calls.append(1)
            return ifft(*args, **kwargs)

        config = Configuration(n=5, R=1.2, K=10)
        x = feasible_point(config, np.random.default_rng(54))
        first = evaluate(x, config, order=1, precise=True).gradient
        monkeypatch.setattr(np.fft, "ifft", counted)
        second = evaluate(x.copy(), config, order=1, precise=True)
        assert calls == []
        assert second.gradient is first
        assert second.value == evaluate(x, config, order=0).value

    def test_precise_gradient_is_read_only(self):
        config = FD_CONFIGS[0]
        x = feasible_point(config, np.random.default_rng(55))
        gradient = evaluate(x, config, order=1, precise=True).gradient
        with pytest.raises(ValueError, match="read-only"):
            gradient[0] = 1.0
        # A Hessian request at the point leaves the kept array in place.
        evaluate(x, config, order=2)
        assert evaluate(x, config, order=1, precise=True).gradient is gradient

    def test_precise_gradient_follows_in_place_edit(self):
        config = FD_CONFIGS[0]
        x = feasible_point(config, np.random.default_rng(56))
        before = evaluate(x, config, order=1, precise=True).gradient
        x[3] += 1e-3
        got = evaluate(x, config, order=1, precise=True).gradient
        want = self._fresh(x, config, 1, precise=True).gradient
        assert not np.array_equal(got, before)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("change", [{"R": 1.7}, {"omega": 0.4}], ids=["R", "omega"])
    def test_precise_gradient_follows_configuration(self, change):
        config = FD_CONFIGS[0]
        x = feasible_point(config, np.random.default_rng(57))
        before = evaluate(x, config, order=1, precise=True).gradient
        other = replace(config, **change)
        got = evaluate(x, other, order=1, precise=True).gradient
        assert not np.array_equal(got, before)
        assert np.array_equal(got, self._fresh(x, other, 1, precise=True).gradient)



class TestReferenceTranscription:
    """evaluate and Phase 1 against reference_value_and_gradient, bit for bit."""

    @pytest.mark.parametrize("config", FD_CONFIGS)
    def test_value_and_gradients_match_reference(self, config):
        rng = np.random.default_rng(58)
        for _ in range(3):
            x = feasible_point(config, rng)
            value, gradient = reference_value_and_gradient(x, config)
            _, precise = reference_value_and_gradient(x, config, precise=True)
            assert evaluate(x, config, order=0).value == value
            assert np.array_equal(evaluate(x, config, order=1).gradient, gradient)
            assert np.array_equal(evaluate(x, config, order=1, precise=True).gradient, precise)

    @pytest.mark.parametrize("name", ["figure_eight_seed", "five_body_c_seed", "relative_a_seed"])
    def test_phase1_same_with_reference_evaluation(self, name, monkeypatch):
        seed = load_bundled(name)
        x0 = pack_vars(seed.path)
        got = phase1_bfgs(x0, seed.config)
        monkeypatch.setattr(optimizer, "evaluate", reference_evaluate)
        want = phase1_bfgs(x0, seed.config)
        assert got.iterations == want.iterations
        assert got.x.tobytes() == want.x.tobytes()
        assert got.values == want.values
        assert got.gradient_norms == want.gradient_norms
        assert got.message == want.message


class TestThreads:
    def test_concurrent_evaluations_match_serial(self):
        # Four threads, two per configuration (n = 3 and n = 5 at the same K),
        # interleave values, fast and precise gradients over the same points,
        # so they replace and share each other's kept state; each must get
        # the bits of a serial run.
        configs = [Configuration(n=3, R=1.5, K=10), Configuration(n=5, R=1.2, K=10)]
        rng = np.random.default_rng(59)
        points = [[feasible_point(config, rng) for _ in range(8)] for config in configs]

        def run(config, xs):
            return [
                (
                    evaluate(x, config, order=0).value,
                    evaluate(x, config, order=1).gradient.copy(),
                    evaluate(x, config, order=1, precise=True).gradient.copy(),
                )
                for x in xs
            ]

        serial = [run(config, xs) for config, xs in zip(configs, points)]
        results = {}

        def worker(slot):
            results[slot] = [run(configs[slot % 2], points[slot % 2]) for _ in range(5)]

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot in range(4):
            assert len(results[slot]) == 5
            for got in results[slot]:
                for (value, gradient, precise), (value0, gradient0, precise0) in zip(got, serial[slot % 2]):
                    assert value == value0
                    assert np.array_equal(gradient, gradient0)
                    assert np.array_equal(precise, precise0)


class TestSymmetries:
    def test_rotation_invariance(self):
        rng = np.random.default_rng(46)
        for config in FD_CONFIGS:
            x = feasible_point(config, rng)
            a = action_value(x, config)
            path = unpack_vars(x)
            for theta in (0.3, 1.7, -2.2):
                b = action_value(pack_vars(TrigPath(path.coeffs * np.exp(1j * theta))), config)
                assert abs(b - a) <= 1e-12 * abs(a), f"{config}: theta={theta}"

    def test_grid_multiple_shift_exact(self):
        # Shifting by a multiple of the node spacing relabels the quadrature
        # nodes, so even rough paths reproduce the action to rounding.
        rng = np.random.default_rng(47)
        config = Configuration(n=3, R=1.5, K=4)
        x = feasible_point(config, rng)
        M = quadrature_size(config.K)
        a = action_value(x, config)
        for m in (1, 3, M // 2):
            b = action_value(pack_vars(unpack_vars(x).shift(2.0 * np.pi * m / M)), config)
            assert abs(b - a) <= 1e-12 * abs(a)

    def test_arbitrary_shift_on_smooth_path(self):
        # For well-resolved paths the aliasing term of the quadrature is far
        # below 1e-12 relative, so any shift preserves the action.
        config = Configuration(n=3, R=1.5, K=16)
        c = np.zeros(33, dtype=complex)
        c[17] = 0.45
        c[18] = 0.1j
        c[15] = 0.05
        path = TrigPath(c)
        a = action_value(pack_vars(path), config)
        rng = np.random.default_rng(48)
        for s in rng.uniform(0.0, 2.0 * np.pi, 5):
            b = action_value(pack_vars(path.shift(float(s))), config)
            assert abs(b - a) <= 1e-12 * abs(a)


def doubled_path_vars():
    """Packed coefficients of a smooth n = 3 test path at K = 5."""
    c = np.zeros(11, dtype=complex)
    c[6] = 0.4
    c[7] = 0.06 + 0.03j
    c[4] = 0.05j
    return pack_vars(TrigPath(c))


def value_and_derivatives(x, config, sigma=1.0):
    """(value, sigma * gradient, sigma^2 * Hessian) at x, from an order-1
    and an order-2 evaluation."""
    first, second = evaluate(x, config, order=1), evaluate(x, config, order=2)
    assert first.value == second.value
    return first.value, sigma * first.gradient, sigma * sigma * second.hessian


class TestPlanarLimit:
    @pytest.mark.parametrize(
        "order,bound_at_10", [(0, 1e-2), (1, 3e-2), (2, 1e-2)], ids=["value", "gradient", "hessian"]
    )
    def test_action_approaches_planar_action_of_doubled_path(self, order, bound_at_10):
        # A_R(q) = A_planar(2q) (1 + O(1/R^2)): the conformal factor tends
        # to 4 and the pair kernel to 1/(2|dq|), which together reproduce
        # the flat action of the doubled path.  So the gradient and the
        # Hessian in q tend to 2 and 4 times the flat ones at 2q (relative
        # errors about 0.5/R^2, 2/R^2 and 0.4/R^2 on this path).
        config_flat = Configuration(n=3, R=math.inf, K=5)
        x = doubled_path_vars()
        flat = value_and_derivatives(2.0 * x, config_flat, 2.0)[order]
        errs = []
        for R in (10.0, 100.0, 1000.0):
            hyp = value_and_derivatives(x, Configuration(n=3, R=R, K=5))[order]
            errs.append(float(np.linalg.norm(hyp - flat) / np.linalg.norm(flat)))
        assert errs[0] <= bound_at_10
        # quadratic decay in 1/R: each decade of R drops the error 100x
        for lo, hi in zip(errs[1:], errs):
            assert 50.0 <= hi / lo <= 200.0, f"errors {errs}"

    @pytest.mark.parametrize("R", [1e80, 1e160])
    def test_huge_radius_is_flat_evaluation_of_doubled_path(self, R):
        # 1/R^2 is below double precision here, so the disk evaluation must
        # be the flat one at 2q, with no power of R overflowing on the way.
        config = Configuration(n=3, R=R, K=5)
        x = doubled_path_vars()
        got = value_and_derivatives(x, config)
        want = value_and_derivatives(2.0 * x, replace(config, R=math.inf), 2.0)
        for name, a, b in zip(("value", "gradient", "hessian"), got, want):
            assert np.all(np.isfinite(a)), name
            assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b), name


class TestInfeasible:
    def test_out_of_disk_is_infinite(self):
        config = Configuration(n=3, R=1.5, K=2)
        c = np.zeros(5, dtype=complex)
        c[2] = 1.5001
        for order, precise in ((0, False), (1, False), (1, True), (2, False)):
            out = evaluate(pack_vars(TrigPath(c)), config, order=order, precise=precise)
            assert out.value == math.inf
            assert out.gradient is None and out.hessian is None

    def test_collision_is_infinite(self):
        # A constant path has all bodies coincident for every n.
        config = Configuration(n=2, R=1.5, K=1)
        c = np.array([0.0, 0.3 + 0.1j, 0.0])
        assert math.isinf(action_value(pack_vars(TrigPath(c)), config))

    def test_pairwise_separations_raises(self):
        config = Configuration(n=2, R=1.5, K=1)
        with pytest.raises(CollisionError):
            pairwise_separations(TrigPath([0.0, 0.25, 0.0]), config)

    def test_near_collision_threshold(self):
        # n=2 and a k=1 circle: bodies sit opposite, separation stays large;
        # shrink the radius toward the threshold and the value must blow up
        # smoothly, not crash.
        config = Configuration(n=2, R=1.5, K=1)
        tiny = 10.0 * COLLISION_THRESHOLD
        c = np.array([0.0, 0.0, tiny])
        value = action_value(pack_vars(TrigPath(c)), config)
        assert math.isfinite(value) and value > 1e10

    @pytest.mark.parametrize("precise", [False, True], ids=["float64", "long_double"])
    def test_collision_threshold_edge(self, precise):
        # The same two bodies at half the threshold: in p = sigma q they sit
        # 2 sigma r apart (a = 1 to rounding), so r = THRESHOLD / (4 sigma).
        config = Configuration(n=2, R=1.5, K=1)
        c = np.array([0.0, 0.0, 0.5 * COLLISION_THRESHOLD / (2 * config.sigma)])
        state = _NodeState(config.sigma * c, config, precise=precise)
        assert np.allclose(np.sqrt(state.seps_sq.astype(float)), 0.5 * COLLISION_THRESHOLD, rtol=1e-12, atol=0)
        with pytest.raises(CollisionError):
            state.check()
        assert math.isinf(action_value(pack_vars(TrigPath(c)), config))

    @pytest.mark.parametrize("precise", [False, True], ids=["float64", "long_double"])
    def test_disk_margin_edges(self, precise):
        # An n = 3 circle of radius |q| = f R: feasible inside the relative
        # margin (f = 1 - 2 BOUNDARY_MARGIN), infeasible within it (f = 1 -
        # BOUNDARY_MARGIN / 2).
        config = Configuration(n=3, R=1.5, K=2)
        for f, feasible in ((1 - 2 * BOUNDARY_MARGIN, True), (1 - BOUNDARY_MARGIN / 2, False)):
            c = np.zeros(5, dtype=complex)
            c[3] = f * config.R
            state = _NodeState(config.sigma * c, config, precise=precise)
            if feasible:
                state.check()
            else:
                with pytest.raises(OutOfDiskError):
                    state.check()
            assert math.isfinite(action_value(pack_vars(TrigPath(c)), config)) == feasible


class TestConfigurationValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Configuration(n=1, R=1.0, K=3)
        with pytest.raises(ValueError):
            Configuration(n=3, R=-1.0, K=3)
        with pytest.raises(ValueError):
            Configuration(n=3, R=1.0, K=0)
        with pytest.raises(ValueError, match="overflows"):
            Configuration(n=3, R=1e-300, K=3)
        assert Configuration(n=3, R=1e-150, K=3).R == 1e-150
        for omega in (math.nan, math.inf):
            with pytest.raises(ValueError, match="omega"):
                Configuration(n=3, R=1.0, K=3, omega=omega)

    @pytest.mark.parametrize(
        "fields",
        [{"n": 2.5}, {"K": 2.5}, {"n": 3.0}, {"n": True}, {"K": True}],
        ids=["n_fraction", "K_fraction", "n_float", "n_bool", "K_bool"],
    )
    def test_rejects_non_integer_sizes(self, fields):
        with pytest.raises(TypeError, match="must be an integer"):
            Configuration(**{"n": 3, "R": 2.0, "K": 3, **fields})

    def test_accepts_numpy_integers(self):
        assert Configuration(n=np.int64(3), R=2.0, K=np.int32(3)).n_vars == 14

    def test_derived_sizes(self):
        config = Configuration(n=3, R=1.5, K=27)
        assert config.n_coefficients == 55
        assert config.n_vars == 110
        assert not config.is_planar
        assert Configuration(n=3, R=math.inf, K=3).is_planar


class TestHyperboloidEnergies:
    def test_circle_energy_integral_matches_action(self):
        # For the circular orbit the lifted kinetic and potential energies
        # are constant; their difference integrates to the disk action.
        config = Configuration(n=3, R=1.3, K=4)
        r = 0.45
        path = circle_path(r, config.K)
        x = pack_vars(path)
        t = nodes(64)
        kin, pot = hyperboloid_energies(path, config, t)
        integral = 2.0 * np.pi * float(np.mean(kin - pot))
        assert integral == pytest.approx(action_value(x, config), rel=1e-12)

    def test_rotating_frame_term(self):
        config = Configuration(n=2, R=2.0, K=3, omega=0.7)
        r = 0.5
        path = circle_path(r, config.K)
        x = pack_vars(path)
        t = nodes(32)
        kin, pot = hyperboloid_energies(path, config, t)
        integral = 2.0 * np.pi * float(np.mean(kin - pot))
        assert integral == pytest.approx(action_value(x, config), rel=1e-12)

    def test_planar_rejected(self):
        config = Configuration(n=3, R=math.inf, K=2)
        with pytest.raises(ValueError):
            hyperboloid_energies(TrigPath(np.zeros(5)), config, [0.0])
