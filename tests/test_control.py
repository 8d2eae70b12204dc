import hashlib
import math
import os

import numpy as np
import pytest

from qubitrot import control
from qubitrot import (
    ControlProblem,
    SolverError,
    apply_parameter,
    base_config,
    fidelity,
    integrate,
    qubit_from_amplitudes,
    rotated_to_bare,
    solve,
)


def _fast_base(**kw):
    return base_config(omega01=4.0, omega02=4.0, delta_tau=30.0, **kw).with_(
        t_start=-4.0, t_end=6.0, samples=101
    )


def _forward_target(cfg):
    traj = integrate(cfg)
    c = rotated_to_bare(traj.states[-1], float(traj.times[-1]), cfg)
    pair = np.array([c[1], c[2]])
    return pair / np.linalg.norm(pair)


class TestProblemValidation:
    def test_requires_free_parameter(self):
        with pytest.raises(ValueError, match="free parameter"):
            ControlProblem(np.array([1.0, 0.0]), {}, _fast_base())

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown control parameter"):
            ControlProblem(np.array([1.0, 0.0]), {"bogus": (0.0, 1.0)}, _fast_base())

    def test_inverted_bounds(self):
        with pytest.raises(ValueError, match="lower bound exceeds"):
            ControlProblem(np.array([1.0, 0.0]), {"delta_tau": (50.0, 20.0)}, _fast_base())

    def test_unnormalized_target(self):
        with pytest.raises(ValueError, match="normalized"):
            ControlProblem(np.array([1.0, 1.0]), {"delta_tau": (20.0, 50.0)}, _fast_base())

    @pytest.mark.parametrize(
        "name, bounds, fragment",
        [
            ("ratio_omega", (-1.0, 1.0), "peak rates must be non-negative"),
            ("chi", (0.0, 1.0), "cannot sweep chi"),
        ],
    )
    def test_bounds_build_valid_configs(self, name, bounds, fragment):
        with pytest.raises(ValueError, match=fragment):
            ControlProblem(np.array([1.0, 0.0]), {name: bounds}, _fast_base())

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -1.0])
    def test_leak_weight(self, weight):
        with pytest.raises(ValueError, match="leak_weight"):
            ControlProblem(
                np.array([1.0, 0.0]), {"delta_tau": (20.0, 50.0)}, _fast_base(), leak_weight=weight
            )


class TestSolve:
    def test_round_trip_recovers_detuning(self):
        base = _fast_base()
        truth = 35.0
        target = _forward_target(apply_parameter(base, "delta_tau", truth))
        problem = ControlProblem(target, {"delta_tau": (20.0, 60.0)}, base)
        result = solve(problem, grid_points=9)
        assert result.fidelity >= 0.999
        assert result.final_p_e < 0.05

    def test_reported_numbers_reproducible_by_forward_run(self):
        base = _fast_base()
        target = _forward_target(apply_parameter(base, "delta_tau", 35.0))
        problem = ControlProblem(target, {"delta_tau": (20.0, 60.0)}, base)
        result = solve(problem, grid_points=5)
        cfg = apply_parameter(base, "delta_tau", result.parameters["delta_tau"])
        traj = integrate(cfg)
        fid = fidelity(traj.final_state(), target, float(traj.times[-1]), cfg)
        assert abs(fid - result.fidelity) <= 1e-10
        assert abs(float(traj.p_e[-1]) - result.final_p_e) <= 1e-10

    def test_relative_phase_is_flat_direction_for_pure_g(self):
        base = _fast_base(alpha=1.0, phi=0.0)
        target = qubit_from_amplitudes(1.0, 0.0).amplitudes()
        problem = ControlProblem(target, {"delta_phase": (0.0, 2 * math.pi)}, base)
        from qubitrot.control import _evaluate

        objs = [
            _evaluate(problem, {"delta_phase": v}, rel_tol=0.0)[2]
            for v in (0.0, 1.0, 2.0, 4.0)
        ]
        assert max(objs) - min(objs) <= 1e-9
        # any phase is optimal; the search must still be deterministic
        first = solve(problem, grid_points=7)
        second = solve(problem, grid_points=7)
        assert first.parameters == second.parameters
        assert first.fidelity == second.fidelity

    def test_collapsed_bounds_return_that_point(self):
        base = _fast_base()
        target = _forward_target(apply_parameter(base, "delta_tau", 35.0))
        problem = ControlProblem(target, {"delta_tau": (35.0, 35.0)}, base)
        result = solve(problem)
        assert result.parameters["delta_tau"] == 35.0
        assert result.fidelity >= 0.999999

    def test_objective_invariant_under_target_phase(self):
        base = _fast_base()
        target = _forward_target(apply_parameter(base, "delta_tau", 35.0))
        problem_a = ControlProblem(target, {"delta_tau": (30.0, 40.0)}, base)
        problem_b = ControlProblem(
            target * np.exp(0.9j), {"delta_tau": (30.0, 40.0)}, base
        )
        res_a = solve(problem_a, grid_points=3)
        res_b = solve(problem_b, grid_points=3)
        assert res_a.parameters == pytest.approx(res_b.parameters, abs=1e-10)
        assert res_a.fidelity == pytest.approx(res_b.fidelity, abs=1e-12)

    def test_all_points_failing_raises(self):
        base = _fast_base(chirp_kind="linear", chi=1.0)
        target = np.array([1.0, 0.0])
        problem = ControlProblem(target, {"chi": (1e14, 2e14)}, base)
        with pytest.raises(SolverError):
            solve(problem, grid_points=3)

    def test_failures_are_skipped_not_fatal(self):
        base = _fast_base(chirp_kind="linear", chi=1.0)
        target = _forward_target(apply_parameter(base, "chi", 0.5))
        problem = ControlProblem(target, {"chi": (0.5, 1e14)}, base)
        result = solve(problem, grid_points=2)
        assert result.grid_failures
        assert result.fidelity > 0.9

    def test_worker_count_does_not_change_the_result(self, monkeypatch):
        # two cores, so that the pool runs on a one-core machine too
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        base = _fast_base()
        target = _forward_target(apply_parameter(base, "delta_tau", 35.0))
        chirped = _fast_base(chirp_kind="linear", chi=1.0)
        problems = [
            ControlProblem(target, {"delta_tau": (20.0, 60.0), "ratio_omega": (0.8, 1.2)}, base),
            # one of the two grid points fails
            ControlProblem(target, {"chi": (0.5, 1e14)}, chirped),
        ]
        for problem in problems:
            serial = solve(problem, grid_points=3, workers=1)
            assert solve(problem, grid_points=3, workers=2) == serial
        assert serial.grid_failures

    def test_simplex_integrates_no_point_twice(self, monkeypatch):
        calls = []
        evaluate = control._evaluate

        def recording(problem, values, rel_tol):
            calls.append((tuple(float(v) for v in values.values()), rel_tol))
            return evaluate(problem, values, rel_tol)

        monkeypatch.setattr(control, "_evaluate", recording)
        base = _fast_base()
        target = _forward_target(apply_parameter(base, "delta_tau", 35.0))
        problem = ControlProblem(
            target, {"delta_tau": (20.0, 60.0), "ratio_omega": (0.8, 1.2)}, base
        )
        result = solve(problem, grid_points=3)
        # the last call re-evaluates the returned point at the base tolerances
        assert calls[-1][1] == 0.0
        assert len(set(calls[:-1])) == len(calls) - 1 == result.evaluations - 1


def _scipy_minimize(func, x0, bounds):
    """scipy's bounded Nelder-Mead with the options solve uses."""
    from scipy.optimize import minimize

    options = {"xatol": 1e-4, "fatol": 1e-12, "maxiter": 400}
    return minimize(func, x0=x0, method="Nelder-Mead", bounds=bounds, options=options)


def _scipy_nelder_mead(func, x0, bounds):
    res = _scipy_minimize(func, x0, bounds)
    return res.x, res.fun


def _recorded(minimizer, func, x0, bounds):
    """(bytes of every evaluated point, x, fun) of one minimizer run."""
    points = []

    def recording(x):
        points.append(x.tobytes())
        return func(x)

    x, fun = minimizer(recording, np.array(x0, dtype=float), bounds)
    return points, x, fun


def _assert_same_run(func, x0, bounds):
    ours = _recorded(control._nelder_mead, func, x0, bounds)
    # scipy computes inf - inf once every vertex is infinite, and numpy warns;
    # the port runs outside this block, so it must not
    with np.errstate(invalid="ignore"):
        theirs = _recorded(_scipy_nelder_mead, func, x0, bounds)
    assert ours[0] == theirs[0]
    assert ours[1].tobytes() == theirs[1].tobytes()
    assert np.float64(ours[2]).tobytes() == np.float64(theirs[2]).tobytes()
    return len(ours[0])


def _noise(x) -> float:
    """A deterministic value in [0, 1) for every point: no simplex settles."""
    digest = hashlib.sha256(x.tobytes()).digest()
    return int.from_bytes(digest[:8], "little") / 2**64


class TestNelderMeadPort:
    """control._nelder_mead evaluates the points scipy's bounded Nelder-Mead
    evaluates, in the same order, and returns the same bits."""

    def test_solve_objective_reachable_target(self, monkeypatch):
        base = _fast_base()
        truth = apply_parameter(apply_parameter(base, "delta_tau", 35.0), "ratio_omega", 1.2)
        problem = ControlProblem(
            _forward_target(truth), {"delta_tau": (25.0, 45.0), "ratio_omega": (0.8, 1.6)}, base
        )
        runs = []
        for minimizer in (control._nelder_mead, _scipy_nelder_mead):
            points = []

            def recorder(func, x0, bounds, minimizer=minimizer, points=points):
                recorded, x, fun = _recorded(minimizer, func, x0, bounds)
                points += recorded
                return x, fun

            monkeypatch.setattr(control, "_nelder_mead", recorder)
            runs.append((points, solve(problem, grid_points=3)))
        (ours, result), (theirs, reference) = runs
        assert ours == theirs and len(ours) > 10
        assert result == reference
        assert result.fidelity >= 0.999

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_quadratics(self, dim, seed):
        rng = np.random.default_rng([dim, seed])
        a = rng.normal(size=(dim, dim))
        hessian = a @ a.T + 0.1 * np.eye(dim)
        centre = rng.uniform(-1.0, 2.0, dim)
        lower = rng.uniform(-2.0, 0.0, dim)
        upper = lower + rng.uniform(0.5, 3.0, dim)

        def quadratic(x):
            return float((x - centre) @ hessian @ (x - centre))

        _assert_same_run(quadratic, rng.uniform(lower, upper), list(zip(lower, upper)))

    def test_objective_infinite_on_part_of_the_box(self):
        def walled(x):
            if x[0] > 0.5:
                return math.inf
            return float((x[0] - 0.45) ** 2 + (x[1] - 0.2) ** 2)

        assert _assert_same_run(walled, [0.1, 0.1], [(0.0, 1.0), (0.0, 1.0)]) > 20

    def test_objective_may_overwrite_its_argument(self):
        def overwriting(x):
            value = float(np.sum((x - 0.3) ** 2))
            x[:] = math.nan  # harmless: each call gets a copy of the point
            return value

        _assert_same_run(overwriting, [0.9, 0.1], [(0.0, 1.0)] * 2)

    def test_objective_infinite_everywhere(self):
        assert _assert_same_run(lambda x: math.inf, [0.5, 0.5], [(0.0, 1.0)] * 2) > 400

    @pytest.mark.parametrize(
        "x0, bounds, centre",
        [([1.0], [(0.0, 1.0)], [2.0]), ([1.0, 2.0], [(0.0, 1.0), (-1.0, 2.0)], [0.3, 0.7])],
    )
    def test_start_on_the_upper_bound(self, x0, bounds, centre):
        def quadratic(x):
            return float(np.sum((x - centre) ** 2))

        _assert_same_run(quadratic, x0, bounds)

    def test_stops_at_maxiter(self):
        # a noise objective never meets fatol, so both stop at maxiter
        evaluations = _assert_same_run(_noise, [0.5] * 3, [(0.0, 1.0)] * 3)
        res = _scipy_minimize(_noise, np.full(3, 0.5), [(0.0, 1.0)] * 3)
        assert res.nit == 400 and res.nfev == evaluations


def _assert_same_brent(func, bracket) -> int:
    """Run scipy's bounded Brent, and control._brent started at scipy's first
    point (the golden-section point) with its value; both must evaluate the
    same later points and return the same bits. Returns scipy's evaluations."""
    from scipy.optimize import minimize_scalar

    def recorded(points):
        def call(x):
            points.append(np.float64(x).tobytes())
            return func(x)

        return call

    theirs, ours = [], []
    options = {"xatol": 1e-4, "maxiter": 500}
    # scipy computes inf - inf where func is inf, and overflows on a wide
    # bracket; numpy warns, while the port's Python floats do not
    with np.errstate(invalid="ignore", over="ignore"):
        res = minimize_scalar(recorded(theirs), bounds=bracket, method="bounded", options=options)
    a, b = bracket
    x0 = a + 0.5 * (3.0 - math.sqrt(5.0)) * (b - a)
    assert theirs[0] == np.float64(x0).tobytes()
    x, fun = control._brent(recorded(ours), bracket, x0, func(x0))
    assert ours == theirs[1:]
    assert np.float64(x).tobytes() == np.float64(res.x).tobytes()
    assert np.float64(fun).tobytes() == np.float64(res.fun).tobytes()
    return len(theirs)


class TestBrentPort:
    """control._brent, started where scipy's bounded Brent starts, evaluates
    scipy's later points in the same order and returns the same bits."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_quadratics(self, seed):
        rng = np.random.default_rng(seed)
        centre = rng.uniform(-2.0, 2.0)
        curvature = rng.uniform(0.1, 5.0)
        lower = rng.uniform(-3.0, 0.0)
        bracket = (lower, lower + rng.uniform(0.5, 4.0))
        assert _assert_same_brent(lambda x: curvature * (x - centre) ** 2, bracket) > 5

    def test_objective_infinite_on_part_of_the_bracket(self):
        def walled(x):
            return math.inf if x > 0.5 else (x - 0.45) ** 2

        assert _assert_same_brent(walled, (0.0, 1.0)) > 5

    def test_objective_with_ties(self):
        # few levels, so that new values tie with each of the three points
        def stepped(x):
            return round(math.cos(5.0 * x) / 0.1) * 0.1

        assert _assert_same_brent(stepped, (-2.0, 3.0)) > 5

    def test_stops_after_500_evaluations(self):
        # noise on a V over a bracket so wide that xatol is never reached
        def noisy(x):
            return abs(x) + _noise(np.float64(x))

        assert _assert_same_brent(noisy, (-1e300, 2e300)) == 500


def _synthetic(monkeypatch, objective):
    """Replace the integration behind solve by ``objective(x)`` of the one
    free value; returns the list of points evaluated, in order."""
    calls = []

    def evaluate(problem, values, rel_tol):
        (x,) = values.values()
        calls.append(x)
        value = objective(x)
        if value is None:
            raise control.IntegrationError("synthetic failure", 0.0)
        return value, 0.0, value

    monkeypatch.setattr(control, "_evaluate", evaluate)
    return calls


class TestOneParameterRefinement:
    # a flat objective keeps the first grid point, and a probe that only ties
    # does not move it
    @pytest.mark.parametrize(
        "slope, bound, probe",
        [(1.0, 60.0, 60.0 - 1e-4), (-1.0, 20.0, 20.0 + 1e-4), (0.0, 20.0, 20.0 + 1e-4)],
    )
    def test_optimum_on_a_bound_costs_one_probe(self, monkeypatch, slope, bound, probe):
        calls = _synthetic(monkeypatch, lambda x: slope * x / 100.0)
        problem = ControlProblem(np.array([1.0, 0.0]), {"delta_tau": (20.0, 60.0)}, _fast_base())
        result = solve(problem, grid_points=5)
        assert calls == [20.0, 30.0, 40.0, 50.0, 60.0, probe, bound]
        assert result.parameters == {"delta_tau": bound}
        assert result.evaluations == len(calls) == 7

    def test_a_better_probe_starts_brent(self, monkeypatch):
        calls = _synthetic(monkeypatch, lambda x: -((x - 20.3) ** 2))
        problem = ControlProblem(np.array([1.0, 0.0]), {"delta_tau": (20.0, 60.0)}, _fast_base())
        result = solve(problem, grid_points=5)
        assert calls[5] == 20.0 + 1e-4
        assert abs(result.parameters["delta_tau"] - 20.3) <= 1e-4
        # every point after the grid lies in the bracket of the grid point's neighbour
        assert all(20.0 <= x <= 30.0 for x in calls[5:])
        # the search repeats no point; the last call re-evaluates the result
        assert result.evaluations == len(calls) == len(set(calls)) + 1

    def test_interior_point_is_refined_between_its_neighbours(self, monkeypatch):
        calls = _synthetic(monkeypatch, lambda x: -((x - 43.0) ** 2))
        problem = ControlProblem(np.array([1.0, 0.0]), {"delta_tau": (20.0, 60.0)}, _fast_base())
        result = solve(problem, grid_points=5)
        # Brent starts at the grid point 40 with its grid value, which is not
        # integrated again: its first step is the golden section towards 30
        assert calls[5] == 40.0 - 0.5 * (3.0 - math.sqrt(5.0)) * 10.0
        assert 40.0 not in calls[5:-1]
        assert all(30.0 <= x <= 50.0 for x in calls[5:])
        assert abs(result.parameters["delta_tau"] - 43.0) <= 1e-4

    def test_failed_refinement_points_count_as_infinite(self, monkeypatch, caplog):
        def walled(x):
            return None if x > 41.0 else -((x - 40.8) ** 2)

        calls = _synthetic(monkeypatch, walled)
        problem = ControlProblem(np.array([1.0, 0.0]), {"delta_tau": (20.0, 60.0)}, _fast_base())
        result = solve(problem, grid_points=5)
        assert any(x > 41.0 for x in calls[5:-1])
        assert "refinement point" in caplog.text
        assert abs(result.parameters["delta_tau"] - 40.8) <= 1e-4
        # failed grid points are not counted
        assert len(result.grid_failures) == 2
        assert result.evaluations == len(calls) - 2

    @pytest.mark.parametrize(
        "name, bounds, base",
        [
            ("delta_tau", (25.0, 45.0), _fast_base()),
            ("ratio_omega", (0.5, 1.5), _fast_base(alpha=1.0, phi=0.0)),
            ("T_over_tau", (0.5, 2.5), _fast_base()),
            ("chi", (-1.0, 1.0), _fast_base(chirp_kind="tanh", chi=0.5)),
        ],
    )
    def test_never_below_the_best_grid_point(self, name, bounds, base):
        target = np.array([0.6, 0.8 * np.exp(0.5j)])
        problem = ControlProblem(target, {name: bounds}, base)
        # the grid at the base tolerances, as the result is re-evaluated
        grid = [
            control._evaluate(problem, {name: v}, rel_tol=0.0)[2]
            for v in np.linspace(*bounds, 5)
        ]
        result = solve(problem, grid_points=5, eval_rel_tol=base.rel_tol)
        assert result.objective >= max(grid)

    def test_chirp_with_a_failed_grid_point_on_two_workers(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        base = _fast_base(chirp_kind="linear", chi=1.0)
        target = _forward_target(apply_parameter(base, "chi", 0.5))
        problem = ControlProblem(target, {"chi": (0.5, 1e14)}, base)
        serial = solve(problem, grid_points=2, workers=1)
        assert solve(problem, grid_points=2, workers=2) == serial
        assert len(serial.grid_failures) == 1
        # one grid point, one probe inside the lower bound, one final run
        assert serial.evaluations == 3
        assert serial.parameters == {"chi": 0.5}

    def test_search_style_problem_costs_at_most_12_integrations(self):
        base = _fast_base()
        target = _forward_target(apply_parameter(base, "delta_tau", 35.0))
        problem = ControlProblem(target, {"delta_tau": (32.0, 38.0)}, base)
        result = solve(problem, grid_points=5)
        assert result.evaluations <= 12
        assert result.fidelity >= 0.999999
