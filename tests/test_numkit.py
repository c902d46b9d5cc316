"""Unit tests for the shared numerical toolkit."""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

import opinionkit as ok
from helpers import (
    reference_augmented_system,
    reference_equilibrium_system,
    reference_simplex,
    reference_solve_l1,
    reference_spark,
)
from opinionkit import numkit
from opinionkit.numkit import (
    DENSE_MAX_N,
    PINV_RCOND,
    L1Problem,
    minimal_band,
    unique_nonneg_solution,
)


def test_philox_stream_is_reproducible():
    a = ok.philox_stream(42).random(8)
    b = ok.philox_stream(42).random(8)
    assert np.array_equal(a, b)


def test_philox_stream_spawn_keys_are_independent():
    root = ok.philox_stream(42).random(8)
    child = ok.philox_stream(42, 0).random(8)
    other = ok.philox_stream(42, 1).random(8)
    assert not np.array_equal(root, child)
    assert not np.array_equal(child, other)


def test_solve_l1_square_system_is_exact():
    res = ok.solve_l1(L1Problem(phi=np.eye(2), psi=np.array([1.0, -2.0])))
    assert res.ok
    assert np.allclose(res.x, [1.0, -2.0], atol=1e-9)


def test_solve_l1_prefers_the_sparse_solution():
    # col 2 alone explains psi with l1 mass 0.6; any mix of cols 0 and 1
    # needs 0.84, so the minimizer must be the 1-sparse vector.
    phi = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]])
    z = np.array([0.0, 0.0, 0.6])
    res = ok.solve_l1(L1Problem(phi=phi, psi=phi @ z))
    assert res.ok
    assert np.allclose(res.x, z, atol=1e-8)


def test_solve_l1_sum_constraint_holds():
    phi = np.array([[1.0, 2.0, 3.0]])
    res = ok.solve_l1(L1Problem(phi=phi, psi=np.array([2.0]), sum_to=1.0))
    assert res.ok
    assert abs(res.x.sum() - 1.0) < 1e-9
    assert abs(phi @ res.x - 2.0).max() < 1e-9


def test_solve_l1_nonneg_excludes_signed_solutions():
    phi = np.array([[1.0, 1.0]])
    psi = np.array([-1.0])
    free = ok.solve_l1(L1Problem(phi=phi, psi=psi))
    cone = ok.solve_l1(L1Problem(phi=phi, psi=psi, nonneg=True))
    assert free.ok
    assert not cone.ok


@pytest.mark.parametrize(
    "weights, lo, hi, psi, expected",
    [
        # x1 pinned to 0.7 by lo == hi; NaN leaves x0 free to close the gap
        (None, [np.nan, 0.7], [np.nan, 0.7], 1.0, [0.3, 0.7]),
        # a free x1 in [-0.5, 0.25] takes as much of psi as its box allows,
        # on either side of zero
        ([1.0, 0.0], [np.nan, -0.5], [np.nan, 0.25], 1.0, [0.75, 0.25]),
        ([1.0, 0.0], [np.nan, -0.5], [np.nan, 0.25], -1.0, [-0.5, -0.5]),
    ],
    ids=["pinned", "mixed-sign-upper", "mixed-sign-lower"],
)
def test_solve_l1_box_bounds_pin_variables(weights, lo, hi, psi, expected):
    res = ok.solve_l1(
        L1Problem(
            phi=np.array([[1.0, 1.0]]), psi=np.array([psi]), weights=weights,
            lo=np.array(lo), hi=np.array(hi),
        )
    )
    assert res.ok
    assert np.allclose(res.x, expected, rtol=0.0, atol=1e-9)


def test_solve_l1_nonneg_negative_upper_bound_is_infeasible():
    # x0 <= -1 has solutions only off the nonnegative cone
    problem = dict(
        phi=np.array([[1.0, 1.0]]), psi=np.array([0.0]),
        hi=np.array([-1.0, np.nan]),
    )
    signed = ok.solve_l1(L1Problem(**problem))
    assert signed.ok
    assert signed.x[0] <= -1.0 + 1e-9
    assert not ok.solve_l1(L1Problem(**problem, nonneg=True)).ok


def test_solve_l1_band_admits_a_sparser_solution():
    # with x2 at half price, equality needs x = (0, 0.1, 1); a band of 0.05
    # lets x2 = 1.05 explain both rows alone
    phi = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    psi = np.array([1.0, 1.1])
    weights = np.array([1.0, 1.0, 0.5])
    exact = ok.solve_l1(L1Problem(phi=phi, psi=psi, weights=weights))
    banded = ok.solve_l1(L1Problem(phi=phi, psi=psi, weights=weights, band=0.05))
    assert exact.ok and banded.ok
    assert np.allclose(exact.x, [0.0, 0.1, 1.0], rtol=0.0, atol=1e-9)
    assert np.allclose(banded.x, [0.0, 0.0, 1.05], rtol=0.0, atol=1e-9)
    assert banded.residual <= 0.05 + 1e-12


@pytest.mark.parametrize(
    "tie_weights, expected", [([2.0, 1.0], [0.0, 1.0]), ([1.0, 2.0], [1.0, 0.0])]
)
def test_solve_l1_tie_weights_decide_between_optima(tie_weights, expected):
    # every point of the segment x0 + x1 = 1, x >= 0 has l1 mass 1; the
    # tie cost is positive everywhere on it, so the second solve always runs
    res = ok.solve_l1(
        L1Problem(
            phi=np.array([[1.0, 1.0]]), psi=np.array([1.0]), nonneg=True,
            tie_weights=np.array(tie_weights),
        )
    )
    assert res.ok
    assert np.allclose(res.x, expected, rtol=0.0, atol=1e-9)
    assert res.solver_log["tie_break"] == "lexicographic"


def test_solve_l1_iterations_count_both_stages():
    # columns 4 and 5 are equal and free of cost, so the optimum may put
    # the unit on either; a tie cost on the column HiGHS chose moves it to
    # the other in a second solve whose pivots add to the first's
    phi = np.random.default_rng(0).normal(size=(3, 6))
    phi[:, 5] = phi[:, 4]
    weights = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    problem = dict(
        phi=phi, psi=phi @ [0.5, 0, 0, 0, 1, 0], nonneg=True, weights=weights
    )
    plain = ok.solve_l1(L1Problem(**problem))
    chosen = 4 + int(np.argmax(plain.x[4:]))
    tied = ok.solve_l1(L1Problem(**problem, tie_weights=np.eye(6)[chosen]))
    assert plain.ok and tied.ok
    assert tied.solver_log["tie_break"] == "lexicographic"
    expected = np.array([0.5, 0, 0, 0, 0, 0])
    expected[9 - chosen] = 1.0
    assert np.allclose(tied.x, expected, rtol=0.0, atol=1e-9)
    assert tied.solver_log["iterations"] > plain.solver_log["iterations"]


def test_highs_presolves_exactly_the_lps_with_inequality_rows(monkeypatch):
    presolve = []

    def recorded(*args, options, **kwargs):
        presolve.append(options["presolve"])
        return linprog(*args, options=options, **kwargs)

    monkeypatch.setattr(numkit, "linprog", recorded)
    phi = np.random.default_rng(0).normal(size=(3, 6))
    phi[:, 5] = phi[:, 4]
    problem = dict(phi=phi, psi=phi @ [0.5, 0, 0, 0, 1, 0], nonneg=True,
                   weights=np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]))
    cases = [
        (L1Problem(**problem), [False]),  # equality form, one stage
        (L1Problem(**problem, band=0.1), [True]),  # band rows
        (L1Problem(**problem, tie_weights=np.ones(6)), [False, True]),  # stage 2's cost row
    ]
    for lp, expected in cases:
        presolve.clear()
        assert ok.solve_l1(lp).ok
        assert presolve == expected
    presolve.clear()
    minimal_band(L1Problem(**problem))
    assert presolve == [True]


def test_minimal_band_hand_instance():
    # one unknown must sit within the band of both 0 and 1
    problem = L1Problem(phi=np.array([[1.0], [1.0]]), psi=np.array([0.0, 1.0]))
    assert minimal_band(problem) == pytest.approx(0.5, abs=1e-12)


def test_solve_l1_zero_weight_frees_a_coordinate():
    # with the cost of x1 zeroed, mass moves onto it even though x0 would
    # otherwise be the cheaper explanation
    phi = np.array([[1.0, 1.0]])
    psi = np.array([1.0])
    weights = np.array([1.0, 0.0])
    res = ok.solve_l1(L1Problem(phi=phi, psi=psi, weights=weights))
    assert res.ok
    assert abs(res.x[1] - 1.0) < 1e-8
    assert abs(res.x[0]) < 1e-8


def test_solve_l1_reports_infeasibility():
    phi = np.array([[1.0, 1.0], [1.0, 1.0]])
    psi = np.array([0.0, 1.0])
    res = ok.solve_l1(L1Problem(phi=phi, psi=psi))
    assert not res.ok


def test_nonneg_solution_without_a_kernel_is_unique():
    # q = 0: the square system has one solution, and it is nonnegative
    verdict, z = unique_nonneg_solution([[2.0, 0.0], [1.0, 1.0]], [1.0, 1.0])
    assert verdict == "unique"
    assert np.allclose(z, [0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize(
    "a, b",
    [
        # z_0 + z_1 = 0.5 splits freely between the two equal columns
        ([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.5, 0.5]),
        # NNLS puts all of z_0 + z_1 = 1 on one column, so the duplicate
        # sits in the zero set
        ([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]], [1.0, 0.0, 1.0]),
    ],
)
def test_nonneg_solution_on_duplicate_columns_is_tied(a, b):
    verdict, z = unique_nonneg_solution(a, b)
    assert verdict == "tied" and z is None


def test_nonneg_solution_with_only_a_negative_solution_is_infeasible():
    verdict, z = unique_nonneg_solution([[1.0, 0.0], [1.0, 1.0]], [-0.5, 1.0])
    assert verdict == "infeasible" and z is None


def test_nonneg_solution_at_a_vertex_of_a_wide_system_is_unique():
    # the rows force z_0 = 1 and z_1 + z_2 = 0: the kernel (0, 1, -1) is
    # not trivial, but nonnegativity leaves e_0 as the only point
    a = [[3.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
    verdict, z = unique_nonneg_solution(a, [3.0, 1.0])
    assert verdict == "unique"
    assert np.allclose(z, [1.0, 0.0, 0.0], atol=1e-15)
    # moving b off that vertex opens a segment of solutions
    assert unique_nonneg_solution(a, [2.0, 1.0])[0] == "tied"


def test_zero_as_the_only_nonneg_solution_is_unique():
    # independent columns: a z = 0 holds z = 0 alone (Gordan: lam = (2, -1)
    # gives a' lam = (1, 3) > 0)
    verdict, z = unique_nonneg_solution([[1.0, 1.0], [1.0, 2.0]], [0.0, 0.0])
    assert verdict == "unique" and np.array_equal(z, [0.0, 0.0])
    # a single row with positive entries: z_0 + 2 z_1 = 0 forces z = 0
    assert unique_nonneg_solution([[1.0, 2.0]], [0.0])[0] == "unique"


@pytest.mark.parametrize("a", [[[1.0, -1.0]], [[0.0, 0.0]], [[1.0, -1.0], [2.0, -2.0]]])
def test_zero_with_a_nonneg_kernel_direction_is_tied(a):
    # (1, 1) solves every system here, so P is a ray and no lam has a' lam > 0
    verdict, z = unique_nonneg_solution(a, np.zeros(len(a)))
    assert verdict == "tied" and z is None


def test_square_support_with_a_zero_column_is_tied_after_one_nnls(monkeypatch):
    # z = (1 - t, 2 - t, t) solves the system for t in [0, 1]; NNLS stops at
    # a vertex, whose support fills both rows and leaves a zero column
    real, points = numkit.nnls, []

    def counted(a, b):
        z, residual = real(a, b)
        points.append(z)
        return z, residual

    monkeypatch.setattr(numkit, "nnls", counted)
    verdict, z = unique_nonneg_solution([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [1.0, 2.0])
    assert verdict == "tied" and z is None
    assert len(points) == 1
    assert np.count_nonzero(points[0] > numkit.STRUCTURAL_ZERO) == 2


def test_nonneg_solution_without_columns_is_unique_iff_b_is_zero():
    # scipy's nnls aborted the process on a system with no columns, so the
    # calls run in a child: a crash there fails this test instead of pytest
    code = (
        "import numpy as np\n"
        "from opinionkit.numkit import unique_nonneg_solution\n"
        "for b in (np.ones(3), [0.0, 1e-3, 0.0], np.zeros(3)):\n"
        "    verdict, z = unique_nonneg_solution(np.zeros((3, 0)), b)\n"
        "    print(verdict, None if z is None else z.shape)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(numkit.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["infeasible None", "infeasible None", "unique (0,)"]


# The wide system above as an l1 program: ||x||_1 >= 1'x = 1, with equality
# exactly on the nonnegative feasible points, of which e_0 is the only one.
VERTEX = dict(phi=np.array([[3.0, 1.0, 1.0]]), psi=np.array([3.0]), sum_to=1.0)
# weights equal to the first row of phi: x_2 is free of cost, and x_0 in
# [0, 0.5] with x_1 = 1 - x_0, x_2 = 0.5 - x_0 are its nonnegative points
UNPRICED = dict(phi=np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]]), psi=np.array([1.0, 0.5]),
                weights=np.array([1.0, 1.0, 0.0]))
NAN = np.nan


@pytest.mark.parametrize("extra", [
    {},
    {"nonneg": True},
    # a priced coordinate with a negative lo keeps the shift 0, not lo
    {"lo": np.array([NAN, -0.5, NAN])},
    # pinned coordinates move to b; a positive lo shifts its coordinate
    {"phi": np.array([[3.0, 1.0, 1.0, 2.0]]), "psi": np.array([4.25]), "sum_to": 1.75,
     "lo": np.array([NAN, NAN, 0.25, 0.5]), "hi": np.array([NAN, NAN, NAN, 0.5])},
])
def test_solve_l1_certifies_a_unique_nonnegative_optimum(extra):
    problem = L1Problem(**{**VERTEX, **extra})
    res = ok.solve_l1(problem)
    assert res.ok and res.solver_log["method"] == "nnls"
    assert res.solver_log["certificate"] == "unique" and res.solver_log["iterations"] == 0
    assert np.max(np.abs(res.x - reference_solve_l1(problem))) <= 1e-12
    assert res.objective == pytest.approx(np.abs(res.x).sum(), abs=0.0)


# Each program breaks one clause of the certificate's rule; the second is
# the same program with that clause kept, which the certificate decides.
PINNED_LOW = {"lo": np.array([NAN, NAN, -0.5]), "hi": np.array([NAN, NAN, -0.5])}
UNPRICED_LO = {**UNPRICED, "lo": np.array([NAN, NAN, 0.0])}


@pytest.mark.parametrize("breached, kept, verdict", [
    ({**VERTEX, "band": 0.1}, VERTEX, "unique"),
    ({**VERTEX, "tie_weights": np.array([0.0, 1.0, 1.0])}, VERTEX, "unique"),
    ({**VERTEX, "hi": np.array([NAN, 5.0, NAN])}, VERTEX, "unique"),
    ({**VERTEX, "weights": np.array([1.0, 2.0, 1.0])}, VERTEX, "unique"),
    (UNPRICED, UNPRICED_LO, "tied"),
    ({**UNPRICED, "lo": np.array([NAN, NAN, -1.0])}, UNPRICED_LO, "tied"),
    ({**VERTEX, **PINNED_LOW, "nonneg": True}, {**VERTEX, **PINNED_LOW}, "unique"),
], ids=["band", "tie-weights", "upper-bound", "weights-not-a-row", "signed-unpriced-free",
        "signed-unpriced-negative-lo", "nonneg-negative-pin"])
def test_solve_l1_leaves_programs_outside_the_certificate_to_highs(breached, kept, verdict):
    res = ok.solve_l1(L1Problem(**breached))
    assert res.solver_log["method"] == "highs" and res.solver_log["certificate"] is None
    assert res.ok == (not breached.get("nonneg", False))  # a negative pin is infeasible
    assert ok.solve_l1(L1Problem(**kept)).solver_log["certificate"] == verdict


def _no_lp(*args):
    raise AssertionError("the program reached HiGHS")


@pytest.mark.parametrize("problem, tie_break, expected", [
    # one feasible point, e_0, under a cost that is not constant on the cone
    ({**VERTEX, "nonneg": True, "weights": np.array([1.0, 2.0, 5.0])}, "unique", [1, 0, 0]),
    ({**VERTEX, "nonneg": True, "tie_weights": np.array([0.0, 1.0, 1.0])}, "unique", [1, 0, 0]),
    # a signed program whose lower bounds are all >= 0 is nonnegative too
    ({**VERTEX, "weights": np.array([1.0, 2.0, 5.0]), "lo": np.zeros(3)}, "unique", [1, 0, 0]),
    # a segment of feasible points; pricing x_0 and tie-pricing x_1 leaves e_2
    (dict(phi=np.array([[1.0, 1.0, 1.0]]), psi=np.array([1.0]), nonneg=True,
          weights=np.array([1.0, 0.0, 0.0]), tie_weights=np.array([0.0, 1.0, 0.0])),
     "zero-cost", [0, 0, 1]),
], ids=["feasible-point", "feasible-point-tie-weights", "signed-lo", "zero-cost"])
def test_solve_l1_certifies_a_face_of_a_nonnegative_program_without_highs(
    monkeypatch, problem, tie_break, expected
):
    monkeypatch.setattr(numkit, "_highs", _no_lp)
    res = ok.solve_l1(L1Problem(**problem))
    assert res.ok and res.solver_log["method"] == "nnls" and res.solver_log["iterations"] == 0
    assert res.solver_log["tie_break"] == tie_break and res.solver_log["certificate"] == "unique"
    assert np.max(np.abs(res.x - expected)) <= 1e-12
    if "tie_weights" not in problem:
        monkeypatch.undo()
        assert np.max(np.abs(res.x - reference_solve_l1(L1Problem(**problem)))) <= 1e-12


def test_solve_l1_sends_a_face_point_above_an_upper_bound_to_highs():
    # e_0 is the only nonnegative point; x_0 <= 0.5 leaves none
    problem = L1Problem(**{**VERTEX, "nonneg": True, "hi": np.array([0.5, NAN, NAN])})
    res = ok.solve_l1(problem)
    assert res.solver_log["method"] == "highs" and res.solver_log["certificate"] == "infeasible"
    assert res.status == "infeasible"


@pytest.mark.parametrize("bound, method", [(0.5, "nnls"), (0.5 - 1e-14, "nnls"),
                                           (0.5 - 1e-9, "highs")])
def test_solve_l1_returns_a_face_point_only_within_its_upper_bounds(bound, method):
    # (0.5, 0.5) is the one feasible point. Where it breaks x_0's bound, the
    # face is offered again with x_0 at the bound: 1e-14 below, the point
    # there is within the certificate's NNLS_RESIDUAL_MAX and is returned;
    # 1e-9 below, it is not, and the program goes to HiGHS
    problem = L1Problem(phi=np.array([[1.0, 2.0]]), psi=np.array([1.5]), sum_to=1.0,
                        nonneg=True, hi=np.array([bound, NAN]))
    res = ok.solve_l1(problem)
    assert res.solver_log["method"] == method
    if method == "nnls":
        assert res.ok and res.x[0] <= bound
        assert np.max(np.abs(res.x - 0.5)) <= 1e-12


@pytest.mark.parametrize("nonneg, lo", [(True, [0.25, NAN]), (False, [0.25, 0.0])])
def test_solve_l1_keeps_a_priced_coordinate_at_its_positive_lower_bound(nonneg, lo):
    # x_0 costs, x_1 does not: the zero-cost face holds x_0 at its least
    # value 0.25, never at 0, which its lower bound forbids
    problem = L1Problem(phi=np.array([[1.0, 1.0]]), psi=np.array([1.0]), nonneg=nonneg,
                        weights=np.array([1.0, 0.0]), lo=np.array(lo))
    res = ok.solve_l1(problem)
    assert res.ok and res.solver_log["tie_break"] == "zero-cost"
    assert res.x[0] >= 0.25 and np.max(np.abs(res.x - [0.25, 0.75])) <= 1e-15
    assert np.max(np.abs(res.x - reference_solve_l1(problem))) <= 1e-12


# Beale's cycling example, min -b'y over two degenerate rows, y6 <= 1 and
# y >= 0 with b = (3/4, -20, 1/2, -6), as the dual of min c'z over a z = b,
# z >= 0: the columns of a are Beale's three rows, then -I for y >= 0, and
# c (>= 0, five of its seven entries 0) their right-hand sides. Without
# Bland's rule the dual simplex cycles on it, as the primal simplex does on
# Beale's program by Dantzig's rule. min c'z = 5/4 at a single vertex.
BEALE_DUAL = (
    np.array([[0.25, 0.5, 0.0, -1.0, 0.0, 0.0, 0.0],
              [-8.0, -12.0, 0.0, 0.0, -1.0, 0.0, 0.0],
              [-1.0, -0.5, 1.0, 0.0, 0.0, -1.0, 0.0],
              [9.0, 3.0, 0.0, 0.0, 0.0, 0.0, -1.0]]),
    np.array([0.75, -20.0, 0.5, -6.0]),
    np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
)


@pytest.mark.parametrize("stall", [numkit.SIMPLEX_STALL, 0])
def test_simplex_leaves_a_dual_cycle_by_blands_rule(monkeypatch, stall):
    # The largest infeasibility alone cycles among dual-degenerate bases
    # until the pivot cap; the switch to Bland's rule, after SIMPLEX_STALL
    # zero-length dual steps or from the first pivot, reaches the optimum
    a, b, c = BEALE_DUAL
    monkeypatch.setattr(numkit, "SIMPLEX_STALL", stall)
    (z, pivots), = numkit._simplex(a, b[None], c)
    oracle = linprog(c, A_eq=a, b_eq=b, bounds=(0.0, None), method="highs")
    assert np.max(np.abs(z - oracle.x)) <= 1e-12 and c @ z == pytest.approx(1.25, abs=1e-12)
    assert pivots < 50
    monkeypatch.setattr(numkit, "SIMPLEX_STALL", numkit.SIMPLEX_MAX_PIVOTS)
    assert numkit._simplex(a, b[None], c) == [(None, numkit.SIMPLEX_MAX_PIVOTS)]


@pytest.mark.parametrize("stall", [numkit.SIMPLEX_STALL, numkit.SIMPLEX_MAX_PIVOTS])
def test_simplex_rows_in_one_batch_return_what_each_returns_alone(monkeypatch, stall):
    # Beale's dual-cycle b (cycling to the cap when Bland's rule never takes
    # over), an empty set and ordinary rows share a and c and pivot in
    # lockstep; rows that end early leave the batch, and no row's vertex,
    # bits or pivots depend on its batch-mates or its place among them, or
    # differ from the one-program simplex the batch replaced
    a, beale, c = BEALE_DUAL
    rng = np.random.default_rng(5)
    ordinary = [a @ (rng.uniform(0, 1, 7) * (rng.uniform(0, 1, 7) < 0.5)) for _ in range(4)]
    empty = np.array([0.0, 1.0, 0.0, 0.0])  # every column of a has a_2j <= 0
    b = np.array([ordinary[0], beale, ordinary[1], empty, *ordinary[2:]])
    monkeypatch.setattr(numkit, "SIMPLEX_STALL", stall)
    alone = [numkit._simplex(a, row[None], c)[0] for row in b]
    assert all(alone[i][0] is not None for i in (0, 2, 4, 5)) and alone[3] == (None, 0)
    if stall == numkit.SIMPLEX_MAX_PIVOTS:
        assert alone[1] == (None, numkit.SIMPLEX_MAX_PIVOTS)
    orders = [list(range(6)), list(range(6))[::-1], *map(list, combinations(range(6), 2))]
    for order in [[i] for i in range(6)] + orders:
        for i, (z, pivots) in zip(order, numkit._simplex(a, b[order], c)):
            expected, expected_pivots = reference_simplex(a, b[i], c)
            assert pivots == expected_pivots and (z is None) == (expected is None)
            assert z is None or z.tobytes() == expected.tobytes()


def test_simplex_needs_a_nonnegative_cost():
    # A negative cost breaks the start basis's dual feasibility: the
    # simplex returns a feasible vertex, (1, 0) at cost 0, not the
    # minimizer (0, 1) at cost -1
    (z, pivots), = numkit._simplex(np.array([[1.0, 1.0]]), np.array([[1.0]]),
                                   np.array([0.0, -1.0]))
    assert z.tolist() == [1.0, 0.0] and pivots == 1


def test_simplex_reports_an_empty_set():
    # z_0 - z_1 = -1 and z_0 + z_1 = -1 have no nonnegative solution
    (z, _), = numkit._simplex(np.array([[1.0, -1.0], [1.0, 1.0]]), np.array([[-1.0, -1.0]]),
                              np.array([1.0, 1.0]))
    assert z is None


# x_1 + 2 x_2 = 1/2 and 1'x = 1 over x >= 0 is the segment (1/2 + t,
# 1/2 - 2t, t), t in [0, 1/4], on which ||x||_1 = 1. The squared column
# norms (1, 2, 5) price it at 3/2 + 2t, so the least-moment point is t = 0;
# HiGHS's vertex is the other end, (3/4, 0, 1/4).
SEGMENT = dict(phi=np.array([[0.0, 1.0, 2.0]]), psi=np.array([0.5]), sum_to=1.0)


@pytest.mark.parametrize("nonneg", [False, True])
def test_solve_l1_takes_the_certified_least_moment_point_of_a_tied_row(monkeypatch, nonneg):
    monkeypatch.setattr(numkit, "_highs", _no_lp)
    res = ok.solve_l1(L1Problem(**SEGMENT, nonneg=nonneg))
    assert res.ok and res.solver_log["method"] == "simplex"
    assert res.solver_log["tie_break"] == "least-moment" and res.solver_log["certificate"] == "tied"
    assert res.solver_log["iterations"] > 0
    assert np.max(np.abs(res.x - [0.5, 0.5, 0.0])) <= 1e-15


def test_solve_l1_sends_a_row_past_the_pivot_cap_to_highs(monkeypatch):
    problem = L1Problem(**SEGMENT)
    monkeypatch.setattr(numkit, "SIMPLEX_MAX_PIVOTS", 1)
    res = ok.solve_l1(problem)
    assert res.ok and res.solver_log["method"] == "highs"
    assert res.solver_log["tie_break"] == "solver-vertex" and res.solver_log["certificate"] == "tied"
    x, _, log = numkit._highs_l1(problem, *numkit._parsed(problem))
    assert res.x.tobytes() == x.tobytes() and res.solver_log["iterations"] == log["iterations"]


def _captured_rows(monkeypatch, estimate):
    """The l1 programs an estimator hands to solve_l1_rows, in row order."""
    problems = []

    def solve(rows):
        problems.extend(rows)
        return numkit.solve_l1_rows(problems)

    monkeypatch.setattr(ok.identify, "solve_l1_rows", solve)
    estimate()
    return problems


@pytest.mark.parametrize("nonneg", [False, True])
def test_derived_systems_match_the_hand_built_ones(monkeypatch, nonneg):
    net = ok.generate_network(
        ok.GeneratorConfig(model="watts_strogatz", n=12, k=4, beta_rw=0.3,
                           lambda_range=(0.3, 0.8)),
        seed=4,
    )
    x0 = np.random.default_rng(4).uniform(-1.0, 1.0, (12, 8))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    rows = _captured_rows(
        monkeypatch, lambda: ok.identify_infinite_horizon(x0, x_inf, net.lam, nonneg=nonneg)
    )
    for problem in rows:
        _, rows, rhs, base, moving = next(numkit._faces(problem, *numkit._parsed(problem)))
        a, b = rows[:, moving], rhs - rows @ base
        ref_a, ref_b = reference_equilibrium_system(x_inf, problem.psi)
        assert a.tobytes() == ref_a.tobytes() and b.tobytes() == ref_b.tobytes()
    rows = _captured_rows(
        monkeypatch, lambda: ok.identify_unknown_lambda(x0, x_inf, nonneg=nonneg)
    )
    for j, problem in enumerate(rows):
        _, rows, rhs, base, moving = next(numkit._faces(problem, *numkit._parsed(problem)))
        a, b = rows[:, moving], rhs - rows @ base
        ref_a, ref_b = reference_augmented_system(x0, x_inf, j)
        assert a.tobytes() == ref_a.tobytes()
        # b is x_j(0) - d here and x_j(inf) by hand: equal up to rounding
        assert np.max(np.abs(b - ref_b)) <= 1e-15
        # w_jj is pinned at 0 and mu starts from its lower bound 1
        assert np.array_equal(moving, np.arange(13) != j)
        assert np.array_equal(base, np.eye(13)[12])


@given(st.integers(0, 10_000))
def test_pseudoinverse_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 6))
    assert np.allclose(
        ok.pseudoinverse(a), np.linalg.pinv(a, rcond=PINV_RCOND), atol=1e-10
    )


def test_pseudoinverse_handles_rank_deficiency():
    a = np.outer([1.0, 2.0], [3.0, 4.0, 5.0])
    pinv = ok.pseudoinverse(a)
    assert np.allclose(a @ pinv @ a, a, atol=1e-10)


def test_spark_hand_instance():
    phi = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    assert ok.spark(phi) == 3


def test_spark_duplicate_columns():
    phi = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
    assert ok.spark(phi) == 2


def test_spark_zero_column():
    phi = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert ok.spark(phi) == 1


def test_spark_of_independent_columns_is_count_plus_one():
    assert ok.spark(np.eye(4)) == 5


def test_spark_generic_wide_matrix():
    phi = np.random.default_rng(3).normal(size=(3, 5))
    assert ok.spark(phi) == 4


@pytest.mark.parametrize("chunk", [1, 7, numkit.SPARK_CHUNK])
def test_spark_matches_the_per_subset_reference(monkeypatch, chunk):
    monkeypatch.setattr(numkit, "SPARK_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    low_rank = rng.normal(size=(7, 3)) @ rng.normal(size=(3, 10))
    duplicate = rng.normal(size=(5, 9))
    duplicate[:, 8] = duplicate[:, 3]
    sum_of_three = rng.normal(size=(6, 10))
    sum_of_three[:, 9] = sum_of_three[:, 0] - sum_of_three[:, 4] + sum_of_three[:, 7]
    instances = [rng.normal(size=(4, 9)), rng.normal(size=(9, 7)), low_rank, duplicate]
    for phi in instances + [sum_of_three, np.zeros((3, 4))]:
        for tol in (None, 0.5):
            assert ok.spark(phi, tol=tol) == reference_spark(phi, tol=tol)


def test_spark_capacity_guard():
    phi = np.random.default_rng(0).normal(size=(5, 25))
    with pytest.raises(ok.CapacityError):
        ok.spark(phi)


def test_recovery_conditions_consistency():
    rng = np.random.default_rng(201)
    phi = rng.normal(size=(10, 12))
    diag = ok.check_recovery_conditions(phi, s=2)
    assert diag.m == 10 and diag.n == 12 and diag.s == 2
    assert diag.spark_ok == (diag.spark > 4)
    assert diag.sample_bound > 0


def test_recovery_conditions_detect_dependent_columns():
    rng = np.random.default_rng(42)
    phi = rng.normal(size=(6, 12))
    phi[:, 7] = phi[:, 2]
    diag = ok.check_recovery_conditions(phi, s=2)
    assert diag.spark == 2
    assert not diag.spark_ok
    assert not diag.nsp_ok


def test_recovery_sample_bound_grows_with_sparsity():
    phi = np.random.default_rng(7).normal(size=(10, 12))
    b2 = ok.check_recovery_conditions(phi, s=2).sample_bound
    b4 = ok.check_recovery_conditions(phi, s=4).sample_bound
    assert b4 > b2


@given(st.integers(0, 10_000))
def test_spectral_radius_matches_dense_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    a = rng.uniform(0.0, 1.0, (n, n))
    expected = np.max(np.abs(np.linalg.eigvals(a)))
    assert abs(ok.spectral_radius(a) - expected) < 1e-8 * max(1.0, expected)


def test_spectral_radius_of_permutation_matrix():
    # periodic structure: plain power iteration would not converge here
    p = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert abs(ok.spectral_radius(p) - 1.0) < 1e-10


def _ws_coupling(n, seed):
    config = ok.GeneratorConfig(
        model="watts_strogatz", n=n, k=6, beta_rw=0.2, lambda_range=(0.3, 0.8)
    )
    net = ok.generate_network(config, seed=seed)
    return net.lam[:, None] * net.w


def _stubborn_hierarchy(n, rng, max_parents):
    """Lambda W of a hierarchy: agent 0 is fully stubborn and every other
    agent listens to up to max_parents earlier agents, so the matrix is
    strictly lower triangular (reducible, nilpotent, radius 0)."""
    coupling = np.zeros((n, n))
    for i in range(1, n):
        parents = rng.choice(i, size=min(i, int(rng.integers(1, max_parents + 1))),
                             replace=False)
        weights = rng.uniform(0.2, 1.0, parents.size)
        coupling[i, parents] = rng.uniform(0.3, 1.0) * weights / weights.sum()
    return coupling


def _spectrum_case(family, n, seed):
    rng = np.random.default_rng(seed)
    if family == "watts_strogatz":
        return _ws_coupling(n, seed)
    if family == "stubborn_hierarchy":
        return _stubborn_hierarchy(n, rng, max_parents=3)
    if family == "cycle":
        return rng.uniform(0.1, 1.0) * np.roll(np.eye(n), 1, axis=1)
    if family == "zero":
        return np.zeros((n, n))
    return rng.normal(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.03)


@settings(max_examples=30)
@given(
    family=st.sampled_from(
        ["watts_strogatz", "stubborn_hierarchy", "cycle", "zero", "signed"]
    ),
    n=st.sampled_from([DENSE_MAX_N, DENSE_MAX_N + 1, 250]),
    seed=st.integers(0, 10_000),
    as_csr=st.booleans(),
)
def test_spectral_radius_agrees_with_dense_eigenvalues_across_the_cutoff(
    family, n, seed, as_csr
):
    matrix = _spectrum_case(family, n, seed)
    expected = float(np.max(np.abs(np.linalg.eigvals(matrix))))
    got = ok.spectral_radius(sparse.csr_array(matrix) if as_csr else matrix)
    assert abs(got - expected) <= 1e-10 * expected + 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectral_radius_of_a_stubborn_tree_is_zero(seed):
    # One parent per agent: ARPACK alone converges to a nonzero modulus
    # here; its eigenvector has zeros, so the certificate stays open.
    matrix = _stubborn_hierarchy(250, np.random.default_rng(seed), max_parents=1)
    assert abs(ok.spectral_radius(matrix)) <= 1e-12


def test_spectral_radius_reruns_are_bit_identical():
    coupling = sparse.csr_array(_ws_coupling(1000, seed=11))
    first, second = ok.spectral_radius(coupling), ok.spectral_radius(coupling)
    assert np.float64(first).tobytes() == np.float64(second).tobytes()
    assert 0.3 < first < 0.8
