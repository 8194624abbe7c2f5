import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from gapcg.simplex import SimplexSolver, UnboundedError


def two_phase(A, b, c, ubs):
    """Drive the solver through an explicit artificial phase, then real costs.

    Every finite bound ``x_j <= u_j`` becomes a row ``x_j + s_j = u_j`` with
    its own slack column, so the solver sees a plain ``x >= 0`` LP.
    """
    m, n = A.shape
    bounded = np.flatnonzero(np.isfinite(ubs))
    k = len(bounded)
    A = np.vstack([np.hstack([A, np.zeros((m, k))]),
                   np.hstack([np.eye(n)[bounded], np.eye(k)])])
    b = np.concatenate([b, ubs[bounded]])
    lp = SimplexSolver(b)
    for j in range(n + k):
        lp.add_column(A[:, j], 0.0)
    arts = []
    for r in range(m + k):
        e = np.zeros(m + k)
        e[r] = 1.0 if b[r] >= 0 else -1.0
        arts.append(lp.add_column(e, 1.0))
    lp.set_basis(arts)
    lp.solve()
    if lp.objective() > 1e-7:
        return None
    lp.retire_columns(arts, range(n + k))
    for j in range(n):
        lp.set_cost(j, float(c[j]))
    lp.solve()
    return lp


def test_matches_reference_solver_on_random_lps():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(150):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(m, m + 10))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        c = rng.normal(0, 3, n).round(3)
        ubs = np.where(rng.random(n) < 0.5, rng.integers(1, 5, n).astype(float), np.inf)
        x0 = np.where(np.isfinite(ubs), rng.random(n) * ubs, rng.random(n) * 3)
        b = A @ x0
        ref = linprog(c, A_eq=A, b_eq=b, method="highs",
                      bounds=[(0, u if np.isfinite(u) else None) for u in ubs])
        if not ref.success:
            continue  # skip unbounded draws; masters are always bounded
        lp = two_phase(A, b, c, ubs)
        assert lp is not None
        assert lp.objective() == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
        x = lp.values()[:n]
        assert np.all(np.abs(A @ x - b) < 1e-6)
        assert np.all(x > -1e-9) and np.all(x - ubs < 1e-9)
        checked += 1
    assert checked > 100


@st.composite
def degenerate_bounded_lps(draw):
    """``A x = b, 0 <= x <= u`` with every ``u`` finite and ``b = A x0``,
    where most of ``x0`` sits at zero or at its bound, so both phases start
    from and pass through degenerate bases."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, m + 6))
    ints = lambda lo, hi, k: np.array(draw(st.lists(st.integers(lo, hi), min_size=k,
                                                    max_size=k)), dtype=float)
    A = ints(-3, 3, m * n).reshape(m, n)
    c = ints(-5, 5, n)
    ubs = ints(1, 4, n)
    frac = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0]),
                                  min_size=n, max_size=n)))
    return A, A @ (frac * ubs), c, ubs


@given(lp_data=degenerate_bounded_lps())
def test_matches_reference_solver_property(lp_data):
    A, b, c, ubs = lp_data
    ref = linprog(c, A_eq=A, b_eq=b, method="highs", bounds=[(0, u) for u in ubs])
    assert ref.success  # x0 is feasible and every variable is bounded
    lp = two_phase(A, b, c, ubs)
    assert lp is not None
    assert lp.objective() == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
    x = lp.values()[: len(c)]
    assert np.all(np.abs(A @ x - b) < 1e-6)
    assert np.all(x > -1e-9) and np.all(x - ubs < 1e-9)


def test_duals_certify_optimality():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m, n = 4, 9
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        c = rng.normal(0, 2, n).round(3)
        x0 = rng.random(n)
        b = A @ x0
        try:
            lp = two_phase(A, b, c, np.full(n, np.inf))
        except UnboundedError:
            continue
        if lp is None:
            continue
        y = lp.duals()
        rc = c - y @ A
        x = lp.values()[:n]
        # dual feasibility on structural columns and complementary slackness
        assert (rc > -1e-7).all()
        assert np.abs(rc * x).max() < 1e-6


def test_warm_restart_does_zero_pivots():
    rng = np.random.default_rng(3)
    m, n = 5, 12
    A = rng.integers(0, 4, size=(m, n)).astype(float)
    b = A @ rng.random(n)
    lp = two_phase(A, b, rng.normal(0, 2, n).round(3), np.full(n, np.inf))
    assert lp is not None
    assert lp.solve() == 0
    assert lp.solve() == 0


def test_added_column_prices_in():
    # min -x subject to x <= 4 via one row x + s = 4
    lp = SimplexSolver(np.array([4.0]))
    s = lp.add_column(np.array([1.0]), 0.0)
    lp.set_basis([s])
    assert lp.solve() == 0
    x = lp.add_column(np.array([1.0]), -1.0)
    assert lp.solve() == 1
    assert lp.objective() == pytest.approx(-4.0)
    assert lp.value(x) == pytest.approx(4.0)


def test_sealed_column_never_reenters():
    lp = SimplexSolver(np.array([4.0]))
    s = lp.add_column(np.array([1.0]), 0.0)
    x = lp.add_column(np.array([1.0]), -1.0)
    lp.set_basis([s])
    lp.solve()
    assert lp.is_basic(x)
    # push it out by making it unattractive, then seal and re-attract
    lp.set_cost(x, 1.0)
    lp.solve()
    assert not lp.is_basic(x)
    lp.seal_column(x)
    lp.set_cost(x, -5.0)
    assert lp.solve() == 0
    assert lp.value(x) == 0.0


def test_unbounded_detected():
    lp = SimplexSolver(np.array([0.0]))
    lp.add_column(np.array([1.0]), -1.0)   # x - y = 0, min -x
    lp.add_column(np.array([-1.0]), 0.0)
    s = lp.add_column(np.array([1.0]), 0.0)
    lp.set_basis([s])
    with pytest.raises(UnboundedError):
        lp.solve()


def test_sealed_basic_column_stays_at_zero():
    # rows s + x = 1 and z - x = 0; z is basic and sealed at zero, so the
    # entering x must stop at zero instead of lifting z
    lp = SimplexSolver(np.array([1.0, 0.0]))
    s = lp.add_column(np.array([1.0, 0.0]), 0.0)
    z = lp.add_column(np.array([0.0, 1.0]), 0.0)
    lp.set_basis([s, z])
    lp.seal_column(z)
    x = lp.add_column(np.array([1.0, -1.0]), -1.0)
    lp.solve()
    assert lp.value(z) == 0.0
    assert lp.value(x) == 0.0
    assert lp.objective() == 0.0
