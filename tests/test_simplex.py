import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from _oracles import DenseSimplexReference
from gapcg import simplex
from gapcg.simplex import DeadlineError, SimplexError, SimplexSolver, UnboundedError


def add_column(lp, entries, cost) -> int:
    """Append one column to ``lp`` and return its index; a ``SimplexSolver``
    takes it as a one-column block."""
    if isinstance(lp, SimplexSolver):
        return int(lp.add_columns(np.reshape(entries, (lp.m, 1)), cost)[0])
    return lp.add_column(entries, cost)


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
        add_column(lp, A[:, j], 0.0)
    arts = []
    for r in range(m + k):
        e = np.zeros(m + k)
        e[r] = 1.0 if b[r] >= 0 else -1.0
        arts.append(add_column(lp, e, 1.0))
    lp.set_basis(arts)
    lp.solve()
    if lp.objective() > 1e-7:
        return None
    lp.retire_columns(arts, range(n + k))
    for j in range(n):
        lp.cost[j] = float(c[j])
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
    s = add_column(lp, np.array([1.0]), 0.0)
    lp.set_basis([s])
    assert lp.solve() == 0
    x = add_column(lp, np.array([1.0]), -1.0)
    assert lp.solve() == 1
    assert lp.objective() == pytest.approx(-4.0)
    assert lp.values()[x] == pytest.approx(4.0)


def test_sealed_column_never_reenters():
    lp = SimplexSolver(np.array([4.0]))
    s = add_column(lp, np.array([1.0]), 0.0)
    x = add_column(lp, np.array([1.0]), -1.0)
    lp.set_basis([s])
    lp.solve()
    assert lp.basic[x]
    # push it out by making it unattractive, then seal and re-attract
    lp.cost[x] = 1.0
    lp.solve()
    assert not lp.basic[x]
    lp.seal_column(x)
    lp.cost[x] = -5.0
    assert lp.solve() == 0
    assert lp.values()[x] == 0.0


@pytest.mark.parametrize("late", [False, True])
def test_a_solve_past_its_deadline_stops_at_a_refactorization(late, monkeypatch):
    # min -x over x + s = 4 from the basis {s}: one pivot, then a
    # refactorization and a clock read
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 1)
    lp = SimplexSolver(np.array([4.0]), np.array([[1.0, 1.0]]), [0.0, -1.0])
    lp.set_basis([0])
    deadline = -np.inf if late else np.inf
    if late:
        with pytest.raises(DeadlineError):
            lp.solve(deadline)
    else:
        assert lp.solve(deadline) == 1
    assert lp.basis.tolist() == [1] and lp.objective() == -4.0


def test_a_solve_reads_the_clock_after_every_pivot():
    # the same one-pivot LP, with no refactorization before its deadline check
    assert simplex._REFACTOR_EVERY > 1
    lp = SimplexSolver(np.array([4.0]), np.array([[1.0, 1.0]]), [0.0, -1.0])
    lp.set_basis([0])
    with pytest.raises(DeadlineError):
        lp.solve(-np.inf)
    assert lp.basis.tolist() == [1]


def test_unbounded_detected():
    lp = SimplexSolver(np.array([0.0]))
    add_column(lp, np.array([1.0]), -1.0)   # x - y = 0, min -x
    add_column(lp, np.array([-1.0]), 0.0)
    s = add_column(lp, np.array([1.0]), 0.0)
    lp.set_basis([s])
    with pytest.raises(UnboundedError):
        lp.solve()


def _two_columns(first, second, basis=None):
    lp = SimplexSolver(np.ones(2))
    add_column(lp, np.array(first), 0.0)
    add_column(lp, np.array(second), 0.0)
    if basis is not None:
        lp.set_basis(basis)
    return lp


@pytest.mark.parametrize("misuse, message", [
    (lambda: _two_columns([1.0, 0.0], [0.0, 1.0], basis=[0]), "basis needs 2"),
    (lambda: _two_columns([1.0, 1.0], [2.0, 2.0], basis=[0, 1]), "singular"),
    (lambda: _two_columns([-1.0, 0.0], [0.0, 1.0], basis=[0, 1]), "infeasible"),
    (lambda: _two_columns([1.0, 0.0], [0.0, 1.0], basis=[0, 1]).retire_columns([0], []),
     "nonzero value"),
    (lambda: _two_columns([1.0, 0.0], [0.0, 1.0]).solve(), "no starting basis"),
], ids=["basis-count", "singular-basis", "infeasible-warm-basis", "retire-nonzero-basic",
        "no-basis"])
def test_misuse_raises_simplex_error(misuse, message):
    with pytest.raises(SimplexError, match=message):
        misuse()


def test_sealed_basic_column_stays_at_zero():
    # rows s + x = 1 and z - x = 0; z is basic and sealed at zero, so the
    # entering x must stop at zero instead of lifting z
    lp = SimplexSolver(np.array([1.0, 0.0]))
    s = add_column(lp, np.array([1.0, 0.0]), 0.0)
    z = add_column(lp, np.array([0.0, 1.0]), 0.0)
    lp.set_basis([s, z])
    lp.seal_column(z)
    x = add_column(lp, np.array([1.0, -1.0]), -1.0)
    lp.solve()
    assert lp.values()[z] == 0.0
    assert lp.values()[x] == 0.0
    assert lp.objective() == 0.0


def _snapshot(lp, pivots):
    return pivots, lp.basis.tobytes(), lp.values().tobytes(), lp.duals().tobytes()


def scripted_trace(solver_cls, lp_data, seal_rounds):
    """Both phases of ``lp_data``, then rounds that seal and add columns.

    Each round seals the drawn structural columns that are nonbasic and adds
    the drawn ``(entries, cost)`` columns before the next solve. Returns one
    snapshot per solve or retirement: the pivot count and the bytes of the
    basis, ``values()`` and ``duals()``; an error ends the trace with its type.
    """
    A, b, c, ubs = lp_data
    m, n = A.shape
    rows = np.vstack([np.hstack([A, np.zeros((m, n))]), np.hstack([np.eye(n), np.eye(n)])])
    rhs = np.concatenate([b, ubs])
    lp = solver_cls(rhs)
    for j in range(2 * n):
        add_column(lp, rows[:, j], 0.0)
    arts = [add_column(lp, np.where(np.arange(m + n) == r, 1.0 if rhs[r] >= 0 else -1.0, 0.0),
                       1.0) for r in range(m + n)]
    lp.set_basis(arts)
    trace = []
    try:
        trace.append(_snapshot(lp, lp.solve()))
        trace.append(_snapshot(lp, lp.retire_columns(arts, range(2 * n))))
        for j in range(n):
            lp.cost[j] = float(c[j])
        trace.append(_snapshot(lp, lp.solve()))
        for seal, extra in seal_rounds:
            for j in seal:
                if j < n and not lp.basic[j]:
                    lp.seal_column(j)
            for entries, cost in extra:
                add_column(lp, np.concatenate([entries[:m], np.zeros(n)]), cost)
            trace.append(_snapshot(lp, lp.solve()))
    except SimplexError as exc:
        trace.append(type(exc).__name__)
    return trace


@st.composite
def seal_rounds(draw):
    column = st.tuples(st.lists(st.integers(-3, 3), min_size=5, max_size=5).map(
        lambda v: np.array(v, dtype=float)), st.integers(-5, 5).map(float))
    return draw(st.lists(st.tuples(st.sets(st.integers(0, 10)),
                                   st.lists(column, max_size=3)), max_size=3))


@given(lp_data=degenerate_bounded_lps(), rounds=seal_rounds())
def test_bit_identical_to_dense_reference(lp_data, rounds):
    # no compact() call, so column indices agree and every snapshot must match
    assert scripted_trace(SimplexSolver, lp_data, rounds) == \
        scripted_trace(DenseSimplexReference, lp_data, rounds)


def assert_basic_is_the_basis(lp):
    assert (lp.basic[: lp.n] == np.isin(np.arange(lp.n), lp.basis)).all()


def assert_basic_is_the_basis_before_and_after_compact(lp):
    """Check ``lp.basic`` on ``lp``, then on a compacted copy of it."""
    assert_basic_is_the_basis(lp)
    if hasattr(lp, "compact"):
        twin = copy.deepcopy(lp)
        twin.compact()
        assert_basic_is_the_basis(twin)


def sealing_trace(solver_cls, lp_data, seal_rounds):
    """Both phases of ``lp_data``, then rounds that seal basic columns too.

    The LP is the one :func:`scripted_trace` builds. Each round seals every
    drawn structural or bound-slack column that is nonbasic or basic at value
    zero, adds the drawn columns and solves. A sealed basic column stays in
    the basis, pinned at zero, until a pivot takes it out, so later solves
    start with sealed basic columns. Each snapshot also records how many
    there were before the solve. After every solve ``lp.basic`` must be the
    membership in ``lp.basis``, and so on a compacted copy of the LP, which
    keeps the column indices of the trace unchanged.
    """
    A, b, c, ubs = lp_data
    m, n = A.shape
    rows = np.vstack([np.hstack([A, np.zeros((m, n))]), np.hstack([np.eye(n), np.eye(n)])])
    rhs = np.concatenate([b, ubs])
    lp = solver_cls(rhs)
    for j in range(2 * n):
        add_column(lp, rows[:, j], 0.0)
    arts = [add_column(lp, np.where(np.arange(m + n) == r, 1.0 if rhs[r] >= 0 else -1.0, 0.0),
                       1.0) for r in range(m + n)]
    lp.set_basis(arts)
    trace = []
    try:
        lp.solve()
        assert_basic_is_the_basis_before_and_after_compact(lp)
        lp.retire_columns(arts, range(2 * n))
        for j in range(n):
            lp.cost[j] = float(c[j])
        trace.append(_snapshot(lp, lp.solve()))
        assert_basic_is_the_basis_before_and_after_compact(lp)
        for seal, extra in seal_rounds:
            values = lp.values()
            for j in seal:
                if j < 2 * n and (not lp.basic[j] or values[j] == 0.0):
                    lp.seal_column(j)
            for entries, cost in extra:
                add_column(lp, np.concatenate([entries[:m], np.zeros(n)]), cost)
            sealed_basic = int((lp.sealed[: lp.n] & lp.basic[: lp.n]).sum())
            trace.append((sealed_basic, _snapshot(lp, lp.solve())))
            assert_basic_is_the_basis_before_and_after_compact(lp)
    except SimplexError as exc:
        trace.append(type(exc).__name__)
    return trace


@given(lp_data=degenerate_bounded_lps(), rounds=seal_rounds())
def test_sealing_basic_columns_bit_identical_to_dense_reference(lp_data, rounds):
    assert sealing_trace(SimplexSolver, lp_data, rounds) == \
        sealing_trace(DenseSimplexReference, lp_data, rounds)


def test_compact_drops_sealed_nonbasic_columns_in_order():
    rng = np.random.default_rng(11)
    A = rng.integers(0, 4, size=(4, 12)).astype(float)
    A[3] = A[2]  # a redundant row keeps one retired artificial basic
    lp = two_phase(A, A @ rng.random(12), rng.normal(0, 2, 12).round(3), np.full(12, np.inf))
    assert lp is not None
    for j in range(0, 12, 3):
        if not lp.basic[j]:
            lp.seal_column(j)
    n = lp.n
    sealed, basic = lp.sealed[:n].copy(), lp.basic[:n].copy()
    assert (sealed & basic).any() and (sealed & ~basic).any()
    A_before, cost_before, basis_before = lp._A[:, :n].copy(), lp.cost[:n].copy(), lp.basis.copy()
    objective, duals, values = lp.objective(), lp.duals(), lp.values()

    remap = lp.compact()

    kept = np.flatnonzero(~sealed | basic)
    assert lp.n == len(kept)
    assert (remap[kept] == np.arange(len(kept))).all()
    assert (np.delete(remap, kept) == -1).all()
    assert (lp._A[:, : lp.n] == A_before[:, kept]).all()
    assert (lp.cost[: lp.n] == cost_before[kept]).all()
    assert (lp.basis == remap[basis_before]).all()
    assert (lp.sealed[: lp.n] & lp.basic[: lp.n]).any()  # the sealed basic column survived
    assert lp.objective() == objective
    assert lp.duals().tobytes() == duals.tobytes()
    assert lp.values().tobytes() == values[kept].tobytes()
    assert not values[np.delete(np.arange(n), kept)].any()
    assert lp.solve() == 0  # still optimal after the renumbering


def test_compact_without_sealed_columns_is_the_identity():
    lp = SimplexSolver(np.array([4.0]))
    s = add_column(lp, np.array([1.0]), 0.0)
    add_column(lp, np.array([1.0]), -1.0)
    lp.set_basis([s])
    lp.solve()
    assert (lp.compact() == np.arange(2)).all()
    assert lp.n == 2


def assert_stores_exactly_its_columns(lp):
    # a Fortran-ordered matrix would price with other rounding
    assert lp._A.shape == (lp.m, lp.n) and lp._A.flags.c_contiguous
    assert len(lp.cost) == len(lp.sealed) == lp.n


def test_the_lp_stores_exactly_its_columns():
    lp = SimplexSolver(np.ones(2))
    assert_stores_exactly_its_columns(lp)
    lp.add_columns(np.array([[1.0], [0.0]]), 0.0)
    assert_stores_exactly_its_columns(lp)
    # one stored column and a Fortran-ordered block
    lp.add_columns(np.asfortranarray([[0.0, 1.0, 1.0], [1.0, 1.0, 0.0]]), [0.0, -1.0, 2.0])
    assert_stores_exactly_its_columns(lp)
    assert lp.cost.tolist() == [0.0, 0.0, -1.0, 2.0] and not lp.sealed.any()
    lp.set_basis([0, 1])
    lp.seal_column(3)
    assert lp.compact().tolist() == [0, 1, 2, -1]
    assert_stores_exactly_its_columns(lp)
    lp.retire_columns([2], [2])
    assert_stores_exactly_its_columns(lp)
    assert lp.sealed.tolist() == [False, False, True] and lp.cost[2] == 0.0
    assert lp.compact().tolist() == [0, 1, -1]
    assert_stores_exactly_its_columns(lp)
    assert (lp._A == np.eye(2)).all()


def test_a_handed_over_block_is_the_storage_until_a_column_is_added_or_dropped():
    block = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    for change in ("add", "drop"):
        lp = SimplexSolver(np.ones(2), block.copy(), [0.0, 0.0, 1.0])
        handed = lp._A
        lp.set_basis([0, 1])
        assert lp.solve() == 0
        assert (lp.compact() == np.arange(3)).all() and lp._A is handed
        if change == "add":
            lp.add_columns(np.ones((2, 1)), 0.0)
        else:
            lp.seal_column(2)
            lp.compact()
        assert lp._A is not handed
        assert_stores_exactly_its_columns(lp)


# ---------------------------------------------------------------- Bland's rule

def bland_from_the_first_degenerate_pivot(monkeypatch):
    monkeypatch.setattr(simplex, "_BLAND_AFTER", -10**6)


def test_bland_solves_beales_cycling_lp(monkeypatch):
    # Beale (1955): min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 over three rows, two of
    # them with a zero right-hand side, from the slack basis
    bland_from_the_first_degenerate_pivot(monkeypatch)
    A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    lp = SimplexSolver(np.array([0.0, 0.0, 1.0]), np.hstack([np.eye(3), A]),
                       [0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
    lp.set_basis([0, 1, 2])
    lp.solve()
    assert lp.objective() == pytest.approx(-1.25, abs=1e-12)


def test_bland_leaves_on_the_lowest_basic_index_among_ratio_ties(monkeypatch):
    # the first pivot, by Dantzig's rule, is degenerate: column 3 enters on row 0.
    # Column 4 then ties rows 1 and 2 at ratio 0, the larger |d| on row 2
    def solve():
        lp = SimplexSolver(np.zeros(3), np.array([[1.0, 0, 0, 1, 0], [0, 1, 0, 0, 1],
                                                  [0, 0, 1, 0, 2]]), [0, 0, 0, -1.0, -0.5])
        lp.set_basis([0, 1, 2])
        assert lp.solve() == 2
        return lp.basis.tolist()

    assert solve() == [3, 1, 4]  # Dantzig's rule: the largest |d| leaves
    bland_from_the_first_degenerate_pivot(monkeypatch)
    assert solve() == [3, 4, 2]  # Bland's rule: basic column 1 leaves


@pytest.mark.parametrize("rule", ["dantzig", "bland"])
def test_a_sealed_column_with_the_most_negative_reduced_cost_never_enters(rule, monkeypatch):
    # column 2 is sealed; at both pivots its raw reduced cost is the most
    # negative and its index the lowest of the improving columns. The first
    # pivot, column 3 on row 0, is degenerate, so Bland's rule, when on, picks
    # the second
    if rule == "bland":
        bland_from_the_first_degenerate_pivot(monkeypatch)
    lp = SimplexSolver(np.array([0.0, 1.0]), np.array([[1.0, 0, 1, 1, 0], [0, 1, 1, 0, 1]]),
                       [0.0, 0.0, -10.0, -1.0, -0.5])
    lp.set_basis([0, 1])
    lp.seal_column(2)
    assert lp.solve() == 2
    assert lp.basis.tolist() == [3, 4]
    assert lp.values()[2] == 0.0 and lp.objective() == -0.5


def test_bland_reaches_the_reference_optimum(monkeypatch):
    bland_from_the_first_degenerate_pivot(monkeypatch)
    test_matches_reference_solver_on_random_lps()
    test_matches_reference_solver_property()
