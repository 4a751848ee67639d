import random
import tracemalloc
import warnings
from collections import deque, namedtuple

import numpy as np
import pytest

from conftest import make_dataset, random_instance
from fairgate.metrics import compute_rates, decision_maker_utility, disparity_detail
from fairgate.model import (
    CriterionKind,
    FairnessCriterion,
    GroupCut,
    GroupThreshold,
    SingleThreshold,
    UtilityMatrix,
)
from fairgate.optimizer import (
    InfeasibleConstraintError,
    OptimizationProblem,
    optimize_unconstrained,
)
from fairgate import oracle
from fairgate.oracle import MAX_ORACLE_RECORDS, OracleSizeError, brute_force_oracle

ACC = UtilityMatrix.accuracy()
STEP = 0.01  # the oracle's q-grid spacing in these tests


def oracle_problem(rows, kind, gamma, **kw):
    ds = rows if hasattr(rows, "records") else make_dataset(rows)
    return OptimizationProblem(
        ds, ACC, FairnessCriterion(kind, gamma=gamma, legit_names=kw.pop("legit_names", ())), **kw
    )


def test_size_guard():
    rows = [(0.5, i % 2, "ab"[i % 2]) for i in range(MAX_ORACLE_RECORDS + 1)]
    prob = oracle_problem(rows, CriterionKind.INDEPENDENCE, 1.0)
    with pytest.raises(OracleSizeError, match="refuses"):
        brute_force_oracle(prob)


def test_gamma_zero_matches_unconstrained_family_max():
    rng = random.Random(17)
    for _ in range(5):
        ds = random_instance(rng, n_groups=2, max_records=16)
        prob = oracle_problem(ds, CriterionKind.INDEPENDENCE, 0.0)
        rule = brute_force_oracle(prob, STEP)
        free = optimize_unconstrained(ds, ACC)
        assert decision_maker_utility(ds, rule, ACC) >= decision_maker_utility(ds, free, ACC) - 1e-12


def test_gamma_zero_sufficiency_matches_unconstrained():
    # Each group's best interval at least matches the free threshold's cut.
    rng = random.Random(19)
    for _ in range(5):
        ds = random_instance(rng, n_groups=rng.randint(2, 3), max_records=18)
        rule = brute_force_oracle(oracle_problem(ds, CriterionKind.PPV_PARITY, 0.0), STEP)
        free = optimize_unconstrained(ds, ACC)
        assert decision_maker_utility(ds, rule, ACC) >= decision_maker_utility(ds, free, ACC) - 1e-12


def test_independence_oracle_beats_hand_constructed_feasible_rules():
    rows = [(0.9, 1, "A"), (0.6, 1, "A"), (0.4, 0, "A"), (0.2, 0, "A"),
            (0.8, 1, "B"), (0.5, 0, "B"), (0.3, 1, "B"), (0.1, 0, "B")]
    prob = oracle_problem(rows, CriterionKind.INDEPENDENCE, 1.0)
    rule = brute_force_oracle(prob, STEP)
    best = decision_maker_utility(prob.dataset, rule, ACC)
    baselines = [
        SingleThreshold(0.0, boundary=1.0),
        SingleThreshold(1.0, boundary=0.0),
        GroupThreshold({"A": GroupCut(0.6), "B": GroupCut(0.5)}),  # rates 0.5 / 0.5
        GroupThreshold({"A": GroupCut(0.4), "B": GroupCut(0.3)}),  # rates 0.75 / 0.75
    ]
    crit = prob.criterion
    for baseline in baselines:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ratio = disparity_detail(compute_rates(prob.dataset, baseline), crit).ratio
        assert ratio >= 1.0 - 1e-12  # all baselines engineered feasible
        assert best >= decision_maker_utility(prob.dataset, baseline, ACC) - 1e-9


def test_oracle_rules_are_feasible():
    rng = random.Random(23)
    kinds = [CriterionKind.INDEPENDENCE, CriterionKind.TPR_PARITY, CriterionKind.FPR_PARITY]
    for kind in kinds:
        ds = random_instance(rng, n_groups=2, max_records=14)
        for gamma in (0.5, 1.0):
            prob = oracle_problem(ds, kind, gamma)
            try:
                rule = brute_force_oracle(prob, STEP)
            except InfeasibleConstraintError:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ratio = disparity_detail(compute_rates(ds, rule), prob.criterion).ratio
            assert ratio >= gamma - 1e-9


def test_separation_three_group_needs_gamma_zero():
    rng = random.Random(29)
    ds = random_instance(rng, n_groups=3, max_records=15)
    with pytest.raises(OracleSizeError):
        brute_force_oracle(oracle_problem(ds, CriterionKind.SEPARATION, 1.0))
    rule = brute_force_oracle(oracle_problem(ds, CriterionKind.SEPARATION, 0.0))
    assert isinstance(rule, GroupThreshold)


def test_conditional_parity_oracle_agrees_with_per_stratum_search():
    rows = [
        (0.9, 1, "A", {"j": "x"}), (0.4, 0, "A", {"j": "x"}),
        (0.8, 1, "B", {"j": "x"}), (0.3, 0, "B", {"j": "x"}),
        (0.7, 1, "A", {"j": "y"}), (0.2, 0, "A", {"j": "y"}),
        (0.6, 1, "B", {"j": "y"}), (0.1, 0, "B", {"j": "y"}),
    ]
    ds = make_dataset(rows, legit_names=("j",))
    prob = oracle_problem(
        ds, CriterionKind.CONDITIONAL_STATISTICAL_PARITY, 1.0,
        legit_names=("j",), min_count=1,
    )
    rule = brute_force_oracle(prob, STEP)
    assert decision_maker_utility(ds, rule, ACC) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# The window search against the sliding-maximum loop it replaced
# ---------------------------------------------------------------------------


def deque_window_search(point_sets, gamma):
    """The oracle's former window search: one deque step per designation."""
    groups = sorted(point_sets)
    orders = {g: np.argsort(point_sets[g].values, kind="stable") for g in groups}
    sorted_vals = {g: point_sets[g].values[orders[g]] for g in groups}
    sorted_utils = {g: point_sets[g].utils[orders[g]] for g in groups}
    designations = np.unique(np.concatenate([sorted_vals[g] for g in groups]))

    if gamma == 0.0:
        picks = {}
        total = 0.0
        for g in groups:
            idx = int(np.argmax(point_sets[g].utils))
            picks[g] = idx
            total += float(point_sets[g].utils[idx])
        return total, picks

    state = {g: {"dq": deque(), "add": 0, "drop": 0} for g in groups}
    best_total = None
    best_picks = None
    for m in designations:
        lo = gamma * m
        feasible = True
        total = 0.0
        for g in groups:
            st = state[g]
            vals, utils = sorted_vals[g], sorted_utils[g]
            dq = st["dq"]
            while st["add"] < len(vals) and vals[st["add"]] <= m:
                while dq and utils[dq[-1]] <= utils[st["add"]]:
                    dq.pop()
                dq.append(st["add"])
                st["add"] += 1
            while st["drop"] < len(vals) and vals[st["drop"]] < lo:
                st["drop"] += 1
            while dq and dq[0] < st["drop"]:
                dq.popleft()
            if not dq:
                feasible = False
                break
            total += float(utils[dq[0]])
        if feasible and (best_total is None or total > best_total):
            best_total = total
            best_picks = {g: int(orders[g][state[g]["dq"][0]]) for g in groups}
    if best_total is None:
        return None
    return best_total, best_picks


Points = namedtuple("Points", "values utils")  # unsorted, as the deque loop reads them


def random_point_sets(rng, repeated=False):
    """2-4 groups of tied values and tied utilities; some groups sit apart.

    With ``repeated``, each group draws up to 40 values from at most three.
    """
    sets = {}
    apart = rng.random() < 0.2  # one group's values far below the others'
    for i in range(rng.randint(2, 4)):
        size = rng.randint(1, 40 if repeated else 30)
        decimals = rng.choice((1, 2))
        top = 0.15 if apart and i == 0 else 1.0
        low = 0.0 if apart and i == 0 else (0.5 if apart else 0.0)
        if repeated:
            pool = [rng.uniform(low, top) for _ in range(rng.randint(1, 3))]
            raw = [rng.choice(pool) for _ in range(size)]
        else:
            raw = [rng.uniform(low, top) for _ in range(size)]
        values = np.round(np.array(raw), decimals)
        utils = np.round(np.array([rng.uniform(-3.0, 3.0) for _ in range(size)]), rng.choice((0, 1)))
        sets[f"g{i}"] = Points(values, utils)
    return sets


@pytest.mark.parametrize("block", [7, oracle._SCAN_BLOCK])
def test_window_search_equals_the_deque_loop(block, monkeypatch):
    monkeypatch.setattr(oracle, "_SCAN_BLOCK", block)
    empty_blocks = 0
    window_maxima = oracle._window_maxima

    def counted_window_maxima(utils, lo, hi):
        nonlocal empty_blocks
        empty_blocks += len(lo) == 0
        return window_maxima(utils, lo, hi)

    monkeypatch.setattr(oracle, "_window_maxima", counted_window_maxima)
    rng = random.Random(4242)
    infeasible = later_block = 0
    for instance in range(1300):
        # The last 300 instances repeat most values: a block of seven can hold
        # nothing but repeats of the block before it.
        sets = random_point_sets(rng, repeated=instance >= 1000)
        point_sets = {g: oracle._PointSet.sort(p.values, p.utils) for g, p in sets.items()}
        for gamma in (0.3, 0.8, 0.9, 1.0):
            expected = deque_window_search(sets, gamma)
            found = oracle._window_search(point_sets, gamma)
            if expected is None:
                assert found is None
                infeasible += 1
                continue
            assert found is not None
            assert found[0] == expected[0]
            assert found[1] == expected[1]
            designations = np.unique(np.concatenate([p.values for p in sets.values()]))
            top = max(sets[g].values[i] for g, i in expected[1].items())
            later_block += int(np.searchsorted(designations, top)) >= 7
    assert infeasible >= 500
    assert later_block >= 1000
    assert (empty_blocks > 0) == (block == 7)


def dense_dataset():
    """About 200k points per group: 400 records of three-decimal scores at grid step 1e-3."""
    rng = random.Random(7)
    return make_dataset(
        [(round(rng.uniform(0.0, 1.0), 3), rng.randint(0, 1), "ab"[i % 2]) for i in range(400)]
    )


def traced_peak(run):
    tracemalloc.start()
    try:
        assert run() is not None
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_window_search_memory_is_bounded():
    ds = dense_dataset()
    groups_data = {
        g: oracle._GroupData.build(g, ds, np.flatnonzero(ds.columns.group_codes == i), ACC)
        for i, g in enumerate(ds.groups)
    }
    qs = oracle._q_grid(1e-3)
    sets = {g: oracle._threshold_points(d, "positive_rate", qs) for g, d in groups_data.items()}
    assert min(len(p.values) for p in sets.values()) > 150_000
    # At gamma 0.3 one block's windows span most of a group's points, so two
    # levels of its range-max table dominate.
    for gamma in (0.3, 0.9):
        assert traced_peak(lambda: oracle._window_search(sets, gamma)) <= 4 * 2**20, gamma


@pytest.mark.parametrize(
    "kind, bound_mib",
    [(CriterionKind.INDEPENDENCE, 14), (CriterionKind.PPV_PARITY, 32)],
)
def test_oracle_memory_is_bounded(kind, bound_mib):
    # Building the point sets and searching them: each group holds its sorted
    # values, utilities and permutation once, about 4 MiB per group for
    # independence and twice that for the two interval branches of PPV parity.
    prob = oracle_problem(dense_dataset(), kind, 0.9)
    assert traced_peak(lambda: brute_force_oracle(prob, 1e-3)) <= bound_mib * 2**20
