import numpy as np
import pytest

from probesched import (
    ArmState,
    ComponentSpec,
    MarkovIID,
    marginal_p,
    queue_init,
    queue_step,
    select_myopic,
    select_whittle,
)
from probesched.policies import random_k
from helpers import markov_spec, random_strict_specs, select_random


def _homog(n, q=0.5, cost=1.0):
    return [markov_spec(q, cost)] * n


def test_whittle_picks_largest_index():
    specs = _homog(3)
    states = [ArmState(0, 3), ArmState(0, 1), ArmState(1, 2)]
    assert select_whittle(specs, states, 1) == (0,)


def test_whittle_full_tie_breaks_by_id():
    specs = _homog(2)
    states = [ArmState(1, 1), ArmState(1, 1)]
    assert select_whittle(specs, states, 1) == (0,)


def test_whittle_selects_all_when_k_equals_n():
    specs = _homog(4)
    states = [ArmState(0, t) for t in (1, 2, 3, 4)]
    assert select_whittle(specs, states, 4) == (0, 1, 2, 3)


def test_whittle_rejects_bad_k():
    specs = _homog(2)
    states = [ArmState(0, 1)] * 2
    with pytest.raises(ValueError):
        select_whittle(specs, states, 3)
    with pytest.raises(ValueError):
        select_whittle(specs, states, 0)


def test_myopic_picks_largest_belief():
    specs = _homog(2)
    states = [ArmState(0, 2), ArmState(1, 2)]  # beliefs 0.75 vs 0.5
    assert select_myopic(specs, states, 1) == (0,)


def test_myopic_cost_weighting_dominates():
    specs = [markov_spec(0.5, 1.0), markov_spec(0.5, 10.0)]
    states = [ArmState(0, 1), ArmState(0, 1)]  # equal beliefs 0.5
    assert select_myopic(specs, states, 1) == (1,)


def test_myopic_pure_tie_break():
    specs = _homog(3)
    states = [ArmState(1, 1)] * 3  # all beliefs zero
    assert select_myopic(specs, states, 2) == (0, 1)


def test_whittle_invariant_under_cost_scaling():
    rng = np.random.default_rng(8)
    for trial in range(20):
        specs = random_strict_specs(5, seed=300 + trial)
        states = [
            ArmState(int(rng.integers(0, 2)), int(rng.integers(1, 9)))
            for _ in range(5)
        ]
        for scale in (0.5, 2.0, 4.0):
            scaled = [ComponentSpec(s.process, s.cost * scale) for s in specs]
            assert select_whittle(scaled, states, 2) == select_whittle(specs, states, 2)


def test_homogeneous_whittle_equals_myopic():
    rng = np.random.default_rng(4)
    for trial in range(30):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        specs = _homog(n, q=float(rng.uniform(0.1, 0.9)))
        states = [
            ArmState(int(rng.integers(0, 2)), int(rng.integers(1, 10)))
            for _ in range(n)
        ]
        assert select_whittle(specs, states, k) == select_myopic(specs, states, k)


def test_queue_init():
    q = queue_init(3, [1, 0, 2])
    assert q.order == (1, 0, 2)
    assert queue_init(1, [0]).order == (0,)
    assert queue_init(4, range(4)).order == (0, 1, 2, 3)


def test_queue_init_rejects_non_permutation():
    with pytest.raises(ValueError):
        queue_init(3, [0, 1, 1])
    with pytest.raises(ValueError):
        queue_init(3, [0, 1])


def test_queue_step_requeues_healthy_above_abnormal():
    q = queue_init(4, [0, 1, 2, 3])
    sel, q2 = queue_step(q, 2, {0: 1, 1: 0})
    assert sel == (0, 1)
    assert q2.order == (2, 3, 1, 0)  # healthy arm 1 above abnormal arm 0
    sel, q3 = queue_step(queue_init(4, [0, 1, 2, 3]), 2, {0: 0, 1: 1})
    assert q3.order == (2, 3, 0, 1)


def test_queue_step_probe_everything():
    q = queue_init(3, [2, 0, 1])
    sel, q2 = queue_step(q, 3, {0: 1, 1: 0, 2: 0})
    assert sel == (0, 1, 2)
    assert q2.order == (1, 2, 0)  # healthy by id, then abnormal by id


def test_queue_step_rejects_mismatched_observations():
    q = queue_init(3, [0, 1, 2])
    with pytest.raises(ValueError):
        queue_step(q, 1, {1: 0})
    with pytest.raises(ValueError):
        queue_step(q, 2, {0: 0})
    with pytest.raises(ValueError):
        queue_step(q, 1, {0: 2})


def test_random_selection_deterministic_per_seed():
    a = select_random(4, 2, np.random.default_rng(99))
    b = select_random(4, 2, np.random.default_rng(99))
    assert a == b
    assert select_random(3, 3, np.random.default_rng(0)) == (0, 1, 2)


class _Fixed:
    """A stand-in generator whose `random` returns set values."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float)

    def random(self, shape):
        return self.values.reshape(shape)


def test_random_k_breaks_ties_by_arm_id():
    # columns are replications; equal draws go to the lower arm id first
    draws = np.array([[0.5, 0.3, 7, 0],
                      [0.2, 0.3, 7, 0],
                      [0.2, 0.3, 2, 0],
                      [0.9, 0.1, 7, 0]])
    assert random_k(draws, 1).T.tolist() == [[0, 1, 0, 0], [0, 0, 0, 1],
                                             [0, 0, 1, 0], [1, 0, 0, 0]]
    assert random_k(draws, 2).sum(axis=0).tolist() == [2, 2, 2, 2]
    assert random_k(draws, 2).T.tolist() == [[0, 1, 1, 0], [1, 0, 0, 1],
                                             [1, 0, 1, 0], [1, 1, 0, 0]]
    assert random_k(draws, 3).T.tolist() == [[1, 1, 1, 0], [1, 1, 0, 1],
                                             [1, 1, 1, 0], [1, 1, 1, 0]]
    ints = np.array([[5, 3], [3, 3], [3, 3]], dtype=np.uint64)  # 53-bit draws
    assert random_k(ints, 1).T.tolist() == [[0, 1, 0], [1, 0, 0]]
    assert random_k(ints, 2).T.tolist() == [[0, 1, 1], [1, 1, 0]]


def test_select_random_breaks_ties_by_arm_id():
    assert select_random(4, 1, _Fixed([0.5, 0.2, 0.2, 0.9])) == (1,)
    assert select_random(4, 2, _Fixed([0.3, 0.3, 0.3, 0.1])) == (0, 3)
    assert select_random(4, 3, _Fixed([0.0, 0.0, 0.0, 0.0])) == (0, 1, 2)
    assert select_random(3, 2, _Fixed([0.7, 0.7, 0.1])) == (0, 2)


def test_random_selection_marginal_frequency():
    n, k, draws = 4, 2, 100_000
    rng = np.random.default_rng(2)
    counts = np.zeros(n)
    for _ in range(draws):
        for a in select_random(n, k, rng):
            counts[a] += 1
    target = k / n
    sigma = np.sqrt(target * (1 - target) / draws)
    assert np.all(np.abs(counts / draws - target) <= 3 * sigma)


def _co_simulate(n, k, q, horizon, seed):
    """Drive index, myopic and queue policies on one shared world; returns
    the number of slots where their selections differ.  The queue drives
    the world so the walk continues even after a divergence."""
    specs = _homog(n, q)
    rng = np.random.default_rng(seed)
    states = [ArmState(0, 1)] * n
    abnormal = [False] * n
    queue = queue_init(n, range(n))
    mismatches = 0
    for _ in range(horizon):
        sel_q = tuple(sorted(queue.order[:k]))
        if sel_q != select_whittle(specs, states, k) or sel_q != select_myopic(
            specs, states, k
        ):
            mismatches += 1
        obs = {a: (1 if abnormal[a] else 0) for a in sel_q}
        _, queue = queue_step(queue, k, obs)
        nxt = []
        for a in range(n):
            if a in obs:
                nxt.append(ArmState(obs[a], 1))
                abnormal[a] = (rng.random() < q) if obs[a] == 0 else False
            else:
                nxt.append(ArmState(states[a].i, states[a].t + 1))
                if not abnormal[a]:
                    abnormal[a] = rng.random() < q
        states = nxt
    return mismatches


@pytest.mark.parametrize("n,k", [(6, 2), (5, 2), (3, 2), (7, 3)])
def test_queue_equivalence_all_shapes(n, k):
    assert _co_simulate(n, k, 0.5, 2000, seed=13) == 0


def test_selection_orders_are_sorted_tuples():
    specs = _homog(5)
    states = [ArmState(0, t) for t in (5, 1, 3, 2, 4)]
    sel = select_whittle(specs, states, 3)
    assert sel == tuple(sorted(sel))
    assert len(set(sel)) == 3
