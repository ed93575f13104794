import functools
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from probesched import (
    ArmState,
    ComponentSpec,
    RunConfig,
    Table,
    marginal_p,
    policy_evaluate_exact,
    queue_init,
    queue_step,
    run,
    select_myopic,
    select_whittle,
)
from probesched.cli import main as cli_main
from probesched.oracle import SearchSpaceError
from probesched.policies import POLICY_NAMES, whittle_policy
from probesched.presets import FIG4
from probesched.sim import (
    _Streams,
    _advance,
    _arm_sum,
    _hazard_table,
    _stream_states,
    aggregate,
    sample_abnormal_marginals,
)
from helpers import ACTIVE, PASSIVE, markov_spec, select_random, transition


class _Replay:
    """Feeds predetermined uniforms to _step."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        out = np.array(self.values[:n])
        del self.values[:n]
        return out


# every test world uses this code width: codes i * width + t, t < width
_WIDTH = 256


@functools.lru_cache(maxsize=None)
def _thresholds(specs):
    """Float flip thresholds by code for the worlds `_step` drives."""
    return _hazard_table(specs, _WIDTH - 2)


def _fresh(n):
    """One world, all components healthy at (0, 0): (N, 1) arrays of the
    abnormal flags and each arm's flat code arm * 2 * width + i * width + t."""
    return np.zeros((n, 1), dtype=bool), np.arange(n)[:, None] * 2 * _WIDTH


def _phase(world):
    """Each arm's clock t - i, the slots since its evolution (re)started."""
    code = world[1] % (2 * _WIDTH)
    return code % _WIDTH - code // _WIDTH


def _step(world, selection, rng, specs):
    """One slot of one world through `_advance`: returns (next world,
    observations, slot cost).  Draws one uniform per arm in arm-id order
    from `rng`; `selection` may be any subset of arms."""
    abnormal, code = world
    n = len(specs)
    probe = np.zeros((n, 1), dtype=bool)
    probe[list(selection), 0] = True
    cost = float(np.array([s.cost for s in specs])[abnormal[:, 0]].sum())
    observations = {a: int(abnormal[a, 0]) for a in selection}
    first = np.arange(n)[:, None] * 2 * _WIDTH + 1
    world = _advance(abnormal, code, probe, rng.random(n)[:, None], _thresholds(tuple(specs)),
                     first)
    return world, observations, cost


def test_world_step_zero_hazard_never_costs():
    specs = [ComponentSpec(Table((0.0,)), 1.0)] * 2
    world = _fresh(2)
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(20):
        world, _, cost = _step(world, (0,), rng, specs)
        total += cost
    assert total == 0.0
    assert not world[0].any()


def test_world_step_charges_probed_abnormal_then_repairs():
    specs = [markov_spec(0.5, cost=2.0)]
    world = (np.array([[True]]), np.array([[3]]))  # arm 0 at (0, 3)
    world, obs, cost = _step(world, (0,), _Replay([0.99]), specs)
    abnormal, phase = world[0], _phase(world)
    assert cost == 2.0
    assert obs == {0: 1}
    assert not abnormal[0, 0]  # healthy next slot, no flip after repair
    assert phase[0, 0] == 0


def test_world_step_reset_faces_immediate_hazard():
    specs = [markov_spec(0.5)]
    world = (np.array([[False]]), np.array([[4]]))  # arm 0 at (0, 4)
    world, obs, cost = _step(world, (0,), _Replay([0.0]), specs)
    abnormal, phase = world[0], _phase(world)
    assert obs == {0: 0}
    assert cost == 0.0
    assert abnormal[0, 0]  # flipped with hazard(1) right after the reset
    assert phase[0, 0] == 1


def test_world_step_unprobed_abnormal_is_absorbing():
    specs = [markov_spec(0.9)]
    world = (np.array([[True]]), np.array([[2]]))  # arm 0 at (0, 2)
    for _ in range(5):
        world, _, cost = _step(world, (), _Replay([0.999]), specs)
        assert cost == 1.0
        assert world[0][0, 0]


def test_run_is_deterministic():
    cfg = RunConfig(specs=(markov_spec(0.4), markov_spec(0.7)), k=1, horizon=12,
                    policy="whittle", replications=6, seed=42)
    a = run(cfg)
    b = run(cfg)
    assert np.array_equal(a.mean_cumulative, b.mean_cumulative)
    assert np.array_equal(a.stderr, b.stderr)


def test_run_trajectory_invariants():
    specs = (markov_spec(0.4, 1.0), markov_spec(0.7, 2.0))
    cfg = RunConfig(specs=specs, k=1, horizon=30, policy="myopic",
                    replications=50, seed=7)
    traj = run(cfg)
    diffs = np.diff(np.concatenate([[0.0], traj.mean_cumulative]))
    assert np.all(diffs >= -1e-12)
    assert np.all(diffs <= sum(s.cost for s in specs) + 1e-12)
    assert traj.stderr.shape == traj.mean_cumulative.shape


def test_single_replication_has_zero_stderr():
    cfg = RunConfig(specs=(markov_spec(0.5),), k=1, horizon=5,
                    policy="whittle", replications=1, seed=0)
    assert np.all(run(cfg).stderr == 0.0)


def test_aggregate_is_exchangeable():
    rng = np.random.default_rng(12)
    cum = np.cumsum(rng.random((40, 9)), axis=1)
    base = aggregate(cum)
    perm = aggregate(cum[rng.permutation(40)])
    assert np.allclose(base.mean_cumulative, perm.mean_cumulative, atol=1e-12)
    assert np.allclose(base.stderr, perm.stderr, atol=1e-12)


def test_run_config_validation():
    spec = markov_spec(0.5)
    with pytest.raises(ValueError):
        RunConfig(specs=(spec,), k=2, horizon=5, policy="whittle", replications=1, seed=0)
    with pytest.raises(ValueError):
        RunConfig(specs=(spec,), k=1, horizon=0, policy="whittle", replications=1, seed=0)
    with pytest.raises(ValueError):
        RunConfig(specs=(spec,), k=1, horizon=5, policy="optimal", replications=1, seed=0)
    with pytest.raises(ValueError):
        RunConfig(specs=(spec,), k=1, horizon=5, policy="whittle", replications=0, seed=0)


def test_unprobed_marginals_match_process():
    spec = markov_spec(0.35)
    reps = 40_000
    freq = sample_abnormal_marginals(spec, horizon=8, replications=reps, seed=5)
    for t in range(1, 9):
        p = marginal_p(spec.process, t)
        sigma = np.sqrt(p * (1 - p) / reps)
        assert abs(freq[t - 1] - p) <= 3.5 * sigma


def test_unprobed_sampler_replays_the_arm_0_streams():
    # `run`'s arm-0 streams [seed, rep, 0], one uniform a slot, through the
    # float transition with no probe: the sampler's integer draws agree
    spec, horizon, reps, seed = ComponentSpec(Table((0.1, 0.3, 0.6)), 1.0), 5, 64, 3
    abnormal = np.zeros((reps, horizon), dtype=bool)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence([seed, rep, 0]))
        world = _fresh(1)
        for slot in range(horizon):
            world, _, _ = _step(world, (), rng, [spec])
            abnormal[rep, slot] = world[0][0, 0]
    want = abnormal.mean(axis=0).tolist()
    assert sample_abnormal_marginals(spec, horizon, reps, seed).tolist() == want


def test_monte_carlo_matches_exact_expectation():
    specs = [markov_spec(0.5, 1.0), markov_spec(0.3, 2.0)]
    k, horizon, reps = 1, 4, 40_000
    exact = policy_evaluate_exact(specs, [ArmState(0, 1)] * 2, k, horizon,
                                  whittle_policy(specs, k))
    cfg = RunConfig(specs=tuple(specs), k=k, horizon=horizon, policy="whittle",
                    replications=reps, seed=11)
    traj = run(cfg)
    sem = traj.stderr[-1]
    assert abs(traj.mean_cumulative[-1] - exact) <= 3.5 * sem


def test_bisimulation_with_arm_transitions():
    # the simulator's implied (i, t) ledger must follow the arm update rule
    specs = [markov_spec(0.5), markov_spec(0.25)]
    rng = np.random.default_rng(9)
    world = _fresh(2)
    # align the world with the (0,1) start: one hazard step before slot 1
    world, _, _ = _step(world, (), rng, specs)
    states = [ArmState(0, 1)] * 2
    for _ in range(200):
        sel = select_whittle(specs, states, 1)
        world, obs, _ = _step(world, sel, rng, specs)
        nxt = []
        for a in range(2):
            if a in obs:
                nxt.append(transition(states[a], ACTIVE, obs[a]))
            else:
                nxt.append(transition(states[a], PASSIVE))
        states = nxt
        for a in range(2):
            code = world[1][a, 0] - a * 2 * _WIDTH
            assert code == states[a].i * _WIDTH + states[a].t


# (specs, K, horizon, replications, seed); the second instance probes two
# arms per slot, so the queue's healthy-above-abnormal requeue is exercised;
# the third probes three of five arms, two pairs of them equal, so the rank
# table's picks go through `smallest_k`'s partition and ties on equal keys
_COMPOSITION_CASES = [
    ((markov_spec(0.6, 1.5), markov_spec(0.3, 1.0)), 1, 7, 3, 21),
    ((markov_spec(0.6, 1.5), markov_spec(0.3, 1.0), markov_spec(0.45, 2.0)), 2, 12, 4, 5),
    ((markov_spec(0.3, 1.0), markov_spec(0.6, 1.5), markov_spec(0.3, 1.0),
      ComponentSpec(Table((0.4, 0.6, 0.7)), 2.0), markov_spec(0.6, 1.5)), 3, 15, 4, 8),
]


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_vectorized_run_matches_scalar_composition(policy):
    # replay the per-(rep, arm) streams, and the random policy's
    # (seed, rep, N) stream, through the scalar selectors and step
    for specs, k, horizon, reps, seed in _COMPOSITION_CASES:
        n = len(specs)
        cfg = RunConfig(specs=specs, k=k, horizon=horizon, policy=policy,
                        replications=reps, seed=seed)
        traj = run(cfg)
        cums = np.zeros((reps, horizon))
        for rep in range(reps):
            draws = [
                np.random.default_rng(np.random.SeedSequence([seed, rep, arm])).random(horizon)
                for arm in range(n)
            ]
            uniforms = []
            for slot in range(horizon):
                uniforms.extend(draws[arm][slot] for arm in range(n))
            uniforms.extend([0.5] * n)  # final transition, after the last cost
            rng = _Replay(uniforms)
            policy_rng = np.random.default_rng(np.random.SeedSequence([seed, rep, n]))
            queue = queue_init(n, range(n))
            world, _, _ = _step(_fresh(n), (), rng, list(specs))
            states = [ArmState(0, 1)] * n
            total = 0.0
            for slot in range(horizon):
                if policy == "whittle":
                    sel = select_whittle(list(specs), states, k)
                elif policy == "myopic":
                    sel = select_myopic(list(specs), states, k)
                elif policy == "queue":
                    sel = tuple(sorted(queue.order[:k]))
                else:
                    sel = select_random(n, k, policy_rng)
                world, obs, cost = _step(world, sel, rng, list(specs))
                if policy == "queue":
                    _, queue = queue_step(queue, k, obs)
                total += cost
                cums[rep, slot] = total
                states = [
                    transition(states[a], ACTIVE, obs[a]) if a in obs
                    else transition(states[a], PASSIVE)
                    for a in range(n)
                ]
        expected = aggregate(cums)
        assert np.allclose(traj.mean_cumulative, expected.mean_cumulative, atol=1e-12)
        assert np.allclose(traj.stderr, expected.stderr, atol=1e-12)


def test_random_policy_runs_and_is_deterministic():
    cfg = RunConfig(specs=(markov_spec(0.4), markov_spec(0.6), markov_spec(0.2)),
                    k=2, horizon=15, policy="random", replications=8, seed=3)
    a = run(cfg)
    b = run(cfg)
    assert np.array_equal(a.mean_cumulative, b.mean_cumulative)


def test_queue_policy_matches_whittle_homogeneous():
    specs = tuple([markov_spec(0.5)] * 5)
    for policy in ("whittle", "queue"):
        cfg = RunConfig(specs=specs, k=2, horizon=40, policy=policy,
                        replications=20, seed=6)
        traj = run(cfg)
        if policy == "whittle":
            reference = traj.mean_cumulative.copy()
    assert np.array_equal(reference, traj.mean_cumulative)


_FIG4_ARMS = [{"kind": "markov", "q": q, "cost": c} for q, c in (
    (0.2, 2.5), (0.3, 2.0), (0.3, 1.8), (0.5, 1.5),
    (0.6, 1.2), (0.7, 1.0), (0.7, 0.6), (0.8, 0.5))]
_MIXED_ARMS = [
    {"kind": "table", "p": [0.5, 0.7, 0.85, 0.95], "cost": 1.0},
    {"kind": "markov", "q": 0.4, "cost": 0.0},
    {"kind": "table", "p": [0.5, 0.7, 0.85, 0.95], "cost": 1.0},
    {"kind": "markov", "q": 0.4, "cost": 1.3},
    {"kind": "markov", "q": 0.4, "cost": 1.3},
]
_ALL_POLICIES = list(POLICY_NAMES)


def _many_arms(n):
    """n arms mixing Markov and table processes, with uneven and some zero
    costs, so slot costs sum in an order-sensitive way."""
    arms = []
    for a in range(n):
        cost = 0.0 if a % 11 == 4 else round(0.1 * (1 + (7 * a) % 10) + 0.013 * a, 3)
        if a % 4 == 3:
            arms.append({"kind": "table", "p": [0.2, 0.45, 0.45, 0.8, 1.0], "cost": cost})
        else:
            arms.append({"kind": "markov", "q": round(0.05 + 0.85 * ((5 * a) % 17) / 16, 4),
                         "cost": cost})
    return arms


# (name, config, sha256 of the `simulate` CSV bytes).  The first four were
# recorded before the simulator's seeding, uniform layout and selection were
# vectorised, the last three before it moved to arm-major arrays: N = 9 and
# 17 sum slot costs with 8 accumulators and a remainder, N = 130 in halves.
_GOLDEN_CSV = [
    ("fig4-arms", {"components": _FIG4_ARMS, "K": 2, "horizon": 60,
                   "replications": 200, "seed": 1, "policies": _ALL_POLICIES},
     "ad42ab83c5ff26c140d89ff77f3bf0d731ca769913cf1a606bb194cbd0de81d7"),
    ("mixed-zero-cost-ties", {"components": _MIXED_ARMS, "K": 2, "horizon": 40,
                              "replications": 50, "seed": 9, "policies": _ALL_POLICIES},
     "3ab19646b7407d75b608acec88743002771abedb2e84ad78740447bc71b6fedc"),
    ("k-equals-n", {"components": _MIXED_ARMS[:3], "K": 3, "horizon": 25,
                    "replications": 20, "seed": 4, "policies": _ALL_POLICIES},
     "8ef791fa979d8070e6e86bd35d25662bec883279e26bf14a71475b9ad8b57e14"),
    ("seed-above-2-32", {"components": _FIG4_ARMS[:4], "K": 1, "horizon": 30,
                         "replications": 40, "seed": 2**32 + 7, "policies": _ALL_POLICIES},
     "7b28f934dc3a1964a4b21b2cd6ca239a219d5b050bd6a44701de2587d99574d3"),
    ("n9-sum-remainder", {"components": _many_arms(9), "K": 2, "horizon": 50,
                          "replications": 60, "seed": 13, "policies": _ALL_POLICIES},
     "98871bf8ac32ca6f9d493a93d338bafda3616db5a98f030573a9f32a478f458f"),
    ("n17-sum-remainder", {"components": _many_arms(17), "K": 3, "horizon": 40,
                           "replications": 40, "seed": 17, "policies": _ALL_POLICIES},
     "38b5427a3110bca98d777c4ca4bcd6b9f847515e9a6c2447bd783e3f1cf20c21"),
    ("n130-sum-split", {"components": _many_arms(130), "K": 9, "horizon": 30,
                        "replications": 12, "seed": 130, "policies": _ALL_POLICIES},
     "9e08dbedab635d8ac49ff2b8e221ed894f9694d5ccc62cf871d18f073a78fea5"),
    # recorded before the (R, T) cost matrix gave way to blocks of at most 64
    # slots: T = 65, 130, 257 and 131 split into uneven widths 32 + 33,
    # 43 + 43 + 44, 51 + 51 + 52 + 51 + 52 and 43 + 44 + 44
    ("t65-two-blocks", {"components": _FIG4_ARMS, "K": 2, "horizon": 65,
                        "replications": 33, "seed": 65, "policies": _ALL_POLICIES},
     "419e0a88b11520b441cb9140d2e7462d5d16ff9e797f3c6219401670f189864d"),
    ("t130-three-blocks", {"components": _MIXED_ARMS, "K": 2, "horizon": 130,
                           "replications": 5, "seed": 130, "policies": _ALL_POLICIES},
     "906a993275ace43c3553494eb91fcaf05aba37c9f0d927c6eee38df601e95e86"),
    ("t257-five-blocks", {"components": _many_arms(9), "K": 3, "horizon": 257,
                          "replications": 2, "seed": 257, "policies": _ALL_POLICIES},
     "e7050b826cd3b0b6a7701f26ea81b3ac8b1c032148bd73c7ba617273aebdb6c7"),
    ("t131-one-replication", {"components": _FIG4_ARMS[:5], "K": 1, "horizon": 131,
                              "replications": 1, "seed": 31, "policies": _ALL_POLICIES},
     "202e92fb36832ed06603f577cc1f854e98f1e62ab8dabf0b8adeb45a9f6104a0"),
    # the bytes of `probesched simulate --preset fig4 --horizon 1`: the one
    # (R, 1) block is reduced pairwise (mean 4.563350000000001), where a sum
    # of the replications in order gives 4.563350000000038
    ("fig4-one-slot", {**FIG4, "horizon": 1},
     "a2717d4b13bb1f72fd876630551de0e74c495dda955d971d364e2761fc8048da"),
]


@pytest.mark.parametrize("name, cfg, digest", _GOLDEN_CSV, ids=[g[0] for g in _GOLDEN_CSV])
def test_simulate_csv_bytes_are_golden(tmp_path, name, cfg, digest):
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps(cfg))
    assert cli_main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_arm_sum_matches_numpy_row_sums_bitwise():
    # the per-slot cost sums arm rows in the order numpy sums a row of N
    rng = np.random.default_rng(8)
    for n in range(1, 301):
        x = rng.random((n, 7)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        x[rng.random((n, 7)) < 0.3] = 0.0
        expected = np.ascontiguousarray(x.T).sum(axis=1)
        assert _arm_sum(x).tobytes() == expected.tobytes(), n


def test_random_policy_run_holds_no_uniform_block():
    # fig4's arms at R = 2000, T = 500: one (T, R, N) float64 block of
    # uniforms is 8 R N T bytes (61 MiB), and the random policy held two;
    # drawn slot by slot, the run's peak stays under half of one
    specs = tuple(markov_spec(a["q"], a["cost"]) for a in _FIG4_ARMS)
    r, horizon = 2000, 500
    cfg = RunConfig(specs=specs, k=2, horizon=horizon, policy="random",
                    replications=r, seed=1)
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * r * len(specs) * horizon


def test_run_holds_no_cost_matrix():
    # one arm at R = 2000, T = 10,000: the (R, T) matrix of cumulative costs
    # is 153 MiB, and its standard error made a second one; a run that
    # aggregates blocks of 16 slots holds about 0.25 MiB of them
    cfg = RunConfig(specs=(markov_spec(0.3),), k=1, horizon=10_000, policy="whittle",
                    replications=2000, seed=1)
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("policy", ["whittle", "random"])
@pytest.mark.parametrize("specs, k, horizon", [
    ((markov_spec(0.3),), 1, 64),
    (tuple(markov_spec(a["q"], a["cost"]) for a in _FIG4_ARMS), 2, 1),
], ids=["one-arm-64-slots", "fig4-one-slot"])
def test_run_peak_stays_within_the_guard(monkeypatch, specs, k, horizon, policy):
    # the guard charges each stream 20 draws of state and each slot one draw
    # per stream; the peak once read 1.57-1.61 times that at T = 64 (a block
    # of 64 slots of cumulative cost) and 1.05-1.15 times at T = 1 (the
    # streams' set-up)
    fields = dict(specs=specs, k=k, horizon=horizon, policy=policy, replications=20_000, seed=1)
    with monkeypatch.context() as patch, pytest.raises(SearchSpaceError) as refused:
        patch.setattr("probesched.sim.MAX_UNIFORMS", 0)  # the refusal reports the count
        RunConfig(**fields)
    cfg = RunConfig(**fields)
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * refused.value.count


def test_run_refuses_an_oversized_config():
    # the size guard is the config's own check, so library callers meet it too
    with pytest.raises(SearchSpaceError):
        RunConfig(specs=(markov_spec(0.5),) * 8, k=2, horizon=2_000_000, policy="whittle",
                  replications=2000, seed=0)


def test_run_refuses_a_long_horizon_on_one_stream():
    # R = N = 1 draws only T uniforms, but the per-code tables take about
    # 160 B and each slot about 65 us: 1.5 GiB and 11 minutes at T = 10^7
    with pytest.raises(SearchSpaceError, match="tables"):
        RunConfig(specs=(markov_spec(0.5),), k=1, horizon=10**7, policy="whittle",
                  replications=1, seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
def test_stream_states_match_seed_sequence(seed):
    tails = [(rep, arm) for rep in (0, 1, 2, 7, 1999, 2**31) for arm in (0, 1, 5, 8, 2**32 - 1)]
    expected = [np.random.SeedSequence([seed, rep, arm]).generate_state(4, np.uint64)
                for rep, arm in tails]
    assert np.array_equal(_stream_states(seed, tails), expected)
    streams = _Streams(seed, tails)
    draws = np.concatenate([streams.draw() for _ in range(6)]) * 2.0**-53  # (draw, stream)
    for (rep, arm), column in zip(tails, draws.T, strict=True):
        reference = np.random.default_rng(np.random.SeedSequence([seed, rep, arm]))
        assert np.array_equal(column, reference.random(6))


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("n", [5, 8])
def test_wide_streams_match_generator_rows(seed, n):
    # the random policy's stream [seed, rep, N] draws N uniforms a slot
    reps = (0, 1, 7, 1999, 2**31)
    streams = _Streams(seed, [(rep, n) for rep in reps], n)
    draws = np.stack([streams.draw() for _ in range(4)]) * 2.0**-53  # (slot, N, rep)
    for rep, block in zip(reps, draws.transpose(2, 0, 1), strict=True):
        reference = np.random.default_rng(np.random.SeedSequence([seed, rep, n]))
        assert np.array_equal(block, reference.random((4, n)))


@pytest.mark.parametrize("width", [1, 5])
def test_streams_set_up_in_chunks_draw_the_same(monkeypatch, width):
    # streams are seeded 2^16 at a time; chunks of 7 split these 30 unevenly
    tails = [(rep, arm) for rep in (0, 1, 7, 1999, 2**31) for arm in range(6)]
    whole = _Streams(3, tails, width)
    monkeypatch.setattr("probesched.sim._CHUNK", 7)
    chunked = _Streams(3, tails, width)
    for _ in range(3):
        assert np.array_equal(chunked.draw(), whole.draw())


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        RunConfig(specs=(markov_spec(0.5),), k=1, horizon=5, policy="whittle",
                  replications=1, seed=-1)
