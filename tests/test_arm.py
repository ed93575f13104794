import pytest

from probesched import ArmState, belief_abnormal, marginal_p
from helpers import ACTIVE, PASSIVE, concave_spec, markov_spec, transition


def test_belief_fresh_repair_is_zero():
    for spec in (markov_spec(0.3), concave_spec()):
        assert belief_abnormal(spec, ArmState(1, 1)) == 0.0


def test_belief_after_zero_observation():
    assert belief_abnormal(markov_spec(0.5), ArmState(0, 2)) == 0.75


def test_belief_after_one_observation_lags_by_one():
    assert belief_abnormal(concave_spec(), ArmState(1, 3)) == 0.7


def test_belief_identity_between_branches():
    # a repaired arm one slot later matches a reset arm exactly
    for spec in (markov_spec(0.37), concave_spec()):
        for t in range(1, 12):
            assert belief_abnormal(spec, ArmState(1, t + 1)) == belief_abnormal(
                spec, ArmState(0, t)
            )


def test_belief_nondecreasing_in_t():
    for spec in (markov_spec(0.2), concave_spec()):
        for i in (0, 1):
            vals = [belief_abnormal(spec, ArmState(i, t)) for t in range(1, 15)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_transition_table():
    assert transition(ArmState(0, 5), ACTIVE, 0) == ArmState(0, 1)
    assert transition(ArmState(0, 5), ACTIVE, 1) == ArmState(1, 1)
    assert transition(ArmState(1, 2), PASSIVE) == ArmState(1, 3)


def test_transition_validation():
    with pytest.raises(ValueError):
        transition(ArmState(0, 3), ACTIVE)  # probe needs an observation
    with pytest.raises(ValueError):
        transition(ArmState(0, 3), PASSIVE, 0)  # waiting takes none
    with pytest.raises(ValueError):
        transition(ArmState(0, 3), 2)


def test_probing_resets_elapsed_time():
    state = ArmState(0, 9)
    assert transition(state, PASSIVE).t == 10
    assert transition(state, ACTIVE, 1).t == 1


def test_state_validation():
    with pytest.raises(ValueError):
        ArmState(2, 1)
    with pytest.raises(ValueError):
        ArmState(1, 0)  # only (0,0) is a legal sentinel
    ArmState(0, 0)  # index origin


def test_belief_rejects_sentinel():
    with pytest.raises(ValueError):
        belief_abnormal(markov_spec(), ArmState(0, 0))


def test_belief_equals_marginal():
    spec = markov_spec(0.4)
    for t in range(1, 10):
        assert belief_abnormal(spec, ArmState(0, t)) == marginal_p(spec.process, t)
