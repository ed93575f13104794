import numpy as np
import pytest

from probesched import (
    ComponentSpec,
    CustomerClass,
    MarkovIID,
    QueueNetworkSpec,
    RunConfig,
    Table,
    run,
    to_rmab,
)
from probesched.queueing import queue_network_from_json


def _bernoulli_network():
    return QueueNetworkSpec(
        classes=(
            CustomerClass(arrival=MarkovIID(0.2), holding_cost=1.0),
            CustomerClass(arrival=MarkovIID(0.5), holding_cost=1.0),
            CustomerClass(arrival=MarkovIID(0.8), holding_cost=2.0),
        ),
        servers=1,
    )


def test_mapping_preserves_parameters():
    components, k = to_rmab(_bernoulli_network())
    assert k == 1
    assert [c.process.q for c in components] == [0.2, 0.5, 0.8]
    assert [c.cost for c in components] == [1.0, 1.0, 2.0]


def test_zero_arrival_class_maps_to_inert_component():
    spec = QueueNetworkSpec(
        classes=(
            CustomerClass(arrival=Table((0.0,)), holding_cost=1.0),
            CustomerClass(arrival=MarkovIID(0.4), holding_cost=1.0),
        ),
        servers=1,
    )
    components, _ = to_rmab(spec)
    assert components[0].process == Table((0.0,))


def test_rejects_servers_at_or_above_classes():
    classes = (
        CustomerClass(arrival=MarkovIID(0.2), holding_cost=1.0),
        CustomerClass(arrival=MarkovIID(0.5), holding_cost=1.0),
    )
    with pytest.raises(ValueError):
        QueueNetworkSpec(classes=classes, servers=2)
    with pytest.raises(ValueError):
        QueueNetworkSpec(classes=classes, servers=0)


def test_rejects_negative_holding_cost():
    # a buffer is checked as the component it maps to, at construction
    for arrival, cost in [(MarkovIID(0.2), -0.5), (MarkovIID(0.2), float("nan")),
                          (MarkovIID(0.2), float("inf")), (0.2, 1.0)]:  # 0.2: no process
        with pytest.raises(ValueError):
            CustomerClass(arrival=arrival, holding_cost=cost)


def test_round_trip_matches_direct_construction():
    components, k = to_rmab(_bernoulli_network())
    direct = [
        ComponentSpec(MarkovIID(0.2), 1.0),
        ComponentSpec(MarkovIID(0.5), 1.0),
        ComponentSpec(MarkovIID(0.8), 2.0),
    ]
    assert components == direct

    cfg_mapped = RunConfig(specs=tuple(components), k=k, horizon=25,
                           policy="whittle", replications=10, seed=4)
    cfg_direct = RunConfig(specs=tuple(direct), k=k, horizon=25,
                           policy="whittle", replications=10, seed=4)
    a, b = run(cfg_mapped), run(cfg_direct)
    assert np.array_equal(a.mean_cumulative, b.mean_cumulative)


def test_holding_cost_scaling_scales_trajectories():
    components, k = to_rmab(_bernoulli_network())
    doubled = [ComponentSpec(c.process, 2.0 * c.cost) for c in components]
    base = run(RunConfig(specs=tuple(components), k=k, horizon=20,
                         policy="myopic", replications=15, seed=9))
    scaled = run(RunConfig(specs=tuple(doubled), k=k, horizon=20,
                           policy="myopic", replications=15, seed=9))
    assert np.allclose(scaled.mean_cumulative, 2.0 * base.mean_cumulative, atol=1e-12)


def test_json_descriptor():
    obj = {
        "servers": 1,
        "classes": [
            {"arrival": {"kind": "bernoulli", "q": 0.2}, "holding_cost": 1.0},
            {"arrival": {"kind": "table", "p": [0.1, 0.3]}, "holding_cost": 0.5},
        ],
    }
    spec = queue_network_from_json(obj)
    assert spec.servers == 1
    assert spec.classes[0].arrival == MarkovIID(0.2)
    assert spec.classes[1].arrival == Table((0.1, 0.3))


def test_json_descriptor_validation():
    with pytest.raises(ValueError):
        queue_network_from_json({"servers": 1})
    with pytest.raises(ValueError):
        queue_network_from_json(
            {"servers": 1, "classes": [{"holding_cost": 1.0}] * 2}
        )
