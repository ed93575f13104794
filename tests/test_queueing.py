"""A queueing network is a config form: `cli._queueing` turns each
customer class into a component descriptor (`bernoulli` arrivals read as
`markov`, `holding_cost` as `cost`) and the servers into K, and every
subcommand then runs the components config that rewrite names."""

import csv
import json

import numpy as np
import pytest

from probesched import ComponentSpec, MarkovIID, Table, component_from_json
from probesched.cli import ConfigError, _queueing, main

_CLASSES = [
    {"arrival": {"kind": "bernoulli", "q": 0.2}, "holding_cost": 1.0},
    {"arrival": {"kind": "bernoulli", "q": 0.5}, "holding_cost": 1.0},
    {"arrival": {"kind": "bernoulli", "q": 0.8}, "holding_cost": 2.0},
]


def _specs(obj):
    components, k = _queueing(obj)
    return [component_from_json(c) for c in components], k


def _csv_bytes(tmp_path, command, cfg):
    path, out = tmp_path / f"{command}.json", tmp_path / f"{command}.csv"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    return out.read_bytes()


def test_mapping_preserves_parameters():
    specs, k = _specs({"servers": 1, "classes": _CLASSES})
    assert k == 1
    assert [s.process.q for s in specs] == [0.2, 0.5, 0.8]
    assert [s.cost for s in specs] == [1.0, 1.0, 2.0]


def test_zero_arrival_class_maps_to_inert_component():
    specs, _ = _specs({"servers": 1, "classes": [
        {"arrival": {"kind": "table", "p": [0.0]}, "holding_cost": 1.0},
        {"arrival": {"kind": "bernoulli", "q": 0.4}, "holding_cost": 1.0}]})
    assert specs[0].process == Table((0.0,))


def test_rejects_servers_at_or_above_classes():
    for servers in (2, 0, 1.0, True, "1", None):
        with pytest.raises(ConfigError, match=r"^config\.queueing: need an integer 1 <= servers"):
            _queueing({"servers": servers, "classes": _CLASSES[:2]})


def test_rejects_negative_holding_cost():
    # a class is checked as the component it maps to, before anything runs
    bernoulli = {"kind": "bernoulli", "q": 0.2}
    for arrival, cost in [(bernoulli, -0.5), (bernoulli, float("nan")),
                          (bernoulli, float("inf")), (0.2, 1.0)]:  # 0.2: no process
        with pytest.raises(ConfigError, match=r"^config\.queueing: classes\[0\]"):
            _queueing({"servers": 1, "classes": [{"arrival": arrival, "holding_cost": cost}] * 2})


@pytest.mark.parametrize("mode", ["simulate", "evaluate", "oracle", "index", "subsidy"])
def test_translation_matches_direct_construction(tmp_path, mode):
    specs, k = _specs({"servers": 1, "classes": _CLASSES})
    assert specs == [ComponentSpec(MarkovIID(0.2), 1.0), ComponentSpec(MarkovIID(0.5), 1.0),
                     ComponentSpec(MarkovIID(0.8), 2.0)]
    run = {"horizon": 4, "replications": 10, "seed": 4, "policies": ["whittle", "myopic"]}
    direct = [{"kind": "markov", "q": s.process.q, "cost": s.cost} for s in specs]
    mapped = _csv_bytes(tmp_path, mode, {**run, "queueing": {"servers": 1, "classes": _CLASSES}})
    assert mapped == _csv_bytes(tmp_path, mode, {**run, "components": direct, "K": k})


def test_holding_cost_scaling_scales_trajectories(tmp_path):
    def means(scale):
        classes = [{**c, "holding_cost": scale * c["holding_cost"]} for c in _CLASSES]
        rows = _csv_bytes(tmp_path, "simulate", {
            "horizon": 20, "replications": 15, "seed": 9, "policies": ["myopic"],
            "queueing": {"servers": 1, "classes": classes}})
        return np.array([float(r["mean_cumulative_cost"])
                         for r in csv.DictReader(rows.decode().splitlines())])

    base = means(1.0)
    assert len(base) == 20 and base[-1] > 0.0
    assert np.allclose(means(2.0), 2.0 * base, atol=1e-12)


def test_json_descriptor():
    components, k = _queueing({"servers": 1, "classes": [
        {"arrival": {"kind": "bernoulli", "q": 0.2}, "holding_cost": 1.0},
        {"arrival": {"kind": "table", "p": [0.1, 0.3]}, "holding_cost": 0.5}]})
    assert k == 1
    assert components == [{"kind": "markov", "q": 0.2, "cost": 1.0},
                          {"kind": "table", "p": [0.1, 0.3], "cost": 0.5}]
    assert [component_from_json(c).process for c in components] == [MarkovIID(0.2),
                                                                     Table((0.1, 0.3))]


def test_json_descriptor_validation():
    for obj in (None, [], {"servers": 1}, {"classes": _CLASSES},
                {"servers": 1, "classes": {"a": 1}}, {"servers": 1, "classes": _CLASSES[:1]},
                {"servers": 1, "classes": [{"holding_cost": 1.0}] * 2},
                {"servers": 1, "classes": [{"arrival": {"kind": "bernoulli", "q": 0.2}}] * 2},
                {"servers": 1, "classes": ["cost", "arrival"]},
                {"servers": 1, "classes": [{"arrival": {"kind": "poisson"},
                                            "holding_cost": 1.0}] * 2}):
        with pytest.raises(ConfigError, match=r"^config\.queueing: "):
            _queueing(obj)
