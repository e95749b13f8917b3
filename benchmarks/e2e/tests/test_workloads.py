import json
import re

import pytest

from benchmarks.e2e import ROOT, spec
from benchmarks.e2e.cli import driver_metrics
from benchmarks.e2e.runner import run_workload
from benchmarks.e2e.inputs import SIZES, build_ops, generate

from conftest import SMOKE_SECONDS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_manifest_file_is_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.manifest()


def test_manifest_meets_the_contract():
    manifest = spec.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(manifest["workloads"]) <= 8
    assert {w["name"] for w in manifest["workloads"]} <= set(spec.WORKLOAD_NAMES)
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = (
        [w["name"] for w in manifest["workloads"]]
        + [m["name"] for m in manifest["end_to_end"]]
        + [m["name"] for m in manifest["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in manifest["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= manifest["run_seconds"] <= 60
    assert len(json.dumps(manifest)) < 64 * 1024


def test_every_workload_emits_exactly_the_declared_metrics(smoke_outcomes):
    manifest = spec.manifest()
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    for name, outcome in smoke_outcomes.items():
        assert outcome.correct, (name, outcome.problems)
        untraced = driver_metrics(outcome, traced=False)
        traced = driver_metrics(outcome, traced=True)
        assert {k: v["unit"] for k, v in untraced.items()} == end_to_end, name
        assert {k: v["unit"] for k, v in traced.items()} == per_layer, name
        # Nothing a run produced falls outside the declared names ...
        assert set(outcome.layers) <= set(per_layer), name
        declared = {m.name for m in spec.END_TO_END if spec.applies(m, name)}
        assert set(outcome.end_to_end) == declared, name
        # ... and an end-to-end metric is never zero.
        assert all(v["value"] > 0 for v in untraced.values()), name


def test_layers_a_workload_bypasses_read_zero(smoke_outcomes):
    ct = smoke_outcomes[spec.REPLAY_CT].layers
    lsm = smoke_outcomes[spec.REPLAY_LSM].layers
    closed = smoke_outcomes[spec.SERVE_WRITE_CLOSED].layers
    paced = smoke_outcomes[spec.SERVE_PACED_REPLICA].layers
    assert ct["core.update_self_s"] > 0 and "lsm.compact_s" not in ct
    assert lsm["hashindex.calls_per_update"] == 0 and lsm["lsm.flushes"] > 0
    assert closed["serve.replica.refreshes"] == 0 and closed["serve.replica.reads"] == 0
    assert paced["serve.replica.reads"] > 0
    assert closed["durability.acked_lost"] == 0 and paced["durability.acked_lost"] == 0


#: The figures that partition a traced in-process window (``lsm.flush_s``
#: and ``lsm.compact_s`` are inclusive views on top and stay out).
PARTITION = (
    "hashindex.self_s", "storage.read_s", "storage.write_s",
    "engine.buffer.put_s", "engine.buffer.flush_s",
)


def test_traced_budget_adds_up(smoke_outcomes):
    for name in spec.REPLAY:
        layers = smoke_outcomes[name].layers
        claimed = sum(
            value
            for key, value in layers.items()
            if key.endswith("_self_s") or key in PARTITION
        )
        assert layers["bench.budget_gap_pct"] <= 10.0, name
        assert claimed == pytest.approx(layers["bench.traced_window_s"], rel=0.10), name


def test_same_seed_same_inputs():
    size = SIZES["smoke"]
    first = generate(size, 12)
    second = generate(size, 12)
    mix = dict(updates_per_range=25, range_area=0.001, updates_per_knn=5)
    assert first.load == second.load and first.histories == second.histories
    assert build_ops(first, 7, **mix) == build_ops(second, 7, **mix)
    # Another seed asks other questions of the same population.
    other = build_ops(first, 8, **mix)
    assert other != build_ops(first, 7, **mix)
    assert [op for op in other if op[1] >= 0] == first.updates


@pytest.mark.parametrize("name", spec.REPLAY)
def test_same_seed_same_page_counts(name, smoke_outcomes):
    again = run_workload(name, 0, SMOKE_SECONDS, SIZES["smoke"], traced=False)
    for metric in ("ios_per_update", "ios_per_query", "pages_per_kobj"):
        assert again.end_to_end[metric] == smoke_outcomes[name].end_to_end[metric]
