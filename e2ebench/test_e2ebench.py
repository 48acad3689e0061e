"""The benchmark's own tests: determinism, negative controls, a smoke run.

    python3 -m pytest e2ebench/test_e2ebench.py

Small sizes throughout, so the suite takes about a minute.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import paper  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.eval import fleetbench  # noqa: E402
from repro.fleet import scenarios  # noqa: E402

SMOKE_FLEET = dataclasses.replace(fleetbench.PROFILES["smoke"], hosts=40,
                                  guests=200, storm_migrations=20,
                                  churn_shutdowns=20)


@pytest.fixture(scope="module")
def smoke_fleet_digest():
    return scenarios.run_fleet(SMOKE_FLEET)[2]["digest"]


def small(name, fleet_digest=None, **overrides):
    if name == "guest_run":
        return workloads.GuestRun(steps=20)
    if name == "tenant_churn":
        return workloads.TenantChurn(ops=20)
    if name == "paper_artefacts":
        return workloads.PaperArtefacts(artefacts=("micro",), **overrides)
    return workloads.FleetCampaign(
        spec=SMOKE_FLEET,
        expected_digest=overrides.get("expected_digest", fleet_digest))


def run_small(name, seed=1, trace=False, **kw):
    result, report = run.run(name, seed, 0.0, trace, workload=small(name, **kw))
    digest = next(l.split()[1] for l in report if l.startswith("sim_digest"))
    return result, digest


ALL = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ALL)
def test_smoke_run_is_correct_and_deterministic(name, smoke_fleet_digest):
    first, digest = run_small(name, fleet_digest=smoke_fleet_digest)
    assert first["correct"] and first["failed"] == 0, first
    assert set(first["metrics"]) == {m for m, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in first["metrics"].values())
    _again, digest_again = run_small(name, fleet_digest=smoke_fleet_digest)
    assert digest_again == digest


@pytest.mark.parametrize("name", ALL)
def test_a_different_seed_changes_the_inputs(name):
    wl = workloads.WORKLOADS[name]()
    assert wl.generate(1) == wl.generate(1)
    assert wl.generate(1) != wl.generate(2)


@pytest.mark.parametrize("name", ["guest_run", "tenant_churn"])
def test_traced_run_reports_every_layer_metric(name):
    result, _digest = run_small(name, trace=True)
    assert result["correct"], result
    assert list(result["metrics"]) == [m for m, _, _ in
                                       run.per_layer_metrics()]
    metrics = {m: v["value"] for m, v in result["metrics"].items()}
    for layer, home in layers.HOME_WORKLOAD.items():
        if home == name and layer in layers.LAYER_TARGETS:
            assert metrics[layer + ".self_s"] > 0, layer


def test_traced_fleet_records_the_fleet_layers(smoke_fleet_digest):
    result, _digest = run_small("fleet_campaign", trace=True,
                                fleet_digest=smoke_fleet_digest)
    metrics = {m: v["value"] for m, v in result["metrics"].items()}
    assert result["correct"], result
    assert metrics["fleet.events_processed"] > 0
    assert metrics["hw.memctrl.self_s"] == 0


def test_negative_control_altered_artefact_row():
    rows = workloads.committed_rows("micro")
    rows[0] = dict(rows[0], value=rows[0]["value"] + 1)
    result, _ = run_small("paper_artefacts", expected={"micro": rows})
    assert result["failed"] > 0 and not result["correct"]


def test_negative_control_tampered_boot_not_refused(monkeypatch):
    def no_tamper(host, offset):
        return lambda machine, domain: None
    monkeypatch.setattr(workloads.TenantChurn, "_tamper",
                        staticmethod(no_tamper))
    result, _ = run_small("tenant_churn")
    assert result["failed"] > 0 and not result["correct"]


def test_negative_control_wrong_fleet_digest():
    result, _ = run_small("fleet_campaign", expected_digest="0" * 64)
    assert result["failed"] > 0 and not result["correct"]


def test_every_charged_reason_maps_to_a_layer():
    for reason in run.SIM_REASONS:
        assert layers.reason_layer(reason) in layers.SIM_LAYERS, reason
    assert layers.reason_layer("unattributed") is None
    assert layers.reason_layer("no-such-reason") is None


def test_paper_error_of_the_committed_rows():
    rows = {a: workloads.committed_rows(a) for a in ("fig5", "fig6", "table3")}
    assert len(paper.PAPER_VALUES) == 11
    assert 0.2 < paper.paper_err_pp(rows) < 0.35


def test_benchmark_json_lists_what_the_runner_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == run.per_layer_metrics()


def test_each_op_counts_its_least_time_over_the_repetitions():
    def rep(times):
        rnd = workloads.Round()
        rnd.timed = [["a", times[0], 1], ["b", times[1], 3]]
        return type("Rep", (), {"rnd": rnd, "setup_s": 1.0})()
    metrics, samples = run.end_to_end([rep((0.5, 2.0)), rep((0.25, 4.0))])
    assert samples == 2
    assert metrics["run_s"] == 2.25
    assert metrics["ops_per_s"] == 4 / 2.25
