"""The span machinery attributes time and restores what it wraps."""

import time

from perfbench.spans import Patches, Tracer, instrument


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer", "api"):
        time.sleep(0.02)
        with tracer.span("inner", "cache.load"):
            time.sleep(0.03)
    table = tracer.layer_table()
    total = sum(row["self_s"] for row in table.values())
    outer = tracer.spans[0]
    assert abs(total - (outer[3] - outer[2])) < 1e-9
    assert table["cache.load"]["self_s"] >= 0.03
    assert 0.02 <= table["api"]["self_s"] < 0.03 + 0.02
    trace = tracer.chrome_trace("test")
    assert [e["ph"] for e in trace["traceEvents"]] == ["M", "X", "X"]


def test_patches_restore_instance_class_and_module_attributes():
    class Owner:
        attribute = "class"
    owner = Owner()
    with Patches() as patches:
        patches.set(owner, "attribute", "instance")
        patches.set(Owner, "attribute", "patched")
        assert owner.attribute == "instance"
    assert owner.attribute == "class" and "attribute" not in vars(owner)


def test_instrument_restores_every_entry_point():
    from repro.pipeline.cache import ArtifactCache
    from repro.pipeline.stages import STAGES
    from repro.workloads import all_workloads
    before = ([stage.run for stage in STAGES.values()],
              ArtifactCache.load_with_meta,
              [workload.build for workload in all_workloads()])
    with instrument(Tracer()):
        assert STAGES["pdg"].run is not before[0][2]
    after = ([stage.run for stage in STAGES.values()],
             ArtifactCache.load_with_meta,
             [workload.build for workload in all_workloads()])
    assert after == before
