"""Deterministic checks of the benchmark's inputs, counts and tracing.

Node counts are exact, so a change to them fails here as a count, before
any timing is read.  Run with the package on the path:

    PYTHONPATH=src python3 -m pytest perfbench
"""

import json
from pathlib import Path

import conwaykit as ck
import pytest

import corpus
import run
from tracing import Tracer, install


def _counts(pd: str) -> dict:
    ctx = ck.SkeinContext()
    value = ck.conway(ck.parse_pd(pd), ctx)
    return {
        "value": value,
        "nodes": ctx.nodes_expanded,
        "cache_hits": ctx.cache_hits,
        "memo_entries": len(ctx.memo),
    }


@pytest.mark.parametrize("m", [1, 2, 5, 60, 100])
def test_generator_labels_are_the_package_labels(m):
    xs = corpus.braid_closure((1,) * m, 2)
    assert corpus.pd_string(xs) == ck.pd_text(ck.torus2_diagram(m))


@pytest.mark.parametrize(
    "item, nodes",
    [
        (corpus.alt3(8), 369),
        (corpus.alt3(12), 2225),
        (corpus.alt3(14), 5055),
        (corpus.pos3(12), 1571),
    ],
)
def test_roadmap_baseline_node_counts(item, nodes):
    (got,) = corpus.braid_items([item], None)
    assert _counts(got.pd)["nodes"] == nodes


@pytest.mark.parametrize("m", [60, 80, 100])
def test_torus_generator_labels_expand_2m_minus_1_nodes(m):
    assert _counts(ck.pd_text(ck.torus2_diagram(m)))["nodes"] == 2 * m - 1


@pytest.mark.parametrize("family", sorted(corpus.FAMILIES))
def test_default_seed_counts_per_item(family):
    golden = corpus.load_golden()
    want = golden["default_seed_counts"][family]
    items = corpus.braid_items(corpus.FAMILIES[family], corpus.DEFAULT_SEED)
    assert [item.name for item in items] == list(want)
    for item in items:
        got = _counts(item.pd)
        if item.name in golden["polynomials"]:
            assert ck.format_poly(got.pop("value")) == golden["polynomials"][item.name]
        else:
            m = int(item.name.split("_")[1])
            assert got.pop("value") == ck.conway_torus2(m)
        assert got == want[item.name], item.name


def test_same_seed_same_inputs_and_passes_differ():
    first = corpus.braid_items(corpus.SKEIN_BRAIDS, 7, 0)
    assert first == corpus.braid_items(corpus.SKEIN_BRAIDS, 7, 0)
    assert first != corpus.braid_items(corpus.SKEIN_BRAIDS, 7, 1)
    assert [x.pd for x in first] != [x.pd for x in corpus.braid_items(corpus.SKEIN_BRAIDS, 8, 0)]


def test_relabeling_keeps_labels_consecutive_along_components():
    xs = corpus.relabel(corpus.braid_closure(corpus.ALT3 * 6, 3), corpus.pass_rng(3, 0))
    for cycle in corpus.arc_cycles(xs):
        assert cycle == list(range(cycle[0], cycle[0] + len(cycle)))


def test_tracing_keeps_values_and_counts_and_restores_bindings():
    (item,) = corpus.braid_items([corpus.alt3(7)], corpus.DEFAULT_SEED)
    plain = _counts(item.pd)
    originals = (ck.conway, ck.skein._reduce, ck.verify.conway, ck.poly.IntPoly.__add__)
    tracer = Tracer(span_cap=50)
    uninstall = install(tracer)
    try:
        assert ck.skein._reduce is not originals[1]
        assert ck.verify.conway is not originals[2]
        traced = _counts(item.pd)
        ck.conway(ck.parse_pd(item.pd))  # ctx=None: the wrapper supplies one
    finally:
        uninstall()
    assert traced == plain
    assert (ck.conway, ck.skein._reduce, ck.verify.conway, ck.poly.IntPoly.__add__) == originals
    assert tracer.counts["nodes"] == 2 * plain["nodes"]
    assert tracer.counts["cache_hits"] == 2 * plain["cache_hits"]
    assert tracer.calls["diagram.reduce"] == tracer.counts["nodes"]
    assert len(tracer.spans) == 50
    for span_id, parent, _, start, end in tracer.spans:
        assert parent < span_id and start <= end


def test_layer_map_and_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads(Path(__file__).with_name("layers.json").read_text())
    per_layer = sorted(m["name"] for m in spec["per_layer"])
    assert sorted(m for group in layers["layers"] for m in group["metrics"]) == per_layer
    emitted = list(run.layer_metrics(Tracer(), Tracer())) + ["tracing.overhead_ratio"]
    assert sorted(emitted) == per_layer
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(layers["workloads"]) == list(run.MIN_PASSES)
