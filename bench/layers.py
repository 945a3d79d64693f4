"""Per-layer metrics of a traced run, its scaling probe and sanity check.

Layers are peritl's modules.  Counts and self times are summed over the
workload's requests; the scaling probe runs in the same traced process but
under its own request kinds (``probe:...``), so it feeds only the slopes.
"""
from __future__ import annotations

import math

import oracle
import workloads

SUITES = (
    "tl-relations", "tl-prime-relations", "single-term", "preserve", "remove-box",
    "marking", "d-roundtrip", "proplink", "lemaddq", "ideals", "fcs-basis",
    "faithfulness",
)
HOOK_SEARCH = ("partitions.minimal_balanced_hook_starting", "partitions.minimal_balanced_hook_ending")


def _probe_cases():
    """Slope metric -> [(size, function, args)] on a geometric size ladder."""
    fock, partitions, tl, weights = workloads.fock, workloads.partitions, workloads.tl, workloads.weights
    return {
        "fock.tensor_rows.slope.rect": [(m, fock.tensor_rows, ((m, m),)) for m in (25, 35, 50, 71, 100)],
        "partitions.two_core.slope": [(m, partitions.two_core, ((m,) * m,)) for m in (8, 11, 16, 23, 32)],
        "weights.partition_from_d_set.slope.stair": [
            (k * (k + 1) // 2, weights.partition_from_d_set, (oracle.d_set(oracle.staircase(k)), k))
            for k in (4, 5, 6, 7, 8)
        ],
        # a fresh window per width, so every call builds its normal-form table
        "tl.normalize.slope.width": [
            (w, tl.normalize, (list(range(1000 + 20 * w, 1000 + 21 * w)),)) for w in (3, 4, 5, 6, 7, 8)
        ],
    }


def run_probe(tracer) -> dict:
    """Time each probe case as a traced request; fit log(time) on log(size)."""
    slopes = {}
    for metric, cases in _probe_cases().items():
        points = []
        for size, fn, args in cases:
            with tracer.request(f"probe:{metric}"):
                fn(*args)
            span = tracer.spans[-1]
            points.append((math.log(size), math.log(span["end"] - span["start"])))
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        slopes[metric] = sum((x - mx) * (y - my) for x, y in points) / sum(
            (x - mx) ** 2 for x, _ in points
        )
    return slopes


def layer_metrics(tracer, verify_checks: int) -> dict:
    kinds = [k for k in tracer.buckets if k != "<outside>" and not k.startswith("probe:")]
    per_name, edges, outcomes = tracer.totals(kinds)

    def calls(*names):
        return sum(per_name.get(n, (0,))[0] for n in names)

    def self_s(*names):
        return sum(per_name.get(n, (0, 0.0))[1] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    count, sec, share = "count", "s", "ratio"
    m = {
        "partitions.rim_hook.calls": (calls("partitions.rim_hook"), count),
        "partitions.rim_hook.self_s": (self_s("partitions.rim_hook"), sec),
        "partitions.hook_search.useful_ratio": (ratio(
            sum(outcomes[(n, True)] for n in HOOK_SEARCH),
            sum(edges[(n, "partitions.rim_hook")] for n in HOOK_SEARCH),
        ), share),
        "partitions.two_core.self_s": (self_s("partitions.two_core"), sec),
        "partitions.add_remove.calls": (calls("partitions.add_box", "partitions.remove_box"), count),
        "partitions.add_remove.self_s": (self_s("partitions.add_box", "partitions.remove_box"), sec),
        "partitions.enumerate_partitions.self_s": (self_s("partitions.enumerate_partitions"), sec),
        "fock.xi_on_partition.calls": (calls("fock.xi_on_partition"), count),
        "fock.xi_on_partition.self_s": (self_s("fock.xi_on_partition"), sec),
        "fock.classify_case.self_s": (self_s("fock.classify_case"), sec),
        "fock.apply_word.self_s": (self_s("fock.apply_word"), sec),
        "fock.hook_case.share": (ratio(
            outcomes[("fock.classify_case", "D")] + outcomes[("fock.classify_case", "E")],
            calls("fock.classify_case"),
        ), share),
        "fock.tensor_rows.self_s": (self_s("fock.tensor_rows"), sec),
        "strata.cell_index.self_s": (self_s("strata.cell_index"), sec),
        "strata.block_index.self_s": (self_s("strata.block_index"), sec),
        "strata.ideal_closure_check.self_s": (self_s("strata.ideal_closure_check"), sec),
        "weights.partition_from_d_set.calls": (calls("weights.partition_from_d_set"), count),
        "weights.partition_from_d_set.self_s": (self_s("weights.partition_from_d_set"), sec),
        "weights.inverse.candidates_per_call": (ratio(
            edges[("weights.partition_from_d_set", "weights.d_set")],
            calls("weights.partition_from_d_set"),
        ), "count"),
        "weights.dominant_weight.self_s": (self_s("weights.dominant_weight"), sec),
        "tl.normalize.calls": (calls("tl.normalize"), count),
        "tl.normalize.self_s": (self_s("tl.normalize"), sec),
        "tl.diagram_product.calls": (calls("tl.diagram_product"), count),
        "tl.diagram_product.per_normalize": (ratio(
            calls("tl.diagram_product"), calls("tl.normalize")), count),
        "tl.element_multiply.self_s": (self_s("tl.element_multiply"), sec),
        "tl.faithfulness_witness.self_s": (self_s("tl.faithfulness_witness"), sec),
        "tl.minimal_part.self_s": (self_s("tl.minimal_part"), sec),
        "cli.main.self_s": (self_s("cli.main"), sec),
    }
    suites = {s: [0.0, 0] for s in SUITES}
    for span in tracer.spans:
        suite = span["name"][len("verify."):]
        if span["name"].startswith("verify.") and suite in suites:
            suites[suite][0] += span["end"] - span["start"]
            suites[suite][1] += span["checks"]
    for suite, (seconds, checks) in suites.items():
        m[f"verify.{suite}.s"] = (seconds, sec)
        m[f"verify.{suite}.checks"] = (checks, count)
    m["verify.checks"] = (verify_checks, count)
    return m


def sanity(tracer, metrics: dict) -> dict:
    """The cost shape known at the seed commit: rim_hook holds at least 90%
    of tensor_rows time on rectangles, and fcs-basis, tl-relations and
    faithfulness are the three costliest suites."""
    out = {}
    if "tensor:rect" in tracer.buckets:
        per_name, _, _ = tracer.totals(["tensor:rect"])
        out["rim_hook_share_of_tensor_rows_on_rect"] = (
            per_name["partitions.rim_hook"][2] / per_name["fock.tensor_rows"][2]
        )
        out["rim_hook_share_ok"] = out["rim_hook_share_of_tensor_rows_on_rect"] >= 0.9
    if metrics["verify.checks"][0]:
        top = sorted(SUITES, key=lambda s: -metrics[f"verify.{s}.s"][0])[:3]
        out["top_suites"] = top
        out["top_suites_ok"] = set(top) == {"fcs-basis", "tl-relations", "faithfulness"}
    return out
