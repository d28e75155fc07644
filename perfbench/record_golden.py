"""Write golden.json: the expected values the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_golden.py

Records, from the conwaykit sources on the path:
  * the Conway polynomial of every braid closure in the corpus (it does
    not depend on the labeling, hence not on the seed);
  * a frozen copy of the packaged knot table, the cli_table inputs;
  * nodes, cache hits and memo entries of every corpus item at the default
    seed (first pass), which test_perfbench.py asserts, so that a change
    of node counts shows as a count and not only as a timing.

Rerun it only for a change that is meant to alter these values, and say
why in that change.
"""

import json

import conwaykit as ck

import corpus

def item_counts(pd: str) -> dict:
    ctx = ck.SkeinContext()
    ck.conway(ck.parse_pd(pd), ctx)
    return {
        "nodes": ctx.nodes_expanded,
        "cache_hits": ctx.cache_hits,
        "memo_entries": len(ctx.memo),
    }


def main() -> None:
    polys = {}
    for family in (corpus.SKEIN_BRAIDS, corpus.CLI_BRAIDS):
        for item in corpus.braid_items(family, None):
            polys[item.name] = ck.format_poly(ck.conway(ck.parse_pd(item.pd)))
    table = [
        {"name": e.name, "pd": e.pd, "conway": ck.format_poly(e.conway)}
        for e in ck.load_table().values()
    ]
    counts = {
        name: {
            item.name: item_counts(item.pd)
            for item in corpus.braid_items(family, corpus.DEFAULT_SEED)
        }
        for name, family in corpus.FAMILIES.items()
    }
    golden = {"polynomials": polys, "table": table, "default_seed_counts": counts}
    corpus.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
