"""The value types behave as they did when they were dataclasses.

Crossing and KnotTableEntry are NamedTuples; Diagram, IntPoly,
SkeinContext and VerifyConfig are plain classes.  The expected reprs were recorded from the
dataclass versions.
"""

import copy
import pickle

import pytest

from conwaykit.diagram import Crossing, Diagram, parse_pd
from conwaykit.poly import IntPoly, parse_poly
from conwaykit.skein import SkeinContext, conway
from conwaykit.table import KnotTableEntry, load_table

TREFOIL = "X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"


def values():
    d = parse_pd(TREFOIL)
    ctx = SkeinContext()
    conway(d, ctx)
    return {
        "Crossing": d.crossings[0],
        "Diagram": d,
        "IntPoly": parse_poly("1+z^2"),
        "KnotTableEntry": load_table()["3_1"],
        "SkeinContext": ctx,
    }


def test_reprs():
    v = values()
    x = "Crossing(a=1, b=4, c=2, d=5, over_in='b')"
    assert repr(v["Crossing"]) == x
    assert repr(v["Diagram"]) == (
        f"Diagram(crossings=({x}, Crossing(a=3, b=6, c=4, d=1, over_in='b'), "
        "Crossing(a=5, b=2, c=6, d=3, over_in='b')), free_loops=0)"
    )
    assert repr(v["IntPoly"]) == "IntPoly('1+z^2')"
    assert repr(v["KnotTableEntry"]) == (
        "KnotTableEntry(name='3_1', pd='X(2,4,3,1);X(4,6,5,3);X(6,2,1,5)', "
        "conway=IntPoly('1+z^2'), components=1)"
    )
    assert repr(v["SkeinContext"]) == (
        "SkeinContext(memo={'X(1,3,2,4);X(4,2,3,1)': IntPoly('-z'), "
        "'X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)': IntPoly('1+z^2')}, "
        "node_budget=1000000, nodes_expanded=5, cache_hits=0, reduce_diagrams=True)"
    )
    assert repr(Diagram()) == "Diagram(crossings=(), free_loops=0)"
    assert repr(IntPoly()) == "IntPoly('0')"


def test_keyword_construction_and_defaults():
    # a caller sets the budget and the reduction switch; the memo and the
    # counters are state that the context starts empty
    assert vars(SkeinContext(node_budget=5)) == {
        "memo": {}, "node_budget": 5, "nodes_expanded": 0, "cache_hits": 0,
        "reduce_diagrams": True,
    }
    assert SkeinContext(node_budget=5) == SkeinContext(5, True)
    for state in ("memo", "nodes_expanded", "cache_hits"):
        with pytest.raises(TypeError):
            SkeinContext(**{state: None})
    assert SkeinContext().memo is not SkeinContext().memo
    assert Diagram() == Diagram(crossings=(), free_loops=0)
    assert Diagram(free_loops=1).crossings == ()
    assert IntPoly() == IntPoly(coeffs=())
    x = Crossing(a=1, b=4, c=2, d=5, over_in="b")
    assert x == values()["Crossing"] and x.sign == -1
    entry = values()["KnotTableEntry"]
    assert KnotTableEntry(
        name="3_1", pd=entry.pd, conway=entry.conway, components=1
    ) == entry


def test_equal_values_are_equal_and_hash_equal():
    a, b = values(), values()
    for name in a:
        assert a[name] == b[name], name
        assert a[name] is not b[name]
        if name == "SkeinContext":
            with pytest.raises(TypeError):
                hash(a[name])  # mutable, as before
        else:
            assert hash(a[name]) == hash(b[name]), name
    assert SkeinContext(node_budget=5) != SkeinContext()
    assert SkeinContext().__eq__(vars(SkeinContext())) is NotImplemented
    assert Diagram() != Diagram(free_loops=1)
    assert IntPoly((1,)) != IntPoly((0, 1))


def test_diagram_and_poly_are_not_tuples():
    v = values()
    d, p = v["Diagram"], v["IntPoly"]
    assert d != (d.crossings, 0)
    assert p != (1, 0, 1) and p != p.coeffs
    assert Diagram() != ((), 0)


def test_crossing_equals_the_tuple_of_its_fields():
    # the one visible change from the dataclass version
    assert values()["Crossing"] == (1, 4, 2, 5, "b")


@pytest.mark.parametrize(
    "name, field", [("Crossing", "a"), ("Diagram", "crossings"),
                    ("IntPoly", "coeffs"), ("KnotTableEntry", "name")]
)
def test_fields_are_read_only(name, field):
    value = values()[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, 1)
    assert getattr(value, field) == before
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_skein_context_fields_are_writable():
    ctx = SkeinContext()
    ctx.node_budget = 7
    assert ctx == SkeinContext(node_budget=7)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips(protocol):
    d = values()["Diagram"]
    d._cycles  # cached arc data must not get in the way
    for name, value in dict(values(), Diagram=d).items():
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and repr(back) == repr(value), name
        assert type(back) is type(value)


def test_copy_and_deepcopy_round_trips():
    for name, value in values().items():
        for clone in (copy.copy(value), copy.deepcopy(value)):
            assert clone == value and repr(clone) == repr(value), name
    ctx = values()["SkeinContext"]
    assert copy.deepcopy(ctx).memo is not ctx.memo
    p = IntPoly((1, 2))
    assert copy.deepcopy(p).coeffs == (1, 2)
    assert conway(copy.deepcopy(values()["Diagram"])) == IntPoly((1, 0, 1))


def test_verify_config():
    from conwaykit import VerifyConfig

    config = VerifyConfig(max_n=3, seed=7)
    assert repr(config) == "VerifyConfig(max_n=3, max_l=50, max_r=50, seed=7)"
    # the sweep sizes are constants of conwaykit.verify, and KNOT_TABLE names
    # the table
    for name in ("theorem_max_n", "table_path", "diagram_samples", "pair_samples"):
        with pytest.raises(TypeError):
            VerifyConfig(**{name: None})
    assert VerifyConfig() == VerifyConfig() and config != VerifyConfig()
    assert pickle.loads(pickle.dumps(config)) == config == copy.deepcopy(config)
    config.max_n = 50
    assert config == VerifyConfig(seed=7)
