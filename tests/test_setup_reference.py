"""The set-up layers against the implementations they replaced.

``tests/reference_setup.py`` keeps the former extremality check, edge-list
parser, ``make_event``, ``uniform_variable``, encoders, ``cnf_to_instance``
and JSON loader. The current ones must give the same verdicts, graphs,
instances and error messages: on seeded inputs, on every builder at the
event width cap, and on seeded mutants of each input format. The encoders
store an instance's columns, which must equal those the public constructor
derives, and make its records only when they are read.
"""

import copy
import json
import pickle
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_setup as ref
from conftest import petersen_graph, random_cubic_graph
from prsampling import cnf, graphs, model
from prsampling.cli import main
from prsampling.cnf import CnfFormula, cnf_to_instance
from prsampling.errors import BudgetError
from prsampling.graph_apps import encode_hardcore, encode_sink_free, encode_spanning_tree
from prsampling.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    make_graph,
    parse_edge_list,
    write_edge_list,
)
from prsampling.model import (
    EventSpec,
    Instance,
    MAX_EVENT_VARS,
    MAX_PAIR_STATES,
    VariableSpec,
    instance_from_json,
    instance_to_json,
    is_extremal,
    make_event,
)
from prsampling.sampler import SamplerConfig, run_sampler
from prsampling.shearer import analyze_instance
from prsampling.verify import (
    random_extremal_instance,
    random_instance,
    random_weighted_instance,
)


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the type and text of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, BudgetError) as ex:
        return type(ex).__name__, str(ex)


PETERSEN = petersen_graph()
GRAPHS = [cycle_graph(5), complete_graph(4), PETERSEN, random_cubic_graph(12, 3)]


def _wide_clauses(width_a, width_b, shared):
    """Two clauses of the given widths sharing ``shared`` variables."""
    a = list(range(1, width_a + 1))
    b = list(range(width_a - shared + 1, width_a - shared + width_b + 1))
    return a, b


class TestIsExtremal:
    def test_random_instances_match_the_pairwise_scan(self, monkeypatch):
        # Small caps put some pair over the cap in many instances, so the
        # order of the over-cap and conflicting pairs is exercised too.
        rng = random.Random(20261018)
        generators = (random_instance, random_extremal_instance, random_weighted_instance)
        outcomes = set()
        for k in range(2000):
            inst = generators[k % 3](rng)
            for cap in (MAX_PAIR_STATES, 16, 64):
                monkeypatch.setattr(model, "MAX_PAIR_STATES", cap)
                got = _outcome(is_extremal, inst)
                assert got == _outcome(ref.is_extremal_pairwise, inst, max_pair_states=cap)
                outcomes.add(got if isinstance(got, bool) else got[0])
        assert outcomes == {True, False, "BudgetError"}

    @pytest.mark.parametrize("graph", GRAPHS, ids=["C5", "K4", "petersen", "R12"])
    def test_graph_encodings_match_the_pairwise_scan(self, graph, monkeypatch):
        encodings = [
            encode_hardcore(graph, Fraction(1, 3)),
            encode_sink_free(graph),
            encode_spanning_tree(graph, 0),
        ]
        for inst in encodings:
            for cap in (MAX_PAIR_STATES, 3 ** 8):
                monkeypatch.setattr(model, "MAX_PAIR_STATES", cap)
                got = _outcome(is_extremal, inst)
                assert got == _outcome(ref.is_extremal_pairwise, inst, max_pair_states=cap)

    @pytest.mark.parametrize(
        "clauses,verdict",
        [
            # A disjoint pair over 25 variables, alone, after and before a
            # conflicting pair: the first pair in ascending order decides.
            ([_wide_clauses(13, 13, 1)[0], [-1, *_wide_clauses(13, 13, 1)[1][1:]]], None),
            ([[30, 31], [31, 32], *_wide_clauses(13, 13, 1)], False),
            ([*_wide_clauses(13, 13, 1), [30, 31], [31, 32]], None),
            # Sharing two variables, with opposite signs on one of them or not.
            ([[1, 2, 3], [-1, 2, 4]], True),
            ([[1, 2, 3], [1, 2, 4]], False),
        ],
        ids=["wide-disjoint", "conflict-first", "wide-first", "two-shared-disjoint", "two-shared"],
    )
    def test_default_cap_and_multi_variable_pairs(self, clauses, verdict):
        inst = cnf_to_instance(CnfFormula(32, tuple(map(tuple, clauses))))
        got = _outcome(is_extremal, inst)
        assert got == _outcome(ref.is_extremal_pairwise, inst)
        assert got == verdict if verdict is not None else got[0] == "BudgetError"


def _cap_cases(width):
    """``(build, event id)`` for each builder, on input whose widest event
    depends on ``width`` variables."""
    wide = list(range(width))
    return {
        "EventSpec": (lambda: EventSpec(0, tuple(wide), frozenset()), 0),
        "make_event": (lambda: make_event(0, wide[::-1], [[0] * width]), 0),
        "cnf_to_instance": (
            lambda: cnf_to_instance(CnfFormula(width, ((1,), tuple(v + 1 for v in wide)))),
            1,
        ),
        "instance_from_json": (
            lambda: instance_from_json(
                {
                    "variables": [{"id": v, "domain": 2} for v in wide],
                    "events": [{"id": 0, "vars": wide, "violating": [[0] * width]}],
                }
            ),
            0,
        ),
        # C_width with the root hanging off vertex 0: one event per edge of
        # the cycle, then the cycle's.
        "encode_spanning_tree": (
            lambda: encode_spanning_tree(
                make_graph(width + 1, [(v, (v + 1) % width) for v in wide] + [(0, width)]),
                width,
            ),
            width,
        ),
        "encode_sink_free": (
            lambda: encode_sink_free(make_graph(width + 1, [(0, v + 1) for v in wide])),
            0,
        ),
    }


@pytest.mark.stream
class TestWidthCap:
    """Every builder raises the ``MAX_EVENT_VARS`` BudgetError for an event
    over the cap, with EventSpec's message, and builds one at the cap."""

    @pytest.mark.parametrize("builder", sorted(_cap_cases(MAX_EVENT_VARS)))
    def test_over_the_cap(self, builder):
        build, eid = _cap_cases(MAX_EVENT_VARS + 1)[builder]
        message = "event %d depends on %d variables; cap is %d" % (
            eid, MAX_EVENT_VARS + 1, MAX_EVENT_VARS
        )
        with pytest.raises(BudgetError, match="^%s$" % re.escape(message)):
            build()

    @pytest.mark.parametrize("builder", sorted(_cap_cases(MAX_EVENT_VARS)))
    def test_at_the_cap(self, builder):
        build, eid = _cap_cases(MAX_EVENT_VARS)[builder]
        built = build()
        events = (built,) if isinstance(built, EventSpec) else built.events
        assert len(events[eid].vbl) == MAX_EVENT_VARS


def _rebuilt(instance: Instance) -> Instance:
    """The instance made again through the checked public constructors."""
    return Instance(
        tuple(VariableSpec(*v._values()) for v in instance.variables),
        tuple(EventSpec(*e._values()) for e in instance.events),
    )


def _seeded_formulas(seed: int, count: int):
    """Formulas of up to 30 variables, each clause's literals in random
    order and of random signs, and some of the package's own."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 30)
        clauses = []
        for _ in range(rng.randrange(12)):
            chosen = rng.sample(range(1, n + 1), rng.randint(1, min(n, 8)))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
        yield CnfFormula(n, tuple(clauses))
    yield cnf.hard_example(3)
    yield cnf.monotone_cnf_from_graph(PETERSEN, 2)


def _json_objects(seed: int, count: int):
    """Instance JSON of random instances, some variables left uniform and
    some events with their variables in another order."""
    rng = random.Random(seed)
    generators = (random_instance, random_extremal_instance, random_weighted_instance)
    for k in range(count):
        obj = instance_to_json(generators[k % 3](rng))
        for v in obj["variables"]:
            if rng.random() < 0.3:
                del v["weights"]
        for e in obj["events"]:
            if rng.random() < 0.3:
                order = rng.sample(range(len(e["vars"])), len(e["vars"]))
                e["vars"] = [e["vars"][i] for i in order]
                e["violating"] = [[t[i] for i in order] for t in e["violating"]]
        yield obj


SEEDED_GRAPHS = GRAPHS + [random_cubic_graph(n, s) for n, s in ((16, 1), (50, 2), (200, 4))]
SEEDED_IDS = ["C5", "K4", "petersen", "R12", "R16", "R50", "R200"]


def _built(graph: Graph):
    """What every builder makes of the graph, and of its monotone formula,
    beside the former builders' outcome for the same input."""
    calls = [
        (encode_sink_free, ref.encode_sink_free, (graph,)),
        (encode_hardcore, ref.encode_hardcore, (graph, Fraction(1, 3))),
        (encode_spanning_tree, ref.encode_spanning_tree, (graph, 1)),
        (cnf_to_instance, ref.cnf_to_instance, (cnf.monotone_cnf_from_graph(graph, 2),)),
    ]
    return [(_outcome(new, *args), _outcome(former, *args)) for new, former, args in calls]


def _columns(instance: Instance):
    return instance.domains, instance.weights, instance.vbls, instance.violating


def _cached_properties(instance: Instance):
    keys, violating = instance.occurrence_tests
    return (
        instance.var_events,
        (tuple(map(repr, keys)), violating),
        instance.watch_index,
        instance.value_rows,
        instance.dependency_graph,
        instance.sampling_tables,
        instance.byte_tables,
        instance.certified_extremal,
    )


def _assert_behaves_as_record(made, rebuilt):
    """``made`` is to ``rebuilt`` what a record is to its equal twin."""
    assert type(made) is type(rebuilt)
    assert made == rebuilt and not made != rebuilt
    assert hash(made) == hash(rebuilt)
    assert repr(made) == repr(rebuilt)
    for twin in (copy.copy(made), copy.deepcopy(made), pickle.loads(pickle.dumps(made))):
        assert type(twin) is type(made) and twin == made
    for name in made._fields:
        with pytest.raises(AttributeError):
            setattr(made, name, getattr(made, name))
        with pytest.raises(AttributeError):
            delattr(made, name)


@pytest.mark.stream
class TestConstructions:
    """Each builder makes what the former, fully checked builder makes,
    which is what the public constructors make again of it."""

    @pytest.mark.parametrize("graph", SEEDED_GRAPHS, ids=SEEDED_IDS)
    def test_graph_encodings_equal_the_former_constructions(self, graph):
        for current, former in _built(graph):
            assert current == former
            if isinstance(current, Instance):  # not the cycle space's BudgetError
                assert _columns(current) == _columns(former) == _columns(_rebuilt(current))
                assert current == _rebuilt(current)
                assert hash(current) == hash(former)

    @pytest.mark.filterwarnings("ignore:graph is not regular")
    @pytest.mark.parametrize("graph", [make_graph(0, []), make_graph(7, [(0, 1), (2, 3), (2, 4)])])
    def test_degenerate_graphs(self, graph):
        for current, former in _built(graph):
            assert current == former
            if isinstance(current, Instance):
                assert _columns(current) == _columns(former)

    def test_formulas_equal_the_former_construction(self):
        for formula in _seeded_formulas(5, 300):
            current = cnf_to_instance(formula)
            assert _columns(current) == _columns(ref.cnf_to_instance(formula))
            assert current == ref.cnf_to_instance(formula) == _rebuilt(current)
            assert hash(current) == hash(ref.cnf_to_instance(formula))

    @pytest.mark.parametrize("lam", [Fraction(1, 10), Fraction(3), 0])
    def test_hardcore_equals_fresh_weights_per_vertex(self, lam):
        graph = random_cubic_graph(12, 1)
        lam = Fraction(lam)
        former = Instance(
            tuple(
                VariableSpec(v, 2, (1 / (1 + lam), lam / (1 + lam)))
                for v in range(graph.num_vertices)
            ),
            tuple(
                EventSpec(eid, edge, frozenset({(1, 1)}))
                for eid, edge in enumerate(graph.edges)
            ),
        )
        assert encode_hardcore(graph, lam) == former

    def test_instance_from_json_equals_the_former_construction(self):
        rng = random.Random(11)
        for _ in range(300):
            obj = instance_to_json(random_weighted_instance(rng))
            obj["variables"][0].pop("weights")  # one uniform variable
            event = obj["events"][0]  # and one event with its variables reversed
            for t in [event["vars"], *event["violating"]]:
                t.reverse()
            former = Instance(
                tuple(
                    VariableSpec(v["id"], v["domain"], tuple(map(Fraction, v["weights"])))
                    if "weights" in v
                    else ref.uniform_variable(v["id"], v["domain"])
                    for v in obj["variables"]
                ),
                tuple(
                    ref.make_event(e["id"], e["vars"], e["violating"]) for e in obj["events"]
                ),
            )
            assert instance_from_json(obj) == former

    def test_instance_from_json_equals_the_former_loader(self):
        for obj in _json_objects(12, 600):
            current = instance_from_json(obj)
            assert current == ref.instance_from_json(obj) == _rebuilt(current)

    def test_instance_to_json_writes_what_the_records_write(self):
        rng = random.Random(13)
        generators = (random_instance, random_extremal_instance, random_weighted_instance)
        drawn = [generators[k % 3](rng) for k in range(300)]
        encoded = [encode() for encode in ENCODINGS.values()]
        for instance in drawn + encoded:
            assert instance_to_json(instance) == ref.instance_to_json(instance)

    def test_equal_weight_strings_share_one_tuple(self):
        weights = ["1/3", "2/3"]
        obj = {
            "variables": [{"id": v, "domain": 2, "weights": list(weights)} for v in range(3)],
            "events": [],
        }
        first, *rest = instance_from_json(obj).variables
        assert all(v.weights is first.weights for v in rest)

    def test_equal_weightless_domains_share_one_tuple(self):
        # Past the domains whose uniform weights are made once per process.
        obj = {"variables": [{"id": v, "domain": 1000} for v in range(3)], "events": []}
        instance = instance_from_json(obj)
        first, *rest = instance.variables
        assert all(v.weights is first.weights for v in rest)
        assert len(set(map(id, instance.sampling_tables))) == 1

    def test_specs_behave_as_records(self):
        graph = random_cubic_graph(30, 2)
        built = [
            encode_sink_free(graph),
            encode_hardcore(graph, Fraction(1, 10)),
            encode_spanning_tree(PETERSEN, 0),
            cnf_to_instance(next(_seeded_formulas(3, 1))),
            instance_from_json(next(_json_objects(4, 1))),
        ]
        for made in built:
            rebuilt = _rebuilt(made)
            _assert_behaves_as_record(made, rebuilt)
            for spec, twin in zip(made.variables + made.events, rebuilt.variables + rebuilt.events):
                _assert_behaves_as_record(spec, twin)
            assert _cached_properties(made) == _cached_properties(rebuilt)


LAZY_GRAPH = random_cubic_graph(16, 5)
ENCODINGS = {
    "hardcore": lambda: encode_hardcore(LAZY_GRAPH, 1),
    "sink-free": lambda: encode_sink_free(LAZY_GRAPH),
    "spanning-tree": lambda: encode_spanning_tree(LAZY_GRAPH, 0),
    "cnf": lambda: cnf_to_instance(cnf.monotone_cnf_from_graph(LAZY_GRAPH, 2)),
}


def _records(instance: Instance) -> set:
    """The record views an instance has made."""
    return {"events", "variables"} & set(vars(instance))


# The Petersen encodings as instance JSON, for the loader.
LOADED = {
    "hardcore": instance_to_json(encode_hardcore(PETERSEN, 1)),
    "sink-free": instance_to_json(encode_sink_free(PETERSEN)),
    "spanning-tree": instance_to_json(encode_spanning_tree(PETERSEN, 0)),
    "cnf": instance_to_json(cnf_to_instance(cnf.monotone_cnf_from_graph(PETERSEN, 2))),
}

# What may be done to a loaded instance, and to a second load of its JSON.
_STEPS = {
    "nothing": lambda instance, again: None,
    "general_prs": lambda instance, again: run_sampler(
        "general_prs", instance, SamplerConfig(seed=1, record_log=False)
    ),
    "analysis": lambda instance, again: analyze_instance(instance),
    "equality": lambda instance, again: instance == again or pytest.fail("loads differ"),
    "hash": lambda instance, again: hash(instance) == hash(again) or pytest.fail("hashes differ"),
    "instance_to_json": lambda instance, again: instance_to_json(instance),
}


class TestRecordsOnFirstRead:
    """An encoder and the JSON loader store columns only: a draw, an
    analysis, ``==``, ``hash`` and ``instance_to_json`` read them and make
    no ``VariableSpec`` or ``EventSpec``."""

    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_one_draw_makes_no_record(self, encoding):
        kinds = ["general_prs", "moser_tardos"]
        if ENCODINGS[encoding]().extremal:
            kinds.append("extremal_prs")
        for kind in kinds:
            instance = ENCODINGS[encoding]()
            _, stats = run_sampler(kind, instance, SamplerConfig(seed=1, record_log=False))
            assert stats.rounds and not _records(instance), kind

    def test_extremal_draws_are_covered(self):
        assert {name for name, encode in ENCODINGS.items() if encode().extremal} == {
            "sink-free",
            "spanning-tree",
        }

    @pytest.mark.parametrize("graph", [cycle_graph(7), PETERSEN], ids=["C7", "petersen"])
    def test_an_analysis_makes_no_record(self, graph):
        encoded = (encode_sink_free(graph), encode_hardcore(graph, 1), encode_spanning_tree(graph, 0))
        for instance in encoded:
            analyze_instance(instance)
            assert not _records(instance)

    def test_every_builder_stores_the_columns(self):
        encoded = [encode() for encode in ENCODINGS.values()]
        built = encoded + [_rebuilt(encoded[0])] + list(map(instance_from_json, LOADED.values()))
        for instance in built:
            assert set(vars(instance)) >= {"domains", "weights", "vbls", "violating"}

    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_equality_of_two_encodings_makes_no_record(self, encoding):
        a, b = ENCODINGS[encoding](), ENCODINGS[encoding]()
        assert a == b and hash(a) == hash(b)
        assert not _records(a) and not _records(b)

    @pytest.mark.parametrize("step", list(_STEPS))
    @pytest.mark.parametrize("encoding", sorted(LOADED))
    def test_a_loaded_instance_makes_no_record(self, encoding, step):
        instance, again = instance_from_json(LOADED[encoding]), instance_from_json(LOADED[encoding])
        _STEPS[step](instance, again)
        assert not _records(instance) and not _records(again)

    def test_records_once_read_are_kept(self):
        instance = ENCODINGS["cnf"]()
        variables, events = instance.variables, instance.events
        assert instance.variables is variables and instance.events is events
        assert {"events", "variables"} <= set(vars(instance))


# Edge-list lines: edges over a few labels, sparse or dense, repeated or
# negative, with comments, blank lines and malformed tokens mixed in.
_small = st.integers(0, 6)
_label = st.one_of(
    _small, _small, st.integers(0, 40), st.sampled_from([-1, -7, "-0", "+1", "1_0", "x", "٢"])
)
_edge = st.tuples(_label, _label, st.sampled_from(["", "  # note", "#", "\t"])).map(
    lambda t: "%s %s%s" % t
)
_line = st.one_of(_edge, _edge, _edge, st.sampled_from(["", "# comment", "   ", "1 2 3", "7"]))


@st.composite
def _written_edge_lists(draw):
    """``write_edge_list`` of a random graph, its labels dense or sparse, with
    at most one mutation: a reversed pair, a repeated line, a self-loop, a
    leading zero, no final newline or CRLF line ends."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    sparse = st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True)
    labels = draw(st.one_of(st.none(), sparse))
    lines = write_edge_list(make_graph(n, edges), labels).splitlines(keepends=True)
    mutation = draw(st.sampled_from(["", "reverse", "repeat", "loop", "zero", "unended", "crlf"]))
    if lines and mutation in ("reverse", "repeat", "loop", "zero"):
        i = draw(st.integers(0, len(lines) - 1))
        u, v = lines[i].split()
        if mutation == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            pair = {"reverse": (v, u), "loop": (u, u), "zero": ("0" + u, v)}[mutation]
            lines[i] = "%s %s\n" % pair
    text = "".join(lines)
    if mutation == "unended":
        return text.removesuffix("\n")
    return text.replace("\n", "\r\n") if mutation == "crlf" else text


@pytest.mark.stream
class TestParseEdgeList:
    """The one-pass read of a written edge list and the line parser give
    what the former parser gives, error messages included."""

    @settings(max_examples=500)
    @given(_written_edge_lists())
    def test_written_lists_match_the_former_parser(self, text):
        assert _outcome(parse_edge_list, text) == _outcome(ref.parse_edge_list, text)

    @pytest.mark.parametrize("first", ["1 1\n", "2 1\n", "0 1\n"])
    def test_labels_past_the_digit_limit_go_line_by_line(self, first):
        text = first + "9" * 5000 + " 3\n"  # past int's default limit of 4300 digits
        assert _outcome(parse_edge_list, text) == _outcome(ref.parse_edge_list, text)

    @pytest.mark.parametrize("graph", SEEDED_GRAPHS, ids=SEEDED_IDS)
    def test_written_lists_read_back_in_one_pass(self, graph):
        expected = graph, list(range(graph.num_vertices))
        text = write_edge_list(graph)
        assert graphs._parse_canonical(text) == expected
        assert parse_edge_list(text) == expected

    @settings(max_examples=500)
    @given(st.lists(_line, max_size=25))
    def test_matches_the_former_parser(self, lines):
        text = "\n".join(lines)
        assert _outcome(parse_edge_list, text) == _outcome(ref.parse_edge_list, text)

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
    def test_valid_lists_match_the_former_parser(self, pairs):
        text = "".join("%d %d\n" % p for p in pairs)
        assert _outcome(parse_edge_list, text) == _outcome(ref.parse_edge_list, text)


# --- mutation fuzzing of the three input formats ---------------------------

# Values a mutant puts in place of a JSON value: out of range, of the wrong
# type, or at the width cap; 2^64 is too large for any index.
_ODD_JSON = (-1, 0, 1, 2, 3, MAX_EVENT_VARS + 1, 2 ** 64, True, 1.5, "1/2", "x", None, [], {}, [0], [[0]])
_ODD_DIMACS = ("0", "-0", "1", "-1", "2", "-3", "25", "99", "+1", "1.5", "x", "p", "c", "\u0661", "p cnf 3 2")
_ODD_EDGES = ("0", "1", "-1", "2", "5", "40", "+1", "-0", "x", "#", "1 2 3", "\u0662")
_FORBIDDEN = {"TypeError", "KeyError", "IndexError", "OverflowError", "ZeroDivisionError", "MemoryError"}


def _any_outcome(fn, *args):
    """The result of a call, or the type name and text of any error it raised."""
    try:
        return fn(*args)
    except Exception as ex:  # noqa: BLE001 - the fuzzer compares every outcome
        return type(ex).__name__, str(ex)


def _mutate_json(obj, rng: random.Random) -> None:
    """Replace, nudge, delete, repeat or append one value somewhere in obj."""
    slots = []

    def walk(node):
        if isinstance(node, (dict, list)):
            for key in list(node.keys() if isinstance(node, dict) else range(len(node))):
                slots.append((node, key))
                walk(node[key])

    walk(obj)
    node, key = rng.choice(slots)
    op = rng.randrange(5)
    if op == 0 and type(node[key]) is int:
        node[key] += rng.choice((-1, 1))
    elif op == 1:
        del node[key]
    elif op == 2 and isinstance(node, list):
        node.insert(key, copy.deepcopy(node[key]))
    elif op == 3 and isinstance(node[key], list):
        node[key].append(copy.deepcopy(rng.choice(_ODD_JSON)))
    else:
        node[key] = copy.deepcopy(rng.choice(_ODD_JSON))


def _mutate_text(text: str, rng: random.Random, odd: tuple[str, ...]) -> str:
    """Delete or repeat a line, or replace, delete, repeat or nudge a token."""
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    tokens = lines[i].split(" ")
    j = rng.randrange(len(tokens))
    op = rng.randrange(6)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        del tokens[j]
    elif op == 3:
        tokens.insert(j, tokens[j])
    elif op == 4 and tokens[j].lstrip("-").isdigit():
        tokens[j] = str(int(tokens[j]) + rng.choice((-1, 1)))
    else:
        tokens[j] = rng.choice(odd)
    if op >= 2:
        lines[i] = " ".join(tokens)
    return "\n".join(lines)


def _mutants(bases, mutate, rng: random.Random, count: int):
    """``count`` mutants, each of a base copy with one mutation, or two or
    three in a few."""
    for k in range(count):
        mutant = copy.deepcopy(bases[k % len(bases)])
        for _ in range(rng.choice((1, 1, 1, 1, 2, 2, 3))):
            mutant = mutate(mutant, rng)
        yield mutant


def _load_edge_list(parse, encoders):
    def load(text):
        graph, labels = parse(text)
        return graph, labels, [_any_outcome(encode, graph) for encode in encoders]

    return load


LOADERS = {
    "json": (instance_from_json, ref.instance_from_json),
    "dimacs": (
        lambda text: cnf_to_instance(cnf.parse_dimacs(text)),
        lambda text: ref.cnf_to_instance(cnf.parse_dimacs(text)),
    ),
    "edges": tuple(
        _load_edge_list(parse, encoders)
        for parse, encoders in (
            (
                parse_edge_list,
                (
                    encode_sink_free,
                    lambda g: encode_hardcore(g, Fraction(1, 3)),
                    lambda g: encode_spanning_tree(g, 0),
                ),
            ),
            (
                ref.parse_edge_list,
                (
                    ref.encode_sink_free,
                    lambda g: ref.encode_hardcore(g, Fraction(1, 3)),
                    lambda g: ref.encode_spanning_tree(g, 0),
                ),
            ),
        )
    ),
}


def _fuzz_inputs(fmt: str, seed: int, count: int):
    rng = random.Random(seed)
    if fmt == "json":
        bases = list(_json_objects(seed, 30))

        def mutate(obj, rng):
            _mutate_json(obj, rng)
            return obj

        return _mutants(bases, mutate, rng, count)
    if fmt == "dimacs":
        bases = [cnf.write_dimacs(f) for f in _seeded_formulas(seed, 30)]
        return _mutants(bases, lambda t, rng: _mutate_text(t, rng, _ODD_DIMACS), rng, count)
    graphs = [cycle_graph(5), complete_graph(4), PETERSEN, random_cubic_graph(10, seed)]
    bases = [write_edge_list(g) for g in graphs]
    # Sparse labels, which the parser makes dense.
    bases += [write_edge_list(g, [3 * v + 2 for v in range(g.num_vertices)]) for g in graphs]
    return _mutants(bases, lambda t, rng: _mutate_text(t, rng, _ODD_EDGES), rng, count)


# Per format, the command lines a mutant file is given to, in turn; the
# round cap ends a sampler on an instance with no valid assignment soon.
_SAMPLE = ["--seed", "1", "--round-cap", "50"]
_CLI_COMMANDS = {
    "json": (["sample", "instance", *_SAMPLE, "--file"], ["analyze", "instance", "--file"]),
    "dimacs": (["sample", "cnf", *_SAMPLE, "--file"], ["analyze", "cnf", "--file"]),
    "edges": (
        ["sample", "sink-free", *_SAMPLE, "--graph"],
        ["analyze", "graph", "--app", "spanning-tree", "--file"],
        ["sample", "hardcore", "--lam", "1/3", *_SAMPLE, "--graph"],
        ["analyze", "graph", "--app", "sink-free", "--file"],
        ["sample", "spanning-tree", *_SAMPLE, "--graph"],
        ["analyze", "graph", "--app", "hardcore", "--file"],
    ),
}


@pytest.mark.stream
class TestMutationFuzz:
    """Seeded mutants of valid instance JSON, DIMACS and edge lists: the
    current loaders and the former ones, which check every spec again, load
    equal instances or raise the same error with the same message, and no
    mutant ends in a TypeError, KeyError, IndexError, OverflowError,
    ZeroDivisionError or MemoryError. The CLI exits 0, 1 or 2 on each."""

    @pytest.mark.parametrize("fmt,count", [("json", 4000), ("dimacs", 4000), ("edges", 1500)])
    def test_mutants_load_alike(self, fmt, count):
        current, former = LOADERS[fmt]
        outcomes = Counter()
        for mutant in _fuzz_inputs(fmt, 2026, count):
            got = _any_outcome(current, mutant)
            assert got == _any_outcome(former, mutant), mutant
            failed = type(got) is tuple and type(got[0]) is str
            assert not (failed and got[0] in _FORBIDDEN), (got, mutant)
            outcomes[got[0] if failed else "loaded"] += 1
        # The mutants reach the checks, and one in twenty or more loads.
        assert outcomes["ValueError"] and outcomes["loaded"] * 20 >= count

    def test_cli_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "mutant"
        # A weightless domain too large for any index, then the mutants.
        big = {"variables": [{"id": 0, "domain": 2 ** 64}], "events": []}
        for fmt, commands in _CLI_COMMANDS.items():
            texts = _fuzz_inputs(fmt, 2026, 250)
            if fmt == "json":
                texts = map(json.dumps, [big, *texts])
            codes = Counter()
            for k, text in enumerate(texts):
                path.write_text(text, encoding="utf-8")
                code = main([*commands[k % len(commands)], str(path)])
                err = capsys.readouterr().err
                assert code in (0, 1, 2) and "Traceback" not in err, (fmt, code, err, text)
                codes[code] += 1
            assert codes[0] and codes[1], fmt
