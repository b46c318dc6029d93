"""The value classes' record behaviour: ``==``, ``hash``, ``repr``,
construction and (im)mutability, pinned class by class, and the exact JSON
form of each class that has one.

Each case gives a class, one value per field in declaration order, and the
exact ``repr``. The expectations are those of a frozen dataclass (a plain
one for ``RunStats``), so any reimplementation must keep them.
"""

import copy
import json
import pickle
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from prsampling.cnf import CnfFormula, CnfStats
from prsampling.graph_apps import PathEndpointMatrix
from prsampling.graphs import Graph
from prsampling.model import DependencyGraph, EventSpec, Instance, VariableSpec
from prsampling.records import FrozenRecord, Record
from prsampling.sampler import RunStats, SamplerConfig
from prsampling.shearer import GprsCheck, ShearerReport
from prsampling.verify import OracleResult, UniformityVerdict

HALVES = (F(1, 2), F(1, 2))
VAR0, VAR1 = VariableSpec(0, 2, HALVES), VariableSpec(1, 2, HALVES)
EVENT = EventSpec(0, (0, 1), frozenset({(0, 1)}))
GPRS = GprsCheck(F(1, 8), F(1, 4), 2, 1, 2, True, True, False, 0.5, 1.5)

VAR_REPR = "VariableSpec(id=%d, domain_size=2, weights=(Fraction(1, 2), Fraction(1, 2)))"
EVENT_REPR = "EventSpec(id=0, vbl=(0, 1), violating=frozenset({(0, 1)}))"
GPRS_REPR = (
    "GprsCheck(p=Fraction(1, 8), r=Fraction(1, 4), delta=2, c1=1, c2=2, applicable=True, "
    "cond1=True, cond2=False, product1=0.5, product2=1.5)"
)

# (class, {field: value} in declaration order, the exact repr)
FROZEN = {
    "Graph": (
        Graph,
        {"num_vertices": 3, "edges": ((0, 1), (1, 2))},
        "Graph(num_vertices=3, edges=((0, 1), (1, 2)))",
    ),
    "VariableSpec": (
        VariableSpec,
        {"id": 0, "domain_size": 2, "weights": HALVES},
        VAR_REPR % 0,
    ),
    "EventSpec": (
        EventSpec,
        {"id": 0, "vbl": (0, 1), "violating": frozenset({(0, 1)})},
        EVENT_REPR,
    ),
    "Instance": (
        Instance,
        {"variables": (VAR0, VAR1), "events": (EVENT,)},
        "Instance(variables=(%s, %s), events=(%s,))" % (VAR_REPR % 0, VAR_REPR % 1, EVENT_REPR),
    ),
    "DependencyGraph": (
        DependencyGraph,
        {"num_events": 2, "adjacency": ((1,), (0,))},
        "DependencyGraph(num_events=2, adjacency=((1,), (0,)))",
    ),
    "SamplerConfig": (
        SamplerConfig,
        {"seed": 7, "round_cap": 5, "record_log": False, "check_extremal": False},
        "SamplerConfig(seed=7, round_cap=5, record_log=False, check_extremal=False)",
    ),
    "CnfFormula": (
        CnfFormula,
        {"num_vars": 2, "clauses": ((1, -2),)},
        "CnfFormula(num_vars=2, clauses=((1, -2),))",
    ),
    "CnfStats": (
        CnfStats,
        {
            "num_vars": 2, "num_clauses": 1, "uniform_width": 2, "max_var_degree": 1,
            "min_shared": None, "extremal": True,
        },
        "CnfStats(num_vars=2, num_clauses=1, uniform_width=2, max_var_degree=1, "
        "min_shared=None, extremal=True)",
    ),
    "PathEndpointMatrix": (
        PathEndpointMatrix,
        {"k": 4, "lam": F(1), "w": ((F(1, 2), F(1, 4)), (F(1, 4), F(0)))},
        "PathEndpointMatrix(k=4, lam=Fraction(1, 1), w=((Fraction(1, 2), Fraction(1, 4)), "
        "(Fraction(1, 4), Fraction(0, 1))))",
    ),
    "GprsCheck": (
        GprsCheck,
        {
            "p": F(1, 8), "r": F(1, 4), "delta": 2, "c1": 1, "c2": 2, "applicable": True,
            "cond1": True, "cond2": False, "product1": 0.5, "product2": 1.5,
        },
        GPRS_REPR,
    ),
    "ShearerReport": (
        ShearerReport,
        {
            "num_events": 1, "max_degree": 0, "p": (F(1, 2),), "extremal": True,
            "q_empty": F(1, 2), "q_singletons": (F(1, 2),), "shearer_ok": True,
            "expected_total": F(1), "expected_per_event": (F(1),), "lll_ok": True,
            "p_max": F(1, 2), "symmetric_pc": None, "linear_coefficient": None, "gprs": GPRS,
        },
        "ShearerReport(num_events=1, max_degree=0, p=(Fraction(1, 2),), extremal=True, "
        "q_empty=Fraction(1, 2), q_singletons=(Fraction(1, 2),), shearer_ok=True, "
        "expected_total=Fraction(1, 1), expected_per_event=(Fraction(1, 1),), lll_ok=True, "
        "p_max=Fraction(1, 2), symmetric_pc=None, linear_coefficient=None, gprs=%s)" % GPRS_REPR,
    ),
    "OracleResult": (
        OracleResult,
        {
            "satisfiable": True, "valid_assignments": ((0, 1), (1, 0)),
            "probabilities": HALVES, "q_empty_check": F(1, 2),
        },
        "OracleResult(satisfiable=True, valid_assignments=((0, 1), (1, 0)), "
        "probabilities=(Fraction(1, 2), Fraction(1, 2)), q_empty_check=Fraction(1, 2))",
    ),
    "UniformityVerdict": (
        UniformityVerdict,
        {
            "n": 100, "num_outcomes": 2, "tv": 0.05, "chi2": 1.25, "dof": 1, "p_value": 0.26,
            "tv_max": 0.01, "p_min": 0.001, "invalid_outcomes": 0, "passed": True,
        },
        "UniformityVerdict(n=100, num_outcomes=2, tv=0.05, chi2=1.25, dof=1, p_value=0.26, "
        "tv_max=0.01, p_min=0.001, invalid_outcomes=0, passed=True)",
    ),
}

# For each class, one field and another valid value for it.
OTHER_VALUE = {
    "Graph": ("edges", ((0, 1),)),
    "VariableSpec": ("id", 1),
    "EventSpec": ("violating", frozenset({(1, 1)})),
    "Instance": ("events", ()),
    "DependencyGraph": ("adjacency", ((), ())),
    "SamplerConfig": ("seed", 8),
    "CnfFormula": ("clauses", ((1, 2),)),
    "CnfStats": ("extremal", False),
    "PathEndpointMatrix": ("k", 5),
    "GprsCheck": ("product2", 2.5),
    "ShearerReport": ("lll_ok", False),
    "OracleResult": ("q_empty_check", F(1, 4)),
    "UniformityVerdict": ("passed", False),
}


@pytest.fixture(params=sorted(FROZEN))
def case(request):
    cls, fields, text = FROZEN[request.param]
    return request.param, cls, fields, text


class TestFrozenRecords:
    def test_positional_and_keyword_construction(self, case):
        _, cls, fields, _ = case
        by_position, by_keyword = cls(*fields.values()), cls(**fields)
        for name, value in fields.items():
            assert getattr(by_position, name) is value
            assert getattr(by_keyword, name) is value
        assert by_position == by_keyword

    def test_exact_repr(self, case):
        _, cls, fields, text = case
        assert repr(cls(*fields.values())) == text

    def test_equality_and_hash_over_the_fields(self, case):
        label, cls, fields, _ = case
        a, b = cls(*fields.values()), cls(*fields.values())
        assert a == b and not a != b
        # An Instance stores and hashes its four columns, not its record views.
        values = (
            ((2, 2), (HALVES, HALVES), ((0, 1),), (frozenset({(0, 1)}),))
            if cls is Instance
            else tuple(fields.values())
        )
        assert hash(a) == hash(b) == hash(values)
        name, value = OTHER_VALUE[label]
        other = cls(**{**fields, name: value})
        assert a != other and not a == other

    def test_no_equality_with_another_type(self, case):
        _, cls, fields, _ = case
        a = cls(*fields.values())
        assert a.__eq__(SimpleNamespace(**fields)) is NotImplemented
        assert a != tuple(fields.values())
        assert a != SimpleNamespace(**fields)
        assert a != object()

    def test_fields_cannot_be_set_or_deleted(self, case):
        _, cls, fields, _ = case
        a = cls(*fields.values())
        for name, value in fields.items():
            with pytest.raises(AttributeError):
                setattr(a, name, value)
            with pytest.raises(AttributeError):
                delattr(a, name)
            assert getattr(a, name) is value

    def test_copy_and_pickle(self, case):
        _, cls, fields, _ = case
        a = cls(*fields.values())
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(b) is cls and b == a and hash(b) == hash(a)

    def test_signature_errors(self, case):
        _, cls, fields, _ = case
        (first, value), *rest = fields.items()
        with pytest.raises(TypeError):
            cls(*fields.values(), value)  # too many positional arguments
        with pytest.raises(TypeError):
            cls(**dict(rest))  # the first field, required in every class, missing
        with pytest.raises(TypeError):
            cls(**fields, unknown=value)
        with pytest.raises(TypeError):
            cls(value, **fields)  # the first field by position and by keyword

    def test_defaults(self):
        assert SamplerConfig(7) == SamplerConfig(7, 10 ** 6, True, True)
        assert repr(SamplerConfig(seed=7)) == (
            "SamplerConfig(seed=7, round_cap=1000000, record_log=True, check_extremal=True)"
        )

    @pytest.mark.parametrize(
        "make,attribute",
        [
            (lambda: Graph(3, ((0, 1), (1, 2))), "adjacency"),
            (lambda: Instance((VAR0, VAR1), (EVENT,)), "var_events"),
        ],
    )
    def test_cached_values_take_no_part(self, make, attribute):
        a, b = make(), make()
        text = repr(a)
        getattr(a, attribute)
        assert a == b and hash(a) == hash(b) and repr(a) == text


RUN_FIELDS = {
    "rounds": 3, "total_resamples": 4, "event_resamples": [1, 3], "variable_resamples": 5,
    "halted": True, "log": [(0,), (1,)], "var_log": [(2,)],
}


class TestRunStats:
    def test_defaults_and_repr(self):
        assert repr(RunStats()) == (
            "RunStats(rounds=0, total_resamples=0, event_resamples=None, "
            "variable_resamples=0, halted=False, log=[], var_log=[])"
        )
        assert repr(RunStats(*RUN_FIELDS.values())) == (
            "RunStats(rounds=3, total_resamples=4, event_resamples=[1, 3], "
            "variable_resamples=5, halted=True, log=[(0,), (1,)], var_log=[(2,)])"
        )

    def test_positional_and_keyword_construction(self):
        by_position, by_keyword = RunStats(*RUN_FIELDS.values()), RunStats(**RUN_FIELDS)
        for name, value in RUN_FIELDS.items():
            assert getattr(by_position, name) is value
            assert getattr(by_keyword, name) is value
        assert RunStats(log=None, var_log=None).log is None
        assert RunStats(event_resamples=[0]).event_resamples == [0]

    def test_signature_errors(self):
        # Every field has a default, so none can be missing.
        with pytest.raises(TypeError):
            RunStats(*RUN_FIELDS.values(), None)  # too many positional arguments
        with pytest.raises(TypeError):
            RunStats(unknown=0)
        with pytest.raises(TypeError):
            RunStats(3, rounds=3)  # by position and by keyword

    def test_fresh_logs_per_instance(self):
        a, b = RunStats(), RunStats()
        assert a.log == a.var_log == [] and a.log is not b.log and a.var_log is not b.var_log
        assert a.log is not a.var_log
        a.log.append((0,))
        assert b.log == [] and RunStats().log == []

    def test_mutable_and_unhashable(self):
        a = RunStats()
        a.rounds, a.halted, a.log = 2, True, None
        assert (a.rounds, a.halted, a.log) == (2, True, None)
        assert RunStats.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)

    def test_equality(self):
        assert RunStats() == RunStats()
        assert RunStats(**RUN_FIELDS) == RunStats(*RUN_FIELDS.values())
        assert RunStats() != RunStats(rounds=1)
        assert RunStats().__eq__(SimpleNamespace(**RUN_FIELDS)) is NotImplemented
        assert RunStats() != (0, 0, None, 0, False, [], [])

    def test_copy_and_pickle(self):
        a = RunStats(**RUN_FIELDS)
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(b) is RunStats and b == a


FAILED_GPRS = GprsCheck(F(25, 36), F(5, 6), 1, 6, 3, False, None, None, 4.5, 2.25)
GPRS_JSON = {
    "p": "1/8", "r": "1/4", "delta": 2, "constants": [1, 2], "applicable": True,
    "cond1": True, "cond2": False, "product1": 0.5, "product2": 1.5, "ok": False,
}
FAILED_GPRS_JSON = {
    "p": "25/36", "r": "5/6", "delta": 1, "constants": [6, 3], "applicable": False,
    "cond1": None, "cond2": None, "product1": 4.5, "product2": 2.25, "ok": None,
}

# (record, its exact to_json()): each class with a JSON form, on fixed values
JSON_FORMS = {
    "GprsCheck": (GPRS, GPRS_JSON),
    "GprsCheck-not-applicable": (FAILED_GPRS, FAILED_GPRS_JSON),
    "CnfStats-no-shared": (
        CnfStats(2, 1, 2, 1, None, True),
        {
            "num_vars": 2, "num_clauses": 1, "uniform_width": 2, "max_var_degree": 1,
            "min_shared": "infinity", "extremal": True,
        },
    ),
    "CnfStats-shared": (
        CnfStats(4, 3, None, 2, 2, False),
        {
            "num_vars": 4, "num_clauses": 3, "uniform_width": None, "max_var_degree": 2,
            "min_shared": 2, "extremal": False,
        },
    ),
    "PathEndpointMatrix": (
        PathEndpointMatrix(4, F(1, 2), ((F(8, 15), F(1, 5)), (F(1, 5), F(1, 15)))),
        {"k": 4, "lam": "1/2", "w": [["8/15", "1/5"], ["1/5", "1/15"]], "det": "-1/225"},
    ),
    "UniformityVerdict": (
        UniformityVerdict(*FROZEN["UniformityVerdict"][1].values()),
        {
            "n": 100, "num_outcomes": 2, "tv": 0.05, "chi2": 1.25, "dof": 1, "p_value": 0.26,
            "tv_max": 0.01, "p_min": 0.001, "invalid_outcomes": 0, "passed": True,
        },
    ),
    "ShearerReport-criterion-fails": (
        ShearerReport(
            4, 2, (F(25, 36),) * 4, False, F(-527, 648), (F(275, 1296),) * 4, False, None,
            None, False, F(25, 36), F(1, 4), None, FAILED_GPRS,
        ),
        {
            "num_events": 4, "max_degree": 2, "p": ["25/36"] * 4, "extremal": False,
            "q_empty": "-527/648", "q_singletons": ["275/1296"] * 4, "shearer_ok": False,
            "expected_total": None, "expected_per_event": None, "lll_ok": False,
            "p_max": "25/36", "symmetric_pc": "1/4", "linear_coefficient": None,
            "gprs": FAILED_GPRS_JSON,
        },
    ),
    "ShearerReport-criterion-holds": (
        ShearerReport(*FROZEN["ShearerReport"][1].values()),
        {
            "num_events": 1, "max_degree": 0, "p": ["1/2"], "extremal": True,
            "q_empty": "1/2", "q_singletons": ["1/2"], "shearer_ok": True,
            "expected_total": "1", "expected_per_event": ["1"], "lll_ok": True,
            "p_max": "1/2", "symmetric_pc": None, "linear_coefficient": None,
            "gprs": GPRS_JSON,
        },
    ),
}
RUN_JSON = {
    "rounds": 3, "total_resamples": 4, "per_event": [1, 3], "variable_resamples": 5,
    "halted": True,
}


class TestJsonForm:
    """Each record's JSON form: exact rationals as ``a/b`` strings, tuples as
    lists, a nested record as its own JSON form."""

    @pytest.mark.parametrize("label", sorted(JSON_FORMS))
    def test_exact_json(self, label):
        record, expected = JSON_FORMS[label]
        out = record.to_json()
        assert out == expected
        assert json.loads(json.dumps(out)) == expected

    def test_only_these_classes_have_one(self):
        assert not hasattr(Record, "to_json") and not hasattr(FrozenRecord, "to_json")
        with_json = {label for label, (cls, _, _) in FROZEN.items() if hasattr(cls, "to_json")}
        assert with_json == {label.split("-")[0] for label in JSON_FORMS}
        assert hasattr(RunStats, "to_json")

    def test_run_stats(self):
        stats = RunStats(**RUN_FIELDS)
        out = stats.to_json()
        assert out == RUN_JSON and list(out) == list(RUN_JSON)
        assert out["per_event"] == stats.event_resamples
        with_log = stats.to_json(include_log=True)
        assert with_log == {**RUN_JSON, "log": [[0], [1]], "var_log": [[2]]}
        assert list(with_log) == [*RUN_JSON, "log", "var_log"]
        assert json.loads(json.dumps(with_log)) == with_log

    def test_run_stats_without_logs(self):
        # cycle_popping logs no events; record_log=False logs nothing.
        no_events = RunStats(rounds=2, total_resamples=3, log=None, var_log=[(0, 1), (2,)])
        assert no_events.to_json(include_log=True) == {
            "rounds": 2, "total_resamples": 3, "per_event": None, "variable_resamples": 0,
            "halted": False, "log": None, "var_log": [[0, 1], [2]],
        }
        assert RunStats(log=None, var_log=None).to_json(include_log=True) == {
            "rounds": 0, "total_resamples": 0, "per_event": None, "variable_resamples": 0,
            "halted": False, "log": None, "var_log": None,
        }
        assert list(no_events.to_json()) == list(RUN_JSON)
