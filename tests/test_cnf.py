"""CNF parsing, shape statistics, condition checks, and solution sampling."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prsampling.certified import e_leq
from prsampling.cnf import (
    CnfFormula,
    check_extremal_condition,
    check_sharing_condition,
    cnf_stats,
    cnf_to_instance,
    format_assignment,
    hard_example,
    monotone_cnf_from_graph,
    parse_dimacs,
    sample_cnf,
    sharing_condition_parts,
    write_dimacs,
)
from prsampling.graphs import cycle_graph, path_graph
from prsampling.model import (
    enumerate_assignments,
    event_probability,
    is_extremal,
    occurring_events,
)
from prsampling.rng import derive_seed
from prsampling.sampler import SamplerConfig

F = Fraction

EXTREMAL_C3_CNF = CnfFormula(3, ((-1, -2), (1, -3), (2, 3)))


def count_by_violations(formula):
    inst = cnf_to_instance(formula)
    return Counter(
        len(occurring_events(inst, list(a))) for a in enumerate_assignments(inst)
    )


class TestCnfFormula:
    def test_valid(self):
        f = CnfFormula(3, ((1, -2), (3,)))
        assert f.num_vars == 3

    @pytest.mark.parametrize(
        "clauses,msg",
        [
            (((),), "empty"),
            (((0,),), "out of range"),
            (((4,),), "out of range"),
            (((1, 1),), "repeated"),
            (((1, -1),), "tautology"),
        ],
    )
    def test_invalid(self, clauses, msg):
        with pytest.raises(ValueError, match=msg):
            CnfFormula(3, clauses)

    def test_negative_num_vars(self):
        with pytest.raises(ValueError):
            CnfFormula(-1, ())


class TestParseDimacs:
    def test_full_featured_input(self):
        text = (
            "c solution sampler input\n"
            "\n"
            "p cnf 4 3\n"
            "1 -2 0\n"
            "c mid comment\n"
            "3\n"
            "4 0 -1 0\n"
        )
        f = parse_dimacs(text)
        assert f == CnfFormula(4, ((1, -2), (3, 4), (-1,)))

    def test_zero_clause_formula(self):
        assert parse_dimacs("p cnf 2 0\n") == CnfFormula(2, ())

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("p cnf 2 1\np cnf 2 1\n1 0\n", "duplicate header"),
            ("p cnf 2\n", "header must be"),
            ("p dnf 2 1\n1 0\n", "header must be"),
            ("p cnf two 1\n", "non-integer"),
            ("p cnf -2 1\n", "negative"),
            ("1 2 0\n", "before 'p cnf' header"),
            ("p cnf 2 1\n1 x 0\n", "invalid token"),
            ("p cnf 2 1\n0\n", "empty clause"),
            ("p cnf 2 1\n1 0 2 0\n", "more clauses than the 1 declared"),
            ("p cnf 2 1\n3 0\n", "exceeds declared"),
            ("p cnf 2 1\n1 1 0\n", "repeated"),
            ("p cnf 2 1\n1 -1 0\n", "tautology"),
            ("", "missing 'p cnf' header"),
            ("p cnf 2 1\n1 2\n", "unterminated"),
            ("p cnf 2 2\n1 0\n", "declares 2 clauses but 1"),
            # int() accepts these; DIMACS means only ASCII decimal digits.
            ("p cnf 2_0 1\n1_0 +2 0\n", "non-integer header counts"),
            ("p cnf 2 1\n1_0 0\n", "invalid token '1_0'"),
            ("p cnf 2 1\n+2 0\n", "invalid token '\\+2'"),
            ("p cnf 2 1\n\u0662 0\n", "invalid token"),
            ("p cnf \uff12 1\n1 0\n", "non-integer header counts"),
        ],
    )
    def test_errors(self, text, msg):
        with pytest.raises(ValueError, match=msg):
            parse_dimacs(text)

    def test_write_round_trip(self):
        f = CnfFormula(4, ((1, -2), (3, 4), (-1,)))
        assert parse_dimacs(write_dimacs(f)) == f

    def test_round_trip_random_corpus(self):
        rng = random.Random(2024)
        for _ in range(100):
            num_vars = rng.randint(1, 6)
            clauses = []
            for _ in range(rng.randint(0, 6)):
                width = rng.randint(1, min(3, num_vars))
                vs = rng.sample(range(1, num_vars + 1), width)
                clauses.append(tuple(v * rng.choice((1, -1)) for v in vs))
            f = CnfFormula(num_vars, tuple(clauses))
            assert parse_dimacs(write_dimacs(f)) == f

    @given(st.data())
    def test_round_trip_property(self, data):
        num_vars = data.draw(st.integers(0, 300))
        clauses = []
        if num_vars:
            variables = st.lists(st.integers(1, num_vars), min_size=1, max_size=5, unique=True)
            for _ in range(data.draw(st.integers(0, 8))):
                vs = data.draw(variables)
                clauses.append(tuple(data.draw(st.sampled_from((v, -v))) for v in vs))
        f = CnfFormula(num_vars, tuple(clauses))
        assert parse_dimacs(write_dimacs(f)) == f


class TestCnfStats:
    def test_monotone_chain(self):
        s = cnf_stats(CnfFormula(3, ((1, 2), (2, 3))))
        assert s.uniform_width == 2
        assert s.max_var_degree == 2
        assert s.min_shared == 1
        assert s.extremal is False

    def test_opposite_sign_chain_extremal(self):
        s = cnf_stats(CnfFormula(3, ((1, 2), (-2, 3), (-1, -3))))
        assert s.extremal is True and s.min_shared == 1

    def test_no_sharing(self):
        s = cnf_stats(CnfFormula(3, ((1, 2), (3,))))
        assert s.min_shared is None and s.extremal is True
        assert s.to_json()["min_shared"] == "infinity"

    def test_mixed_widths(self):
        assert cnf_stats(CnfFormula(3, ((1, 2), (3,)))).uniform_width is None

    def test_extremal_flag_matches_instance_check(self):
        rng = random.Random(7)
        for _ in range(60):
            num_vars = rng.randint(2, 5)
            clauses = []
            for _ in range(rng.randint(1, 5)):
                width = rng.randint(1, min(3, num_vars))
                vs = rng.sample(range(1, num_vars + 1), width)
                clauses.append(tuple(v * rng.choice((1, -1)) for v in vs))
            f = CnfFormula(num_vars, tuple(clauses))
            assert cnf_stats(f).extremal == is_extremal(cnf_to_instance(f))


class TestConditionChecks:
    def test_extremal_condition_certified(self):
        # Width 3 supports degree 2 only if e <= 8/3, which fails; width 4
        # gives e <= 16/4 which holds.
        assert check_extremal_condition(3, 2) is False
        assert check_extremal_condition(3, 3) is False
        assert check_extremal_condition(4, 2) is True
        assert check_extremal_condition(10, 38) is True  # 2^10/(10*37) = 2.768...
        assert check_extremal_condition(10, 39) is False  # 2^10/(10*38) = 2.694...
        assert check_extremal_condition(5, 1) is True
        assert check_extremal_condition(1, 0) is True

    def test_extremal_condition_validation(self):
        with pytest.raises(ValueError):
            check_extremal_condition(0, 2)
        with pytest.raises(ValueError):
            check_extremal_condition(3, -1)

    def test_sharing_parts_reference_point(self):
        parts = sharing_condition_parts(20, 60, 10)
        assert parts == {
            "dk_large_enough": True,
            "degree_small_enough": True,
            "overlap_large_enough": True,
        }
        assert check_sharing_condition(20, 60, 10) is True

    def test_sharing_each_part_can_fail(self):
        # 6*63*e = 1027.5... exceeds 2^10 = 1024.
        assert sharing_condition_parts(20, 63, 10)["degree_small_enough"] is False
        # 2^9 = 512 < 1200 and 2*9 < 20.
        assert sharing_condition_parts(20, 60, 9)["overlap_large_enough"] is False
        # 3*4 = 12 < 2^(3e) = 285.00...
        assert sharing_condition_parts(4, 3, 2)["dk_large_enough"] is False
        assert check_sharing_condition(20, 63, 10) is False

    def test_shortcuts_agree_with_full_comparisons(self):
        for k in range(1, 41):
            for d in range(2, 71):
                assert check_extremal_condition(k, d) is e_leq(Fraction(2 ** k, k * (d - 1)))
                if d >= 3:
                    for s in range(k // 2 + 2):  # 2s >= k from there on
                        parts = sharing_condition_parts(k, d, s)
                        assert parts["overlap_large_enough"] is (2 ** s >= d * k or 2 * s >= k)

    def test_huge_width_returns_at_once(self):
        # 2^k and 2^s for k = s = 10^12 would need 125 GB each; bit lengths decide.
        big = 10 ** 12
        assert check_extremal_condition(big, 3) is True
        assert check_extremal_condition(big, big) is True
        assert check_extremal_condition(3, big) is False
        assert sharing_condition_parts(big, 3, big) == {
            "dk_large_enough": True,
            "degree_small_enough": True,
            "overlap_large_enough": True,
        }
        assert check_sharing_condition(big, big, big) is True
        assert sharing_condition_parts(20, big, big)["degree_small_enough"] is False

    def test_sharing_validation(self):
        with pytest.raises(ValueError, match="degree d"):
            sharing_condition_parts(20, 2, 10)
        with pytest.raises(ValueError, match="width k"):
            sharing_condition_parts(0, 3, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            sharing_condition_parts(20, 60, -1)


class TestCnfToInstance:
    def test_single_violating_tuple_per_clause(self):
        inst = cnf_to_instance(CnfFormula(3, ((1, -2), (2, 3))))
        assert inst.events[0].vbl == (0, 1)
        assert inst.events[0].violating == {(0, 1)}
        assert inst.events[1].violating == {(0, 0)}

    def test_event_probability_half_power_width(self):
        inst = cnf_to_instance(CnfFormula(4, ((1, 2, 3), (4,))))
        assert event_probability(inst, inst.events[0]) == F(1, 8)
        assert event_probability(inst, inst.events[1]) == F(1, 2)

    def test_solutions_match_truth_table(self):
        f = CnfFormula(3, ((1, 2), (-2, 3)))
        inst = cnf_to_instance(f)
        for bits in itertools.product((0, 1), repeat=3):
            sat = (bits[0] or bits[1]) and ((not bits[1]) or bits[2])
            assert (not occurring_events(inst, list(bits))) == bool(sat)


class TestSampleCnf:
    def test_single_clause_uniform(self):
        f = CnfFormula(2, ((1, 2),))
        n = 30_000
        counts = Counter(
            tuple(
                sample_cnf(
                    f,
                    "moser_tardos",
                    SamplerConfig(seed=derive_seed(3, i), record_log=False),
                )[0]
            )
            for i in range(n)
        )
        assert set(counts) == {(0, 1), (1, 0), (1, 1)}
        tv = 0.5 * sum(abs(c / n - 1 / 3) for c in counts.values())
        assert tv <= 0.015

    def test_extremal_formula_with_extremal_sampler(self):
        seen = {
            tuple(
                sample_cnf(
                    EXTREMAL_C3_CNF,
                    "extremal_prs",
                    SamplerConfig(seed=derive_seed(5, i), record_log=False),
                )[0]
            )
            for i in range(300)
        }
        assert seen == {(0, 1, 0), (1, 0, 1)}

    def test_format_assignment(self):
        assert format_assignment((0, 1, 1, 0)) == "0110"
        assert format_assignment((0, 1, 1, 0), "literals") == "-1 2 3 -4"
        with pytest.raises(ValueError):
            format_assignment((0, 1), "hex")


class TestHardExample:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_counting_profile(self, m):
        f = hard_example(m)
        assert f.num_vars == 3 * m and len(f.clauses) == 4 * m
        by = count_by_violations(f)
        assert by[0] == 1  # the all-true assignment is the only solution
        assert by[1] >= 3 ** m
        assert cnf_stats(f).extremal is True
        assert is_extremal(cnf_to_instance(f))

    def test_clause_count(self):
        assert len(hard_example(1).clauses) == 4
        assert len(hard_example(2).clauses) == 8
        assert len(hard_example(3).clauses) == 12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_expected_work_equals_one_defect_count(self, m):
        # On extremal instances the expected total resample count equals
        # (assignments violating exactly one clause) / (solutions), exactly.
        f = hard_example(m)
        by = count_by_violations(f)
        assert self.expected_work(f) == F(by[1], by[0])

    def test_expected_work_exceeds_nine_at_m2(self):
        assert self.expected_work(hard_example(2)) > 9

    @staticmethod
    def expected_work(formula):
        from prsampling.model import build_dependency_graph, event_probabilities
        from prsampling.shearer import expected_resamples

        inst = cnf_to_instance(formula)
        return expected_resamples(
            build_dependency_graph(inst), event_probabilities(inst)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            hard_example(0)


class TestMonotoneCnfFromGraph:
    def test_triangle_blocks(self):
        f = monotone_cnf_from_graph(cycle_graph(3), 2)
        assert f.num_vars == 6 and len(f.clauses) == 3
        assert all(len(c) == 4 for c in f.clauses)
        assert all(lit > 0 for c in f.clauses for lit in c)
        s = cnf_stats(f)
        assert s.max_var_degree == 2 and s.min_shared == 2
        assert s.extremal is False

    def test_solution_count_matches_independent_sets(self):
        # Sum over independent sets I of (2^s - 1)^(n - |I|).
        f = monotone_cnf_from_graph(cycle_graph(3), 2)
        assert count_by_violations(f)[0] == 27 + 3 * 9

    def test_block_size_one_is_hardcore(self):
        with pytest.warns(UserWarning):
            f = monotone_cnf_from_graph(path_graph(3), 1)
        assert f == CnfFormula(3, ((1, 2), (2, 3)))

    def test_non_regular_warns(self):
        with pytest.warns(UserWarning, match="not regular"):
            monotone_cnf_from_graph(path_graph(3), 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            monotone_cnf_from_graph(cycle_graph(3), 0)
