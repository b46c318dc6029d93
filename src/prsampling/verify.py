"""Verification harness: exact oracles, statistical tests, property trials.

The primary check throughout is exact: small instances are enumerated with
rational arithmetic and compared against closed forms. Sampler outputs are
then tested statistically against the exact distributions: total variation
distance as the primary metric, a chi-square p-value as an advisory, and
3-standard-error bands for means. All randomized procedures take a base
seed and derive per-run seeds, so verdicts are reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from collections import Counter
from fractions import Fraction

from .cnf import CnfFormula, cnf_to_instance
from .errors import BudgetError
from .graph_apps import (
    assignment_to_arrows,
    cycle_popping,
    encode_hardcore,
    encode_sink_free,
    encode_spanning_tree,
    hardcore_sample,
    sink_popping,
)
from .graphs import complete_graph, cycle_graph, make_graph, path_graph, random_regular_graph
from .model import (
    DependencyGraph,
    Instance,
    assignment_probability,
    compatible,
    enumerate_assignments,
    event_probabilities,
    make_event,
    occurring_events,
    sample_product,
    uniform_variable,
    VariableSpec,
)
from .records import FrozenRecord, fields_json
from .rng import derive_seed, make_rng
from .sampler import (
    SamplerConfig,
    extremal_prs,
    general_prs,
    run_sampler,
    select_resampling_set,
)
from .shearer import all_q_values, expected_resamples_per_event, q_empty, truncated_log_partials

DEFAULT_TV_MAX = 0.01
DEFAULT_P_MIN = 1e-3
BAND_STANDARD_ERRORS = 3.0  # half-width, in standard errors, of each statistical band


class OracleResult(FrozenRecord):
    """Exhaustive enumeration of an instance's valid assignments.

    ``probabilities`` are conditional on validity and sum to 1;
    ``q_empty_check`` is the unconditional probability that nothing occurs.
    """

    _fields = ("satisfiable", "valid_assignments", "probabilities", "q_empty_check")

    def conditional(self) -> dict[tuple[int, ...], Fraction]:
        return dict(zip(self.valid_assignments, self.probabilities))


def enumerate_valid(instance: Instance) -> OracleResult:
    """Enumerate all valid assignments with their exact probabilities, for
    at most ``model.MAX_PAIR_STATES`` joint states."""
    valid = []
    weights = []
    total = Fraction(0)
    for sigma in enumerate_assignments(instance):
        if not occurring_events(instance, sigma):
            w = assignment_probability(instance, sigma)
            valid.append(tuple(sigma))
            weights.append(w)
            total += w
    if total == 0:
        return OracleResult(False, tuple(valid), (), Fraction(0))
    return OracleResult(
        True, tuple(valid), tuple(w / total for w in weights), total
    )


class UniformityVerdict(FrozenRecord):
    """Outcome of one empirical-vs-exact distribution comparison."""

    _fields = (
        "n", "num_outcomes", "tv", "chi2", "dof", "p_value", "tv_max", "p_min", "invalid_outcomes",
        "passed",
    )

    to_json = fields_json


def chi2_sf(stat: float, dof: int) -> float:
    """P(X >= stat) for X chi-square with ``dof`` degrees of freedom.

    Closed form (Abramowitz and Stegun 26.4.4-26.4.5): with h = stat/2, it
    is the sum of e^-h h^e / Gamma(e + 1) over e = dof/2 - 1, dof/2 - 2, ...
    down to 0 for even dof, or down to 1/2 plus erfc(sqrt(h)) for odd dof.
    The terms are summed in log space, so that none underflows to 0 before
    the sum is formed.
    """
    if stat <= 0:
        return 1.0
    if stat == math.inf:
        return 0.0
    half = stat / 2
    log_half = math.log(half)
    head = math.erfc(math.sqrt(half)) if dof % 2 else 0.0
    logs = [
        e * log_half - half - math.lgamma(e + 1)
        for e in (dof / 2 - j for j in range(1, dof // 2 + 1))
    ]
    if not logs:
        return head
    top = max(logs)
    return head + math.exp(top) * math.fsum(math.exp(x - top) for x in logs)


def empirical_distribution_test(
    draw,
    target: dict,
    n: int,
    base_seed: int,
    tv_max: float = DEFAULT_TV_MAX,
    p_min: float = DEFAULT_P_MIN,
) -> UniformityVerdict:
    """Compare ``draw(seed)`` outcomes against an exact finite distribution.

    ``target`` maps outcome keys to exact probabilities. Any outcome outside
    the support fails the verdict on its own.
    """
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
    counts = Counter(draw(derive_seed(base_seed, i)) for i in range(n))
    invalid = sum(c for k, c in counts.items() if k not in target)
    tv = 0.5 * (
        sum(abs(counts.get(k, 0) / n - float(p)) for k, p in target.items())
        + invalid / n
    )
    stat = 0.0
    for k, p in target.items():
        expected = n * float(p)
        if expected > 0:
            stat += (counts.get(k, 0) - expected) ** 2 / expected
        elif counts.get(k, 0):
            stat = math.inf
    dof = max(len(target) - 1, 1)
    p_value = chi2_sf(stat, dof)
    return UniformityVerdict(
        n=n,
        num_outcomes=len(target),
        tv=tv,
        chi2=stat,
        dof=dof,
        p_value=p_value,
        tv_max=tv_max,
        p_min=p_min,
        invalid_outcomes=invalid,
        passed=(invalid == 0 and tv <= tv_max and p_value >= p_min),
    )


def _config(seed: int) -> SamplerConfig:
    """A sampler configuration for ``seed`` that keeps no log."""
    return SamplerConfig(seed=seed, record_log=False)


def make_handle(kind: str):
    """A sampler handle (instance, seed) -> outcome tuple for uniformity tests."""

    def handle(instance: Instance, seed: int):
        sigma, _ = run_sampler(kind, instance, _config(seed))
        return tuple(sigma)

    return handle


def biased_stub(instance: Instance, seed: int):
    """Deliberately non-uniform control: lexicographic min of two exact draws.

    Each sub-draw is exact, so the minimum provably tilts mass toward
    lexicographically small valid assignments; uniformity tests must fail.
    """
    a, _ = general_prs(instance, _config(derive_seed(seed, 0)))
    b, _ = general_prs(instance, _config(derive_seed(seed, 1)))
    return tuple(min(a, b))


def uniformity_test(
    sampler_handle,
    instance: Instance,
    n: int,
    base_seed: int,
    tv_max: float = DEFAULT_TV_MAX,
    p_min: float = DEFAULT_P_MIN,
) -> UniformityVerdict:
    """Run a sampler n times and compare against the exact oracle."""
    oracle = enumerate_valid(instance)
    if not oracle.satisfiable:
        raise ValueError("instance has no valid assignment; nothing to compare")
    return empirical_distribution_test(
        lambda seed: sampler_handle(instance, seed),
        oracle.conditional(),
        n,
        base_seed,
        tv_max,
        p_min,
    )


def expected_resamples_test(instance: Instance, n: int, base_seed: int) -> dict:
    """Empirical mean resamples (total and per event) vs the exact formula.

    Runs the all-occurring-events sampler n times on an extremal instance
    and checks each mean against its prediction within
    ``BAND_STANDARD_ERRORS`` standard errors.
    """
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
    if not instance.extremal:
        raise ValueError("expected-resamples law requires an extremal instance")
    per_exact = expected_resamples_per_event(
        instance.dependency_graph, event_probabilities(instance)
    )
    total_exact = sum(per_exact, Fraction(0))
    totals = []
    per = []
    for i in range(n):
        _, stats = extremal_prs(instance, _config(derive_seed(base_seed, i)))
        totals.append(stats.total_resamples)
        per.append(stats.event_resamples)

    def banded(sample, exact: Fraction) -> dict:
        mean = statistics.fmean(sample)
        se = statistics.stdev(sample) / math.sqrt(n) if n > 1 else 0.0
        err = abs(mean - float(exact))
        ok = err <= BAND_STANDARD_ERRORS * se if se > 0 else err == 0
        return {"exact": str(exact), "mean": mean, "se": se, "ok": ok}

    report = {
        "n": n,
        "total": banded(totals, total_exact),
        "per_event": [banded(col, exact) for col, exact in zip(zip(*per), per_exact)],
    }
    report["passed"] = report["total"]["ok"] and all(
        r["ok"] for r in report["per_event"]
    )
    return report


def first_round_test(instance: Instance, n: int, base_seed: int) -> dict:
    """Frequencies of the exact first-round occurrence sets vs their q-values.

    On an extremal instance the set of occurring events after the initial
    product draw hits independent set I with probability exactly q_I; each
    frequency must fall within ``BAND_STANDARD_ERRORS`` standard errors.
    """
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
    if not instance.extremal:
        raise ValueError("first-round law requires an extremal instance")
    qs = all_q_values(instance.dependency_graph, event_probabilities(instance))
    counts: Counter = Counter()
    for i in range(n):
        rng = make_rng(derive_seed(base_seed, i))
        sigma = sample_product(instance, rng)
        counts[frozenset(occurring_events(instance, sigma))] += 1
    rows = []
    passed = True
    for ids, q in sorted(qs.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
        freq = counts.get(ids, 0) / n
        sigma = math.sqrt(float(q) * (1 - float(q)) / n)
        err = abs(freq - float(q))
        ok = err <= BAND_STANDARD_ERRORS * sigma if sigma > 0 else counts.get(ids, 0) == 0
        passed &= ok
        rows.append(
            {"set": sorted(ids), "q": str(q), "freq": freq, "sigma": sigma, "ok": bool(ok)}
        )
    stray = sum(c for ids, c in counts.items() if ids not in qs)
    if stray:
        passed = False
    return {"n": n, "rows": rows, "non_independent_draws": stray, "passed": bool(passed)}


# --- named fixtures ----------------------------------------------------------


def two_adjacent_events_instance() -> Instance:
    """One 4-valued variable; events {value=0} and {value=1}.

    Dependent, disjoint, p = 1/4 each: the smallest nontrivial extremal
    instance (q_empty = 1/2, expected resamples = 1).
    """
    return Instance(
        (uniform_variable(0, 4),),
        (make_event(0, (0,), [(0,)]), make_event(1, (0,), [(1,)])),
    )


def chain_cnf() -> CnfFormula:
    """(x or y) and (y or z): the classic non-extremal two-clause chain."""
    return CnfFormula(3, ((1, 2), (2, 3)))


def uniformity_cases() -> dict[str, dict]:
    """The standard exact-uniformity cases: draw handles plus exact targets.

    Each value has ``draw(seed) -> outcome``, ``target`` (outcome -> exact
    probability), and a human-readable ``describe``.
    """
    c3, c4, k4, p5 = cycle_graph(3), cycle_graph(4), complete_graph(4), path_graph(5)
    c4_instance = encode_sink_free(c4)
    chain_instance = cnf_to_instance(chain_cnf())

    def draw_p5(seed: int):
        occupied, _ = hardcore_sample(p5, 1, _config(seed))
        return tuple(1 if v in occupied else 0 for v in range(5))

    rows = {
        "sink-c3": (
            "sink-free orientations of the 3-cycle, sink-popping sampler",
            lambda seed: sink_popping(c3, _config(seed))[0],
            enumerate_valid(encode_sink_free(c3)).conditional(),
        ),
        "sink-c4": (
            "sink-free orientations of the 4-cycle, all-occurring-events sampler",
            lambda seed: tuple(extremal_prs(c4_instance, _config(seed))[0]),
            enumerate_valid(c4_instance).conditional(),
        ),
        "tree-k4": (
            "spanning trees of K4 rooted at 0, cycle-popping sampler",
            lambda seed: cycle_popping(k4, 0, _config(seed))[0],
            {
                assignment_to_arrows(k4, 0, a): p
                for a, p in enumerate_valid(encode_spanning_tree(k4, 0)).conditional().items()
            },
        ),
        "hardcore-p5": (
            "hard-core configurations on the 5-path at lam=1 (13 outcomes)",
            draw_p5,
            enumerate_valid(encode_hardcore(p5, 1)).conditional(),
        ),
        "cnf-chain": (
            "solutions of (x|y)&(y|z), resampling-set sampler",
            lambda seed: tuple(general_prs(chain_instance, _config(seed))[0]),
            enumerate_valid(chain_instance).conditional(),
        ),
    }
    return {
        name: {"describe": describe, "draw": draw, "target": target}
        for name, (describe, draw, target) in rows.items()
    }


def negative_control_test(
    n: int,
    base_seed: int,
    tv_max: float = DEFAULT_TV_MAX,
    p_min: float = DEFAULT_P_MIN,
) -> dict:
    """The deliberately biased control sampler must fail the uniformity
    test, and the exact ``general_prs`` must pass it on the same instance,
    with the same n, seeds and thresholds.

    Guards the test harness itself: if the thresholds ever became too loose
    to catch a known-biased sampler, the stub would pass; if n is too small
    for any sampler to meet them, the exact sampler fails too, and the
    stub's failure shows nothing. Either way the suite fails.
    """
    instance = cnf_to_instance(chain_cnf())
    stub = uniformity_test(biased_stub, instance, n, base_seed, tv_max, p_min)
    exact = uniformity_test(make_handle("general_prs"), instance, n, base_seed, tv_max, p_min)
    return {
        "n": n,
        "stub_verdict": stub.to_json(),
        "stub_failed_as_expected": not stub.passed,
        "exact_verdict": exact.to_json(),
        "exact_passed": exact.passed,
        "passed": exact.passed and not stub.passed,
    }


# --- randomized instance generators ----------------------------------------


def random_extremal_instance(rng: random.Random) -> Instance:
    """A random instance that is extremal by construction."""
    kind = rng.randrange(3)
    if kind == 0:
        # Sink events on a random connected graph with a cycle.
        n = rng.randint(3, 5)
        edges = {(i, i + 1) for i in range(n - 1)}
        edges.add((0, n - 1))
        for _ in range(rng.randrange(3)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        return encode_sink_free(make_graph(n, edges))
    if kind == 1:
        # CNF with variable degree <= 2 and opposite signs on reuse.
        reusable: list[int] = []  # each var's first-use literal; reuse flips it
        next_var = 1
        clauses = []
        for _ in range(rng.randint(2, 5)):
            width = rng.randint(1, 3)
            clause = []
            used = set()
            for _ in range(width):
                if reusable and rng.random() < 0.4:
                    pick = rng.randrange(len(reusable))
                    lit = -reusable.pop(pick)
                    if abs(lit) in used:
                        continue
                else:
                    sign = rng.choice((1, -1))
                    lit = sign * next_var
                    next_var += 1
                    reusable.append(lit)
                used.add(abs(lit))
                clause.append(lit)
            clauses.append(tuple(clause))
        return cnf_to_instance(CnfFormula(next_var - 1, tuple(clauses)))
    # Disjoint value-slices of one shared variable, plus private variables.
    m = rng.randint(2, 4)
    shared_domain = rng.randint(m, m + 2)
    variables = [uniform_variable(0, shared_domain)]
    events = []
    for i in range(m):
        if rng.random() < 0.5:
            dom = rng.randint(2, 3)
            pid = len(variables)
            variables.append(uniform_variable(pid, dom))
            vals = rng.sample(range(dom), rng.randint(1, dom - 1))
            events.append(make_event(i, (0, pid), [(i, t) for t in vals]))
        else:
            events.append(make_event(i, (0,), [(i,)]))
    return Instance(tuple(variables), tuple(events))


def random_instance(rng: random.Random) -> Instance:
    """A small random instance with arbitrary violating sets."""
    num_vars = rng.randint(2, 5)
    variables = tuple(
        uniform_variable(v, rng.randint(2, 3)) for v in range(num_vars)
    )
    events = []
    for i in range(rng.randint(1, 5)):
        k = rng.randint(1, min(3, num_vars))
        vbl = sorted(rng.sample(range(num_vars), k))
        doms = [variables[v].domain_size for v in vbl]
        cells = list(itertools.product(*(range(d) for d in doms)))
        take = rng.randint(1, max(1, len(cells) // 2))
        tuples = rng.sample(cells, take)
        events.append(make_event(i, vbl, tuples))
    return Instance(variables, tuple(events))


def random_weighted_instance(rng: random.Random) -> Instance:
    """Like random_instance but with non-uniform rational weights."""
    base = random_instance(rng)
    variables = []
    for v in base.variables:
        cuts = sorted(rng.randint(1, 7) for _ in range(v.domain_size - 1))
        parts = []
        prev = 0
        for c in cuts + [8]:
            parts.append(c - prev if c > prev else 1)
            prev = max(c, prev)
        total = sum(parts)
        weights = tuple(Fraction(x, total) for x in parts)
        variables.append(VariableSpec(v.id, v.domain_size, weights))
    return Instance(tuple(variables), base.events)


# --- resampling-set property trials -----------------------------------------


def res_set_property_tests(trials: int, base_seed: int) -> dict:
    """Randomized structural checks of the resampling-set selector.

    Per trial, on a random instance and a fresh product draw: the occurring
    events are inside the selected set; every excluded boundary event is
    incompatible with the selected set's variable values; redrawing
    non-selected variables (when it creates no new occurring event outside
    the set) leaves the selection unchanged; and on extremal instances the
    selection equals the occurring set.
    """
    violations = {
        "bad_subset": 0,
        "boundary_unblocked": 0,
        "stability": 0,
        "extremal_equal": 0,
    }
    stability_checked = 0
    extremal_trials = 0
    for t in range(trials):
        rng = make_rng(derive_seed(base_seed, t))
        style = t % 3
        if style == 0:
            instance = random_extremal_instance(rng)
        elif style == 1:
            instance = random_instance(rng)
        else:
            instance = random_weighted_instance(rng)
        graph = instance.dependency_graph
        sigma = sample_product(instance, rng)
        bad = occurring_events(instance, sigma)
        res = select_resampling_set(instance, sigma, _bad=bad)
        res_set = set(res)
        if not set(bad) <= res_set:
            violations["bad_subset"] += 1
        fixed_vars = {v for i in res for v in instance.events[i].vbl}
        fixed = {v: sigma[v] for v in fixed_vars}
        boundary = {j for i in res for j in graph.adjacency[i]} - res_set
        for j in boundary:
            if compatible(instance.events[j], fixed):
                violations["boundary_unblocked"] += 1
                break
        sigma2 = list(sigma)
        for v in range(instance.num_variables):
            if v not in fixed_vars:
                sigma2[v] = rng.randrange(instance.variables[v].domain_size)
        if set(occurring_events(instance, sigma2)) <= res_set:
            stability_checked += 1
            res2 = select_resampling_set(instance, sigma2)
            if res2 != res:
                violations["stability"] += 1
        if style == 0:
            extremal_trials += 1
            if res != sorted(bad):
                violations["extremal_equal"] += 1
    return {
        "trials": trials,
        "stability_checked": stability_checked,
        "extremal_trials": extremal_trials,
        "violations": violations,
        "passed": not any(violations.values()),
    }


def cross_order_report(trials: int, base_seed: int) -> dict:
    """Probe whether the selector depends on within-round processing order.

    Order invariance is not assumed; this reports any disagreement between
    ascending and descending within-round processing on random instances.
    """
    differing = 0
    for t in range(trials):
        rng = make_rng(derive_seed(base_seed, t))
        instance = (
            random_instance(rng) if t % 2 else random_extremal_instance(rng)
        )
        sigma = sample_product(instance, rng)
        asc = select_resampling_set(instance, sigma, order="asc")
        desc = select_resampling_set(instance, sigma, order="desc")
        if asc != desc:
            differing += 1
    return {"trials": trials, "order_dependent_cases": differing}


# --- experiments -------------------------------------------------------------


def round_scaling_experiment(
    sizes: list[int],
    lam,
    trials: int,
    base_seed: int,
    degree: int = 3,
) -> dict:
    """Hard-core sampling on random regular graphs across sizes.

    For each vertex count n, samples on a fresh random ``degree``-regular
    graph and aggregates rounds, resampled events per event, and the pooled
    per-round bad-edge decay ratio. Fits mean rounds against log(num
    events) and flags super-logarithmic growth (final residual beyond
    3 residual standard deviations). The fit needs at least two distinct
    sizes, so that the graphs have at least two distinct edge counts, and a
    ``degree``-regular graph needs ``degree >= 1``, ``n > degree`` and an even
    ``n * degree``; every size is checked before any graph is built.
    """
    if len(set(sizes)) < 2:
        raise ValueError(
            "round scaling needs at least two distinct sizes to fit rounds "
            "against log(edges), got %s" % ",".join(map(str, sizes))
        )
    if degree < 1:
        raise ValueError("degree must be >= 1, got %d" % degree)
    for n in sizes:
        if n <= degree or n * degree % 2:
            raise ValueError(
                "no %d-regular graph on %d vertices: it needs more than %d "
                "vertices and an even n * degree" % (degree, n, degree)
            )
    if trials < 1:
        raise ValueError("trials must be >= 1, got %d" % trials)
    per_size = []
    decay_pairs = []
    for si, n in enumerate(sizes):
        graph = random_regular_graph(
            degree, n, seed=derive_seed(base_seed, 10 ** 9 + si)
        )
        m = graph.num_edges
        rounds = []
        resamples = []
        for t in range(trials):
            cfg = SamplerConfig(seed=derive_seed(base_seed, si * trials + t))
            _, stats = hardcore_sample(graph, lam, cfg)
            rounds.append(stats.rounds)
            resamples.append(stats.total_resamples)
            bad_counts = [len(s) for s in stats.log]
            decay_pairs.extend(zip(bad_counts, bad_counts[1:]))
        per_size.append(
            {
                "n": n,
                "m": m,
                "trials": trials,
                "mean_rounds": statistics.fmean(rounds),
                "se_rounds": statistics.stdev(rounds) / math.sqrt(trials)
                if trials > 1
                else 0.0,
                "resamples_per_event": statistics.fmean(resamples) / m,
            }
        )
    logs = [math.log(row["m"]) for row in per_size]
    means = [row["mean_rounds"] for row in per_size]
    b, a = statistics.linear_regression(logs, means)
    residuals = [y - (a + b * x) for x, y in zip(logs, means)]
    resid_std = statistics.pstdev(residuals) or 1e-12
    super_log = residuals[-1] > 3 * resid_std
    if decay_pairs:
        total = sum(x for x, _ in decay_pairs)
        ratio = sum(y for _, y in decay_pairs) / total
        se = math.sqrt(math.fsum((y - ratio * x) ** 2 for x, y in decay_pairs)) / total
    else:
        ratio, se = 0.0, 0.0
    return {
        "lam": str(Fraction(lam)),
        "degree": degree,
        "sizes": per_size,
        "fit": {
            "a": a,
            "b": b,
            "residuals": residuals,
            "resid_std": resid_std,
            "super_logarithmic": super_log,
        },
        "decay": {"ratio": ratio, "se": se, "pairs": len(decay_pairs)},
    }


def truncated_sum_convergence_test(
    graph: DependencyGraph, p, max_len: int
) -> dict:
    """Exact check that truncated sequence sums rise to 1/q_empty.

    Verifies monotonicity and the analytic tail bound
    |partial(L) - 1/q_empty| <= (1 - q_empty)^L / q_empty.
    """
    partials = truncated_log_partials(graph, p, max_len)
    qe = q_empty(graph, p)
    if qe <= 0:
        raise BudgetError("q_empty <= 0; the series has no finite limit")
    limit = 1 / qe
    monotone = all(b >= a for a, b in zip(partials, partials[1:]))
    gap = limit - partials[-1]
    bound = (1 - qe) ** max_len / qe
    return {
        "partials": [str(x) for x in partials],
        "limit": str(limit),
        "monotone": monotone,
        "final_gap": str(gap),
        "tail_bound": str(bound),
        "passed": bool(monotone and 0 <= gap <= bound),
    }
