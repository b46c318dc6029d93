"""Exact sampling of constrained combinatorial structures by partial rejection.

The package samples from a product measure over finitely many discrete
variables conditioned on avoiding a family of "bad" events, each touching
only a few variables. Instead of rejecting whole assignments, the samplers
redraw carefully chosen subsets of variables and still produce the exact
conditional distribution. An exact rational analysis engine predicts
running times and feasibility, and a verification harness checks sampler
outputs against brute-force enumeration.

Main entry points:

* :mod:`prsampling.model`      instances, events, product measures, JSON IO,
* :mod:`prsampling.sampler`    the three resampling algorithms,
* :mod:`prsampling.shearer`    exact stationary-measure analysis,
* :mod:`prsampling.graphs`     graph structure and edge-list IO,
* :mod:`prsampling.graph_apps` orientations, spanning trees, hard-core,
* :mod:`prsampling.cnf`        satisfying-assignment sampling (DIMACS),
* :mod:`prsampling.verify`     oracles, statistical tests, experiments,
* :mod:`prsampling.cli`        the ``prsampling`` command.

``import prsampling`` loads every module above but ``verify`` and ``cli``.
The names exported from ``verify`` (``enumerate_valid``,
``uniformity_test`` and the rest) load it, with ``statistics``, on first
use.
"""

from .cnf import (
    CnfFormula,
    CnfStats,
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
from .errors import BudgetError, PrsError, RoundCapError
from .graph_apps import (
    alpha,
    assignment_to_arrows,
    bad_vertices,
    corner_matrix,
    cycle_popping,
    disjoint_paths_experiment,
    disjoint_paths_graph,
    encode_hardcore,
    encode_sink_free,
    encode_spanning_tree,
    endpoint_matrix,
    hardcore_condition,
    hardcore_sample,
    is_arrow_tree,
    path_partition,
    PathEndpointMatrix,
    ratio_bounds,
    sink_popping,
    spanning_tree_variables,
)
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    make_graph,
    parse_edge_list,
    path_graph,
    random_regular_graph,
    simple_cycles,
    write_edge_list,
)
from .model import (
    DependencyGraph,
    EventSpec,
    Instance,
    VariableSpec,
    build_dependency_graph,
    compatible,
    enumerate_assignments,
    event_probabilities,
    event_probability,
    instance_from_json,
    instance_to_json,
    is_extremal,
    load_instance,
    make_event,
    occurring_events,
    occurs,
    parse_rational,
    r_max,
    sample_product,
    save_instance,
    uniform_variable,
)
from .rng import derive_seed, make_rng
from .sampler import (
    DEFAULT_ROUND_CAP,
    RunStats,
    SAMPLERS,
    SamplerConfig,
    extremal_prs,
    general_prs,
    moser_tardos,
    run_sampler,
    select_resampling_set,
)
from .shearer import (
    GprsCheck,
    ShearerError,
    ShearerReport,
    all_q_values,
    analyze_instance,
    check_asymmetric_lll,
    check_gprs_conditions,
    expected_resamples,
    expected_resamples_per_event,
    gprs_condition_values,
    independent_sets,
    is_independent,
    linear_coefficient,
    q_empty,
    q_singletons,
    shearer_holds,
    symmetric_pc,
    truncated_log_partials,
)

# ``bench/tracing.py`` rebinds names in the modules it finds in
# ``sys.modules`` right after ``import prsampling``, so the modules above
# stay eager: ``graphs``, ``cnf``, ``graph_apps``, ``model``, ``sampler``
# and ``shearer``.

# Names of ``verify``, resolved by ``__getattr__`` on first use.
_VERIFY = (
    "OracleResult",
    "UniformityVerdict",
    "biased_stub",
    "chain_cnf",
    "cross_order_report",
    "empirical_distribution_test",
    "enumerate_valid",
    "expected_resamples_test",
    "first_round_test",
    "make_handle",
    "negative_control_test",
    "random_extremal_instance",
    "random_instance",
    "random_weighted_instance",
    "res_set_property_tests",
    "round_scaling_experiment",
    "truncated_sum_convergence_test",
    "two_adjacent_events_instance",
    "uniformity_cases",
    "uniformity_test",
)

__version__ = "0.1.0"

# The public names imported above but the submodules, which the imports
# bind here too, and the names of ``verify``.
__all__ = [
    name for name, value in globals().items()
    if name[0] != "_" and type(value) is not type(sampler)
] + list(_VERIFY)


def __getattr__(name: str):
    """A name of ``verify``, which this imports on first use (PEP 562)."""
    if name in _VERIFY:
        from . import verify

        value = globals()[name] = getattr(verify, name)
        return value
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_VERIFY))
