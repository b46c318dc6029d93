"""CNF formulas as constraint instances: uniform sampling of solutions.

Clauses compile to events over uniform binary variables: a k-clause has
exactly one violating assignment of its k variables, so its event
probability is 2^-k, and two clauses sharing s variables have shared-draw
compatibility probability 2^-s. A CNF is extremal exactly when every pair
of clauses sharing a variable disagrees on the sign of some shared
variable.

Value convention: domain value 1 means the variable is true; DIMACS
literal v is satisfied by value 1, literal -v by value 0.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .certified import e_leq, e_mult_leq_two_pow_half, two_pow_3e_leq
from .errors import BudgetError
from .graphs import Graph, decimal_int
from .model import Instance, _instance, _uniform_weights
from .records import FrozenRecord, _unchecked, fields_json
from .sampler import SamplerConfig, run_sampler

# The most variables a formula may declare to be made an instance: one draw
# of a one-clause formula at the cap peaked at 480 MB on CPython 3.11,
# Linux x86-64 (about 120 bytes per variable).
MAX_CNF_VARS = 2 ** 22


class CnfFormula(FrozenRecord):
    """Clauses as tuples of nonzero DIMACS literals over vars 1..num_vars."""

    _fields = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clauses", clauses)
        if num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        for ci, clause in enumerate(clauses):
            if not clause:
                raise ValueError("clause %d is empty" % (ci + 1))
            seen = {}
            for lit in clause:
                v = abs(lit)
                if lit == 0 or v > num_vars:
                    raise ValueError(
                        "clause %d: literal %d out of range 1..%d" % (ci + 1, lit, num_vars)
                    )
                if v in seen:
                    kind = "repeated" if seen[v] == lit else "complementary (tautology)"
                    raise ValueError(
                        "clause %d: variable %d appears twice (%s)" % (ci + 1, v, kind)
                    )
                seen[v] = lit


def parse_dimacs(text: str) -> CnfFormula:
    """Strict DIMACS CNF parser with line-numbered errors.

    Requires one 'p cnf <vars> <clauses>' header; 'c' lines are comments;
    clauses are 0-terminated and may span lines; the clause count must
    match the header. Numbers are ASCII decimal digits, literals with an
    optional leading '-'.
    """
    num_vars = num_clauses = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ValueError("line %d: duplicate header" % lineno)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ValueError(
                    "line %d: header must be 'p cnf <vars> <clauses>', got %r"
                    % (lineno, raw.rstrip())
                )
            try:
                num_vars, num_clauses = decimal_int(parts[2]), decimal_int(parts[3])
            except ValueError:
                raise ValueError("line %d: non-integer header counts" % lineno) from None
            if num_vars < 0 or num_clauses < 0:
                raise ValueError("line %d: negative header counts" % lineno)
            continue
        if num_vars is None:
            raise ValueError("line %d: clause before 'p cnf' header" % lineno)
        for tok in line.split():
            try:
                lit = decimal_int(tok)
            except ValueError:
                raise ValueError("line %d: invalid token %r" % (lineno, tok)) from None
            if lit == 0:
                if not current:
                    raise ValueError("line %d: empty clause" % lineno)
                if len(clauses) >= num_clauses:
                    raise ValueError(
                        "line %d: more clauses than the %d declared"
                        % (lineno, num_clauses)
                    )
                seen = {}
                for l in current:
                    v = abs(l)
                    if v > num_vars:
                        raise ValueError(
                            "line %d: literal %d exceeds declared %d variables"
                            % (lineno, l, num_vars)
                        )
                    if v in seen:
                        kind = (
                            "repeated" if seen[v] == l else "complementary (tautology)"
                        )
                        raise ValueError(
                            "line %d: variable %d appears twice in clause %d (%s)"
                            % (lineno, v, len(clauses) + 1, kind)
                        )
                    seen[v] = l
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if num_vars is None:
        raise ValueError("missing 'p cnf' header")
    if current:
        raise ValueError("unterminated final clause (missing 0)")
    if len(clauses) != num_clauses:
        raise ValueError(
            "header declares %d clauses but %d were given" % (num_clauses, len(clauses))
        )
    # Each clause is checked above as CnfFormula would check it.
    return _unchecked(CnfFormula, num_vars, tuple(clauses))


def write_dimacs(formula: CnfFormula) -> str:
    lines = ["p cnf %d %d" % (formula.num_vars, len(formula.clauses))]
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in formula.clauses)
    return "\n".join(lines) + "\n"


class CnfStats(FrozenRecord):
    """Shape summary used by the condition checkers.

    ``uniform_width`` is the common clause width, or None for mixed widths;
    ``max_var_degree`` is the max number of clauses any variable appears in;
    ``min_shared`` is the smallest variable overlap among dependent clause
    pairs (None when no two clauses share a variable); ``extremal`` says
    whether every dependent pair disagrees in sign somewhere.
    """

    _fields = (
        "num_vars", "num_clauses", "uniform_width", "max_var_degree", "min_shared", "extremal"
    )

    def to_json(self) -> dict:
        out = fields_json(self)
        if self.min_shared is None:
            out["min_shared"] = "infinity"
        return out


def cnf_stats(formula: CnfFormula) -> CnfStats:
    widths = {len(c) for c in formula.clauses}
    by_var: dict[int, list[int]] = {}
    for ci, clause in enumerate(formula.clauses):
        for lit in clause:
            by_var.setdefault(abs(lit), []).append(ci)
    degree = max((len(cs) for cs in by_var.values()), default=0)
    signs = [
        {abs(lit): (lit > 0) for lit in clause} for clause in formula.clauses
    ]
    pairs = set()
    for cs in by_var.values():
        for i in cs:
            for j in cs:
                if i < j:
                    pairs.add((i, j))
    min_shared = None
    extremal = True
    for i, j in pairs:
        shared = set(signs[i]) & set(signs[j])
        if min_shared is None or len(shared) < min_shared:
            min_shared = len(shared)
        if all(signs[i][v] == signs[j][v] for v in shared):
            extremal = False
    return CnfStats(
        num_vars=formula.num_vars,
        num_clauses=len(formula.clauses),
        uniform_width=widths.pop() if len(widths) == 1 else None,
        max_var_degree=degree,
        min_shared=min_shared,
        extremal=extremal,
    )


def check_extremal_condition(k: int, d: int) -> bool:
    """Certified check of d <= 2^k / (e*k) + 1 for k-CNF with variable degree d."""
    if k < 1:
        raise ValueError("clause width k must be >= 1, got %d" % k)
    if d < 0:
        raise ValueError("variable degree d must be nonnegative, got %d" % d)
    if d <= 1:
        return True
    # d - 1 <= 2^k/(e*k)  <=>  e <= 2^k / (k*(d-1)), which holds once
    # 2^k >= 4*k*(d-1): only a k below that builds 2^k.
    m = k * (d - 1)
    return k >= m.bit_length() + 2 or e_leq(Fraction(2 ** k, m))


def sharing_condition_parts(k: int, d: int, s: int) -> dict:
    """The three components of the shared-variable efficiency condition."""
    if d < 3:
        raise ValueError("variable degree d must be >= 3, got %d" % d)
    if k < 1:
        raise ValueError("clause width k must be >= 1, got %d" % k)
    if s < 0:
        raise ValueError("shared-variable count s must be nonnegative, got %d" % s)
    return {
        "dk_large_enough": two_pow_3e_leq(Fraction(d * k)),
        "degree_small_enough": e_mult_leq_two_pow_half(Fraction(6 * d), k),
        # s >= min(log2(dk), k/2), decided in integers: 2^s >= dk iff
        # s >= (dk - 1).bit_length().
        "overlap_large_enough": s >= (d * k - 1).bit_length() or 2 * s >= k,
    }


def check_sharing_condition(k: int, d: int, s: int) -> bool:
    """Certified check that k-CNFs with degree d and pairwise overlap >= s
    fall in the efficient sampling regime: dk >= 2^(3e), d <= 2^(k/2)/(6e),
    s >= min(log2(dk), k/2)."""
    return all(sharing_condition_parts(k, d, s).values())


def cnf_to_instance(formula: CnfFormula) -> Instance:
    """Compile to a constraint instance over uniform binary variables.

    ``CnfFormula`` has checked that every clause is nonempty, with literals
    in range and on distinct variables, so of the spec and instance checks
    only the width cap runs, since no clause length is bounded. A formula
    declaring more than ``MAX_CNF_VARS`` variables raises ``BudgetError``
    before anything is made per variable.
    """
    n = formula.num_vars
    if n > MAX_CNF_VARS:
        raise BudgetError("formula declares %d variables; cap is %d" % (n, MAX_CNF_VARS))
    vbls, violating = [], []
    for clause in formula.clauses:
        clause = sorted(clause, key=abs)
        vbls.append(tuple([abs(lit) - 1 for lit in clause]))
        violating.append(frozenset({tuple([0 if lit > 0 else 1 for lit in clause])}))
    return _instance((2,) * n, (_uniform_weights(2),) * n, vbls, violating)


def sample_cnf(formula: CnfFormula, sampler_kind: str, config: SamplerConfig):
    """Sample a satisfying assignment (0/1 per variable) with run stats."""
    instance = cnf_to_instance(formula)
    return run_sampler(sampler_kind, instance, config)


def format_assignment(assignment, fmt: str = "bits") -> str:
    """Render a 0/1 assignment as a bit string or as DIMACS literals."""
    if fmt == "bits":
        return "".join(str(b) for b in assignment)
    if fmt == "literals":
        return " ".join(
            str(v + 1) if b else str(-(v + 1)) for v, b in enumerate(assignment)
        )
    raise ValueError("unknown assignment format %r" % fmt)


def hard_example(m: int) -> CnfFormula:
    """A chain of m gadgets with one satisfying assignment (all true) and at
    least 3^m assignments violating exactly one clause: expected resampling
    work grows exponentially in m even though the formula is extremal.

    Variables: x_i -> i for 1 <= i <= m; y_j -> m + j for 1 <= j <= 2m.
    """
    if m < 1:
        raise ValueError("m must be >= 1, got %d" % m)

    def x(i):
        return i

    def y(j):
        return m + j

    clauses = [
        (x(1),),
        (-x(1), y(1), y(2)),
        (-x(1), y(1), -y(2)),
        (-x(1), -y(1), y(2)),
    ]
    for k in range(1, m):
        clauses.append((-y(2 * k - 1), -y(2 * k), x(k + 1)))
        clauses.append((-x(k + 1), y(2 * k + 1), y(2 * k + 2)))
        clauses.append((-x(k + 1), y(2 * k + 1), -y(2 * k + 2)))
        clauses.append((-x(k + 1), -y(2 * k + 1), y(2 * k + 2)))
    return CnfFormula(3 * m, tuple(clauses))


def monotone_cnf_from_graph(graph: Graph, s: int) -> CnfFormula:
    """Monotone CNF whose solutions project onto hard-core configurations.

    Each vertex gets s fresh variables; each edge becomes the positive
    clause over both endpoint blocks (width 2s). A vertex counts as
    occupied when its whole block is false, so solutions correspond to
    independent sets, (2^s - 1)^(n - |I|) solutions each.
    """
    if s < 1:
        raise ValueError("block size s must be >= 1, got %d" % s)
    degrees = [len(a) for a in graph.adjacency]
    if degrees and len(set(degrees)) != 1:
        warnings.warn(
            "graph is not regular (degrees %d..%d); width/degree-based "
            "conditions use worst-case values" % (min(degrees), max(degrees)),
            stacklevel=2,
        )
    clauses = []
    for u, v in graph.edges:
        block_u = [u * s + i + 1 for i in range(s)]
        block_v = [v * s + i + 1 for i in range(s)]
        clauses.append(tuple(block_u + block_v))
    return CnfFormula(graph.num_vertices * s, tuple(clauses))
