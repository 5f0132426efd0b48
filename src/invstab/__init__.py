"""Inverse stability of Artin-Schreier polynomials over finite fields.

Decides whether every denominator of the iterates of 1/(X^p - X + xi) stays
irreducible over F_q, via a trace criterion on a finite state recurrence
made terminating by cycle detection, and cross-checks every closed form
against brute-force oracles.
"""

from . import errors
from .fields import (
    MAX_DEPTH,
    MAX_PRIME,
    FieldCtx,
    FieldElement,
    abs_trace,
    element_from_text,
    element_texts,
    element_to_text,
    extension_field,
    finite_field,
    lift,
    prime_field,
    rel_trace,
    relative_degree,
)
from .polys import (
    Poly,
    artin_schreier,
    find_irreducible,
    frobenius_power,
    gcd,
    is_irreducible,
    poly_to_text,
    powmod,
    reciprocal,
)
from .iteration import (
    DEFAULT_DEGREE_CAP,
    INFINITY,
    IterateFraction,
    denominator,
    forward_orbit_infinity,
    initial_fraction,
    iterate_step,
    preimage_count,
)
from .criterion import (
    STABLE,
    UNSTABLE,
    CriterionState,
    StabilityVerdict,
    TraceRow,
    WanResult,
    agou_quartic_irreducible,
    decide_field,
    decide_inverse_stability,
    init_states,
    mobius_trace_formula,
    step_state,
    trace_rows,
    wan_irreducible_p,
)
from .xcheck import (
    EquivalenceReport,
    MinpolyTraceCheck,
    RelTraceCheck,
    criterion_vs_direct,
    direct_denominator_check,
    irreducibility_trace_sweep,
    minimal_polynomial,
    minpoly_trace_check,
    rel_trace_oracle,
    state_walk_c_nonzero,
    verify_suites,
)

__version__ = '0.1.0'

__all__ = [
    'errors',
    'MAX_DEPTH', 'MAX_PRIME', 'FieldCtx', 'FieldElement', 'abs_trace',
    'element_from_text', 'element_texts', 'element_to_text',
    'extension_field', 'finite_field', 'lift', 'prime_field', 'rel_trace',
    'relative_degree',
    'Poly', 'artin_schreier', 'find_irreducible', 'frobenius_power', 'gcd',
    'is_irreducible', 'poly_to_text', 'powmod', 'reciprocal',
    'DEFAULT_DEGREE_CAP', 'INFINITY', 'IterateFraction', 'denominator',
    'forward_orbit_infinity', 'initial_fraction', 'iterate_step',
    'preimage_count',
    'STABLE', 'UNSTABLE', 'CriterionState', 'StabilityVerdict', 'TraceRow',
    'WanResult', 'agou_quartic_irreducible', 'decide_field',
    'decide_inverse_stability', 'init_states', 'mobius_trace_formula',
    'step_state', 'trace_rows', 'wan_irreducible_p',
    'EquivalenceReport', 'MinpolyTraceCheck', 'RelTraceCheck',
    'criterion_vs_direct', 'direct_denominator_check',
    'irreducibility_trace_sweep', 'minimal_polynomial', 'minpoly_trace_check',
    'rel_trace_oracle', 'state_walk_c_nonzero', 'verify_suites',
    '__version__',
]
