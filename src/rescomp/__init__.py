"""Resolvent and proximal composition calculus, with a relaxation solver.

The package is organized bottom-up:

* :mod:`rescomp.hilbert` -- weighted spaces, linear maps, adjoints, projectors;
* :mod:`rescomp.sets` -- convex sets with metric projections;
* :mod:`rescomp.operators` -- monotone operators as resolvent families;
* :mod:`rescomp.proxfun` -- convex functions as prox families, Moreau calculus;
* :mod:`rescomp.compositions` -- compositions, cocompositions, mixtures, averages;
* :mod:`rescomp.solvers` -- proximal point engine and the relaxed-inclusion solver;
* :mod:`rescomp.bench` -- instance generators, oracles, config runner;
* :mod:`rescomp.properties` -- randomized property suites (``rescomp props``).
"""

from .hilbert import (
    LinearMap,
    Space,
    SubspaceProjector,
    identity_map,
    product_space,
    stack,
)
from .operators import (
    GraphPoint,
    ResolventFamily,
    linear_monotone,
    make_wiener,
    normal_cone,
    product_family,
    scaled_identity,
    subdifferential,
    zero_operator,
)
from .compositions import (
    compose_chain,
    resolvent_average,
    resolvent_composition,
    resolvent_cocomposition,
    resolvent_mixture,
    strong_monotonicity_modulus,
)
from .proxfun import (
    ProxFunction,
    conjugate_prox,
    half_squared_distance,
    indicator,
    moreau_envelope,
    one_norm,
    proximal_composition_prox,
    proximal_composition_value,
    proximal_cocomposition_prox,
    proximal_mixture_prox,
    quadratic,
    separable,
)
from .solvers import (
    RelaxedInstance,
    Schedule,
    Trace,
    proximal_point,
    solve_blocks,
    solve_relaxed,
    variational_residual,
    verify_exact_relaxation,
)
from .bench import (
    InstanceSpec,
    RunReport,
    generate_instance,
    least_squares_oracle,
    wiener_oracle,
)
from .properties import run_properties

__version__ = "0.1.0"
