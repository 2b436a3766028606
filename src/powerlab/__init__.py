"""powerlab: a finite order-theory laboratory.

Builds consistent Hoare powerdomains and F-Scott closure systems over finite
posets and machine-checks a catalog of structural statements about them on
every poset up to a size bound, up to isomorphism.
"""

from .poset import (
    FinitePoset,
    InvariantError,
    PosetError,
    PosetMap,
    down_set,
    hasse,
    is_consistent,
    is_directed,
    is_irreducible_closed,
    is_lower_set,
    is_scott_closed,
    is_sober,
    iter_bits,
    scott_closure,
    sup,
    upper_bounds,
    way_below,
    way_down_masks,
)
from .families import SetFamily, closure_in_family, gamma, gamma0
from .semilattice import (
    VSemilattice,
    cl_f,
    enumerate_homomorphisms,
    gamma_f,
    is_f_scott_closed,
    is_f_scott_closed_literal,
    is_f_scott_continuous,
    is_homomorphism,
    is_v_semilattice,
    sup_exists_transport_check,
)
from .hoare import (
    ConsistentHoare,
    NoWitnessFound,
    WitnessCert,
    build_hc,
    f_c,
    gamma_c,
    is_relatively_consistent,
    partial_join,
    r_gamma_c,
    refute_v_existing,
    sup_of_image,
)
from .enumeration import (
    are_isomorphic,
    bruteforce_canonical_forms,
    bruteforce_poset_count,
    canonical_form,
    enumerate_monotone_maps,
    enumerate_posets,
    enumerate_v_semilattices,
    unpack_canonical,
)
from .suite import (
    Config,
    Summary,
    VerificationReport,
    replay_failure,
    run_all,
    run_statement,
)
from . import catalog

__version__ = "0.1.0"
