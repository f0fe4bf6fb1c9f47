"""Exact arithmetic for additive 0-cycles, big de Rham-Witt forms and
relative Milnor K-theory of truncated polynomial rings over Q(x1..xr)."""

from .errors import WittCyclesError
from .scalars import Context, FieldElem, parse_elem
from .forms import (CanonRelForm, DiffForm, FormOnTrunc, LevelTuple, dlog,
                    dlog_wedge, reduce_mod_exact)
from .trunc import TruncElem, exp_t, log_t, parse_trunc, trunc_dlog, embed_form
from .witt import (WittVector, frobenius, gamma, gamma_inv, ghost, teichmuller,
                   unghost, verschiebung, witt_decompose)
from .drw import DRWForm, drw_F, drw_V, drw_d, from_witt, phi, teich_dlog
from .relmilnor import RelSymbol, mult_by_absolute, normal_form, theta
from .milnorfield import (FieldSymbol, Valuation, collect_terms,
                          dlog_is_zero, elem_identity_instance,
                          gersten_boundary, rewrite_filtration, tame_symbol,
                          weil_reciprocity_check)
from .addchow import (CycleGen, ParamCurve, boundary, cyc_milnor, cycle_to_drw,
                      drw_to_milnor_diagonal, milnor_to_drw_diagonal,
                      modulus_check_curve, tower_compat,
                      verify_boundary_vanishing)
from .verify import run_suite

__version__ = "0.1.0"
