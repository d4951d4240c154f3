"""Equivariant versal unfoldings of linear retarded delay equations.

The pipeline: describe a point-delay operator (`delays`), check its
symmetry and locate critical imaginary spectra (`frames`, `d3`), build the
normalized eigenframe and the induced group action on the center
coordinates (`frames`), then construct a group-equivariant mini-versal
unfolding realized through finitely many lags (`unfolding`).  `jsonio` and
`verify` define the artifact interchange format and its re-verification;
`cli` exposes everything as subcommands.
"""

from .delays import (DelayOperator, ExpVector, bilinear_form,
                     bilinear_form_quadrature, check_equivariance)
from .errors import (EqunfoldError, FrameError, RootFindingError, SchemaError,
                     StructuralError, UnfoldingError)
from .frames import SpectralFrame, eigenbasis, find_root, induce_representation
from .groups import (FiniteGroup, Representation, check_representation,
                     close_generators, commutant_basis, equivariant_average)
from .unfolding import (OrbitGeometry, ThetaReport, UnfoldingFamily,
                        assemble_gamma_unfolding, build_R_matrices,
                        exponential_delay_matrix, jordan_codimension,
                        orbit_geometry, realify,
                        scaled_det, select_delays, semisimple_jordan_spec,
                        slot_reparametrization, solve_delay_realization,
                        theta_extract, verify_gamma_versality)

__version__ = "0.1.0"
