"""Fermionic projected entangled pair states on small periodic lattices.

Layers:

* :mod:`fpeps.fock` / :mod:`fpeps.build` -- exact dense Fock-space oracle
  and the entangled-bond state construction;
* :mod:`fpeps.mapping` / :mod:`fpeps.contraction` -- the sign-resolved
  translation to spin PEPS tensors and their exact contraction;
* :mod:`fpeps.gaussian` / :mod:`fpeps.quadratic` -- Majorana covariance
  matrices, pure Gaussian maps, parent Hamiltonians, spectra and entropies;
* :mod:`fpeps.critical` / :mod:`fpeps.correlators` -- the critical
  free-fermion model with its correlation asymptotics;
* :mod:`fpeps.cli` -- the ``fpeps`` command.

The package runs on numpy alone and imports no SciPy.  The tests use SciPy
for independent references, adaptive ``quad`` of the correlator integrals
among them.  The package holds only what the ``fpeps`` command and its
library callers run; the independent reference routes live with the tests:
the operator-polynomial oracle over the full mode registry in
``tests/fock_reference.py``, the normal-ordering sign derivation in
``tests/sign_reference.py`` and the Gaussian-side helpers (ground-state
covariances, finite-torus correlators) in ``tests/gaussian_reference.py``.
"""

from .build import build_fpeps
from .contraction import contract_peps
from .correlators import (
    asymptotic_k,
    correlation_scan,
    correlator_numeric,
    correlator_residue,
)
from .critical import (
    closed_form_ratios,
    entropy_scan,
    example_channel,
    example_projector_tensor,
    gap_scan,
    hcrit_coefficients,
    norm_zero_locator,
)
from .errors import (
    ContractViolationError,
    FpepsError,
    NumericalValidityError,
    ResourceLimitError,
    UndefinedStateError,
    ZeroNormError,
)
from .fock import (
    FockVector,
    ModeRegistry,
    covariance_matrix,
    exact_ground_state,
    physical_registry,
)
from .gaussian import (
    GaussianChannel,
    MajoranaCM,
    apply_channel,
    channel_tensor,
    fourier_bond,
    g_hat,
    gamma_out_hat,
    lattice_bond_cm,
    physical_cm_from_blocks,
)
from .lattice import LatticeSpec
from .mapping import derive_sign_functions, map_tensor_set
from .quadratic import (
    DiracQuadratic,
    QuadraticHamiltonian,
    block_entropy,
    dirac_to_majorana,
    ground_state_cm_consistency,
    majorana_to_dirac,
    parent_hamiltonian,
    single_particle_spectrum,
)
from .tensors import FPEPSTensor

__version__ = "0.1.0"
