"""Exact equivariant geometry of pencils of quadrics.

Cyclotomic arithmetic, pencil/branch computations, finite matrix groups,
two-torsion combinatorics, del Pezzo line configurations, and a CLI that
chains them into linearizability verdicts.
"""

from .cyclo import CycNum, cyc_sqrt, zeta
from .binforms import BinaryForm, bform_discriminant
from .matrices import Mat, Subspace, eigenspaces_finite_order, kernel, operator_order
from .smith import invariant_factors, smith_normal_form
from .groups import (
    MatrixGroup,
    Relation,
    projective_fixed_locus,
    scalar_lift_search,
    verify_relations,
)
from .pencils import (
    Pencil,
    degeneracy_form,
    equivariance,
    fixed_points_on_X,
    invariant_lines_abelian,
    is_smooth,
)
from .torsion import (
    TorsionClass,
    excess_identity,
    fixed_classes,
    section_count_identity,
    torsion_classes,
)
from .dp4 import (
    SignedPerm,
    conjugate_in_WD5,
    invariant_lines,
    lattice_h1,
    lines16,
    orbits,
    pic_action,
    wd5_elements,
)
from .jsonio import JobSpec, parse_job
from .cli import emit, main, run_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
