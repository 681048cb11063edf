"""Finite neighborhood frames, their Boolean algebras with an operator,
and the constructions between them: evaluation, closed-family spaces,
dualities, general frames with sigma/pi extensions, class checks, and
countermodel search.  Subsets of an n-point carrier are int bitmasks,
and a family of subsets is its famask: the int whose bit a is set when
mask a is a member (`famask_of` packs one, `famask_members` decodes
one).  A frame is its key, the tuple of its points' famasks."""

from .bax import (
    BaxSpace,
    bax_map,
    baxspace_from_json,
    baxspace_text,
    baxspace_to_json,
    compose_morphisms,
    enumerate_bax,
    naturality_check,
    principal_iso,
)
from .classes import (
    ClassTag,
    algebra_class_check,
    correspondence_check,
    frame_class_check,
    parse_class_tag,
)
from .core import (
    CapExceededError,
    CompleteHom,
    FrameMorphism,
    InvalidInputError,
    NbhdError,
    NeighborhoodAlgebra,
    NeighborhoodFrame,
    Relation,
    algebra_from_json,
    algebra_to_json,
    box_n,
    complement_frame,
    famask_members,
    famask_of,
    frame_from_json,
    frame_to_json,
    from_relation,
    full_mask,
    hom_from_json,
    hom_to_json,
    is_nbhd_morphism,
    morphism_from_json,
    morphism_to_json,
    relation_from_json,
    relation_to_json,
    to_relation,
    up_cone,
)
from .duality import (
    LaxAlgebra,
    atom_frame,
    complex_algebra,
    dualize_complete_hom,
    dualize_frame_morphism,
    is_complete_nbhd_hom,
    lax_algebra,
    lax_from_json,
    lax_text,
    lax_to_json,
    onestep_top_check,
)
from .evaluate import (
    eval_formula,
    find_refuting_assignment,
    is_ax_subset,
    theta_t_member,
    validates,
)
from .formulas import (
    Axiom,
    AxiomSet,
    ParseError,
    axiom_set_from_specs,
    expand_named,
    free_vars,
    is_one_step,
    parse,
    render,
)
from .genframe import (
    GeneralFrame,
    all_subalgebras,
    complement_within_admissible,
    general_frame_from_json,
    general_frame_report,
    general_frame_to_json,
    is_pi_descriptive,
    is_sigma_descriptive,
    pi_extend,
    sigma_extend,
    sigma_morphism_transfer,
    subalgebra_from_partition,
    truncate,
    validate_general_frame,
)
from .search import (
    SearchSpec,
    canonical_form,
    count_frames,
    enumerate_frames,
    find_countermodel,
    relabel_frame,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
