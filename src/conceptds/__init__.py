"""Evidence theory on concept lattices, with exact rational arithmetic.

The package builds concept lattices from formal contexts, evaluates mass,
belief, and plausibility functions over them, combines evidence with the
conjunctive rule, and constructively represents belief and plausibility as
inner and outer measures of probability spaces.  A `conceptds` command-line
tool exposes the same operations.
"""

from .cases import (CASE_IDS, CaseReport, CellNote, build_case, build_report,
                    display_labels, load_case)
from .combine import CombinationReport, combine, combine_many, combine_set
from .context import (FRESH_ATTRIBUTE, ContextDocument, FormalContext,
                      MassSpec, load_document, normalize_no_universal_object,
                      parse_cxt, serialize_cxt)
from .errors import (CapacityError, ConceptDSError, LabelError, MassError,
                     ParseError, PreconditionError, TotalConflictError)
from .evidence import (BeliefTable, MassFunction, SetMassFunction,
                       mass_from_bel_lattice, mass_from_bel_set,
                       resolve_concept_label, resolve_mass)
from .lattice import Concept, ConceptLattice, enumerate_concepts
from .oracle import (AxiomReport, AxiomViolation, brute_bel, brute_pl,
                     check_belief_axioms_set, check_plausibility_axioms_set,
                     random_context, random_mass, random_partition_space,
                     random_set_mass)
from .probspace import (ProbabilitySpace, parse_probability_space,
                        probability_space_from_json)
from .rationals import (format_exact, format_fixed, parse_rational,
                        round_half_away)
from .represent import (ConceptRepresentation, FrameRepresentation,
                        SetRepresentation, VerificationRow,
                        atom_order_matches, atoms_pairwise_disjoint,
                        embedding_meet_preserving, normalize_with_mass,
                        represent_concepts, represent_concepts_frame,
                        represent_set)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
