"""Distributed color reduction under set and multiset message delivery.

Library layout:

* graphs      -- colored graphs, validators, seeded random trees
* views       -- recursive round views, canonical encoding, extraction
* simulate    -- synchronous broadcast engine and view correspondence
* algorithms  -- color reduction rounds and the (delta+1) pipeline
* nbhd        -- neighborhood-graph families and homomorphisms
* bounds      -- uncovered-vertex refuters and the round lower bound
* chromatic   -- exact/heuristic chromatic numbers, DIMACS export
* cli         -- `colorreduce` command-line front end
"""

from .algorithms import (CoverFreeFamily, LinialParams, build_family,
                         delta_plus_one_program, delta_plus_one_schedule,
                         kw_palette_schedule, kw_step_program, kw_target,
                         linial_full_program, linial_palette_schedule,
                         linial_params, linial_step_program, logstar2)
from .bounds import (BoundReport, Orientation, class_defect,
                     defective_sources, is_independent, lower_bound_rounds,
                     orientation_of, refute_relaxed, source_chain, sources,
                     uncovered_clique_step, uncovered_defective_node,
                     uncovered_local1_node)
from .chromatic import (ChiResult, chi_exact, dsatur, embedded_clique,
                        export_dimacs, greedy_clique, is_k_colorable,
                        read_dimacs)
from .errors import (CapExceededError, ColorReduceError, ConstructionError,
                     CoverageError, GraphError, PaletteMismatchError,
                     ParameterError, SimulationError)
from .graphs import (ColorAssignment, ColoredGraph, graph_from_json,
                     graph_to_json, greedy_coloring, random_colored_tree,
                     validate_defective, validate_proper)
from .nbhd import (BOTTOM, HomMap, NbhdGraph, build_local1, build_relaxed,
                   build_relaxed_levels, build_setlocal, build_typed,
                   build_typed_levels, center, mutual_edge,
                   relaxed_to_typed_hom, typed_to_setlocal_hom, types,
                   verify_homomorphism)
from .simulate import (ColorRounds, CorrespondenceReport, NodeProgram,
                       SimTrace, check_correspondence,
                       full_information_program, run)
from .views import (MULTISET, SET, View, canonical_decode, canonical_encode,
                    erase_multiplicities, extract_all_views, extract_view,
                    truncate, view_from_json, view_to_json)

__version__ = "1.0.0"
