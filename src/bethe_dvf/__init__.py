"""Exact tableaux-sum transfer-matrix eigenvalues for osp superalgebra spin
chains, with machine verification of their functional relations."""

from .algebra import (AlgebraSpec, IndexLabel, KacDynkinLabel,
                      NotFiniteDimensional, UnsupportedShape, WrongAlgebra,
                      ZERO_LABEL, bar, bilinear_form, dimension_b0s, grading,
                      index_set, kac_dynkin_from_diagram, parse_label,
                      parse_spec, unb)
from .dvf import (BoxContext, box, build_dvf, column_dvf, crossing_transform,
                  generating_series, isolated_column_term, normalize_b0s,
                  normalized_rect_dvf, rect_dvf, row_dvf, signed_box, top_term)
from .reports import IdentityReport
from .symbolic import (Assignment, GenericityViolation, HigherOrderPole,
                       PoleHit, SamplingExhausted, SymSum, SymTerm, ZERO, ONE,
                       equal_as_rational_functions, evaluate, shift_u,
                       sum_from_json, sum_to_json, sum_to_latex, sum_to_text)
from .tableaux import (Partition, SkewDiagram, Tableau, conjugate,
                       count_tableaux, enumerate_tableaux, is_admissible)

__version__ = "0.1.0"
