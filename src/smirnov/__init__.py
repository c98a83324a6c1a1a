"""Segmented Smirnov words, their q-statistics, and bijections to decorated
labelled Dyck paths, with an exact q-polynomial recursion engine."""

from .paths import (AreaZeroDecoratedPath, DecoratedLabelledDyckPath, area, area_word,
                    enumerate_area0, path_dinv, phi, phi_inverse, unified_dinv)
from .qengine import (QPolynomial, SfCoefficientTable, hilbert_table, q_binomial,
                      sf_h_coefficient, standard_q_count)
from .quasisym import expand_to_monomials, fundamental_expansion, split_set, standardize
from .stats import (InversionReport, OrderedMultisetPartition, omp_dinv, omp_inv, project,
                    sdinv, sdinv_count, sminv, sminv_count)
from .words import (PositionProfile, SegmentedSmirnovWord, classify, enumerate_words,
                    enumerate_words_by_stat, parse_word)

__version__ = "0.1.0"

__all__ = [
    "AreaZeroDecoratedPath", "DecoratedLabelledDyckPath", "InversionReport",
    "OrderedMultisetPartition", "PositionProfile", "QPolynomial",
    "SegmentedSmirnovWord", "SfCoefficientTable", "area", "area_word", "classify",
    "enumerate_area0", "enumerate_words", "enumerate_words_by_stat", "expand_to_monomials",
    "fundamental_expansion", "hilbert_table", "omp_dinv", "omp_inv", "parse_word",
    "path_dinv", "phi", "phi_inverse", "project", "q_binomial", "sdinv", "sdinv_count",
    "sf_h_coefficient", "sminv", "sminv_count", "split_set", "standard_q_count",
    "standardize", "unified_dinv",
]
