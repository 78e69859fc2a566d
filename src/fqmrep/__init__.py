"""Exact finite Heisenberg-Weyl and metaplectic representation toolkit.

Matrix families over Z_N (clock/shift, magnetic translations, SL2
metaplectic images, odd-prime Weil operators, quadratic-module and
chirp comparison operators), an exact cyclotomic backend for even N,
and named verification suites replaying the defining identities.
"""

from .exactnum import CycNum, NotAUnit, jacobi_symbol
from .harness import SUITE_NAMES, SuiteSpec, UnknownSuite, run_suite
from .heisenberg import HWParams, fourier, gamma_p, p_inv_matrix, p_matrix, q_matrix
from .magnetic import EvenModulus, j_odd, j_twisted
from .matrixcore import OpMatrix, mat_eq, matrix_to_csv_text, matrix_to_json_dict
from .metaplectic import (
    u_a_closed,
    u_d,
    u_general,
    u_of_word,
    u_s,
    u_t,
    verify_metaplectic,
    weil_odd_general,
)
from .report import Failure, VerifyReport
from .sl2 import (
    BadDeterminant,
    SL2Element,
    TooLarge,
    decompose,
    dilatation,
    enumerate_sl2,
    sample_sl2,
    sl2_order,
    sl2_s,
    sl2_t,
)
from .weilmod import (
    CharacterSample,
    IllFormed,
    NotMetaplectic,
    QuadraticModule,
    alpha_q,
    chirp,
    extract_psi,
    feichtinger_u,
    find_nonhom_witness,
    find_theta_witness,
    theta_defect,
)

__version__ = "0.1.0"

__all__ = [
    "CycNum", "NotAUnit", "jacobi_symbol",
    "HWParams", "gamma_p", "q_matrix", "p_matrix", "p_inv_matrix", "fourier",
    "EvenModulus", "j_odd", "j_twisted",
    "OpMatrix", "mat_eq", "matrix_to_json_dict", "matrix_to_csv_text",
    "SL2Element", "BadDeterminant", "TooLarge", "sl2_s", "sl2_t", "dilatation",
    "decompose", "enumerate_sl2", "sample_sl2", "sl2_order",
    "u_s", "u_t", "u_d", "u_of_word", "u_a_closed",
    "u_general", "verify_metaplectic", "weil_odd_general",
    "QuadraticModule", "alpha_q", "IllFormed", "NotMetaplectic",
    "CharacterSample", "chirp", "theta_defect", "find_theta_witness",
    "feichtinger_u", "extract_psi", "find_nonhom_witness",
    "VerifyReport", "Failure",
    "SuiteSpec", "SUITE_NAMES", "UnknownSuite", "run_suite",
    "__version__",
]
