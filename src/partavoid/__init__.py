"""Exact combinatorics of set-partition pattern avoidance.

Containment testing in Klazar's subset sense, a pruned brute-force counting
oracle, executable bijections and injections between avoidance classes, exact
generating-function coefficient extraction, and Wilf-equivalence tables.
"""

from .core import (
    Composition,
    EmptyBlock,
    InvalidRGF,
    Matching,
    NotACover,
    OverlappingBlocks,
    PartitionError,
    RGFWord,
    SetPartition,
    bell,
    double_factorial,
    falling,
    iter_compositions,
    iter_matchings,
    iter_partitions,
    iter_rgf_words,
    m_count,
    perfect_matchings,
    single_block_pattern,
    singletons_pattern,
    punctured_block_pattern,
    spanning_doubleton_pattern,
    standardize,
    stirling2,
)
from .avoidance import (
    avoider_counts,
    avoids,
    block_contains_beta,
    containment_witness,
    contains,
    contains_bruteforce,
    count_avoiders,
    iter_avoiders,
    rgf_contains,
)
from .bijections import (
    ABCWord,
    BijectionError,
    CappedCore,
    PreconditionViolated,
    RWord,
    decode_14_2_3,
    decode_1_24_3,
    delta_insertion_encode,
    encode_14_2_3,
    encode_1_24_3,
    generate_14_23_core,
    lemma_induction_psi,
    phi_134_2,
    phi_134_2_inverse,
    phi_a,
    phi_a_inverse,
    psi_sigma_beta,
    R_to_rgf,
    rgf_to_R,
    slide,
    two_block_varphi,
    two_block_varphi_inverse,
)
from .enumeration import (
    PowerSeries,
    count_12_34,
    count_12_3_4,
    count_134_2,
    count_1_234,
    count_beta_k,
    count_sigma_k,
    gf_coeffs_13_24,
    gf_coeffs_14_23,
    gf_coeffs_14_2_3,
    gf_coeffs_1_24_3,
    gf_coeffs_rational,
)
from .wilf import (
    CountTable,
    WilfReport,
    build_table,
    check_beta_threshold,
    check_conjecture_order,
    check_lemma_4_7,
    wilf_classes,
)

__version__ = "0.1.0"
