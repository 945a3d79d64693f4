"""Exact partition combinatorics of the infinite Temperley-Lieb algebra at
parameter zero: Fock-space actions, planar diagram normal forms, staircase
strata, and the marking dictionary to dominant weights."""

from .partitions import (
    Partition,
    add_box,
    check_partition,
    contains,
    enumerate_partitions,
    minimal_balanced_hook_ending,
    minimal_balanced_hook_starting,
    remove_box,
    rim_boxes,
    rim_hook,
    staircase,
    transpose,
    two_core,
)
from .fock import (
    FockVector,
    apply_word,
    classify_case,
    support_bounds,
    xi_on_partition,
    xi_prime_on_partition,
)
from .tl import (
    FcsWord,
    TLDiagram,
    bottom_sector,
    element_multiply,
    faithfulness_witness,
    fcs_to_word,
    normalize,
    witness_partition,
    word_to_diagram,
)
from .strata import (
    cell_index,
    block_index,
    in_ideal,
    j_set,
    j_zero_set,
    quasi_order_compare,
    summand_labels,
)
from .weights import (
    closed_form_weight,
    d_set,
    d_tilde,
    dominant_weight,
    marking,
    partition_from_d_set,
    weight_from_subset,
)
from .verify import run_suite

__version__ = "1.0.0"
