"""Frameproof-code toolkit: construction, exact verification, and bounds.

The package re-exports the numpy-free checkers and bounds; the construction
pipeline is imported from `fpc.construct` and `fpc.packing`.
"""

from .core import (
    BudgetExceededError,
    Code,
    Verdict,
    Witness,
    desc_contains,
    desc_size,
    is_cover_free,
    is_frameproof,
    own_profile,
    pi,
    pi_inverse,
)
from .extremal import (
    BoundsReport,
    EmcValue,
    PositionFamily,
    blackburn_upper,
    bounds_report,
    emc_families,
    emc_value,
    improved_threshold,
    improved_upper,
    lambda_of,
    m_exact,
    matching_number,
    rate_limit,
)

__all__ = [
    "BoundsReport",
    "BudgetExceededError",
    "Code",
    "EmcValue",
    "PositionFamily",
    "Verdict",
    "Witness",
    "blackburn_upper",
    "bounds_report",
    "desc_contains",
    "desc_size",
    "emc_families",
    "emc_value",
    "improved_threshold",
    "improved_upper",
    "is_cover_free",
    "is_frameproof",
    "lambda_of",
    "m_exact",
    "matching_number",
    "own_profile",
    "pi",
    "pi_inverse",
    "rate_limit",
]
