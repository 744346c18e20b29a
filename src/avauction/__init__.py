"""Exact combinatorial-auction pricing for a multi-tenant AV seat market.

Solves winner determination for splittable, non-splittable, and private
seat requests, settles strategy-proof pivotal charges, and replays the
accompanying Monte-Carlo studies deterministically from a seed.
"""

from .core import (
    AuctionError,
    AuctionInstance,
    BidSchedule,
    DuplicateBidder,
    MissingPrice,
    Money,
    NegativeAmount,
    NonConcavePrices,
    NonMonotonePrices,
    OversizedCombination,
    PrecisionLoss,
    SeatBoundViolation,
    ServiceType,
    UnknownBidder,
    ValidationError,
    money_from_decimal,
    validate_instance,
)
from .instance_io import ParseError, parse_instance, read_instance, serialize_instance, write_instance
from .scenario import (
    CostLaw,
    GenerationLaw,
    InvalidLaw,
    ScenarioBatch,
    generate_batch,
    rng_stream,
)
from .studies import (
    ExperimentConfig,
    ResultTable,
    StudyInvariantViolation,
    run_asymptoticity_study,
    run_charge_study,
    run_servability_study,
    run_study,
    run_timing_study,
    run_truthfulness_study,
)
from .vcg import (
    BidderCharge,
    ChargeReport,
    FallbackReport,
    MissingValuation,
    NotServed,
    ZeroBaseline,
    bidder_utility,
    case_charges,
    change_of_charge,
    change_of_payment,
    charge_identity_holds,
    perturb_bids,
    vcg_charges,
)
from .wdp import (
    Allocation,
    CompiledCase,
    exclusion_totals,
    solve_wdp,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation", "AuctionError", "AuctionInstance", "BidSchedule", "BidderCharge",
    "ChargeReport", "CompiledCase", "CostLaw", "DuplicateBidder", "ExperimentConfig",
    "FallbackReport", "GenerationLaw", "InvalidLaw", "MissingPrice", "MissingValuation",
    "Money", "NegativeAmount", "NonConcavePrices", "NonMonotonePrices", "NotServed",
    "OversizedCombination", "ParseError", "PrecisionLoss", "ResultTable",
    "ScenarioBatch", "SeatBoundViolation", "ServiceType", "StudyInvariantViolation",
    "UnknownBidder", "ValidationError", "ZeroBaseline", "bidder_utility",
    "case_charges", "change_of_charge", "change_of_payment", "charge_identity_holds",
    "exclusion_totals", "generate_batch", "money_from_decimal", "parse_instance",
    "perturb_bids", "read_instance", "rng_stream", "run_asymptoticity_study",
    "run_charge_study", "run_servability_study", "run_study", "run_timing_study",
    "run_truthfulness_study", "serialize_instance", "solve_wdp", "validate_instance",
    "vcg_charges", "write_instance",
]
