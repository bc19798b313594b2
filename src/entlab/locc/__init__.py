"""Two-party protocol tooling: IR, simulation, standard form, dilution."""

from .ir import (
    AddAncilla,
    ApplyUnitary,
    Discard,
    Measure,
    ProtocolIR,
    Send,
    SimBranch,
    SimulationResult,
    compare_ensembles,
    group_by_message,
    random_toy_ir,
    simulate_dense,
)
from .protocols import (
    BlockShiftFamily,
    StandardFormProtocol,
    build_block_dilution,
    build_shift_dilution,
)
from .runner import (
    ConcentrationResult,
    OutcomeState,
    ProtocolRunReport,
    TheoremChainCertificate,
    concentrate,
    run_protocol,
    run_protocol_dense,
    verify_theorem_chain,
)
from .standard import StandardizedProgram, run_standard_form, standardize

__all__ = [
    "AddAncilla",
    "ApplyUnitary",
    "BlockShiftFamily",
    "ConcentrationResult",
    "Discard",
    "Measure",
    "OutcomeState",
    "ProtocolIR",
    "ProtocolRunReport",
    "Send",
    "SimBranch",
    "SimulationResult",
    "StandardFormProtocol",
    "StandardizedProgram",
    "TheoremChainCertificate",
    "build_block_dilution",
    "build_shift_dilution",
    "compare_ensembles",
    "concentrate",
    "group_by_message",
    "random_toy_ir",
    "run_protocol",
    "run_protocol_dense",
    "run_standard_form",
    "simulate_dense",
    "standardize",
    "verify_theorem_chain",
]
