"""Fault-attack hardening for finite-state machines.

Transforms an abstract FSM into a gate-level netlist whose next-state
function is built from Hamming-distance encodings and a byte-level
diffusion layer, then verifies the result with fault-injection campaigns.
"""

from .coding import (
    CodeBook,
    CodingError,
    ERROR_SYMBOL,
    control_codebook,
    generate_code,
    hamming,
    min_distance,
    state_codebook,
)
from .faults import (
    CampaignError,
    CampaignSpec,
    FaultCampaignReport,
    HijackWitness,
    golden_run,
    replay_witness,
    run_campaign,
    theoretical_success_probability,
)
from .fsm import (
    FsmError,
    FsmParseError,
    FsmSpec,
    FsmValidationError,
    Signal,
    Transition,
    edge_cover_walk,
    extract_cfg,
    parse_fsm,
    random_trace,
    simulate_spec,
)
from .gf import (
    MdsSpec,
    branch_number,
    default_mds,
    mds_apply,
    ring_mul,
    solve_gf2,
)
from .hardening import (
    BlockLayout,
    HardenedDesign,
    HardeningConfig,
    HardeningError,
    LayoutError,
    ModifierSolveError,
    TransitionPlan,
    harden,
    plan_layout,
    solve_modifiers,
)
from .netlist import (
    FaultSite,
    Gate,
    Netlist,
    NetlistError,
    emit_verilog,
    enumerate_fault_sites,
    parse_verilog,
    simulate_batch,
)

__version__ = "0.1.0"
