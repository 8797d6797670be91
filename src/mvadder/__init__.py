"""Gate-level multi-valued-logic adder toolkit.

Builds quaternary (QFA1/QFA2) and binary (BFA1/BFA2) full adders and
N-digit ripple carry chains, simulates them with a deterministic
event-driven engine under lumped-RC delay and switched-capacitance energy
models, runs static timing analysis, and produces delay/power/PDP/area
comparison reports.
"""

from ._kernel import TICK_PS
from .engine import (
    SimulationTimeoutError,
    Stimulus,
    Trace,
    UnsettledOutputError,
    measure_delay,
    measure_power,
    settle_levels,
    settle_matrix,
    simulate,
    step_response_delays,
    worst_case_stimulus,
)
from .gates import (
    DIAMETER_NM,
    CellLibrary,
    ElectricalParams,
    GatePrimitive,
    LibraryError,
    NonFunctionalGateError,
    TransistorInventory,
    eval_primitive,
    inventory_area,
    load_library,
    propagation_delay,
    switching_energy,
)
from .levels import (
    DigitVector,
    DomainError,
    EncodingMismatchError,
    Level,
    SignalEncoding,
    bfa_oracle,
    binary_full,
    cpa_oracle,
    from_voltage,
    qfa_oracle,
    quaternary,
    third_swing,
    to_voltage,
)
from .netlist import (
    Circuit,
    NetlistError,
    area_report,
    build_bfa,
    build_binary_slice,
    build_cpa,
    build_qfa,
    dump_netlist,
    from_json,
    load_netlist,
    to_json,
    validate,
)
from .report import (
    AdderConfig,
    ComparisonRow,
    compare,
    cpa_scaling,
    measure_config,
    rows_to_csv,
    rows_to_json,
)
from .timing import TimingReport, sta

__version__ = "0.1.0"

#: The kernels are plain Python and numpy; ``perfbench`` still records this.
USE_NUMBA = False
