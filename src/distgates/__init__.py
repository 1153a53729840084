"""distgates: distributed compilation of global entangling gates.

Compiles n-qubit GMS/GCZ gates into circuits over multiple quantum nodes
(teleported pairwise gates, GHZ-state fan-out, or dimension-4 qudit
compression), simulates them exactly with mid-circuit measurement and
classical feed-forward, verifies every measurement branch against the ideal
gate, and accounts the entanglement resources each strategy consumes.
"""

from .circuit import (Condition, DistCircuit, GateRef, Instruction, NodeLayout,
                      ResourceTally, count_messages, deserialize, serialize,
                      tally, validate)
from .qubit_protocols import (GmsSpec, Partition, build_dcontrol_u, build_dgcz,
                              build_dgms, build_fanout, lms_matrix)
from .qudit_protocols import (QuditEncoding, build_dcsum4, build_dcsum4_multitarget,
                              build_dcz4_pow, build_qudit_gcz, decode, encode)
from .resources import GczConfig, fanout_gain, gcz_costs, gms_costs
from .simulate import enumerate_branches, infer_dims, peak_register_dim
from .statevec import (BranchResult, MixedRegister, Unitary, apply_unitary,
                       fidelity_up_to_phase, measure_enumerate, permute,
                       random_register, tensor)
from .verify import (OracleSpec, VerificationReport, basis_inputs, identity_checks,
                     oracle_gcz, oracle_gms, oracle_qudit_gcz, random_inputs, verify)

__version__ = "0.1.0"
