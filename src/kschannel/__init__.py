"""Classical simulation of a single-qubit channel from a hemisphere hidden-variable model.

The package has four layers: Bloch-sphere geometry and the Born rule
(:mod:`.geometry`), the hemisphere model with its densities and sampler
(:mod:`.model`, checked by :mod:`.quadrature`), information metrics
(:mod:`.info`), and the finite-communication protocol built from greedy
rejection over a shared codebook with Elias delta indices (:mod:`.greedy`,
:mod:`.coding`, :mod:`.protocol`).  :mod:`.cli` wraps everything in a
reporting harness.
"""

__version__ = "0.1.0"

from .coding import DecodeError, code_lengths, elias_delta_decode, elias_delta_encode
from .geometry import (Measurement, born_from_dot, born_probability, random_unit_vec,
                       require_unit, rotate_to_frame, sphere_from_zphi, unit_vector)
from .greedy import DiscreteDistribution, ProtocolFailure, greedy_one_shot
from .info import (MiEstimate, conditional_entropy_ks, exact_ks_mi, marginal_entropy_ks,
                   mc_mutual_information)
from .model import ks_density, ks_response, ks_sample
from .protocol import (Codebook, TrialBatch, TrialReport, alice_send, bob_receive,
                       ks_bin_masses, run_trials, trial_codebook)

__all__ = [
    "__version__",
    "Measurement", "born_from_dot", "born_probability", "random_unit_vec",
    "require_unit", "rotate_to_frame", "sphere_from_zphi", "unit_vector",
    "ks_density", "ks_response", "ks_sample",
    "MiEstimate", "conditional_entropy_ks", "exact_ks_mi", "marginal_entropy_ks",
    "mc_mutual_information",
    "DecodeError", "code_lengths", "elias_delta_decode", "elias_delta_encode",
    "DiscreteDistribution", "ProtocolFailure", "greedy_one_shot",
    "Codebook", "TrialBatch", "TrialReport", "alice_send", "bob_receive",
    "ks_bin_masses", "run_trials", "trial_codebook",
]
