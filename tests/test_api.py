"""The package's public names, pinned: adding or dropping one means editing this list."""

import kschannel

PUBLIC = [   # 32 names
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


def test_all_is_the_pinned_list():
    assert kschannel.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in kschannel.__all__:
        assert hasattr(kschannel, name), name
