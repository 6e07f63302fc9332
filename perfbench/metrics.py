"""Names, units and directions of every metric the benchmark reports.

End-to-end metrics are measured with tracing off and are reported for every
workload, so each one has a meaning on each workload (see README.md).
Per-layer metrics come from the traced run; each names the end-to-end
metric and workload it is expected to move, written down before any
optimisation is measured against it.
"""

from __future__ import annotations

# (name, unit, better)
END_TO_END = (
    ("trials_per_s", "1/s", "higher"),
    ("trial_latency_p50_us", "us", "lower"),
    ("pass_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_RNG = "trials_per_s on simulate_4096 and cost_64_fixed_w2; trial_latency_p50_us on wire_one_shot; none on model_checks"
_SCHEDULE = "trials_per_s mostly on simulate_4096; setup_s there if the schedule is built up front"
_POOL = "trials_per_s on cost_64_fixed_w2 only"
_WIRE = "trial_latency_p50_us and trials_per_s on wire_one_shot only"
_QUAD = "pass_s on model_checks (its born-quadrature share)"
_VERIFY = "trials_per_s and pass_s on model_checks (verify share)"
_MI = "trials_per_s and pass_s on model_checks (mi share)"
_CLI = "pass_s on cost_64_fixed_w2 and model_checks; trials_per_s on cost_64_fixed_w2"
_FIXED = "nothing: must not move under a bit-identical change"

# (name, unit, better, which end-to-end metric and workload it should move)
PER_LAYER = (
    ("rngstream.mix_vec.calls", "count", "lower", _RNG),
    ("rngstream.mix_vec.words", "count", "lower", _RNG),
    ("rngstream.mix_vec.self_s", "s", "lower", _RNG),
    ("rngstream.mix.calls", "count", "lower", _RNG),
    ("rngstream.to_unit.self_s", "s", "lower", _RNG),
    ("geometry.sphere_from_zphi.calls", "count", "lower", _RNG),
    ("geometry.sphere_from_zphi.points", "count", "lower", _RNG),
    ("geometry.sphere_from_zphi.self_s", "s", "lower", _RNG),
    ("geometry.dot3.self_s", "s", "lower", _RNG),
    ("geometry.rotate_to_frame.calls", "count", "lower", _VERIFY),
    ("geometry.rotate_to_frame.self_s", "s", "lower", _VERIFY),
    ("greedy.advance.calls", "count", "lower", _SCHEDULE),
    ("greedy.advance.self_s", "s", "lower", _SCHEDULE),
    ("greedy.greedy_one_shot.calls", "count", "lower", _WIRE),
    ("greedy.greedy_one_shot.self_s", "s", "lower", _WIRE),
    ("protocol.trials", "count", "higher", _FIXED),
    ("protocol.rounds", "count", "lower", _SCHEDULE),
    ("protocol.points_drawn", "count", "lower", _FIXED),
    ("protocol.accept_ratio", "ratio", "higher", _FIXED),
    ("protocol.max_index", "count", "lower", _FIXED),
    ("protocol.bin_index.self_s", "s", "lower", _RNG),
    ("protocol.run_trials.self_s", "s", "lower", _SCHEDULE),
    ("protocol.chunk.busy_s", "s", "lower", _POOL),
    ("protocol.parallel_efficiency", "ratio", "higher", _POOL),
    ("protocol.Codebook.entries.calls", "count", "lower", _WIRE),
    ("protocol.Codebook.entries.self_s", "s", "lower", _WIRE),
    ("protocol.alice_send.self_s", "s", "lower", _WIRE),
    ("protocol.bob_receive.self_s", "s", "lower", _WIRE),
    ("coding.code_lengths.self_s", "s", "lower", "trials_per_s on simulate_4096 and cost_64_fixed_w2"),
    ("coding.elias_delta_encode.calls", "count", "lower", _WIRE),
    ("coding.elias_delta_encode.self_s", "s", "lower", _WIRE),
    ("coding.elias_delta_decode.self_s", "s", "lower", _WIRE),
    ("coding.bits_sent", "bits", "lower", _FIXED),
    ("coding.code_bits_mean", "bits", "lower", _FIXED),
    ("model.ks_sample.self_s", "s", "lower", _VERIFY),
    ("model.ks_response.self_s", "s", "lower", _VERIFY),
    ("model.ks_density.calls", "count", "lower", _QUAD),
    ("model.ks_density.self_s", "s", "lower", _QUAD),
    ("quadrature.born_plus_integral.calls", "count", "lower", _QUAD),
    ("quadrature.born_plus_integral.self_s", "s", "lower", _QUAD),
    ("quadrature.born_plus_integral.wall_s", "s", "lower", _QUAD),
    ("info.mc_mutual_information.samples", "count", "lower", _MI),
    ("info.mc_mutual_information.self_s", "s", "lower", _MI),
    ("cli.cmd.self_s", "s", "lower", _CLI),
    ("cli.render_report.self_s", "s", "lower", _CLI),
    ("cli.cmd_verify.wall_s", "s", "lower", _VERIFY),
    ("cli.cmd_mi.wall_s", "s", "lower", _MI),
    ("trace.overhead_s", "s", "lower", "nothing: cost of the traced pass over the untraced one"),
)

#: counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = (
    "protocol.rounds",
    "protocol.points_drawn",
    "greedy.advance.calls",
    "model.ks_density.calls",
    "coding.bits_sent",
)
