"""The package's public surface: each module's ``__all__``, re-exported."""

import voteflow

PUBLIC = [
    "DeadZoneReport", "EffectiveChannel", "ElectionModel", "InfoSchedule", "MaxSupportReport",
    "MonteCarloOutcome", "OrderingPartition", "OutcomeProbabilities", "PartitionCell",
    "PathEnsemble", "PollSeries", "SigmaEstimate", "SourceSet", "SweepTable", "TrajectoryBundle",
    "aggregate_n", "aggregate_two", "condition_on_history", "crossing_threshold",
    "dead_zone_sigma_bound", "default_sigma_grid", "effective_variance", "errors",
    "estimate_sigma_historic", "implied_sigma", "interval_probability", "is_dead_zone",
    "max_support_curve", "max_support_point", "monte_carlo_win_probabilities",
    "ordering_partition", "ordering_probability", "posterior_paths", "posterior_support",
    "simulate_paths", "sweep_positions", "sweep_priors", "sweep_sigma",
    "two_candidate_win_probability", "win_probabilities", "winprob_paths",
]


def test_public_names_are_frozen_and_resolve():
    assert sorted(voteflow.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(voteflow, name) is not None
