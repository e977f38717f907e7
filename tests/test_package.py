import tiersched


def test_public_surface_is_pinned():
    # Adding or removing a public name means editing this list.
    assert tiersched.__all__ == [
        "AllowanceMode",
        "EnvironmentConfig",
        "EvolveResult",
        "GAConfig",
        "InstanceTooLargeError",
        "InvalidScheduleError",
        "Job",
        "JobProgress",
        "JobSet",
        "OracleResult",
        "PolicyKind",
        "QueueVariant",
        "Schedule",
        "ScheduleEvaluator",
        "SchedulingError",
        "SimReport",
        "Simulator",
        "Snapshot",
        "ValidationReport",
        "ViolationBreakdown",
        "WorkloadFormatError",
        "WorkloadSpec",
        "differentiated_allowance",
        "evolve",
        "exhaustive_best",
        "generate",
        "load",
        "make_policy",
        "penalty",
        "run_to_completion",
        "save",
        "simulate_to_snapshot",
        "total_penalty",
        "validate_schedule",
    ]
    assert all(hasattr(tiersched, name) for name in tiersched.__all__)
