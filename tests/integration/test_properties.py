"""Property-based integration tests on randomly generated applications.

The central invariant of the whole library: for any generated application,
mapping and policy assignment, the simulated finish times under any <= k
fault scenario never exceed the analytical worst-case bounds.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gen.suite import generate_case
from repro.model.merge import merge_application
from repro.opt.evaluator import Evaluator
from repro.opt.initial import initial_bus_access, initial_mpa
from repro.model.policy import Policy
from repro.sim.faults import sample_scenarios
from repro.sim.engine import SystemSimulator
from repro.schedule.list_scheduler import list_schedule

_SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    n=st.integers(min_value=4, max_value=16),
    nodes=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=50),
    replicate_some=st.booleans(),
)
@_SLOW
def test_simulation_never_exceeds_analysis(n, nodes, k, seed, replicate_some):
    mu = 5.0 if k else 0.0
    case = generate_case(n, nodes, k, mu=mu, seed=seed)
    merged = merge_application(case.application)
    bus = initial_bus_access(case.application, case.architecture)
    impl = initial_mpa(merged, case.architecture, case.faults, bus)
    if replicate_some and k >= 1:
        # Upgrade a few processes to combined/replicated policies.
        rng = random.Random(seed)
        names = sorted(merged)
        for name in names[:: max(1, len(names) // 3)]:
            r = rng.randint(1, k + 1)
            impl.policies[name] = Policy.combined(r, k)
            from repro.opt.initial import place_replicas

            impl.mapping.assign(
                name,
                place_replicas(
                    merged.process(name), r, impl.mapping.primary(name), {}
                ),
            )
    schedule = list_schedule(merged, case.faults, impl.policies, impl.mapping, bus)
    simulator = SystemSimulator(schedule)
    rng = random.Random(seed + 1)
    scenarios = sample_scenarios(schedule.ft, k, rng, count=25)
    scenarios += sample_scenarios(
        schedule.ft, k, rng, count=10, always_max_faults=True
    )
    for scenario in scenarios:
        result = simulator.run(scenario)
        assert result.ok, (scenario.describe(), result.starved, result.dead_processes)
        for iid, record in result.executions.items():
            if record.produced:
                bound = schedule.placements[iid].wcf
                assert record.finish <= bound + 1e-6, (iid, scenario.describe())
        for process, completion in result.completions.items():
            assert completion <= schedule.completions[process] + 1e-6


@given(
    n=st.integers(min_value=4, max_value=14),
    seed=st.integers(min_value=0, max_value=30),
    k=st.integers(min_value=1, max_value=3),
)
@_SLOW
def test_makespan_monotone_in_k(n, seed, k):
    """With identical workload, mapping, and all-re-execution policies, a
    larger k never shortens the schedule."""
    case_small = generate_case(n, 2, k, mu=5.0, seed=seed)
    case_large = generate_case(n, 2, k + 1, mu=5.0, seed=seed)
    merged = merge_application(case_small.application)
    bus = initial_bus_access(case_small.application, case_small.architecture)
    # One mapping for both runs (the balancing heuristic depends on k).
    impl = initial_mpa(merged, case_small.architecture, case_small.faults, bus)
    lengths = []
    for case in (case_small, case_large):
        policies = impl.policies.copy()
        for name in merged:
            policies[name] = Policy.reexecution(case.faults.k)
        schedule = list_schedule(
            merged, case.faults, policies, impl.mapping, bus
        )
        lengths.append(schedule.makespan)
    assert lengths[0] <= lengths[1] + 1e-6


@given(
    n=st.integers(min_value=4, max_value=14),
    seed=st.integers(min_value=0, max_value=30),
)
@_SLOW
def test_evaluator_cost_deterministic(n, seed):
    case = generate_case(n, 2, 2, mu=5.0, seed=seed)
    merged = merge_application(case.application)
    bus = initial_bus_access(case.application, case.architecture)
    impl = initial_mpa(merged, case.architecture, case.faults, bus)
    a = Evaluator(merged, case.faults, cache_size=0).evaluate_record(impl)[0]
    b = Evaluator(merged, case.faults, cache_size=0).evaluate_record(impl)[0]
    assert a == b
