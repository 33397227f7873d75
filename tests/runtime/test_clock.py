"""Tests for the simulated cost clock."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import CostModel
from repro.errors import ConfigError
from repro.runtime.clock import LEDGER, CostCategory, SimulatedClock

#: every ``charge_*`` helper that takes a count.
COUNTED = (
    "charge_compute",
    "charge_network",
    "charge_checkpoint",
    "charge_restore",
    "charge_worker_acquisition",
    "charge_compensation",
    "charge_log",
    "charge_replay",
)


def _charge(clock, helper, count):
    if helper == "charge_failure_detection":
        clock.charge_failure_detection()
    else:
        getattr(clock, helper)(count)


def test_clock_starts_at_zero():
    assert SimulatedClock().now == 0.0


def test_advance_moves_time_forward():
    clock = SimulatedClock(cost_model=CostModel(cpu_per_record=0.5))
    clock.charge_compute(3)
    clock.charge_compute(1)
    assert clock.now == pytest.approx(2.0)


def test_now_is_the_dot_product_of_counts():
    # ten float additions of 0.1 give 0.9999999999999999; the ledger
    # multiplies the count once
    clock = SimulatedClock(cost_model=CostModel(cpu_per_record=0.1))
    for _ in range(10):
        clock.charge_compute(1)
    assert clock.counts()[0] == 10
    assert clock.now == 10 * 0.1 == 1.0


def test_advance_rejects_negative_durations():
    clock = SimulatedClock()
    for helper in COUNTED:
        with pytest.raises(ConfigError):
            getattr(clock, helper)(-3)
    assert clock.counts() == (0,) * len(LEDGER)


def test_advance_zero_is_allowed():
    clock = SimulatedClock()
    clock.charge_compute(0)
    assert clock.now == 0.0


def test_accounts_track_categories_separately():
    clock = SimulatedClock(cost_model=CostModel(cpu_per_record=1.0, network_per_record=2.0))
    clock.charge_compute(1)
    clock.charge_network(1)
    clock.charge_compute(3)
    assert clock.spent(CostCategory.COMPUTE) == pytest.approx(4.0)
    assert clock.spent(CostCategory.NETWORK) == pytest.approx(2.0)
    assert clock.spent(CostCategory.CHECKPOINT_IO) == 0.0


def test_breakdown_reports_nonzero_accounts():
    clock = SimulatedClock(cost_model=CostModel(failure_detection=1.0))
    clock.charge_failure_detection()
    breakdown = clock.breakdown()
    assert breakdown == {"recovery": pytest.approx(1.0)}


def test_charge_compute_uses_cost_model():
    model = CostModel(cpu_per_record=2.0)
    clock = SimulatedClock(cost_model=model)
    clock.charge_compute(5)
    assert clock.now == pytest.approx(10.0)
    assert clock.spent(CostCategory.COMPUTE) == pytest.approx(10.0)


def test_charge_network_uses_cost_model():
    clock = SimulatedClock(cost_model=CostModel(network_per_record=3.0))
    clock.charge_network(4)
    assert clock.spent(CostCategory.NETWORK) == pytest.approx(12.0)


def test_charge_checkpoint_and_restore_use_distinct_accounts():
    model = CostModel(checkpoint_per_record=1.0, restore_per_record=2.0)
    clock = SimulatedClock(cost_model=model)
    clock.charge_checkpoint(3)
    clock.charge_restore(3)
    assert clock.spent(CostCategory.CHECKPOINT_IO) == pytest.approx(3.0)
    assert clock.spent(CostCategory.RESTORE_IO) == pytest.approx(6.0)


def test_charge_failure_detection_flat_cost():
    clock = SimulatedClock(cost_model=CostModel(failure_detection=0.7))
    clock.charge_failure_detection()
    assert clock.spent(CostCategory.RECOVERY) == pytest.approx(0.7)


def test_charge_worker_acquisition_scales_with_workers():
    clock = SimulatedClock(cost_model=CostModel(worker_acquisition=2.0))
    clock.charge_worker_acquisition(3)
    assert clock.spent(CostCategory.RECOVERY) == pytest.approx(6.0)


def test_charge_compensation_uses_its_own_account():
    clock = SimulatedClock(cost_model=CostModel(compensation_per_record=0.5))
    clock.charge_compensation(4)
    assert clock.spent(CostCategory.COMPENSATION) == pytest.approx(2.0)


def test_total_time_equals_sum_of_accounts():
    clock = SimulatedClock()
    clock.charge_compute(100)
    clock.charge_network(50)
    clock.charge_checkpoint(10)
    clock.charge_failure_detection()
    assert clock.now == pytest.approx(sum(clock.breakdown().values()))


def test_add_applies_a_count_vector():
    source = SimulatedClock()
    source.charge_network(7)
    source.charge_failure_detection()
    target = SimulatedClock()
    target.charge_compute(2)
    target.add(source.counts())
    assert target.counts() == (2, 7, 0, 0, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("counts", [(1, 2), (0,) * (len(LEDGER) - 1) + (-1,)])
def test_add_rejects_malformed_vectors(counts):
    clock = SimulatedClock()
    with pytest.raises(ConfigError):
        clock.add(counts)
    assert clock.counts() == (0,) * len(LEDGER)


_CALLS = st.lists(
    st.tuples(
        st.sampled_from(COUNTED + ("charge_failure_detection",)),
        st.integers(min_value=0, max_value=10**7),
    ),
    max_size=40,
)


@given(calls=_CALLS, data=st.data())
def test_charge_order_never_changes_simulated_time(calls, data):
    shuffled = data.draw(st.permutations(calls))
    model = CostModel(cpu_per_record=0.1, network_per_record=0.3, log_per_record=1e-7)
    in_order, reordered = SimulatedClock(model), SimulatedClock(model)
    for helper, count in calls:
        _charge(in_order, helper, count)
    for helper, count in shuffled:
        _charge(reordered, helper, count)
    assert reordered.now == in_order.now
    assert reordered.breakdown() == in_order.breakdown()
    assert reordered.accounts() == in_order.accounts()

    added = SimulatedClock(model)
    added.add(in_order.counts())
    assert added.counts() == in_order.counts()
    assert added.now == in_order.now
    assert added.accounts() == in_order.accounts()
