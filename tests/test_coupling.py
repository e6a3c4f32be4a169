"""Coupled increase/decrease rules and the alpha aggressiveness factor."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from mpsim.coupling import (CouplingMode, compute_alpha, on_ack_increase,
                            on_loss_decrease, window_total)

windows = st.floats(min_value=0.01, max_value=1000.0,
                    allow_nan=False, allow_infinity=False)
rtts = st.floats(min_value=1e-4, max_value=100.0,
                 allow_nan=False, allow_infinity=False)


def paths(w, rtt=None):
    """Stand-in subflows with windows `w` and coupling RTTs `rtt` (0.1 s
    each if not given): the two attributes the rules read."""
    if rtt is None:
        rtt = [0.1] * len(w)
    return [SimpleNamespace(cwnd=wi, estimator=SimpleNamespace(rtt=ri))
            for wi, ri in zip(w, rtt)]


def multi_paths(min_n=1, max_n=6):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.tuples(st.lists(windows, min_size=n, max_size=n),
                            st.lists(rtts, min_size=n, max_size=n)))


# ------------------------------------------------------------------- alpha

def test_alpha_single_subflow_identity():
    assert compute_alpha(paths([10.0], [0.1])) == 1.0


def test_alpha_equal_paths_two_subflows():
    # 20 * (10/0.01) / (10/0.1 + 10/0.1)^2 = 20000/40000 = 0.5
    assert compute_alpha(paths([10.0, 10.0], [0.1, 0.1])) == pytest.approx(0.5)


def test_alpha_unequal_rtts():
    # 20 * (10/0.01) / (10/0.1 + 10/0.2)^2 = 20000/22500 = 8/9
    alpha = compute_alpha(paths([10.0, 10.0], [0.1, 0.2]))
    assert alpha == pytest.approx(8.0 / 9.0)


@given(multi_paths())
def test_alpha_positive_and_finite(wr):
    w, rtt = wr
    alpha = compute_alpha(paths(w, rtt))
    assert alpha > 0.0
    assert alpha == alpha  # not NaN


@given(multi_paths(), st.floats(min_value=0.01, max_value=100.0))
def test_alpha_rtt_scale_invariance(wr, scale):
    w, rtt = wr
    base = compute_alpha(paths(w, rtt))
    scaled = compute_alpha(paths(w, [r * scale for r in rtt]))
    assert scaled == pytest.approx(base, rel=1e-9)


@given(st.integers(min_value=2, max_value=8), windows, rtts)
def test_alpha_identical_subflows_is_one_over_n(n, w, rtt):
    alpha = compute_alpha(paths([w] * n, [rtt] * n))
    assert alpha == pytest.approx(1.0 / n, rel=1e-9)


def test_alpha_rejects_nonpositive_rtt():
    with pytest.raises(ValueError):
        compute_alpha(paths([10.0, 10.0], [0.1, 0.0]))


def test_alpha_rejects_all_zero_windows():
    with pytest.raises(ValueError):
        compute_alpha(paths([0.0, 0.0], [0.1, 0.1]))


# ---------------------------------------------------------------- increase

def test_increase_formulas_on_a_known_view():
    sfs = paths([10.0, 10.0], [0.1, 0.1])  # alpha = 0.5, w_total = 20
    assert on_ack_increase(CouplingMode.UNCOUPLED, 0, sfs) == \
        pytest.approx(0.1)
    assert on_ack_increase(CouplingMode.FULLY_COUPLED, 0, sfs) == \
        pytest.approx(1.0 / 20.0)
    assert on_ack_increase(CouplingMode.LINKED_INCREASES, 0, sfs) == \
        pytest.approx(0.5 / 20.0)
    assert on_ack_increase(CouplingMode.RTT_COMPENSATOR, 0, sfs) == \
        pytest.approx(min(0.5 / 20.0, 0.1))


def test_rtt_compensator_cap_binds_on_slow_fat_path():
    # alpha/w_total ~ 0.926 exceeds 1/39, so the cap must bind
    sfs = paths([1.0, 39.0], [0.01, 10.0])
    alpha = compute_alpha(sfs)
    assert alpha == pytest.approx(40.0 * (1.0 / 0.0001) / (1.0 / 0.01 + 3.9) ** 2)
    inc = on_ack_increase(CouplingMode.RTT_COMPENSATOR, 1, sfs)
    assert inc == pytest.approx(1.0 / 39.0)


@given(multi_paths(min_n=2), st.data())
def test_rtt_compensator_never_beats_single_path(wr, data):
    w, rtt = wr
    i = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
    assert on_ack_increase(CouplingMode.RTT_COMPENSATOR, i, paths(w, rtt)) <= \
        1.0 / w[i] + 1e-15


@given(multi_paths())
def test_single_subflow_all_modes_degenerate_to_reno(wr):
    w, rtt = wr
    reno = 1.0 / w[0]
    for mode in CouplingMode:
        assert on_ack_increase(mode, 0, paths(w[:1], rtt[:1])) == \
            pytest.approx(reno, rel=1e-12)


# ---------------------------------------------------------------- decrease

def test_halving_modes_floor_at_two():
    sfs = paths([10.0, 3.0])
    for mode in (CouplingMode.UNCOUPLED, CouplingMode.LINKED_INCREASES,
                 CouplingMode.RTT_COMPENSATOR):
        assert on_loss_decrease(mode, 0, sfs) == 5.0
        assert on_loss_decrease(mode, 1, sfs) == 2.0


def test_fully_coupled_charges_total_halving_to_lossy_subflow():
    # w_1 = max(10 - 20/2, 1) = 1, exact
    sfs = paths([10.0, 10.0])
    assert on_loss_decrease(CouplingMode.FULLY_COUPLED, 0, sfs) == 1.0


@given(multi_paths(), st.data())
def test_decrease_returns_window_equal_to_ssthresh(wr, data):
    # one value, the new ssthresh and the new window alike: at least 1 MSS
    w, rtt = wr
    i = data.draw(st.integers(min_value=0, max_value=len(w) - 1))
    for mode in CouplingMode:
        assert on_loss_decrease(mode, i, paths(w, rtt)) >= 1.0


def test_w_total_adds_left_to_right():
    # the same float on every Python version: from 3.12, sum() of floats
    # compensates rounding and would return 1.0 here
    assert window_total(paths([1e16, 1.0, -1e16])) == 0.0


# ------------------------------------------------------- exact reference
#
# The rules as plain formulas over float lists, every sum taken left to
# right. The simulator's output depends on the last bit of each window, so
# the rules must equal these by ==, not approximately.

def ref_total(w):
    total = 0.0
    for wi in w:
        total += wi
    return total


def ref_alpha(w, rtt):
    if len(w) == 1:
        return 1.0
    best = max(wi / (ri * ri) for wi, ri in zip(w, rtt))
    denom = 0.0
    for wi, ri in zip(w, rtt):
        denom += wi / ri
    return ref_total(w) * best / (denom * denom)


def ref_increase(mode, i, w, rtt):
    if mode is CouplingMode.UNCOUPLED:
        return 1.0 / w[i]
    if mode is CouplingMode.FULLY_COUPLED:
        return 1.0 / ref_total(w)
    linked = ref_alpha(w, rtt) / ref_total(w)
    if mode is CouplingMode.LINKED_INCREASES:
        return linked
    return min(linked, 1.0 / w[i])


def ref_decrease(mode, i, w):
    if mode is CouplingMode.FULLY_COUPLED:
        return max(w[i] - ref_total(w) / 2.0, 1.0)
    return max(w[i] / 2.0, 2.0)


@settings(max_examples=300)
@given(multi_paths())
def test_rules_equal_the_list_formulas_exactly(wr):
    w, rtt = wr
    sfs = paths(w, rtt)
    for mode in CouplingMode:
        for i in range(len(w)):
            assert on_ack_increase(mode, i, sfs) == ref_increase(mode, i, w,
                                                                 rtt)
            assert on_loss_decrease(mode, i, sfs) == ref_decrease(mode, i, w)
