import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levyap.errors import DivergentMoment, InvalidMeasure, InvalidParameter
from levyap.noise import (BlockIncrements, JumpMeasureSpec, NoiseModel,
                          _event_order, jump_moment, jump_nodes, sample_block,
                          trajectory_streams)

MEASURE = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.1)
# a jump measure without a jump part
NO_JUMPS = NoiseModel(measure=JumpMeasureSpec(alpha=1.5, c_alpha=0.0,
                                              cutoff_c=1.0))


def rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed + 1000)


def test_brownian_zero_dt_is_zero():
    rb, rj = rngs(0)
    block = sample_block(NoiseModel(measure=MEASURE), 0.0, 3, rb, rj)
    assert np.array_equal(block.gauss, np.zeros(3))
    # dt = 0 consumes neither stream
    assert rb.random() == np.random.default_rng(0).random()
    assert rj.random() == np.random.default_rng(1000).random()


def test_brownian_variance():
    block = sample_block(NO_JUMPS, 1.0, 1_000_000, *rngs(1))
    assert block.gauss.shape == (1_000_000,)
    assert abs(block.gauss.var() - 1.0) < 0.01


def test_brownian_mean_small_dt():
    draws = sample_block(NoiseModel(measure=None), 0.25, 10**4, *rngs(2)).gauss
    se = 0.5 / math.sqrt(draws.size)
    assert abs(draws.mean()) < 5 * se


def test_jumps_zero_dt_empty():
    block = sample_block(NoiseModel(measure=MEASURE), 0.0, 5, *rngs(0))
    assert (len(block.jump_steps) == len(block.jump_offsets)
            == len(block.jump_marks) == 0)


def test_jump_count_mean_matches_intensity():
    # closed-form intensity 2 C (delta^-a - c^-a)/a = 40.8303...
    expected = 2.0 * (0.1 ** -1.5 - 1.0) / 1.5
    assert abs(expected - 40.8303688) < 1e-6
    rngs = trajectory_streams(123, 0)
    noise = NoiseModel(measure=MEASURE, brownian=False)
    block = sample_block(noise, 1.0, 10**5, *rngs)
    mean = len(block.jump_marks) / 10**5
    assert abs(mean - expected) < 0.5
    assert abs(mean - expected) < 5.0 * math.sqrt(expected / 10**5)


def test_jump_marks_in_band_and_sorted():
    noise = NoiseModel(measure=MEASURE, brownian=False)
    block = sample_block(noise, 50.0, 1, *rngs(7))
    offs, marks = block.jump_offsets, block.jump_marks
    assert len(marks) > 100
    assert np.all(np.abs(marks) >= 0.1) and np.all(np.abs(marks) < 1.0)
    assert np.all(np.diff(offs) >= 0)
    assert np.all(offs >= 0) and np.all(offs < 50.0)


def test_jump_mark_moments():
    rngs = trajectory_streams(5, 3)
    noise = NoiseModel(measure=MEASURE, brownian=False)
    block = sample_block(noise, 1.0, 3 * 10**4, *rngs)
    marks = block.jump_marks
    intensity = jump_moment(MEASURE, 0.0, 0.1, 1.0)
    m2 = jump_moment(MEASURE, 2.0, 0.1, 1.0) / intensity
    assert abs((marks**2).mean() - m2) / m2 < 0.01
    se = marks.std() / math.sqrt(len(marks))
    assert abs(marks.mean()) < 5 * se


def test_zero_floor_sampling_rejected():
    bad = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.0)
    with pytest.raises(InvalidMeasure):
        sample_block(NoiseModel(measure=bad), 1.0, 1, *rngs(0))


def test_second_moment_paper_value():
    m = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0)
    assert jump_moment(m, 2.0, 0.0, 1.0) == pytest.approx(4.0, abs=1e-12)


def test_second_moment_half_interval():
    m = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0)
    assert jump_moment(m, 2.0, 0.0, 0.5) == pytest.approx(4.0 * math.sqrt(0.5), rel=1e-12)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_second_moment_against_quadrature(alpha, c):
    m = JumpMeasureSpec(alpha=alpha, c_alpha=1.0, cutoff_c=c)
    closed = jump_moment(m, 2.0, 0.0, c)
    numeric, _ = quad(lambda z: 2.0 * z ** (1.0 - alpha), 0.0, c)
    assert abs(closed - numeric) / numeric < 1e-8
    assert closed == pytest.approx(2.0 * c ** (2.0 - alpha) / (2.0 - alpha), rel=1e-12)


def test_divergent_moment_raises():
    m = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0)
    with pytest.raises(DivergentMoment):
        jump_moment(m, 1.0, 0.0, 1.0)
    with pytest.raises(DivergentMoment):
        jump_moment(m, 0.0, 0.0, 1.0)


def test_moment_log_case():
    m = JumpMeasureSpec(alpha=1.5, c_alpha=0.7, cutoff_c=1.0)
    closed = jump_moment(m, 1.5, 0.1, 1.0)
    numeric, _ = quad(lambda z: 2.0 * 0.7 * z ** (1.5 - 1.0 - 1.5), 0.1, 1.0)
    assert closed == pytest.approx(numeric, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.3, 1.9), p=st.floats(0.5, 4.0),
       lo=st.floats(0.01, 0.4), c=st.floats(0.5, 3.0))
def test_moment_closed_form_matches_quadrature(alpha, p, lo, c):
    m = JumpMeasureSpec(alpha=alpha, c_alpha=1.3, cutoff_c=c)
    closed = jump_moment(m, p, lo, c)
    numeric, err = quad(lambda z: 2.0 * 1.3 * z ** (p - 1.0 - alpha), lo, c)
    assert abs(closed - numeric) <= max(1e-8 * abs(numeric), 10 * err, 1e-12)


@pytest.mark.parametrize("alpha,c_alpha,cutoff,floor", [
    (1.5, 1.0, 1.0, 0.05), (1.2, 0.7, 1.0, 1e-3), (1.8, 2.0, 10.0, 0.01),
    (1.0, 1.0, 1000.0, 0.01)])
def test_jump_nodes_match_closed_form_moments(alpha, c_alpha, cutoff, floor):
    m = JumpMeasureSpec(alpha=alpha, c_alpha=c_alpha, cutoff_c=cutoff,
                        floor_delta=floor)
    # geometric panels from the floor: the weights carry the density
    z, w, quadratic = jump_nodes(m)
    assert not quadratic
    for p in (0.0, 2.0, 3.5):
        assert 2.0 * np.sum(w * z ** p) == pytest.approx(
            jump_moment(m, p, floor, cutoff), rel=1e-12)
    # power substitution from 0: the weights absorb z^2
    z0, w0, quadratic0 = jump_nodes(m, lo=0.0)
    assert quadratic0
    assert 2.0 * np.sum(w0) == pytest.approx(
        jump_moment(m, 2.0, 0.0, cutoff), rel=1e-12)
    assert 2.0 * np.sum(w0 * z0 ** 2) == pytest.approx(
        jump_moment(m, 4.0, 0.0, cutoff), rel=1e-8)
    for arr in (z, w, z0, w0):
        assert not arr.flags.writeable


def test_jump_nodes_floor_next_to_cutoff():
    # a band narrower than the panel loop's 1e-12 guard still gets a panel
    floor = 1.0 - 1e-13
    m = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=floor)
    z, w, _ = jump_nodes(m)
    assert z.size == 16 and np.all((z > floor) & (z < 1.0))
    # both sides lose about three digits to the band's width (measured 3.7e-4)
    assert 2.0 * np.sum(w) == pytest.approx(jump_moment(m, 0.0, floor, 1.0),
                                            rel=1e-2)


def test_jump_nodes_empty_without_jumps():
    m = JumpMeasureSpec(alpha=1.5, c_alpha=0.0, cutoff_c=1.0, floor_delta=0.05)
    for lo in (None, 0.0):
        z, w, _ = jump_nodes(m, lo)
        assert z.size == w.size == 0


def test_stream_splitting_reproducible_and_distinct():
    a1, _ = trajectory_streams(42, 0)
    a2, _ = trajectory_streams(42, 0)
    b1, _ = trajectory_streams(42, 1)
    x1, x2, y1 = a1.random(4), a2.random(4), b1.random(4)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, y1)
    c1, _ = trajectory_streams(42, 0, attempt=1)
    assert not np.array_equal(x1, c1.random(4))


def test_block_reproducible():
    noise = NoiseModel(measure=MEASURE)
    b1 = sample_block(noise, 1e-2, 500, *trajectory_streams(9, 4))
    b2 = sample_block(noise, 1e-2, 500, *trajectory_streams(9, 4))
    assert np.array_equal(b1.gauss, b2.gauss)
    assert np.array_equal(b1.jump_marks, b2.jump_marks)
    assert np.array_equal(b1.jump_steps, b2.jump_steps)


def test_gaussian_rate_with_substitutes():
    m = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=1e-3)
    plain = NoiseModel(measure=m)
    assert plain.gaussian_rate == 1.0
    ar = NoiseModel(measure=m, ar_small_jumps=True)
    assert ar.gaussian_rate == pytest.approx(1.0 + jump_moment(m, 2.0, 0.0, 1e-3))
    band = NoiseModel(measure=m, ar_threshold=0.05)
    assert band.gaussian_rate == pytest.approx(1.0 + jump_moment(m, 2.0, 1e-3, 0.05))
    assert band.sampling_floor == 0.05
    # second moment of sampled band plus substitute equals the full band
    total = band.gaussian_rate - 1.0 + jump_moment(m, 2.0, 0.05, 1.0)
    assert total == pytest.approx(jump_moment(m, 2.0, 1e-3, 1.0), rel=1e-12)


def test_invalid_parameters():
    with pytest.raises(InvalidParameter):
        JumpMeasureSpec(alpha=2.5, c_alpha=1.0, cutoff_c=1.0)
    with pytest.raises(InvalidParameter):
        JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=2.0)
    # from an infinite cutoff the geometric panels of jump_nodes never end
    for cutoff in (math.inf, math.nan):
        with pytest.raises(InvalidParameter):
            JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=cutoff,
                            floor_delta=0.05)
    # an infinite intensity has no Poisson rate to sample from
    for c_alpha in (math.inf, math.nan, -1.0):
        with pytest.raises(InvalidParameter):
            JumpMeasureSpec(alpha=1.5, c_alpha=c_alpha, cutoff_c=1.0,
                            floor_delta=0.05)
    with pytest.raises(InvalidParameter):
        sample_block(NoiseModel(measure=None), -1.0, 1, *rngs(0))


def _scanned_step_slices(block):
    """Reference slices: scan the sorted jump steps one step at a time."""
    out, jpos = [], 0
    for i in range(block.n_steps):
        jhi = jpos
        while jhi < len(block.jump_steps) and block.jump_steps[jhi] == i:
            jhi += 1
        out.append((jpos, jhi))
        jpos = jhi
    return out


def test_step_slices_match_per_step_scan():
    # jump-heavy: about 4 events per step, so steps with 0, 1 and several
    noise = NoiseModel(measure=MEASURE)
    block = sample_block(noise, 0.1, 400, *trajectory_streams(17, 2))
    counts = np.bincount(block.jump_steps, minlength=block.n_steps)
    assert {0, 1} <= set(counts.tolist()) and counts.max() >= 5
    assert list(block.step_slices()) == _scanned_step_slices(block)
    for i, (jlo, jhi) in enumerate(block.step_slices()):
        assert np.all(block.jump_steps[jlo:jhi] == i)


def test_step_slices_edge_blocks():
    cases = [np.array([], dtype=np.int64),           # no events at all
             np.array([3, 3, 3]),                    # only on the last step
             np.array([0, 0, 2, 3]),                 # first and last steps
             np.array([1])]                          # one event
    for steps in cases:
        n = len(steps)
        block = BlockIncrements(0.1, 4, np.zeros(4), steps, np.zeros(n),
                                np.ones(n))
        got = list(block.step_slices())
        assert got == _scanned_step_slices(block)
        assert len(got) == 4 and got[-1][1] == n
        assert all(isinstance(v, int) for pair in got for v in pair)


def test_step_mark_sums_add_in_event_order():
    # about 13 events per step, so the order of the additions shows
    measure = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0,
                              floor_delta=0.01)
    block = sample_block(NoiseModel(measure=measure), 0.01, 500,
                         *trajectory_streams(3, 1))
    assert np.bincount(block.jump_steps).min() >= 2
    want = np.zeros(500)
    np.add.at(want, block.jump_steps, block.jump_marks)
    assert np.array_equal(block.step_mark_sums(), want)
    empty = sample_block(NoiseModel(measure=None), 0.01, 4, *rngs(0))
    sums = empty.step_mark_sums()
    assert sums.dtype == float and np.array_equal(sums, np.zeros(4))


def test_block_follows_documented_draw_order():
    """The Gaussian table, then the Poisson counts, offsets, magnitudes and
    signs, each in bulk, sorted by (step, offset)."""
    m = JumpMeasureSpec(alpha=1.5, c_alpha=1.0, cutoff_c=1.0, floor_delta=0.01)
    noise = NoiseModel(measure=m, ar_threshold=0.05)
    dt, n = 0.01, 300
    block = sample_block(noise, dt, n, *trajectory_streams(8, 2))
    rb, rj = trajectory_streams(8, 2)
    assert np.array_equal(block.gauss,
                          rb.normal(0.0, math.sqrt(noise.gaussian_rate * dt), n))
    counts = rj.poisson(noise.jump_rate * dt, n)
    total = int(counts.sum())
    offs = dt * rj.random(total)
    lo_p, hi_p = 0.05 ** -1.5, 1.0
    mag = (lo_p - rj.random(total) * (lo_p - hi_p)) ** (-1.0 / 1.5)
    marks = np.where(rj.random(total) < 0.5, -1.0, 1.0) * mag
    steps = np.repeat(np.arange(n), counts)
    order = np.lexsort((offs, steps))
    assert total > 100 and np.count_nonzero(counts > 1) > 10
    assert np.array_equal(block.jump_steps, steps[order])
    assert np.array_equal(block.jump_offsets, offs[order])
    assert np.array_equal(block.jump_marks, marks[order])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("floor", [0.05, 1e-3])
def test_event_order_is_lexsort_on_drawn_blocks(floor, seed):
    """Steps and offsets drawn as sample_block draws them, one block of
    16384 steps at dt = 1e-3 (about 42 events a step at floor 1e-3)."""
    noise = NoiseModel(measure=JumpMeasureSpec(alpha=1.5, c_alpha=1.0,
                                               cutoff_c=1.0, floor_delta=floor))
    dt, n = 1e-3, 16384
    _, rj = trajectory_streams(seed, 0)
    counts = rj.poisson(noise.jump_rate * dt, n)
    offs = dt * rj.random(int(counts.sum()))
    steps = np.repeat(np.arange(n), counts)
    assert np.count_nonzero(counts > 1) > 50
    assert np.array_equal(_event_order(steps, offs, dt), np.lexsort((offs, steps)))


def _edge(dt):
    return np.nextafter(dt, 0.0)      # the largest offset below dt


@pytest.mark.parametrize("steps, offs", [
    # equal offsets in one step: a tie, so the lexsort fallback runs
    ([3, 1, 3, 3, 0], [0.5e-2, 0.2e-2, 0.5e-2, 0.1e-2, 0.5e-2]),
    # many ties in steps ordered as sample_block orders them: argsort is
    # not stable on these, lexsort is
    ([s for s in range(3) for _ in range(20)], [0.5e-2, 0.2e-2, 0.7e-2, 0.2e-2] * 15),
    # the key of step 14's last offset rounds to 15.0, the key of step 15
    # at offset 0; 14 dt + offset also lands above 15 dt with no tie
    ([14, 15], [_edge(0.01), 0.0]),
    ([15, 14], [0.0, _edge(0.01)]),
    ([15, 14, 14], [0.0, 0.003, _edge(0.01)]),
    ([], []),
    ([7], [0.004]),
], ids=["tie", "many-ties", "rounds-up", "rounds-up-reversed", "rounds-up-three", "empty",
        "one"])
def test_event_order_is_lexsort_on_crafted_blocks(steps, offs):
    dt = 0.01
    steps = np.array(steps, dtype=np.int64)
    offs = np.array(offs, dtype=float)
    got = _event_order(steps, offs, dt)
    assert np.array_equal(got, np.lexsort((offs, steps)))
    assert len(got) == len(steps) and got.dtype.kind == "i"


def test_event_order_case_keys_round_as_stated():
    # the crafted cases above exercise what their comments claim
    dt = 0.01
    assert 14 + _edge(dt) / dt == 15.0
    assert 14 * dt + _edge(dt) > 15 * dt + 0.0
