"""Hand-derived cases for the benchmark's independent reference.

Run with ``python3 -m pytest bench/test_reference.py``; ``bench/run.py``
also runs every ``test_*`` function here before it measures anything.
"""

import math

from reference import Reference, close, single_move_optimal, staircase_depth, staircase_floor


def bsc(eps):
    return Reference([1.0 - eps, eps], [eps, 1.0 - eps])


def test_zero_uses_is_the_prior_variance():
    for ref in (bsc(0.1), Reference([0.6, 0.3, 0.1], [0.15, 0.35, 0.5])):
        assert math.isclose(math.exp(ref.log_bit_variance(0)), 0.25, rel_tol=1e-15)


def test_one_use_of_bsc():
    # Either output leaves the posterior at eps or 1 - eps.
    for eps in (0.05, 0.1, 0.25, 0.4):
        got = math.exp(bsc(eps).log_bit_variance(1))
        assert math.isclose(got, eps * (1.0 - eps), rel_tol=1e-13)


def test_empty_pattern_is_uniform_variance():
    assert math.isclose(math.exp(bsc(0.1).log_distortion([])), 1.0 / 12.0, rel_tol=1e-15)


def test_split_output_keeps_bsc_value():
    # Splitting one output into two halves with the same likelihood ratio
    # loses no information, so every bit variance is unchanged.
    eps = 0.2
    split = Reference([1.0 - eps, eps / 2.0, eps / 2.0], [eps, (1.0 - eps) / 2.0, (1.0 - eps) / 2.0])
    plain = bsc(eps)
    for t in (1, 2, 5, 13, 40):
        assert math.isclose(split.log_bit_variance(t), plain.log_bit_variance(t), rel_tol=1e-12)
    assert math.isclose(split.log_distortion([6, 3, 1]), plain.log_distortion([6, 3, 1]), rel_tol=1e-12)


def test_bsc_constants():
    # C(bsc) = ln 2 - H-like closed form: -ln(2 sqrt(eps (1 - eps))).
    eps = 0.25
    ref = bsc(eps)
    assert math.isclose(ref.C, -math.log(2.0 * math.sqrt(eps * (1.0 - eps))), rel_tol=1e-12)
    assert math.isclose(ref.B, math.log((1.0 - eps) / eps), rel_tol=1e-15)


def test_sandwich_and_underflow():
    ref = Reference([0.9, 0.1], [0.2, 0.8])
    pattern = [40, 36, 32, 28, 24, 20, 16, 12, 8, 4]
    lo, d, hi = ref.log_lower(pattern), ref.log_distortion(pattern), ref.log_upper(pattern)
    assert lo <= d <= hi
    sharp = bsc(0.01)
    deep = [max(1, math.ceil((760.0 - (k + 1) * math.log(4.0)) / sharp.C)) for k in range(550)]
    assert sharp.log_distortion(deep) < -745.0  # underflows a double
    assert close(0.0, sharp.log_distortion(deep))


def test_policy_properties():
    C = bsc(0.1).C
    assert staircase_depth(10, 1) == 4 and staircase_depth(9, 1) == 3 and staircase_depth(5, 1) == 2
    assert staircase_floor([3, 2, 1], 6, 1) and staircase_floor([4, 2, 1, 1], 8, 1)
    assert not staircase_floor([3, 1, 1, 1], 6, 1)
    assert single_move_optimal([1], C)
    assert not single_move_optimal([3, 0, 5], C)
    assert not single_move_optimal([40], C)  # opening bit 2 lowers U
