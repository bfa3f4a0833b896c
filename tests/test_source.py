"""Bit extraction, truncation to the first l bits and the CDF transform."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dyadicsearch import (
    PriorSpec,
    ValidationError,
    from_uniform,
    load_prior,
    power_prior,
    uniform_prior,
)
from dyadicsearch.source import BIT_DEPTH_CAP, bits_array

from oracles import Message, bit_of


def to_uniform(prior, x):
    """F(x): a prior sample mapped into the uniform domain; the oracle that
    ``from_uniform`` (F^{-1}) round-trips against."""
    out = prior.cdf(np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


def same_prior(a, b) -> bool:
    """Equal kind, Lipschitz constant and CDF on a grid: a ``PriorSpec``
    holds lambdas, so ``==`` compares identities."""
    u = np.linspace(0.0, 1.0, 101)
    return (a.kind, a.lipschitz_sq) == (b.kind, b.lipschitz_sq) and np.array_equal(a.cdf(u), b.cdf(u))


def truncate(values, l):
    """The first l bits of each value, from ``bits_array``: sum_k x_k 2^-k."""
    values = np.asarray(values, dtype=float)
    return sum(bits_array(values, k) * 2.0**-k for k in range(1, l + 1))


class TestBits:
    def test_half(self):
        m = Message(0.5)
        assert bit_of(m, 1) == 1
        assert bit_of(m, 2) == 0  # terminating convention

    def test_eleven_sixteenths(self):
        m = Message(0.6875)
        assert [bit_of(m, k) for k in range(1, 5)] == [1, 0, 1, 1]

    def test_zero(self):
        assert all(bit_of(Message(0.0), k) == 0 for k in (1, 5, 60))

    def test_beyond_cap_is_zero(self):
        assert bit_of(Message(1.0 / 3.0), BIT_DEPTH_CAP + 1) == 0

    def test_bad_index(self):
        with pytest.raises(ValidationError):
            bit_of(Message(0.5), 0)

    def test_reconstruction(self, rng):
        for value in rng.random(200):
            m = Message(float(value))
            recon = math.fsum(bit_of(m, k) * 2.0**-k for k in range(1, BIT_DEPTH_CAP + 1))
            assert abs(recon - value) < 1e-15

    def test_vectorized_matches_scalar(self, rng):
        values = rng.random(64)
        for k in (1, 2, 7, 31, 52):
            vec = bits_array(values, k)
            assert all(int(vec[i]) == bit_of(Message(float(values[i])), k) for i in range(64))


class TestQuantize:
    """Keeping the first l bits, as the simulator's depth cap does, through
    ``bits_array`` and checked against ``bit_of``."""

    def test_examples(self):
        assert truncate([0.6875], 3)[0] == 0.625
        assert truncate([0.5], 1)[0] == 0.5

    def test_deep_quantization_recovers_value(self, rng):
        values = rng.random(50)
        assert np.max(np.abs(truncate(values, BIT_DEPTH_CAP) - values)) <= 1e-15

    def test_bracketing(self, rng):
        values = rng.random(100)
        for l in (1, 3, 9):
            q = truncate(values, l)
            assert np.all(q <= values) and np.all(values < q + 2.0**-l)

    def test_equals_bit_reconstruction_exactly(self, rng):
        values = rng.random(50)
        l = 7
        got = truncate(values, l)
        for value, q in zip(values, got):
            m = Message(float(value))
            assert q == math.fsum(bit_of(m, k) * 2.0**-k for k in range(1, l + 1))


class TestPriors:
    def test_uniform_identity(self):
        prior = uniform_prior()
        assert to_uniform(prior, 0.37) == 0.37
        assert from_uniform(prior, 0.37) == 0.37

    def test_power_two_hand_values(self):
        prior = power_prior(2)
        assert prior.lipschitz_sq == 4.0
        assert to_uniform(prior, 0.5) == 0.25
        assert from_uniform(prior, 0.25) == 0.5

    def test_round_trip(self, rng):
        prior = power_prior(2)
        x = rng.random(10_000)
        back = from_uniform(prior, to_uniform(prior, x))
        assert float(np.max(np.abs(back - x))) < 1e-10

    def test_out_of_support(self):
        with pytest.raises(ValidationError):
            from_uniform(uniform_prior(), 1.5)
        with pytest.raises(ValidationError):
            from_uniform(uniform_prior(), -0.1)

    def test_understated_lipschitz_rejected(self):
        # x^2 has slope up to 2 on [0, 1]; declaring lipschitz_sq = 1 must fail
        # the grid validation.
        with pytest.raises(ValidationError):
            power_prior(2, lipschitz_sq=1.0)

    def test_non_increasing_cdf_rejected(self):
        flat = lambda x: np.minimum(np.asarray(x, dtype=float) * 2.0, 1.0)
        with pytest.raises(ValidationError):
            PriorSpec(kind="transformed", cdf=flat, inverse_cdf=flat, support=(0.0, 1.0), lipschitz_sq=4.0)

    def test_transform_makes_prior_samples_uniform(self, rng):
        # Kolmogorov-Smirnov statistic below the asymptotic 1% critical value.
        prior = power_prior(2)
        n = 100_000
        x = from_uniform(prior, rng.random(n))  # inverse-CDF sampling from the prior
        u = np.sort(to_uniform(prior, x))
        i = np.arange(1, n + 1)
        d = max(float(np.max(i / n - u)), float(np.max(u - (i - 1) / n)))
        assert d < 1.6276 / math.sqrt(n)

    def test_load_prior_configs(self):
        assert load_prior({"prior": "uniform"}).kind == "uniform"
        p = load_prior({"prior": "power", "exponent": 2})
        assert p.lipschitz_sq == 4.0
        with pytest.raises(ValidationError):
            load_prior({"prior": "power"})
        with pytest.raises(ValidationError):
            load_prior({"prior": "power", "exponent": 2, "lipschitz_sq": 0.5})
        with pytest.raises(ValidationError):
            load_prior({"prior": "cauchy"})

    @pytest.mark.parametrize(
        "mapping, text",
        [({"prior": "uniform"}, "uniform"), ({"prior": "power", "exponent": 2}, "power:2")],
    )
    def test_every_form_agrees(self, tmp_path, mapping, text):
        p = tmp_path / "prior.json"
        p.write_text(json.dumps(mapping))
        want = load_prior(mapping)
        for source in (text, p, str(p)):
            assert same_prior(load_prior(source), want), source

    def test_file_named_like_a_preset_wins(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("power:2").write_text('{"prior": "uniform"}')
        assert same_prior(load_prior("power:2"), uniform_prior())

    def test_unreadable_file_refused(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read prior file"):
            load_prior(tmp_path)

    def test_declared_lipschitz_sq_must_be_finite(self):
        assert load_prior({"prior": "power", "exponent": 2, "lipschitz_sq": None}).lipschitz_sq == 4.0
        ident = lambda x: np.asarray(x, dtype=float)
        for bad in (math.nan, math.inf, 0.0):
            with pytest.raises(ValidationError, match="lipschitz_sq"):
                PriorSpec(kind="uniform", cdf=ident, inverse_cdf=ident, support=(0.0, 1.0),
                          lipschitz_sq=bad)
            with pytest.raises(ValidationError, match="lipschitz_sq"):
                load_prior({"prior": "power", "exponent": 2, "lipschitz_sq": bad})

    @pytest.mark.parametrize("exponent", [math.inf, math.nan, 0.5])
    def test_exponent_must_be_finite_and_at_least_1(self, exponent):
        with pytest.raises(ValidationError, match="exponent"):
            power_prior(exponent)
        with pytest.raises(ValidationError, match="exponent"):
            load_prior(f"power:{exponent}")


class TestMessage:
    def test_range_checked(self):
        with pytest.raises(ValidationError):
            Message(1.2)
        with pytest.raises(ValidationError):
            Message(-0.1)

    def test_value_one_is_all_ones(self):
        m = Message(1.0)
        assert all(bit_of(m, k) == 1 for k in range(1, 10))
