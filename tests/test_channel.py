"""Channel constants against closed forms and a dense-grid oracle."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from dyadicsearch import (
    ChannelSpec,
    DegenerateChannelError,
    InfiniteLogRatioError,
    ValidationError,
    b_alt,
    b_functional,
    chernoff_information,
    info_constants,
    load_channel,
    load_prior,
    make_bac,
    make_bsc,
    pattern,
    uniform_prior,
)
from dyadicsearch import decoder, estimate_distortion, log_bit_variances
from dyadicsearch.channel import chernoff_tilt
from dyadicsearch.sim import BLOCK_TRIALS, SimConfig, _histogram_chain
from dyadicsearch.source import bits_array

from conftest import Z_CHANNEL, draw_block, random_channel

LN4 = math.log(4.0)


def full_support(ch: ChannelSpec) -> bool:
    """Every output has positive mass under both inputs."""
    return all(p > 0.0 for p in ch.f0) and all(p > 0.0 for p in ch.f1)


def grid_chernoff(ch: ChannelSpec, points: int = 1_000_001) -> float:
    """Independent oracle: dense 1-D grid minimization of the Chernoff objective."""
    s = np.linspace(0.0, 1.0, points)
    total = np.zeros_like(s)
    for a, b in zip(ch.f0, ch.f1):
        if a > 0.0 and b > 0.0:
            total += np.exp((1.0 - s) * math.log(a) + s * math.log(b))
    return float(-np.min(np.log(total)))


class TestMakeBac:
    def test_figure_channel(self):
        ch = make_bac(0.9, 0.8)
        assert ch.outputs == (0, 1)
        assert ch.f0 == pytest.approx((0.9, 0.1))
        assert ch.f1 == pytest.approx((0.2, 0.8))
        assert ch.informative

    def test_pure_noise_channel(self):
        ch = make_bac(0.5, 0.5)
        assert ch.f0 == ch.f1 == (0.5, 0.5)
        assert not ch.informative

    def test_symmetric_construction(self):
        ch = make_bac(0.9, 0.9)
        assert ch.f0 == (0.9, pytest.approx(0.1))
        assert ch.f1 == (pytest.approx(0.1), 0.9)
        assert make_bsc(0.1).f0 == ch.f0

    @pytest.mark.parametrize("p00,p11", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_boundary_rejected(self, p00, p11):
        with pytest.raises(DegenerateChannelError):
            make_bac(p00, p11)


class TestChannelSpec:
    def test_mass_sum_checked(self):
        with pytest.raises(ValidationError):
            ChannelSpec(outputs=(0, 1), f0=(0.6, 0.5), f1=(0.5, 0.5))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError):
            ChannelSpec(outputs=(0, 1), f0=(1.1, -0.1), f1=(0.5, 0.5))

    def test_dual_zero_output_rejected(self):
        with pytest.raises(ValidationError):
            ChannelSpec(outputs=(0, 1, 2), f0=(1.0, 0.0, 0.0), f1=(0.5, 0.5, 0.0))

    def test_noiseless_spec_constructible(self):
        # make_bac refuses boundaries, but an explicit ChannelSpec may carry them.
        ch = ChannelSpec(outputs=(0, 1), f0=(1.0, 0.0), f1=(0.0, 1.0))
        assert ch.informative and not full_support(ch)


class TestChernoff:
    def test_pure_noise_is_zero_with_warning(self):
        with pytest.warns(UserWarning):
            res = chernoff_information(make_bac(0.5, 0.5))
        assert res.nats == 0.0

    def test_bsc_closed_form(self):
        # C = -ln(2 sqrt(eps (1-eps))) for the symmetric channel.
        eps = 0.1
        res = chernoff_information(make_bsc(eps))
        assert res.nats == pytest.approx(-math.log(2.0 * math.sqrt(eps * (1 - eps))), abs=1e-12)
        assert res.nats == pytest.approx(0.5108256237659907, abs=1e-12)
        assert res.s_star == pytest.approx(0.5, abs=1e-6)

    def test_bac_against_grid_oracle(self):
        ch = make_bac(0.9, 0.8)
        res = chernoff_information(ch)
        assert res.nats == pytest.approx(grid_chernoff(ch), abs=1e-9)
        assert res.nats == pytest.approx(0.3474, abs=2e-4)

    def test_symmetry_on_random_channels(self, rng):
        for _ in range(25):
            ch = random_channel(rng, alphabet=int(rng.integers(2, 5)))
            swapped = ChannelSpec(outputs=ch.outputs, f0=ch.f1, f1=ch.f0)
            assert chernoff_information(ch).nats == pytest.approx(
                chernoff_information(swapped).nats, abs=1e-10
            )

    def test_symmetric_channel_minimizer_is_half(self, rng):
        for eps in (0.05, 0.2, 0.35):
            assert chernoff_information(make_bsc(eps)).s_star == pytest.approx(0.5, abs=1e-6)

    def test_random_channels_match_grid(self, rng):
        for _ in range(5):
            ch = random_channel(rng, alphabet=3)
            assert chernoff_information(ch).nats == pytest.approx(
                grid_chernoff(ch, points=200_001), abs=1e-8
            )


def math_log_ratios(ch: ChannelSpec) -> list[float]:
    """ln f1(y) - ln f0(y) by ``math.log``, +-inf at a zero mass."""
    return [
        math.inf if a == 0.0 else -math.inf if b == 0.0 else math.log(b) - math.log(a)
        for a, b in zip(ch.f0, ch.f1)
    ]


def channel_with_zero_masses(rng: np.random.Generator, alphabet: int) -> ChannelSpec:
    """Random channel where each output may lose its mass under one input."""
    while True:
        f = rng.dirichlet(np.ones(alphabet), size=2)
        for y in range(alphabet):
            if rng.random() < 0.4:
                f[rng.integers(2), y] = 0.0
        if f.sum(axis=1).min() > 0.0:
            f /= f.sum(axis=1, keepdims=True)
            return ChannelSpec(tuple(range(alphabet)), tuple(f[0].tolist()), tuple(f[1].tolist()))


class TestChernoffLaw:
    """``chernoff_tilt``: the one law the bounds, the oracle and the sampler read."""

    def test_law_is_derived_once(self):
        ch = make_bac(0.75, 0.85)
        chernoff_tilt.cache_clear()
        decoder._window_law.cache_clear()
        consts = info_constants(ch)
        assert chernoff_tilt.cache_info()[:2] == (0, 1)
        info = chernoff_information(ch)
        log_bit_variances([3, 40], ch)
        estimate_distortion(SimConfig(ch, pattern([3, 2]), uniform_prior(), trials=100, seed=1))
        hits, misses = chernoff_tilt.cache_info()[:2]
        assert misses == 1 and hits >= 3
        assert info.nats == chernoff_tilt(ch).nats == consts.C
        assert info.s_star == chernoff_tilt(ch).s

    def assert_ratios(self, ch: ChannelSpec) -> None:
        want = math_log_ratios(ch)
        charged = [i for i, (a, b) in enumerate(zip(ch.f0, ch.f1)) if a > 0.0 and b > 0.0]
        assert list(_histogram_chain(ch)[1]) == want
        assert list(chernoff_tilt(ch).llr) == want
        assert decoder._window_law(ch).lam.tolist() == [want[i] for i in charged]

    def test_ratios_on_channels_with_zero_masses(self, rng):
        for _ in range(40):
            self.assert_ratios(channel_with_zero_masses(rng, int(rng.integers(2, 6))))

    def test_ratios_on_z_and_disjoint_channels(self):
        disjoint = ChannelSpec(outputs=(0, 1, 2), f0=(0.6, 0.4, 0.0), f1=(0.0, 0.0, 1.0))
        for ch in (Z_CHANNEL, disjoint):
            self.assert_ratios(ch)
        assert chernoff_information(disjoint).nats == math.inf
        assert chernoff_tilt(disjoint).f is None and decoder._window_law(disjoint).parts == 0

    def test_disjoint_supports_run_no_search(self):
        # With no output charged every s reaches C = inf: s is 1/2, not
        # wherever a search on an objective of -inf everywhere stops.
        disjoint = ChannelSpec(outputs=(0, 1, 2), f0=(0.6, 0.4, 0.0), f1=(0.0, 0.0, 1.0))
        law = chernoff_tilt(disjoint)
        assert (law.s, law.kappa, law.nats) == (0.5, 0.5, math.inf)
        assert chernoff_information(disjoint) == (math.inf, 0.5)

    def test_ratios_where_numpy_log_rounds_differently(self):
        # numpy's vectorised log may round a mass differently from math.log;
        # the law takes every log by math.log.
        rng = np.random.default_rng(11)
        for p in rng.uniform(0.05, 0.95, size=20_000).tolist():
            ch = make_bac(p, 0.8)
            f = np.array([ch.f0, ch.f1])
            if (np.log(f[1]) - np.log(f[0])).tolist() != math_log_ratios(ch):
                break
        else:
            pytest.skip("numpy's log equals math.log on every mass tried")
        self.assert_ratios(ch)


class TestBFunctional:
    def test_pure_noise_zero(self):
        assert b_functional(make_bac(0.5, 0.5)) == 0.0

    def test_bsc_is_log_nine(self):
        # |log-ratio| equals ln 9 at both outputs, so the mixture is irrelevant.
        assert b_functional(make_bsc(0.1)) == pytest.approx(math.log(9.0), abs=1e-12)

    def test_bac_enumeration(self):
        # Two-output enumeration under the half-half mixture.
        assert b_functional(make_bac(0.9, 0.8)) == pytest.approx(
            0.55 * math.log(4.5) + 0.45 * math.log(8.0), abs=1e-12
        )
        assert b_functional(make_bac(0.9, 0.8)) == pytest.approx(1.7629913, abs=1e-6)

    def test_partial_support_rejected(self):
        ch = ChannelSpec(outputs=(0, 1, 2), f0=(0.5, 0.5, 0.0), f1=(0.25, 0.25, 0.5))
        with pytest.raises(InfiniteLogRatioError):
            b_functional(ch)

    def test_b_alt_diagnostic(self):
        # E[exp(-|llr|)] sums min/max mass ratios under the mixture.
        assert b_alt(make_bac(0.9, 0.8)) == pytest.approx(
            0.55 * (0.2 / 0.9) + 0.45 * (0.1 / 0.8), abs=1e-12
        )
        assert b_alt(make_bsc(0.1)) == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_c_below_b_on_random_channels(self, rng):
        for _ in range(1000):
            ch = random_channel(rng, alphabet=int(rng.integers(2, 5)))
            C = chernoff_information(ch).nats
            B = b_functional(ch)
            assert 0.0 <= C <= B + 1e-12


class TestContinuity:
    DELTA = 1e-6

    def _perturb(self, ch: ChannelSpec) -> ChannelSpec:
        f0 = list(ch.f0)
        f0[0] += self.DELTA
        f0[1] -= self.DELTA
        return ChannelSpec(outputs=ch.outputs, f0=tuple(f0), f1=ch.f1)

    def test_chernoff_and_b_lipschitz_in_masses(self, rng):
        for _ in range(10):
            ch = random_channel(rng, alphabet=3, min_mass=0.05)
            pert = self._perturb(ch)
            dC = abs(chernoff_information(pert).nats - chernoff_information(ch).nats)
            dB = abs(b_functional(pert) - b_functional(ch))
            assert dC <= 500.0 * self.DELTA
            assert dB <= 500.0 * self.DELTA


class TestInfoConstants:
    def test_bsc_point_one(self):
        k = info_constants(make_bsc(0.1))
        assert k.C == pytest.approx(0.5108256237659907, abs=1e-12)
        assert k.B == pytest.approx(math.log(9.0), abs=1e-12)
        assert k.r == 2
        assert k.r_real == pytest.approx(LN4 / k.C, abs=1e-12)
        assert k.A1 == pytest.approx(LN4, abs=1e-12)
        assert k.A2 == pytest.approx(2.0 * k.C, abs=1e-12)

    def test_bac_composition(self):
        k = info_constants(make_bac(0.9, 0.8))
        assert k.r == math.floor(LN4 / k.C) == 3
        assert k.r * k.C <= LN4
        assert k.A1 == pytest.approx(min(math.sqrt(2.0) * (k.r_real + 1.0) * k.B, LN4), abs=1e-12)
        assert k.A2 == pytest.approx(math.sqrt(2.0 * k.r) * k.C, abs=1e-12)

    def test_degenerate_limit_rejected(self):
        with pytest.raises(ValidationError):
            info_constants(make_bac(0.5, 0.5))

    def test_rc_below_ln4_on_random_channels(self, rng):
        for _ in range(200):
            k = info_constants(random_channel(rng, alphabet=2))
            assert k.r * k.C <= LN4 + 1e-12
            assert all(math.isfinite(v) for v in (k.C, k.B, k.A1, k.A2))


def simulated_sums(ch: ChannelSpec, t: int, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Input bit and log-odds sum of bit 1 of each trial of the simulator's
    vectorised sampler, t uses per trial."""
    cfg = SimConfig(channel=ch, pattern=pattern([t]), prior=uniform_prior(), trials=trials, seed=seed)
    bits, sums = [], []
    for block in range(-(-trials // BLOCK_TRIALS)):
        u, [(k, s)] = draw_block(cfg, block)
        bits.append(bits_array(u, k))
        sums.append(s)
    return np.concatenate(bits), np.concatenate(sums)


def simulated_outputs(ch: ChannelSpec, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Input bit and output symbol index of each trial, one use of bit 1 per
    trial. One use makes the bit's log-odds sum equal to the log-likelihood
    ratio of its output, which names the symbol when the ratios are distinct."""
    with np.errstate(divide="ignore"):
        llr = np.log(np.array(ch.f1)) - np.log(np.array(ch.f0))
    assert len(set(llr)) == len(llr)
    bits, sums = simulated_sums(ch, 1, trials, seed)
    return bits, np.argmax(sums[:, None] == llr[None, :], axis=1)


class TestSampleOutput:
    """Output frequencies of the simulator's sampler (``sim._draw_llr``)."""

    def test_noiseless_channel_is_deterministic(self):
        ch = ChannelSpec(outputs=(0, 1), f0=(1.0, 0.0), f1=(0.0, 1.0))
        bits, symbols = simulated_outputs(ch, trials=5000, seed=0)
        assert np.array_equal(symbols, bits)

    def test_empirical_frequency(self):
        three = ChannelSpec(outputs=("a", "b", "c"), f0=(0.5, 0.3, 0.2), f1=(0.2, 0.3, 0.5))
        for ch in (make_bac(0.9, 0.8), three):
            bits, symbols = simulated_outputs(ch, trials=200_000, seed=12345)
            for bit, f in ((0, np.array(ch.f0)), (1, np.array(ch.f1))):
                sent = symbols[bits == bit]
                freq = np.bincount(sent, minlength=f.size) / sent.size
                sigma = np.sqrt(f * (1.0 - f) / sent.size)
                assert np.all(np.abs(freq - f) < 5.0 * sigma)

    def test_same_seed_same_sequence(self):
        ch = make_bac(0.9, 0.8)
        assert np.array_equal(simulated_outputs(ch, 5000, 9)[1], simulated_outputs(ch, 5000, 9)[1])


def histograms(t: int, m: int):
    """Every output histogram of t uses over m symbols."""
    if m == 1:
        yield (t,)
        return
    for c in range(t + 1):
        for rest in histograms(t - c, m - 1):
            yield (c,) + rest


def log_odds_law(ch: ChannelSpec, bit: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of one bit's log-odds sum after t uses with input ``bit``.

    Each histogram c has multinomial probability t!/prod c_i! prod f_b(i)^c_i
    and log-odds sum_{c_i > 0} c_i ln f1(i)/f0(i); histograms with the same
    sum are merged. On a binary channel with distinct ratios the sum names
    the count, and the law is the Binomial(t, f_b(1)) pmf."""
    f = (ch.f0, ch.f1)[bit]
    ratios = [math.log(a) - math.log(b) if a > 0.0 and b > 0.0 else math.copysign(math.inf, a - b)
              for a, b in zip(ch.f1, ch.f0)]
    law: dict[float, float] = {}
    for c in histograms(t, len(f)):
        pmf = math.factorial(t) * math.prod(p**ci / math.factorial(ci) for p, ci in zip(f, c))
        value = sum(ci * r for ci, r in zip(c, ratios) if ci > 0)
        key = next((v for v in law if v == value or abs(v - value) <= 1e-9), value)
        law[key] = law.get(key, 0.0) + pmf
    values = sorted(law)
    return np.array(values), np.array([law[v] for v in values])


class TestSampleHistogram:
    """Per-bit output histograms of ``sim._draw_llr`` at t_k = 7 uses."""

    USES = 7

    @pytest.mark.parametrize(
        "ch",
        [
            make_bac(0.9, 0.8),
            ChannelSpec(outputs=("a", "b", "c"), f0=(0.5, 0.3, 0.2), f1=(0.2, 0.3, 0.5)),
            Z_CHANNEL,
        ],
        ids=["bac", "three-symbol", "z"],
    )
    def test_counts_follow_the_multinomial_law(self, ch):
        bits, sums = simulated_sums(ch, self.USES, trials=200_000, seed=4242)
        assert not np.isnan(sums).any()
        for bit in (0, 1):
            values, pmf = log_odds_law(ch, bit, self.USES)
            if ch.outputs == (0, 1) and all(p > 0.0 for p in ch.f0 + ch.f1):
                assert values.size == self.USES + 1  # each sum names one count
            sent = sums[bits == bit]
            # Every sum is one histogram's; infinities match only themselves.
            match = np.isclose(sent[:, None], values[None, :], rtol=0.0, atol=1e-9)
            assert np.all(match.sum(axis=1) == 1)
            freq = match.sum(axis=0) / sent.size
            sigma = np.sqrt(pmf * (1.0 - pmf) / sent.size)
            assert np.all(np.abs(freq - pmf) <= 5.0 * sigma), (bit, freq, pmf)

    def test_noiseless_and_z_counts_are_deterministic(self):
        noiseless = ChannelSpec(outputs=(0, 1), f0=(1.0, 0.0), f1=(0.0, 1.0))
        bits, sums = simulated_sums(noiseless, self.USES, trials=10_000, seed=3)
        assert np.array_equal(sums, np.where(bits == 1, math.inf, -math.inf))
        # The Z channel's input 0 always gives 7 zeros: the sum is 7 ln(0.3/1).
        bits, sums = simulated_sums(Z_CHANNEL, self.USES, trials=10_000, seed=3)
        assert not np.isnan(sums).any()
        np.testing.assert_allclose(sums[bits == 0], self.USES * math.log(0.3), rtol=1e-15)
        # Input 1 gives +inf once a single 1 is seen, else the same 7 zeros.
        sent = sums[bits == 1]
        np.testing.assert_allclose(sent[np.isfinite(sent)], self.USES * math.log(0.3), rtol=1e-15)
        assert np.all(sent[~np.isfinite(sent)] == math.inf)


class TestLoadChannel:
    def test_preset_mapping(self):
        assert load_channel({"preset": "bac", "p00": 0.9, "p11": 0.8}) == make_bac(0.9, 0.8)
        assert load_channel({"preset": "bsc", "eps": 0.1}) == make_bsc(0.1)

    def test_explicit_mapping(self):
        ch = load_channel({"outputs": [0, 1, 2], "f0": [0.5, 0.3, 0.2], "f1": [0.2, 0.3, 0.5]})
        assert ch.f0 == (0.5, 0.3, 0.2)

    def test_preset_string(self):
        assert load_channel("bac:0.9,0.8") == make_bac(0.9, 0.8)
        assert load_channel("bsc:0.1") == make_bsc(0.1)
        for bad in ("bac:0.9", "bsc:0.1,0.2", "bac:abc,0.8", "zzz:0.1", "bsc:"):
            with pytest.raises(ValidationError):
                load_channel(bad)

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "ch.json"
        p.write_text('{"preset": "bac", "p00": 0.9, "p11": 0.8}')
        assert load_channel(p) == make_bac(0.9, 0.8)

    def test_every_form_agrees(self, tmp_path):
        mapping = {"preset": "bac", "p00": 0.9, "p11": 0.8}
        p = tmp_path / "ch.json"
        p.write_text(json.dumps(mapping))
        for source in (mapping, "bac:0.9,0.8", p, str(p)):
            assert load_channel(source) == make_bac(0.9, 0.8), source

    def test_file_named_like_a_preset_wins(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("bsc:0.1").write_text('{"preset": "bac", "p00": 0.9, "p11": 0.8}')
        assert load_channel("bsc:0.1") == make_bac(0.9, 0.8)

    def test_path_sources_named_by_their_string(self, tmp_path):
        # A Path source reads as its quoted path, as the same string would.
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        for load, what in ((load_channel, "channel"), (load_prior, "prior")):
            for source, message in ((tmp_path, f"cannot read {what} file {str(tmp_path)!r}: "),
                                    (bad, f"{what} file {str(bad)!r}: invalid JSON")):
                for form in (source, str(source)):
                    with pytest.raises(ValidationError) as exc:
                        load(form)
                    assert str(exc.value).startswith(message) and "PosixPath(" not in str(exc.value)

    def test_bad_configs(self, tmp_path):
        with pytest.raises(ValidationError):
            load_channel({"preset": "zzz"})
        with pytest.raises(ValidationError):
            load_channel({"outputs": [0, 1]})
        with pytest.raises(ValidationError):
            load_channel([0.5, 0.5])  # not a mapping
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValidationError):
            load_channel(bad)
