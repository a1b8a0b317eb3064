"""Independent cross-checks: Gaussian log-det identities and DMC rate evaluation."""

import dataclasses
import json
import math

import numpy as np
import pytest

from diamond_wiretap import oracles, rate_functions as rf, scenario_one, scenario_two, schemes
from diamond_wiretap.errors import InvalidPmf, SingularCovariance
from diamond_wiretap.oracles import DmcChannel
from diamond_wiretap.rate_functions import ChannelParams
from quantized_gaussian import discretized_gaussian_channel

X1, X2, Y, Z = range(4)


def one_stack_mi(p1, p2, rho, g, triples):
    """I(A;B|C) of each triple for one covariance, as a stack of one."""
    cov = oracles._covariances([p1], [p2], [rho], [g])
    return [float(v[0]) for v in oracles._mutual_informations(cov, triples)]


def test_covariance_matrix_entries():
    q = 0.3 * 2.0
    s = 4.0 + 1.0 + 2.0 * q
    r = math.sqrt(0.2)
    expected = np.array([
        [4.0, q, 4.0 + q, r * (4.0 + q)],
        [q, 1.0, 1.0 + q, r * (1.0 + q)],
        [4.0 + q, 1.0 + q, s + 1.0, r * s],
        [r * (4.0 + q), r * (1.0 + q), r * s, 0.2 * s + 1.0],
    ])
    assert np.array_equal(oracles._covariances(4.0, 1.0, 0.3, 0.2), expected)
    assert np.array_equal(oracles._covariances([4.0], [1.0], [0.3], [0.2]), expected[None])


def test_mi_identities_match_closed_forms():
    p = ChannelParams(p1=3.0, p2=2.0, c1=0.7, c2=1.1, g=0.25)
    rho = -0.4
    pairs = [
        (rf.f1(p, rho) - p.c1, ((X2,), (Y,), (X1,))),
        (rf.f2(p, rho) - p.c2, ((X1,), (Y,), (X2,))),
        (p.c1 + p.c2 - rf.f3(p, rho), ((X1,), (X2,), ())),
        (rf.f4(p, rho), ((X1, X2), (Y,), ())),
        (rf.f5(p, rho), ((X1, X2), (Z,), ())),
        (rf.f6(p, rho), ((X1,), (Z,), ())),
        (rf.f7(p, rho), ((X2,), (Z,), ())),
    ]
    values = one_stack_mi(p.p1, p.p2, rho, p.g, [triple for _, triple in pairs])
    for (closed, triple), value in zip(pairs, values):
        assert closed == pytest.approx(value, abs=1e-12), triple


def test_mi_chain_rule_and_degradedness():
    joint, x1_y, x2_y_given_x1, leak = one_stack_mi(
        5.0, 2.0, 0.35, 0.4, [((X1, X2), (Y,), ()), ((X1,), (Y,), ()), ((X2,), (Y,), (X1,)), ((X1, X2), (Z,), ())])
    assert joint == pytest.approx(x1_y + x2_y_given_x1, abs=1e-12)
    assert leak <= joint + 1e-12


def test_closed_form_validation_sweep():
    rep = oracles.validate_closed_forms(trials=150, seed=1)
    assert rep.passed
    assert rep.failures == ()
    assert rep.checked > 0
    assert rep.max_deviation <= 1e-9


def _reference_logdet_mi(cov, a, b, c):
    """I(A;B|C) of one 4x4 covariance from four scalar ``slogdet`` calls."""
    lds = []
    for idx in (tuple(sorted(a + c)), tuple(sorted(b + c)), tuple(sorted(c)), tuple(sorted(a + b + c))):
        if not idx:
            lds.append(0.0)
            continue
        sign, ld = np.linalg.slogdet(cov[np.ix_(idx, idx)])
        if sign <= 0.0 or not math.isfinite(ld):
            raise SingularCovariance(f"covariance block {idx} is not positive definite")
        lds.append(float(ld))
    return 0.5 * (lds[0] + lds[1] - lds[2] - lds[3]) / math.log(2.0)


def reference_validation(trials, seed, tolerance=1e-9):
    """``validate_closed_forms`` as a loop over the trials: scalar draws, the
    public f1..f7 and one scalar log-det evaluation per identity."""
    rng = np.random.default_rng(seed)
    checked = skipped = 0
    max_dev = 0.0
    failures = []
    for i in range(trials):
        p1 = float(rng.uniform(1e-3, 100.0))
        p2 = float(rng.uniform(1e-3, 100.0))
        c1 = float(rng.uniform(0.0, 5.0))
        c2 = float(rng.uniform(0.0, 5.0))
        g = 0.0 if i % 25 == 0 else float(rng.uniform(0.0, 0.99))
        rho = float(rng.uniform(-1.0, 1.0))
        params = ChannelParams(p1=p1, p2=p2, c1=c1, c2=c2, g=g)
        cov = oracles._covariances(p1, p2, rho, g)
        pairs = [
            ("f1", rf.f1(params, rho) - c1, ((X2,), (Y,), (X1,))),
            ("f2", rf.f2(params, rho) - c2, ((X1,), (Y,), (X2,))),
            ("f4", rf.f4(params, rho), ((X1, X2), (Y,), ())),
            ("f5", rf.f5(params, rho), ((X1, X2), (Z,), ())),
            ("f6", rf.f6(params, rho), ((X1,), (Z,), ())),
            ("f7", rf.f7(params, rho), ((X2,), (Z,), ())),
        ]
        if abs(rho) == 1.0:
            skipped += 1
        else:
            pairs.append(("f3", c1 + c2 - rf.f3(params, rho), ((X1,), (X2,), ())))
        for name, closed, triple in pairs:
            dev = abs(closed - _reference_logdet_mi(cov, *triple))
            checked += 1
            max_dev = max(max_dev, dev)
            if not dev <= tolerance:
                failures.append((i, name, dev))
    return oracles.ValidationReport(
        trials=trials, seed=seed, tolerance=tolerance, checked=checked, skipped=skipped,
        max_deviation=max_dev, failures=tuple(failures),
    )


@pytest.mark.parametrize("seed", range(5))
def test_stacked_validation_equals_the_per_trial_loop(seed):
    assert oracles.validate_closed_forms(trials=1000, seed=seed) == reference_validation(1000, seed)


def test_stacked_validation_keeps_the_failures_and_their_order():
    # at 1e-15 most identities fail on round-off: the long failure tuple is
    # ordered by trial, then f1, f2, f4, f5, f6, f7, f3
    report = oracles.validate_closed_forms(trials=200, seed=7, tolerance=1e-15)
    assert len(report.failures) > 100
    assert report == reference_validation(200, 7, tolerance=1e-15)


@pytest.mark.parametrize("tolerance", [1e-9, 1e-15])
def test_chunked_validation_equals_one_stack(tolerance, monkeypatch):
    # chunks of 75 trials, the last one of 25: the draws, the g pattern and
    # the trial numbers of the failures run on from chunk to chunk
    one_stack = oracles.validate_closed_forms(trials=1000, seed=5, tolerance=tolerance)
    monkeypatch.setattr(oracles, "_CHUNK", 75)
    chunked = oracles.validate_closed_forms(trials=1000, seed=5, tolerance=tolerance)
    assert repr(chunked) == repr(one_stack)
    assert bool(chunked.failures) == (tolerance < 1e-9)


def test_a_chunk_is_whole_patterns_and_holds_a_thousand_trials():
    # the 1,000 trials of the oracle check in the benchmark and the README stay one stack
    assert oracles._CHUNK % 25 == 0 and oracles._CHUNK >= 1000


def test_zero_trials_is_an_empty_passing_report():
    report = oracles.validate_closed_forms(trials=0, seed=3)
    assert report == reference_validation(0, 3)
    assert report.passed and report.checked == 0 and report.max_deviation == 0.0


@pytest.mark.parametrize("trials, tolerance", [(-1, 1e-9), (-3, 1e-9), (10, math.nan), (10, -1e-9), (10, -math.inf)])
def test_validation_rejects_negative_trials_and_bad_tolerances(trials, tolerance):
    with pytest.raises(ValueError):
        oracles.validate_closed_forms(trials=trials, seed=0, tolerance=tolerance)


def test_a_stack_row_is_the_scalar_reference():
    rng = np.random.default_rng(11)
    p1 = np.append(rng.uniform(1e-3, 100.0, 3), 5.0)
    p2 = np.append(rng.uniform(1e-3, 100.0, 3), 2.0)
    rho = np.append(rng.uniform(-1.0, 1.0, 3), 0.35)
    g = np.append(rng.uniform(0.0, 0.99, 3), 0.0)
    triples = [
        ((X2,), (Y,), (X1,)), ((X1,), (Y,), (X2,)), ((X1, X2), (Y,), ()), ((X1, X2), (Z,), ()),
        ((X1,), (Z,), ()), ((X2,), (Z,), ()), ((X1,), (X2,), ()),
        ((X1,), (Y,), ()), ((X2,), (Z,), (Y,)), ((Y,), (Z,), (X1, X2)),
    ]
    cov = oracles._covariances(p1, p2, rho, g)
    stacked = oracles._mutual_informations(cov, triples)
    for k in range(len(p1)):
        one_row = oracles._mutual_informations(cov[k:k + 1], triples)
        for triple, column, row in zip(triples, stacked, one_row):
            assert row[0] == column[k], (k, triple)
            assert column[k] == _reference_logdet_mi(cov[k], *triple), (k, triple)


def identity_y_channel():
    """Y reveals (x1, x2) perfectly; Z is constant."""
    t = np.zeros((2, 2, 4, 1))
    for x1 in range(2):
        for x2 in range(2):
            t[x1, x2, 2 * x1 + x2, 0] = 1.0
    return DmcChannel(t)


def copy_z_channel():
    """Z is an exact copy of the perfectly revealing Y."""
    t = np.zeros((2, 2, 4, 4))
    for x1 in range(2):
        for x2 in range(2):
            y = 2 * x1 + x2
            t[x1, x2, y, y] = 1.0
    return DmcChannel(t)


UNIFORM = np.full((2, 2), 0.25)


def test_dmc_identity_channel_rates():
    rates = oracles.dmc_rates(identity_y_channel(), UNIFORM, c1=3.0, c2=3.0)
    assert rates.df1 == pytest.approx(2.0, abs=1e-12)
    assert rates.pdfm1 == pytest.approx(2.0, abs=1e-12)
    assert rates.df2 == pytest.approx(2.0, abs=1e-12)
    assert rates.pdfdfm2 == pytest.approx(2.0, abs=1e-12)
    assert rates.pdfpdfm2 == pytest.approx(2.0, abs=1e-12)
    assert rates.r_prime == pytest.approx(0.0, abs=1e-12)
    # small links become the bottleneck
    capped = oracles.dmc_rates(identity_y_channel(), UNIFORM, c1=0.5, c2=3.0)
    assert capped.df1 == pytest.approx(0.5, abs=1e-12)


def test_dmc_rate_fields_are_the_scheme_entries_of_both_scenario_tables():
    """``DmcRates`` has one rate field per entry that the scenario tables'
    schemes solve, each once, in the tables' order, then r_prime and mi."""
    entries = [entry for module in (scenario_one, scenario_two) for _, entry, *_ in module.TABLE.schemes]
    assert oracles.DMC_SCHEMES == tuple(dict.fromkeys(entries)) == ("df1", "pdfm1", "df2", "pdfdfm2", "pdfpdfm2")
    assert [f.name for f in dataclasses.fields(oracles.DmcRates)] == [*oracles.DMC_SCHEMES, "r_prime", "mi"]


def test_dmc_full_leakage_kills_secrecy():
    rates = oracles.dmc_rates(copy_z_channel(), UNIFORM, c1=3.0, c2=3.0)
    assert rates.r_prime == pytest.approx(2.0, abs=1e-12)
    assert rates.df2 == 0.0
    assert rates.pdfdfm2 == 0.0
    assert rates.pdfpdfm2 == 0.0
    # scenario-1 schemes still deliver the non-secret rate
    assert rates.df1 == 0.0  # min includes I(Y) - I(Z) = 0
    assert rates.pdfm1 == 0.0


def test_dmc_mi_dict_exposed():
    rates = oracles.dmc_rates(identity_y_channel(), UNIFORM, c1=1.0, c2=1.0)
    assert rates.mi["I(X1,X2;Y)"] == pytest.approx(2.0, abs=1e-12)
    assert rates.mi["I(X1,X2;Z)"] == pytest.approx(0.0, abs=1e-12)


def test_dmc_channel_validation():
    t = np.full((2, 2, 2, 2), 0.25)
    DmcChannel(t)
    bad_sum = t.copy()
    bad_sum[0, 0, 0, 0] = 0.5
    with pytest.raises(InvalidPmf):
        DmcChannel(bad_sum)
    negative = t.copy()
    negative[0, 0, 0, 0] = -0.25
    negative[0, 0, 1, 1] = 0.75
    with pytest.raises(InvalidPmf):
        DmcChannel(negative)
    with pytest.raises(InvalidPmf):
        DmcChannel(np.full((2, 2, 2), 0.5))


def test_dmc_rejects_non_finite_inputs():
    t = np.full((2, 2, 2, 2), 0.25)
    nan_transition = t.copy()
    nan_transition[0, 0, 0, 0] = math.nan
    with pytest.raises(InvalidPmf):
        DmcChannel(nan_transition)
    nan_pmf = UNIFORM.copy()
    nan_pmf[0, 0] = math.nan
    with pytest.raises(InvalidPmf):
        oracles.dmc_rates(identity_y_channel(), nan_pmf, c1=1.0, c2=1.0)
    for c1, c2 in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)):
        with pytest.raises(InvalidPmf):
            oracles.dmc_rates(identity_y_channel(), UNIFORM, c1=c1, c2=c2)


def _write_doc(path, alphabet, transition, pmf, c1, c2):
    doc = {
        "alphabet_sizes": alphabet,
        "transition": transition,
        "input_pmf": pmf,
        "c1": c1,
        "c2": c2,
    }
    path.write_text(json.dumps(doc))


def test_load_dmc_round_trip(tmp_path):
    chan = identity_y_channel()
    path = tmp_path / "chan.json"
    _write_doc(
        path, [2, 2, 4, 1],
        chan.transition.reshape(-1).tolist(),
        UNIFORM.reshape(-1).tolist(), 3.0, 3.0,
    )
    loaded, pmf, c1, c2 = oracles.load_dmc(str(path))
    assert np.array_equal(loaded.transition, chan.transition)
    assert np.array_equal(pmf, UNIFORM)
    direct = oracles.dmc_rates(chan, UNIFORM, 3.0, 3.0)
    via_file = oracles.dmc_rates(loaded, pmf, c1, c2)
    assert via_file == direct


def test_load_dmc_structural_errors(tmp_path):
    path = tmp_path / "bad.json"
    # missing c1
    path.write_text(json.dumps({
        "alphabet_sizes": [2, 2, 4, 1],
        "transition": [0.0] * 16,
        "input_pmf": [0.25] * 4,
        "c2": 1.0,
    }))
    with pytest.raises(InvalidPmf):
        oracles.load_dmc(str(path))
    # element count mismatch
    _write_doc(path, [2, 2, 4, 1], [1.0] * 10, [0.25] * 4, 1.0, 1.0)
    with pytest.raises(InvalidPmf):
        oracles.load_dmc(str(path))
    # input pmf does not sum to one
    chan = identity_y_channel()
    _write_doc(
        path, [2, 2, 4, 1], chan.transition.reshape(-1).tolist(),
        [0.3, 0.3, 0.3, 0.3], 1.0, 1.0,
    )
    with pytest.raises(InvalidPmf):
        oracles.load_dmc(str(path))
    # a NaN size, and strings where numbers belong, numeric or not
    good = {"alphabet_sizes": [2, 2, 4, 1], "transition": chan.transition.reshape(-1).tolist(),
            "input_pmf": UNIFORM.reshape(-1).tolist(), "c1": 1.0, "c2": 1.0}
    for bad in ({"alphabet_sizes": [2, 2, math.nan, 1]}, {"alphabet_sizes": [2, "2", 4, 1]},
                {"c1": "abc"}, {"c2": "3.0"}, {"transition": ["abc"] * 16},
                {"transition": [str(x) for x in good["transition"]]}, {"input_pmf": ["0.25"] * 4}):
        path.write_text(json.dumps({**good, **bad}))
        with pytest.raises(InvalidPmf):
            oracles.load_dmc(str(path))


@pytest.mark.parametrize("bad, message", [
    ({"transition": [[1.0], [0.0, 1.0]]}, "lists of unequal lengths"),
    ({"input_pmf": [0.5, 0.5]}, "input_pmf has 2 entries, expected 4"),
], ids=["ragged", "short-pmf"])
def test_load_dmc_rejects_ragged_lists_and_a_pmf_of_the_wrong_size(tmp_path, bad, message):
    path = tmp_path / "bad.json"
    good = {"alphabet_sizes": [2, 2, 4, 1], "transition": identity_y_channel().transition.reshape(-1).tolist(),
            "input_pmf": UNIFORM.reshape(-1).tolist(), "c1": 1.0, "c2": 1.0}
    path.write_text(json.dumps({**good, **bad}))
    with pytest.raises(InvalidPmf, match=message):
        oracles.load_dmc(str(path))


def test_dmc_rates_rejects_an_input_pmf_of_another_shape():
    with pytest.raises(InvalidPmf, match=r"input pmf shape \(4,\) does not match alphabets \(2, 2\)"):
        oracles.dmc_rates(identity_y_channel(), UNIFORM.reshape(-1), c1=1.0, c2=1.0)


def _brute_force_mi(joint, a, b, c):
    """I(A;B|C) in bits from the full joint p(x1, x2, y, z)."""
    def h(block):
        p = joint.sum(axis=tuple(k for k in range(4) if k not in block))
        p = p[p > 0.0]
        return float(-np.sum(p * np.log2(p)))
    return h(a + c) + h(b + c) - (h(c) if c else 0.0) - h(a + b + c)


def test_dmc_mutual_informations_equal_brute_force_on_random_channels():
    # the seven labels of DmcRates.mi and their blocks, written out here
    triples = {
        "I(X2;Y|X1)": ((X2,), (Y,), (X1,)), "I(X1;Y|X2)": ((X1,), (Y,), (X2,)),
        "I(X1,X2;Y)": ((X1, X2), (Y,), ()), "I(X1,X2;Z)": ((X1, X2), (Z,), ()),
        "I(X1;Z)": ((X1,), (Z,), ()), "I(X2;Z)": ((X2,), (Z,), ()), "I(X1;X2)": ((X1,), (X2,), ()),
    }
    rng = np.random.default_rng(23)
    for _ in range(200):
        sizes = tuple(int(n) for n in rng.integers(1, 5, 4))
        trans = rng.exponential(size=sizes) * (rng.random(sizes) < 0.8)
        trans[..., 0, 0] += 1e-3  # every row keeps some mass
        trans /= trans.sum(axis=(2, 3), keepdims=True)
        pin = rng.exponential(size=sizes[:2])
        pin /= pin.sum()
        c1, c2 = rng.uniform(0.0, 3.0, 2)
        rates = oracles.dmc_rates(DmcChannel(trans), pin, c1, c2)
        joint = pin[:, :, None, None] * trans
        mi = {label: _brute_force_mi(joint, *triple) for label, triple in triples.items()}
        assert rates.mi.keys() == mi.keys()
        for label, value in mi.items():
            assert rates.mi[label] == pytest.approx(value, abs=1e-12), (sizes, label)
        # the rates read the closed forms f1..f7 as these informations net of the links
        r = {"C1": c1, "C2": c2, "f1": c1 + mi["I(X2;Y|X1)"], "f2": c2 + mi["I(X1;Y|X2)"],
             "f3": c1 + c2 - mi["I(X1;X2)"], "f4": mi["I(X1,X2;Y)"], "f5": mi["I(X1,X2;Z)"],
             "indicator": rf.link_indicator(c1, c2, mi["I(X1;Z)"], mi["I(X2;Z)"])}
        for name in ("df1", "pdfm1", "df2", "pdfdfm2", "pdfpdfm2"):
            expected = max(0.0, min(schemes.TABLE[name].terms(r).values()))
            assert getattr(rates, name) == pytest.approx(expected, abs=1e-12), (sizes, name)
        assert rates.r_prime == pytest.approx(mi["I(X1,X2;Z)"], abs=1e-12)


def test_discretized_gaussian_tracks_closed_forms():
    p = ChannelParams.symmetric(1.0, 5.0, 0.2)
    chan, pmf = discretized_gaussian_channel(1.0, 1.0, 0.2, n_input=40, n_output=60)
    rates = oracles.dmc_rates(chan, pmf, c1=5.0, c2=5.0)
    # independent inputs correspond to rho = 0
    assert rates.mi["I(X1,X2;Y)"] == pytest.approx(rf.f4(p, 0.0), abs=0.02)
    assert rates.r_prime == pytest.approx(rf.f5(p, 0.0), abs=0.02)
    assert rates.df1 == pytest.approx(rf.f4(p, 0.0) - rf.f5(p, 0.0), abs=0.04)


@pytest.mark.parametrize("p1, p2, g, c1, c2", [(1.0, 1.0, 0.2, 5.0, 5.0), (1.0, 2.0, 0.3, 0.4, 0.6), (2.0, 1.0, 0.1, 0.5, 0.3)])
def test_discretized_gaussian_converges_to_the_table(p1, p2, g, c1, c2):
    # independent inputs are rho = 0; each doubling of the bins must not move
    # any of the five DMC rates away from the table's Gaussian rate there
    p = ChannelParams(p1=p1, p2=p2, c1=c1, c2=c2, g=g)
    names = ("df1", "pdfm1", "df2", "pdfdfm2", "pdfpdfm2")
    at_zero = {}
    for name in names:
        branch, _ = schemes.gaussian(p, name)
        at_zero[name] = max(0.0, min(values[0] for values in branch([0.0]).values()))
    errors = []
    for n in (8, 16, 32):
        chan, pmf = discretized_gaussian_channel(p1, p2, g, n_input=n, n_output=3 * n // 2)
        rates = oracles.dmc_rates(chan, pmf, c1=c1, c2=c2)
        errors.append([abs(getattr(rates, name) - at_zero[name]) for name in names])
    for coarse, fine in zip(errors, errors[1:]):
        assert all(f <= c for c, f in zip(coarse, fine)), errors
    assert max(errors[-1]) < 0.02, errors


def test_singular_covariance_detected():
    with pytest.raises(SingularCovariance):
        one_stack_mi(1.0, 1.0, 1.0, 0.1, [((X1,), (X2,), ())])


def test_one_singular_row_of_a_stack_raises():
    cov = oracles._covariances([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.2, 1.0, -0.5], [0.1, 0.1, 0.1])
    oracles._mutual_informations(cov[[0, 2]], [((X1,), (X2,), ())])
    with pytest.raises(SingularCovariance):
        oracles._mutual_informations(cov, [((X1,), (X2,), ())])
