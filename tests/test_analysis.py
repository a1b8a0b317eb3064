"""Capacity verdicts, asymptotic gap study, threshold detection, comparisons."""

import math

import pytest

from diamond_wiretap import analysis, rate_functions as rf
from diamond_wiretap.errors import AsymmetricParams
from diamond_wiretap.rate_functions import ChannelParams, RandomnessBudget

# frozen with an independent high-precision evaluation
CAPACITY_P10_C15 = 1.49403001061
RHO_PRIME_P10 = 0.678189370176
WINDOW_P10 = (1.09807935569, 2.17921543992)
WINDOW_P100 = (1.91276292279, 3.82373371036)
MAC_LIMIT_G01 = 1.66096404744   # 0.5 log2(1/g) at g = 0.1
DF_PDF_CROSS_P1 = 0.660964047444  # f4 - f5 at rho = 0, p = 1, g = 0.1


def test_capacity_condition_applies():
    v = analysis.capacity_condition(ChannelParams.symmetric(10.0, 1.5, 0.1))
    assert v.applies
    assert v.capacity == pytest.approx(CAPACITY_P10_C15, abs=1e-9)
    assert v.rho_prime == pytest.approx(RHO_PRIME_P10, abs=1e-9)
    assert v.auxiliary in ("f1", "both")
    assert abs(v.upper_value - v.capacity) <= 1e-6
    assert abs(v.lower_value - v.capacity) <= 1e-6
    # self-consistency: the capacity is the cut value at the matching correlation
    p = ChannelParams.symmetric(10.0, 1.5, 0.1)
    assert v.capacity == pytest.approx(rf.f3(p, v.rho_prime) - rf.f5(p, v.rho_prime), abs=1e-9)
    assert rf.f3(p, v.rho_prime) == pytest.approx(rf.f4(p, v.rho_prime), abs=1e-8)


def test_capacity_window_endpoints():
    v10 = analysis.capacity_condition(ChannelParams.symmetric(10.0, 1.5, 0.1))
    assert v10.condition_lower == pytest.approx(WINDOW_P10[0], abs=1e-9)
    assert v10.condition_upper == pytest.approx(WINDOW_P10[1], abs=1e-9)
    v100 = analysis.capacity_condition(ChannelParams.symmetric(100.0, 2.5, 0.1))
    assert v100.condition_lower == pytest.approx(WINDOW_P100[0], abs=1e-9)
    assert v100.condition_upper == pytest.approx(WINDOW_P100[1], abs=1e-9)
    assert v100.applies


def test_capacity_condition_outside_window():
    low = analysis.capacity_condition(ChannelParams.symmetric(10.0, 0.5, 0.1))
    assert not low.applies
    assert low.capacity is None
    assert "outside" in low.note
    high = analysis.capacity_condition(ChannelParams.symmetric(10.0, 2.5, 0.1))
    assert not high.applies
    # the bounds are still reported for context
    assert low.upper_value > 0.0 and low.lower_value >= 0.0


def test_capacity_condition_rejects_asymmetric():
    with pytest.raises(AsymmetricParams):
        analysis.capacity_condition(ChannelParams(p1=4.0, p2=1.0, c1=1.0, c2=1.0, g=0.1))


def test_pdf_gap_shrinks_with_power():
    rep = analysis.pdf_gap_vs_power(0.1, 1.0, 1.0, [10.0, 100.0, 1000.0, 10000.0])
    gaps = [row.gap for row in rep.rows]
    assert all(gap >= -1e-9 for gap in gaps)
    assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
    assert rep.mac_limit == pytest.approx(MAC_LIMIT_G01, abs=1e-9)
    for row in rep.rows:
        assert row.gap == pytest.approx(row.upper - row.pdf, abs=1e-12)
    # the MAC term climbs toward the g-only limit
    macs = [row.mac_term for row in rep.rows]
    assert all(b >= a - 1e-9 for a, b in zip(macs, macs[1:]))
    assert macs[-1] < rep.mac_limit


def test_pdf_gap_no_eavesdropper_limit():
    rep = analysis.pdf_gap_vs_power(0.0, 1.0, 1.0, [10.0])
    assert rep.mac_limit == math.inf


def test_detect_thresholds_default_scenario_one():
    rep = analysis.detect_thresholds(1.0, 0.1, 1, c_min=0.25, c_max=0.45, steps=11)
    assert rep.scenario == 1
    assert len(rep.crossings) == 1
    cross = rep.crossings[0]
    assert cross.c == pytest.approx(0.330482023722, abs=1e-4)
    assert "pdfm" in cross.schemes and "pdf" in cross.schemes


def test_detect_thresholds_custom_pair():
    # df passes plain pdf where the link rate c reaches f4 - f5 at rho = 0
    rep = analysis.detect_thresholds(
        1.0, 0.1, 1, schemes_a=("df",), schemes_b=("pdf",),
        c_min=0.5, c_max=0.8, steps=16,
    )
    assert len(rep.crossings) == 1
    cross = rep.crossings[0]
    assert cross.c == pytest.approx(DF_PDF_CROSS_P1, abs=1e-4)
    assert cross.schemes == ("df", "pdf")


def test_detect_thresholds_no_crossing():
    rep = analysis.detect_thresholds(
        1.0, 0.1, 1, schemes_a=("df",), schemes_b=("pdfm",),
        c_min=0.1, c_max=0.5, steps=9,
    )
    # multicoded pdf dominates df on this whole stretch
    assert rep.crossings == ()


def test_detect_thresholds_ends_where_float_spacing_exceeds_tol(deadline):
    # a tolerance below the float spacing at a crossing once made the
    # bisection loop forever; it now stops at adjacent floats
    with deadline(20.0):
        fine = analysis.detect_thresholds(1.0, 0.1, 1, steps=21, tol=1e-20)
    coarse = analysis.detect_thresholds(1.0, 0.1, 1, steps=21)
    assert len(fine.crossings) == len(coarse.crossings) == 2
    for a, b in zip(fine.crossings, coarse.crossings):
        assert a.c == pytest.approx(b.c, abs=1e-4)
        assert a.schemes == b.schemes


def test_detect_thresholds_validation():
    with pytest.raises(ValueError):
        analysis.detect_thresholds(1.0, 0.1, 3)
    with pytest.raises(ValueError):
        analysis.detect_thresholds(1.0, 0.1, 1, schemes_a=("nope",))


def test_scheme_name_constants():
    assert analysis.SCENARIO_ONE_SCHEMES == ("df", "pdf", "pdfm")
    assert analysis.SCENARIO_TWO_SCHEMES == ("df", "pdfdfm", "pdfpdfm")


def test_no_secrecy_compare_flags():
    cmp = analysis.no_secrecy_compare(
        ChannelParams.symmetric(10.0, 0.5, 0.1), RandomnessBudget.unbounded(),
    )
    assert cmp.nosecrecy_upper == pytest.approx(1.0, abs=1e-9)
    assert cmp.s1_lower_matches_nosecrecy_upper
    assert cmp.nosecrecy_lower_exceeds_s2_upper
    assert cmp.nosecrecy_lower > cmp.s2.upper.value
