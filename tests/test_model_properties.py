"""Property tests for the column model's structural invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from crossbar_margin import (
    CellSpec,
    FactorToggles,
    ReadSetup,
    TechnologyProfile,
    read_currents,
)

r_on_values = st.floats(min_value=1e2, max_value=1e9)
ratio_values = st.floats(min_value=1.0, max_value=1e4)
n_values = st.integers(min_value=1, max_value=8192)
v_values = st.floats(min_value=0.01, max_value=2.0)
v_table = st.floats(min_value=0.2, max_value=0.6)


def synthetic_profile(r_unit, r_transistor, i_leak):
    return TechnologyProfile(
        node_label="synthetic",
        r_unit=r_unit,
        r_transistor=r_transistor,
        leakage_table=((0.2, i_leak), (0.6, i_leak * 2)),
    )


@given(r_on=r_on_values, k=ratio_values, n=n_values, v=v_values)
def test_reduction_identity_is_exact(profile22, r_on, k, n, v):
    cell = CellSpec(r_on=r_on, ratio_ideal=k)
    setup = ReadSetup(v, n, FactorToggles(False, False, False))
    assert read_currents(profile22, cell, setup).ratio_effective == cell.ratio_ideal
    assert read_currents(profile22, cell, setup).margin_normalized == 1.0


@given(r_on=r_on_values, k=ratio_values, n=n_values, v=v_table)
def test_effective_ratio_bounded_by_ideal(profile22, r_on, k, n, v):
    cell = CellSpec(r_on=r_on, ratio_ideal=k)
    res = read_currents(profile22, cell, ReadSetup(v_read=v, n_cells=n))
    assert 1.0 <= res.ratio_effective <= k * (1 + 1e-12)
    assert 0.0 < res.margin_normalized <= 1.0 + 1e-12


@given(
    r_on=r_on_values,
    k=ratio_values,
    v=v_table,
    n_pair=st.tuples(n_values, n_values),
)
def test_margin_non_increasing_in_column_length(profile22, r_on, k, v, n_pair):
    n_lo, n_hi = sorted(n_pair)
    cell = CellSpec(r_on=r_on, ratio_ideal=k)
    m_lo = read_currents(profile22, cell, ReadSetup(v, n_lo)).margin_normalized
    m_hi = read_currents(profile22, cell, ReadSetup(v, n_hi)).margin_normalized
    assert m_hi <= m_lo + 1e-12


@given(r_on=r_on_values, k=ratio_values, n=n_values, v1=v_values, v2=v_values)
def test_voltage_independent_without_leakage(profile22, r_on, k, n, v1, v2):
    cell = CellSpec(r_on=r_on, ratio_ideal=k)
    setups = [ReadSetup(v, n, FactorToggles(leakage=False)) for v in (v1, v2)]
    ratios = [read_currents(profile22, cell, s).ratio_effective for s in setups]
    assert ratios[0] == ratios[1]


@given(r_on=r_on_values, n=n_values, v=v_table)
def test_degenerate_cell_keeps_unit_ratio(profile22, r_on, n, v):
    cell = CellSpec(r_on=r_on, ratio_ideal=1.0)
    res = read_currents(profile22, cell, ReadSetup(v_read=v, n_cells=n))
    assert res.ratio_effective == 1.0
    assert res.margin_normalized == 1.0


@given(
    k=st.floats(min_value=1.5, max_value=1e3),
    n=n_values,
    pair=st.tuples(
        st.floats(min_value=1e3, max_value=1e8), st.floats(min_value=1.001, max_value=10.0)
    ),
)
def test_ir_only_margin_increases_with_resistance(profile22, k, n, pair):
    # without leakage the series term hurts low-resistance cells most
    r_lo, factor = pair
    r_hi = r_lo * factor
    setup = ReadSetup(0.2, n, FactorToggles(leakage=False))
    m_lo = read_currents(profile22, CellSpec(r_lo, k), setup).margin_normalized
    m_hi = read_currents(profile22, CellSpec(r_hi, k), setup).margin_normalized
    assert m_hi > m_lo


@given(
    k=st.floats(min_value=1.5, max_value=1e3),
    n=st.integers(min_value=2, max_value=8192),
    pair=st.tuples(
        st.floats(min_value=1e3, max_value=1e8), st.floats(min_value=1.001, max_value=10.0)
    ),
)
def test_leakage_only_margin_decreases_with_resistance(profile22, k, n, pair):
    # with only leakage active, higher resistance starves the off current
    r_lo, factor = pair
    r_hi = r_lo * factor
    setup = ReadSetup(0.2, n, FactorToggles(False, False, True))
    m_lo = read_currents(profile22, CellSpec(r_lo, k), setup).margin_normalized
    m_hi = read_currents(profile22, CellSpec(r_hi, k), setup).margin_normalized
    assert m_hi < m_lo


@settings(max_examples=60)
@given(
    r_on=st.floats(min_value=1e3, max_value=1e8),
    k=st.floats(min_value=1.5, max_value=1e3),
    n=st.integers(min_value=2, max_value=4096),
    base=st.floats(min_value=0.1, max_value=100.0),
    factor=st.floats(min_value=1.01, max_value=10.0),
    which=st.sampled_from(["r_unit", "r_transistor", "i_leak"]),
)
def test_margin_non_increasing_in_each_non_ideality(r_on, k, n, base, factor, which):
    params_lo = {"r_unit": 2.0, "r_transistor": 1500.0, "i_leak": 4e-11}
    params_hi = dict(params_lo)
    scale = {"r_unit": 1.0, "r_transistor": 1e3, "i_leak": 1e-11}[which]
    params_lo[which] = base * scale
    params_hi[which] = base * scale * factor
    cell = CellSpec(r_on=r_on, ratio_ideal=k)
    setup = ReadSetup(v_read=0.2, n_cells=n)
    m_lo = read_currents(synthetic_profile(**params_lo), cell, setup).margin_normalized
    m_hi = read_currents(synthetic_profile(**params_hi), cell, setup).margin_normalized
    assert m_hi <= m_lo + 1e-12


def test_toggle_helpers_roundtrip():
    toggles = FactorToggles(line_resistance=True, transistor_resistance=False, leakage=True)
    setup = ReadSetup(0.2, 64, toggles)
    assert setup.toggles == toggles
    assert FactorToggles().describe() == "r+R_T+I_Tleak"
    assert FactorToggles(False, False, False).describe() == "ideal"
    assert toggles.describe() == "r+I_Tleak"
