"""Tests for the configuration library (Section 3.1's unified PE)."""

import pytest

from repro.accelerator import (
    CONFIG_LIBRARY,
    AdcArray,
    DacArray,
    PEResources,
    ReconfigurationCost,
    UNIFIED_PE,
    get_config,
)
from repro.accelerator.configurations import service_s, settle_s, switch_s
from repro.errors import ConfigurationError


class TestUnifiedPE:
    def test_section31_inventory(self):
        assert UNIFIED_PE["subtractors"] == 9
        assert UNIFIED_PE["transmission_gates"] == 2
        assert UNIFIED_PE["diodes"] == 5
        assert UNIFIED_PE["comparators"] == 1
        assert UNIFIED_PE["buffers"] == 1
        assert UNIFIED_PE["converters"] == 1

    def test_every_configuration_fits_the_unified_pe(self):
        # The paper's chip-area argument: one PE serves all six
        # functions, so no configuration may exceed the inventory.
        for config in CONFIG_LIBRARY.values():
            assert config.resources.fits_unified_pe(), config.name


class TestLibrary:
    def test_all_six_functions_present(self):
        assert set(CONFIG_LIBRARY) == {
            "dtw",
            "lcs",
            "edit",
            "hausdorff",
            "hamming",
            "manhattan",
        }

    def test_structures_match_fig1(self):
        assert CONFIG_LIBRARY["dtw"].structure == "matrix"
        assert CONFIG_LIBRARY["lcs"].structure == "matrix"
        assert CONFIG_LIBRARY["edit"].structure == "matrix"
        assert CONFIG_LIBRARY["hausdorff"].structure == "matrix"
        assert CONFIG_LIBRARY["hamming"].structure == "row"
        assert CONFIG_LIBRARY["manhattan"].structure == "row"

    def test_dtw_uses_seven_opamps(self):
        # The count the paper's own Section 4.3 formula uses.
        assert CONFIG_LIBRARY["dtw"].resources.op_amps == 7

    def test_memristors_two_per_opamp(self):
        for config in CONFIG_LIBRARY.values():
            assert config.resources.memristors == pytest.approx(
                2 * config.resources.op_amps
            )

    def test_thresholded_functions_flagged(self):
        for name in ("lcs", "edit", "hamming"):
            assert CONFIG_LIBRARY[name].uses_threshold
        for name in ("dtw", "hausdorff", "manhattan"):
            assert not CONFIG_LIBRARY[name].uses_threshold

    def test_decode_modes(self):
        assert CONFIG_LIBRARY["dtw"].decode == "resolution"
        assert CONFIG_LIBRARY["lcs"].decode == "steps"
        assert CONFIG_LIBRARY["edit"].decode == "steps"
        assert CONFIG_LIBRARY["hamming"].decode == "steps"
        assert CONFIG_LIBRARY["manhattan"].decode == "resolution"

    def test_get_config_resolves_aliases(self):
        assert get_config("EdD").name == "edit"
        assert get_config("MD").name == "manhattan"

    def test_get_config_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_config("euclidean")  # registered distance, no hardware

    def test_weight_rules_documented(self):
        for config in CONFIG_LIBRARY.values():
            assert config.weight_rule  # non-empty provenance string


class TestPEResources:
    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            PEResources(op_amps=-1)
        with pytest.raises(ConfigurationError):
            PEResources(op_amps=1, comparators=-1)

    def test_overbudget_pe_detected(self):
        monster = PEResources(op_amps=20, comparators=3)
        assert not monster.fits_unified_pe()


class TestReconfigurationCost:
    def test_tg_only_switch_is_fast(self):
        cost = ReconfigurationCost()
        assert cost.switch_time(0) == pytest.approx(10e-9)

    def test_weighted_switch_dominated_by_writes(self):
        cost = ReconfigurationCost()
        t = cost.switch_time(weighted_pes=100)
        assert t == pytest.approx(10e-9 + 100 * 3 * 1e-6)

    def test_negative_pes_rejected(self):
        with pytest.raises(ConfigurationError):
            ReconfigurationCost().switch_time(-1)


class TestQueryCostRule:
    def test_service_adds_conversion_to_settle(self):
        # 32 samples fit the 256 DAC lanes: one DAC and one ADC sample.
        settle = settle_s("dtw", 16, 12)
        assert settle == pytest.approx(16 * 3.27e-9)
        conversion = 1 / 1.6e9 + 1 / 8.8e9
        assert service_s(
            "dtw", 16, 12, DacArray(), AdcArray()
        ) == pytest.approx(settle + conversion)

    def test_switch_only_off_the_resident_function(self):
        assert switch_s("dtw", "dtw") == 0.0
        assert switch_s(None, "dtw") == pytest.approx(10e-9)
        assert switch_s("dtw", "lcs") == pytest.approx(10e-9)

    def test_uncalibrated_function_rejected(self):
        with pytest.raises(ConfigurationError):
            settle_s("cosine", 8, 8)
