import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctpdse.errors import ConfigError
from ctpdse.profiles import (
    Ctp,
    ProfileFormatError,
    RegistryFormatError,
    ToolDescriptor,
    ToolRegistry,
    default_ctp,
    default_registry,
    flip_tool,
    load_registry,
    parse_ctp,
    registry_text,
    serialize_ctp,
)

from conftest import make_registry


class TestDefaultRegistry:
    def test_thirty_tools(self):
        registry = default_registry()
        assert len(registry) == 30
        assert len({t.name for t in registry.tools}) == 30

    def test_category_sizes(self):
        registry = default_registry()
        counts = {}
        for tool in registry.tools:
            counts[tool.category] = counts.get(tool.category, 0) + 1
        assert counts == {
            "Intra": 4,
            "Inter": 11,
            "TransformQuant": 6,
            "InLoopFilter": 5,
            "Other": 4,
        }

    def test_known_tools_present(self):
        names = [t.name for t in default_registry().tools]
        for name in ("CCLM", "DMVR", "ALF", "MCTF", "TSRC", "LFNST"):
            assert name in names

    def test_all_default_enabled(self):
        assert all(t.default_enabled for t in default_registry().tools)

    def test_mask_width(self):
        assert default_registry().mask_width == 8
        assert make_registry(3).mask_width == 1
        assert make_registry(4).mask_width == 1
        assert make_registry(5).mask_width == 2


class TestRegistryValidation:
    def test_duplicate_name_rejected(self):
        with pytest.raises(RegistryFormatError, match="duplicate"):
            ToolRegistry([ToolDescriptor("A", "Other"), ToolDescriptor("A", "Intra")])

    def test_empty_name_rejected(self):
        with pytest.raises(RegistryFormatError, match="empty name"):
            ToolRegistry([ToolDescriptor("", "Other")])

    def test_unknown_category_rejected(self):
        with pytest.raises(RegistryFormatError, match="category"):
            ToolRegistry([ToolDescriptor("A", "Filters")])

    def test_empty_registry_rejected(self):
        with pytest.raises(RegistryFormatError):
            ToolRegistry([])

    def test_index_of_unknown_tool(self):
        with pytest.raises(ProfileFormatError, match="unknown tool"):
            make_registry(3).index_of("NOPE")


class TestDefaultCtp:
    def test_all_enabled_registry_gives_ones(self):
        registry = default_registry()
        ctp = default_ctp(registry)
        assert ctp.mask == 2**30 - 1
        assert serialize_ctp(ctp) == "3FFFFFFF"

    def test_mixed_defaults(self):
        registry = ToolRegistry([
            ToolDescriptor("A", "Other", True),
            ToolDescriptor("B", "Other", False),
            ToolDescriptor("C", "Other", True),
        ])
        assert default_ctp(registry).mask == 0b101


class TestFlip:
    def test_single_bit_flip(self):
        registry = make_registry(3)
        ctp = Ctp(registry, 0b000)
        assert flip_tool(ctp, 1).mask == 0b010

    def test_input_unchanged(self):
        registry = make_registry(3)
        ctp = Ctp(registry, 0b000)
        flip_tool(ctp, 0)
        assert ctp.mask == 0b000

    def test_out_of_range_names_registry_size(self):
        ctp = default_ctp(make_registry(5))
        with pytest.raises(IndexError, match="5 tools"):
            flip_tool(ctp, 5)
        with pytest.raises(IndexError, match="5 tools"):
            flip_tool(ctp, -1)

    def test_anchor_with_dmvr_flipped_is_distance_one(self):
        registry = default_registry()
        anchor = default_ctp(registry)
        flipped = flip_tool(anchor, registry.index_of("DMVR"))
        distance = (anchor.mask ^ flipped.mask).bit_count()
        assert distance == 1

    @given(st.integers(min_value=0, max_value=2**8 - 1), st.integers(min_value=0, max_value=7))
    def test_flip_is_an_involution_and_never_identity(self, value, index):
        registry = make_registry(8)
        ctp = Ctp(registry, value)
        once = flip_tool(ctp, index)
        assert once != ctp
        assert flip_tool(once, index) == ctp


class TestParseSerialize:
    def test_off_empty_is_all_ones(self):
        ctp = parse_ctp("off:", default_registry())
        assert ctp.mask == 2**30 - 1

    def test_off_list_clears_named_bits(self):
        registry = default_registry()
        ctp = parse_ctp("off:DMVR,SAO", registry)
        expected = default_ctp(registry).mask
        expected &= ~(1 << registry.index_of("DMVR"))
        expected &= ~(1 << registry.index_of("SAO"))
        assert ctp.mask == expected

    def test_full_hex_mask_is_all_ones(self):
        registry = default_registry()
        ctp = parse_ctp("3FFFFFFF", registry)
        # independent oracle: print the mask value as a bit string
        bitstring = format(int("3FFFFFFF", 16), "030b")[::-1]
        assert [ctp.mask >> i & 1 for i in range(30)] == [int(ch) for ch in bitstring]
        assert ctp.mask.bit_count() == 30

    def test_mask_is_case_insensitive_on_input(self):
        registry = default_registry()
        assert parse_ctp("3fffffff", registry) == parse_ctp("3FFFFFFF", registry)

    def test_unknown_tool_name(self):
        with pytest.raises(ProfileFormatError, match="NOPE"):
            parse_ctp("off:NOPE", default_registry())

    def test_wrong_mask_length(self):
        with pytest.raises(ProfileFormatError, match="8"):
            parse_ctp("3FFF", default_registry())

    def test_mixed_forms_rejected(self):
        with pytest.raises(ProfileFormatError, match="mixes"):
            parse_ctp("3FFF,off:DMVR", default_registry())

    def test_bits_beyond_registry_rejected(self):
        with pytest.raises(ProfileFormatError, match="beyond"):
            parse_ctp("FFFFFFFF", default_registry())

    def test_non_hex_rejected(self):
        # int(text, 16) takes a sign and underscores; the mask must not.
        for text in ("3FFFFFGZ", "3FFF_FFF", "+FFFFFFF", "-0000000"):
            with pytest.raises(ProfileFormatError, match="invalid hex"):
                parse_ctp(text, default_registry())

    def test_default_profile_round_trips(self):
        registry = default_registry()
        anchor = default_ctp(registry)
        assert parse_ctp(serialize_ctp(anchor), registry) == anchor

    @given(st.integers(min_value=0, max_value=2**30 - 1))
    def test_serialize_parse_round_trip(self, value):
        registry = default_registry()
        ctp = Ctp(registry, value)
        text = serialize_ctp(ctp)
        assert len(text) == 8
        assert parse_ctp(text, registry) == ctp
        # canonical text also round-trips the other way
        assert serialize_ctp(parse_ctp(text, registry)) == text


class TestRegistryFiles:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        registry = default_registry()
        first = tmp_path / "a.reg"
        first.write_text(registry_text(registry), encoding="utf-8")
        loaded = load_registry(first)
        assert loaded == registry
        assert registry_text(loaded).encode() == first.read_bytes()

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "r.reg"
        path.write_text("# a comment\n\nA,Intra,1\nB,Other,0\n")
        registry = load_registry(path)
        assert [t.name for t in registry.tools] == ["A", "B"]
        assert registry.tools[1].default_enabled is False

    def test_bad_field_count_reports_line(self, tmp_path):
        path = tmp_path / "r.reg"
        path.write_text("A,Intra,1\nB,Other\n")
        with pytest.raises(RegistryFormatError, match=":2"):
            load_registry(path)

    def test_bad_default_flag_reports_line(self, tmp_path):
        path = tmp_path / "r.reg"
        path.write_text("A,Intra,yes\n")
        with pytest.raises(RegistryFormatError, match=":1"):
            load_registry(path)

    def test_duplicate_tool_names_the_file(self, tmp_path):
        path = tmp_path / "r.reg"
        path.write_text("A,Intra,1\nA,Other,0\n")
        with pytest.raises(RegistryFormatError,
                           match=f"^{re.escape(str(path))}: duplicate tool name 'A'$"):
            load_registry(path)

    def test_registry_text_is_canonical(self):
        registry = make_registry(2)
        assert registry_text(registry) == "T00,Other,1\nT01,Other,1\n"


class TestCtpModel:
    def test_equality_needs_same_registry(self):
        a = default_ctp(make_registry(4))
        b = default_ctp(make_registry(4))
        assert a == b  # equal registries
        c = Ctp(make_registry(4), 0b0111)
        assert a != c

    def test_wrong_bit_count_rejected(self):
        with pytest.raises(ConfigError, match="^profile mask 0x10 is out of range for a "
                                              "4-tool registry$"):
            Ctp(make_registry(4), 0b10000)
        with pytest.raises(ConfigError, match="^profile mask -0x1 is out of range"):
            Ctp(make_registry(4), -1)

    def test_reprs_name_the_mask_and_the_tool_count(self):
        registry = default_registry()
        assert repr(parse_ctp("off:DMVR", registry)) == "Ctp(3FFFFDFF)"
        assert repr(registry) == "ToolRegistry(30 tools)"

    def test_hashable_for_cache_keys(self):
        registry = make_registry(4)
        seen = {default_ctp(registry): 1}
        assert seen[default_ctp(registry)] == 1
