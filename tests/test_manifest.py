"""``canonical_json`` gives the text of ``json.dumps(document, indent=2, sort_keys=True)``.

The renderer writes every JSON output file directly, so it is checked here
against the standard library's encoder: on drawn documents, on values of
subclasses of the JSON types, and on the documents that ``ctp dse`` and
``ctp pareto`` render. The text must be the same on Python 3.10 to 3.13,
so this file imports only pytest, hypothesis and the package.
"""

import collections
import enum
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ctpdse import cli
from ctpdse.manifest import canonical_json


def reference(document):
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


# Text with non-ASCII characters, quotes, backslashes, control characters
# and lone surrogates, all of which the encoder escapes.
TEXT = st.text(st.characters(codec=None, exclude_categories=())
               | st.sampled_from('"\\\n\t\x00\x7f'))
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80)
           | st.floats() | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7])
           | TEXT)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=30,
)


@given(st.dictionaries(TEXT, DOCUMENTS, max_size=5))
@example({})
@example({"empty": [], "none": {}, "tuple": (), "nested": {"": [{}, [], ()]}})
@example({"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "zero": -0.0,
          "subnormal": 5e-324, "big": 1e16, "small": 1e-7, "int": 2**100, "neg": -2**70})
@example({"é": "ü \U0001f600", '"q"': "\\\x00\x1f\x7f", "t": True, "f": False, "n": None})
def test_matches_json_dumps_on_drawn_documents(document):
    assert canonical_json(document) == reference(document)


class Axis(enum.Enum):
    VMAF = "vmaf"


class Text(str):
    pass


class Count(enum.IntEnum):
    TWO = 2


class Real(float):
    def __repr__(self):
        return "not used"


class Items(list):
    pass


class Mapping(dict):
    pass


@pytest.mark.parametrize("value", [
    Text("subé"), Count.TWO, Real(0.1), Real(float("nan")), Real(float("-inf")),
    Items([1, Items([])]), Mapping(b=1, a=Mapping()), collections.OrderedDict(z=1, a=2),
    {Text("k"): Text("v")},
], ids=["str", "int", "float", "float-nan", "float-inf", "list", "dict", "ordered-dict",
        "str-key"])
def test_subclasses_render_as_json_dumps_renders_them(value):
    document = {"value": value}
    assert canonical_json(document) == reference(document)


@pytest.mark.parametrize("document", [{1: "a"}, {"a": {None: 1}}, {"a": [{2.5: 0}]},
                                      {"a": {True: 1}}])
def test_non_str_key_raises_type_error(document):
    with pytest.raises(TypeError):
        canonical_json(document)


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", Axis.VMAF])
def test_value_json_cannot_encode_raises_type_error(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        canonical_json({"value": value})
    with pytest.raises(TypeError, match="is not JSON serializable"):
        reference({"value": value})


def test_matches_json_dumps_on_the_documents_ctp_writes(tmp_path, monkeypatch, capsys):
    """The four seed-7 walks as the benchmark caps them, then ``ctp pareto`` over one of them."""
    documents = []

    def record(document):
        documents.append(document)
        return canonical_json(document)

    monkeypatch.setattr(cli, "canonical_json", record)
    for strategy, cap in (("ea", 64), ("e1", 10), ("ca", 64), ("c1", 6)):
        assert cli.main(["dse", "--strategy", strategy, "--seed", "7", "--sequences", "s01,s02",
                         "--qps", "22,27,32,37", "--max-iter", str(cap), "--backend", "synthetic",
                         "--out", str(tmp_path / strategy)]) == 0
    assert cli.main(["pareto", "--points", str(tmp_path / "ea"), "--out",
                     str(tmp_path / "selection")]) == 0
    capsys.readouterr()
    # Each walk writes a manifest and a result; the selection writes a manifest.
    assert len(documents) == 9
    results = [d for d in documents if "iterations" in d]
    assert len(results) == 4
    assert sum(len(d["evaluated"]) for d in results) == 702
    for document in documents:
        assert canonical_json(document) == reference(document)
