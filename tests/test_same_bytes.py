"""Byte-identity gate: the eight seed-7 synthetic walks keep their output files
and their ``terminal …`` line, and ``ctp bd`` keeps its output on a table drawn
from the seed-7 model.

The walk digests were taken from the program before the anchor curve was
prepared once per run (commit 6834e88), the ``ctp bd`` digests before BD
integrated a node set's costs in one loop (commit df3d9c2). Those runs use
four qps, so BD takes its four-point pass. One more walk, over five qps,
pins the general node-set path; its digests were taken before the
four-point pass existed (commit 71da4d0). The gated table's digests,
``ctp bd`` and a cached walk over rows with five energy readings each, pin
the ``measurement:`` lines; they were taken before the CI gate filtered
the exact standard deviation (commit 8ca3438). Any change
to a BD float, the walk, the Pareto selection or the rendering of these
outputs shows here. A change that means to move these bytes must say so
and update the digests. The bytes are the same on Python 3.10 to 3.13, so
this file imports only pytest, the package and the shared fixtures.
"""

import hashlib
import math
import random

import pytest

from ctpdse import cli
from ctpdse.evaluators import (CSV_HEADER, EvaluationRequest, SyntheticModelEvaluator,
                               SyntheticModelParams)
from ctpdse.profiles import Ctp, default_ctp, default_registry, load_registry, serialize_ctp
from ctpdse.stats import DEFAULT_CONFIDENCE, DEFAULT_REL_HALF_WIDTH, t_quantile

from conftest import BASE_QPS, make_baseline, make_params, make_registry

FILES = ("result.json", "points.csv", "front.csv", "summary.txt")
# The first line of standard output, the ``terminal …`` line; the ``wrote …``
# line after it names the temporary output directory.
DIGESTED = FILES + ("stdout",)

# sha256 of each of DIGESTED, in order, per (strategy, axis).
SEED_7_DIGESTS = {
    ("ea", "vmaf"): (
        "795b75d7e1fd379c4e47f6583caca79952fdb4182393dcb4fe098bb534f85c9c",
        "f38ff0610f06f0e5a5d7f1dfdb08e321725d5bf55f2d3594ef982a6cd1f9a3fe",
        "0e5d0f8eebed3522644564c9539608426fb19b54e2a9d03ad8e9d5e77b22c32d",
        "d109317e91a4b7c83c71d35238020fabda6e79cab2269cae6b268a088c73c292",
        "56377a26a28e3bd9046ef0694c698580d976d7cb836aca1fd34c0a6e02809f78",
    ),
    ("ea", "psnr"): (
        "32390c88f8ac0bf24cfadb3bea05b5e3598a1eff05f756bb67f180eb375882cb",
        "d85e8f4b3a934f3f692b20e354900eafdca2c387c343e48f04e9e42c1b3fb571",
        "16cb48e904c26c6b3ed932fc6fe012720c61c1c6f221fd700c145c1fddef7d62",
        "ba86cee333a3ea97e3d137f0646340f4b059d1f73633b5908d6c92ec9dbefbb4",
        "337a21789eb86fe409771ef1dcba4c56531672d8c052d404b5bd296ab3b4899b",
    ),
    ("e1", "vmaf"): (
        "c63fbc66fe016a63544053586fb6fdfe94467756f0fbc7b9d3eb85313f696efa",
        "4f0278199d08adb801837571761db806b7e73700031da05f0030735e157d39ff",
        "2e2b963855d9eaf5899e8071f1764a50f0f38b7de7ba9833e8e2d2bf6df9b9e6",
        "e68a6579c237f3b68f33b03520aeee409e1c2184ff87d0a6822b31b206252935",
        "bfa70fa1b01b5ea72b0fd5385559a57941175bf7d9005f30decc5ced930f679e",
    ),
    ("e1", "psnr"): (
        "a51eee4821797116ed1f28a458000e8ab1d67aad9e14dd87ea07941aecbcb643",
        "b89ded3f8c235fb9ca30d6c9b3a4bed52dfee69024c280cd8287f787fd969636",
        "446b8305055a3e79b21762546bc6b8196e41a0916a36adb13c7fe60307e209e2",
        "e2d4b482a89a4533a4d7bb2a7d69d85e0ceb7146921205518328d70382fd552a",
        "df40058679eef40ebbf47f7caccf7b1dab55f5495d5d6ab9c8f218d1585301a7",
    ),
    ("ca", "vmaf"): (
        "16cd6ab139c58c64738e877b095fc464f3a793d0a59cf906e198b0573691496b",
        "2461f54c9394d5e8ef8d9907aac81df5611ba8eb32c3888187422c815d8f0aa6",
        "fe4a34cad96e08e7547278ce52b776ac959fb38f8cb93295343774b059cce6f9",
        "b1d839b867dce0aaf74e7610435992d503330727161aa4d486ec4cfc33245211",
        "441383b3e2e5c71b41b2e3b47e81326a8a2f5e0f576ace18b80e0459463239e7",
    ),
    ("ca", "psnr"): (
        "8c9596c0402a93bd276119c221401253e26d95031ba1e56856dc6e5c78c70fe5",
        "d78169712f4d1b7d403f414e72b4ef1af3a2ae613b42288c30200a1be98d5844",
        "e3efda08c82c24617bb697646f0e2a2b0a8c300c5e24b63f2967994dc718ddb0",
        "cc35d1184f4da91418f33d6e546785f014a386efb4ec80230d48275e4d2f856e",
        "fe55c964b9b8e8848ede86cf8e0d2ddbcaf3442511a637d364276ae9827ae956",
    ),
    ("c1", "vmaf"): (
        "f4eaaef775a98d71d4266b9aabcfcf423e46fb3556be714c0f036a8c5d76c1e8",
        "cb10632441bdc695f3cd475954fe2561f7a9651636204937d3787c3668942b26",
        "068570b315127f881f5660276aa3204f6f231df6afe8abda3e682aaad52923e4",
        "58430f0668164bf03b9e83a7f2e9a2c8288c9dde441a7ec39b867f6c8115ff8b",
        "e01ddf12fa97c2f4c99e6a408c76c1507962289f30037a9bf1221ecd20084586",
    ),
    ("c1", "psnr"): (
        "50c91271a060652e0fcc5f1e4fd9e5c35aef1c0604302d04f57e131fb5c0a281",
        "64a0ff0230b5a54b5efaf395290b1c6c68b5dfee14c39926f440a07dc4168fc0",
        "edf539a30ae567ea3123896421a7258906bbb89bed881f3a0bb58a868b50f43a",
        "e6fffd92d947aa8b1c299b3098207c4f6631a848a4f3d529d6704e96b6e61fd2",
        "00f2448308c0ea6df81ab2520993ade7f4411dbf6894037943b5ddaa22ea5907",
    ),
}


def test_synthetic_quality_deltas_add_left_to_right():
    # Left to right, 1e16 + 1.0 rounds back to 1e16 and the deltas cancel;
    # sum() compensates float sums since Python 3.12 and would shift PSNR by 1.
    params = make_params(3, dq_psnr=(1e16, 1.0, -1e16))
    request = EvaluationRequest(default_ctp(make_registry(3)), ("s01",), BASE_QPS)
    (curve,) = SyntheticModelEvaluator(params).evaluate(request)
    assert [p.psnr for p in curve.points] == list(make_baseline().psnr)


# sha256 of each of DIGESTED for the e1 walk on VMAF over qps 22 to 42.
FIVE_QP_DIGESTS = (
    "c714797705e7136fa76c681cadb8bb92726b18d657b1f0e573b8f2150531dccd",
    "d8010f44e5d5c7844fdca4dffc9450cb47d8773f87a2253ac3fef66d672dcf90",
    "3fe1c0ac604885ae37739be76e5c0379e961fe6ef200bda56f7ac37fc22fbce6",
    "96a608e9a6e75536712fa7575f0edeb44245679729b53bab40c562b626833af1",
    "c7578b38b232d7f94cce4b9925999a3068abb8610f9656eae989e6331c443c0a",
)


def walk_digests(out, capsys, *flags):
    """sha256 of each of DIGESTED after a seed-7 synthetic ``ctp dse`` with ``flags``."""
    assert cli.main(["dse", *flags, "--backend", "synthetic", "--seed", "7",
                     "--out", str(out)]) == 0
    terminal = capsys.readouterr().out.splitlines()[0]
    texts = [(out / name).read_bytes() for name in FILES] + [terminal.encode()]
    return dict(zip(DIGESTED, (hashlib.sha256(text).hexdigest() for text in texts)))


@pytest.mark.parametrize("strategy, axis", list(SEED_7_DIGESTS))
def test_seed_7_walk_keeps_its_bytes(tmp_path, capsys, strategy, axis):
    digests = walk_digests(tmp_path / "run", capsys, "--strategy", strategy, "--axis", axis)
    assert digests == dict(zip(DIGESTED, SEED_7_DIGESTS[strategy, axis]))


def test_seed_7_five_qp_walk_keeps_its_bytes(tmp_path, capsys):
    digests = walk_digests(tmp_path / "run", capsys, "--strategy", "e1", "--axis", "vmaf",
                           "--qps", "22,27,32,37,42")
    assert digests == dict(zip(DIGESTED, FIVE_QP_DIGESTS))


BD_SEQUENCES = ("s01", "s02")
BD_QPS = (22, 27, 32, 37)
BD_TESTS = 20
# Mask of the table's thin-overlap profile: the anchor's rates and
# energies at a PSNR moved up by 95% of the anchor's PSNR span.
THIN_MASK = "00000000"

# sha256 of (stdout, stderr) of ``ctp bd --axis both`` on ``write_bd_table``.
BD_DIGESTS = (
    "50fbb5ea459fc362bc1dfe34ac56f5c221b520d32b4a87660e19c0a6500bfab6",
    "baa6b487173bd1da814a282a92325b1ec6f0975efa074d9d4a0b06dafb205b40",
)


def write_bd_table(path):
    """The anchor, ``BD_TESTS`` random profiles and the thin-overlap one, from the seed-7 model.

    Floats are written by ``repr``, so ingest reads back the model's
    floats. Returns the test masks in table order.
    """
    registry = default_registry()
    evaluate = SyntheticModelEvaluator(
        SyntheticModelParams.random(registry, BD_SEQUENCES, BD_QPS, seed=7)).evaluate
    rng = random.Random("bd-table-7")
    profiles = [default_ctp(registry)] + [
        Ctp(registry, sum((rng.random() < 0.5) << i for i in range(len(registry))))
        for _ in range(BD_TESTS)
    ]
    rows = [",".join(CSV_HEADER)]
    anchor_curves = []
    for ctp in profiles:
        curves = evaluate(EvaluationRequest(ctp, BD_SEQUENCES, BD_QPS))
        anchor_curves = anchor_curves or curves
        rows += [f"{serialize_ctp(ctp)},{c.sequence},{p.qp},{p.bitrate!r},{p.psnr!r},"
                 f"{p.vmaf!r},{p.energy!r}," for c in curves for p in c.points]
    for curve in anchor_curves:
        psnr = [p.psnr for p in curve.points]
        shift = 0.95 * (max(psnr) - min(psnr))
        rows += [f"{THIN_MASK},{curve.sequence},{p.qp},{p.bitrate!r},{p.psnr + shift!r},"
                 f"{p.vmaf!r},{p.energy!r}," for p in curve.points]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return [serialize_ctp(ctp) for ctp in profiles[1:]] + [THIN_MASK]


def test_seed_7_bd_table_keeps_its_bytes(tmp_path, capsys):
    table = tmp_path / "m.csv"
    tests = write_bd_table(table)
    argv = ["bd", "--measurements", str(table), "--axis", "both"]
    for mask in tests:
        argv += ["--test", mask]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert "warning: 00000000: bdr_psnr (s01): quality overlap is only" in err
    assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, err)) == BD_DIGESTS


# The gated table's profiles: every mask of a five-tool registry, so a
# cached walk over it never misses a row.
GATED_REGISTRY = "".join(f"T{i:02d},Other,1\n" for i in range(5))
GATED_SAMPLES = 5
# Offsets of the five readings around the model's energy, in steps of a
# row's relative spread ``a``: their sample stdev is ``a * energy * sqrt(2.5)``.
GATED_STEPS = (-2, -1, 0, 1, 2)

# sha256 of (stdout, stderr) of ``ctp bd --axis both`` on ``write_gated_table``.
GATED_BD_DIGESTS = (
    "8f6d7e984dccfaaa662fd702a724965b61533d0c0acf09b8bdb932fb57444042",
    "7ebb54d5311f0eeb5543705f8b96e484beb1a64c9e148f7b779f071a0d8614b8",
)
# sha256 of each of the five files and of stderr of a cached ``ca`` walk on it.
GATED_FILES = ("manifest.json",) + FILES
GATED_DSE_DIGESTS = (
    "abe24df1d96150fd0bebdb6ba8d0e51e8ef2d823220d3f8118f1689c1f2433cf",
    "7db4e41e38db76f9aae634813f0b25406cfeef620b25506ca94ef21a1c07b703",
    "d5ee0ac6dce638239c3c527172b527e334c0364c83d462f76e65c754418e92ca",
    "83bc05312ecc26c506f772f58023233ffe1aa2dc4e32e4c09ca80d3d413812eb",
    "a4b25ad8c274181dce783100cb23056d0d38132b9f1dff018338a87d1f70cf1f",
    "7ebb54d5311f0eeb5543705f8b96e484beb1a64c9e148f7b779f071a0d8614b8",
)


def write_gated_table(tmp_path):
    """A registry file and a table of its 32 profiles from the seed-7 model, five readings a row.

    Each row's relative spread is drawn from five kinds: well inside the
    CI bound, well outside it, ``1e-9`` inside and outside the spread at
    which the half-width equals ``DEFAULT_REL_HALF_WIDTH`` of the mean,
    and that spread itself, where rounding decides the verdict.
    ``energy_j`` is the gate's mean. Returns the registry and table paths
    and the non-anchor masks.
    """
    registry_path = tmp_path / "r.reg"
    registry_path.write_text(GATED_REGISTRY, encoding="utf-8")
    registry = load_registry(registry_path)
    evaluate = SyntheticModelEvaluator(
        SyntheticModelParams.random(registry, BD_SEQUENCES, BD_QPS, seed=7)).evaluate
    q = t_quantile((1 + DEFAULT_CONFIDENCE) / 2, GATED_SAMPLES - 1)
    edge = DEFAULT_REL_HALF_WIDTH * math.sqrt(GATED_SAMPLES / 2.5) / q
    spreads = (0.003, 0.02, edge * (1 - 1e-9), edge * (1 + 1e-9), edge)
    rng = random.Random("gated-table-7")
    rows = [",".join(CSV_HEADER)]
    for mask in range(1 << len(registry)):
        ctp = Ctp(registry, mask)
        for curve in evaluate(EvaluationRequest(ctp, BD_SEQUENCES, BD_QPS)):
            for p in curve.points:
                a = rng.choice(spreads)
                samples = [p.energy * (1 + step * a) for step in GATED_STEPS]
                rows.append(f"{serialize_ctp(ctp)},{curve.sequence},{p.qp},{p.bitrate!r},"
                            f"{p.psnr!r},{p.vmaf!r},{math.fsum(samples) / GATED_SAMPLES!r},"
                            + ";".join(map(repr, samples)))
    table = tmp_path / "m.csv"
    table.write_text("\n".join(rows) + "\n", encoding="utf-8")
    anchor = serialize_ctp(default_ctp(registry))
    tests = [serialize_ctp(Ctp(registry, m)) for m in range(1 << len(registry))]
    return str(registry_path), str(table), [m for m in tests if m != anchor]


def test_gated_bd_table_keeps_its_bytes(tmp_path, capsys):
    registry, table, tests = write_gated_table(tmp_path)
    argv = ["bd", "--measurements", table, "--registry", registry, "--axis", "both"]
    for mask in tests:
        argv += ["--test", mask]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert len(lines) == 32 * len(BD_SEQUENCES) * len(BD_QPS)
    assert {line.split(": ")[2].split(":")[0] for line in lines} == {"pass", "fail"}
    assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, err)) \
        == GATED_BD_DIGESTS


def test_gated_cached_walk_keeps_its_bytes(tmp_path, capsys):
    registry, table, _ = write_gated_table(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["dse", "--strategy", "ca", "--backend", "cached", "--measurements", table,
                     "--registry", registry, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    texts = [(out / name).read_bytes() for name in GATED_FILES] + [err.encode()]
    assert tuple(hashlib.sha256(text).hexdigest() for text in texts) == GATED_DSE_DIGESTS
