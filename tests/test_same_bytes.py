"""Byte-identity gate: the synthetic walks at seeds 3, 7, 11 and 13 keep their
output files and their ``terminal …`` line, and ``ctp bd`` keeps its output on
tables drawn from the seed-7 model.

The seed-7 walk digests were taken from the program before the anchor curve
was prepared once per run (commit 6834e88), the four-qp ``ctp bd`` digests
before BD integrated a node set's costs in one loop (commit df3d9c2). Those
runs use four qps, so BD builds each test curve's side of the integral with
its four-point builder. One more walk, over five qps, and the ``ctp bd`` table
over five and six qps pin the general builder, which serves every other point
count; one loop integrates the sides of both. The five-qp walk's digests were
taken before the four-point pass existed (commit 71da4d0); those of the five-
and six-qp tables and of the four-qp walks at seeds 3, 11 and 13, at commit
4e2c9af. The gated table's digests, ``ctp bd`` and a cached walk over rows
with five energy readings each, pin the ``measurement:`` lines; they were
taken before the CI gate filtered the exact standard deviation (commit
8ca3438). The digests of ``ctp pareto`` over a seeded points file, of a
failing external walk and of a cached walk that misses a row were taken at
commit 4e5eb7c; the two failing walks pin their ``error:`` lines and exit
codes. Any change to a BD float, the walk, the Pareto selection or the
rendering of these outputs shows here. A change that means to move these bytes
must say so and update the digests. The bytes are the same on Python 3.10 to
3.13, so this file imports only pytest, the package and the shared fixtures.
"""

import hashlib
import math
import random
import sys

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


# sha256 of each of DIGESTED, in order, per (seed, strategy, axis), for the
# uncapped four-qp walks at seeds 3, 11 and 13.
OTHER_SEED_DIGESTS = {
    (3, "ea", "vmaf"): (
        "e688e54ece0f6ac32e9dd29732f8a456aa4cab5d38480980ef96e153a95a628e",
        "b52e5ab26bd5c14702c3dc9b97db09aeb783fa7ddbc1479ff16a4705c9ef7cf2",
        "e4f64804687c8a2bc098be6768941bfbd3c42e930e92da920951d79fe5dadba8",
        "48efd13705c3f50f4f3f79a7b6d4c3ce01811a4e9a0f84d9ed89bf45e1558828",
        "ee96f138e5c980cec318ec180678425ba7df3e881ca8d9948e5d756bd0a8142f",
    ),
    (3, "ea", "psnr"): (
        "cefa7657b951b3400250c383ad8c478e80b0fd2c2967b8f48454758e86513777",
        "052cb302fa0ba122871e1e756d09fcbad42596f755fa70cd2ca783707499db63",
        "f73cbbec8d9b19e5850785d1e8ebe9d03c831eddae84064dc0ef94be87d6e08e",
        "22b1709e6c813b7934ed8d46c28f008198c7ad234a24290b55ee0cb058665728",
        "120aaede768ec3c4577e175192ab9db32388f49cd2d2a29d8b7bba924b161601",
    ),
    (3, "e1", "vmaf"): (
        "1cc4a9a633937e76cab4b9a445b7260dc1cc33e13003c536650c61a79075db60",
        "026c0c073e56ce9d4a44319cfc16a6dc9ad9d3a462cc559e10210db44054c0e6",
        "200882abcb88687bd53fac040496e389007c47a6a5d305d530c307076edafe4b",
        "c5f012b7fe94f1dcbd04166de1817981af8c996bd3b0eaca4b5130e8e9836773",
        "bd8eb119c41725f2aebc18705dc9edb08a501bf726c978ea6d770e06d54bcc60",
    ),
    (3, "e1", "psnr"): (
        "325a6b39ad2d3a3b159b305ea93bd433cba26e7c997c49496b2a9a33ec1fea5e",
        "5db337c7a7ed64c3b23b20d01e67002e344b10c57777e5eddb029e7f14918095",
        "b138f25240ec4f2a805ec3b0c6bfec2e928d3b419c9a99a22af21476719729aa",
        "e7465dab7b4ae5fc86c683cd1fa70b89f1338665412e5c959cc5b9d1173f2cd3",
        "d4cea3d764e418720e3c4ed3f0373035756847f8110d1f508132b45267d5491c",
    ),
    (3, "ca", "vmaf"): (
        "002ff6ffd227eefccc03eb839406f70ea545b88e9818a9bbd088d5d1fad2c213",
        "ea2323dde7c1bf2524a71ead2621f1947517262e07da7cd142c1c0a311c2cbe9",
        "f26e241f5abf62167ce6a5cf8c40c12d75a5e1899d30535bb1a03587bbec6044",
        "9fd70476072d7b5fc44d8332bd8d1e87ab2e55c7c1b6d0280d7e11c5773e2c98",
        "b892a9911b93cb9c6302f8d08bcb038cde2e222b08c6921c63d7ae34ece8636b",
    ),
    (3, "ca", "psnr"): (
        "648ecd7ba766e7475427237e4b96433b9d3a8d1992d961e8a2a3ec65d5dbb413",
        "e0e670e507a77de03bb0cf311ee5d57780f484ca570aeaa6fa42b9aa93f06a36",
        "2c4cab9cd852e5a68952482aa5fecfbbdef8dfdafc1f13265ea0fbe8879648c0",
        "43005b23bacd0ef7a960d420e5508469192ef5a0383685777ead82551ccaf687",
        "5207d4888c7b3f09666a1ffa312b943dff96cb3aba239c49b02872566ba9f7fa",
    ),
    (3, "c1", "vmaf"): (
        "e4d3cf68c4ac9311d9cf6dbf1b7c03e0c78041e9d842898a884763264456b710",
        "366f62cfd2f57952f34e570b01a0cb8c88e7ba23ec670767699abc57b5b41d36",
        "cd0d56fbfd550655648455714cccba6c2eabf93c51645e2906cb1b4f0419ac1b",
        "0744870cc30c39092fba82da7fd8825227f454e2e68c4c01ce298cb4d9c0dc24",
        "c6d4d5ad39789f1265046b7d9ee1c06b505c840ba2d1aa9ebdc3f81417485370",
    ),
    (3, "c1", "psnr"): (
        "5dfa03f5663dac6c2d82deac7d451e6cc6ae0c4a7419340ab4fcca63d690a529",
        "8dbbac6905bed2c91c37f742cb55867167de712b80c1d6e4dcffb36c501e3e1c",
        "7ab7e242ba97ec465351666e10fdaac5edd6aeb83118714f826059f8caea0a23",
        "fbab10a5ab0bb92ff99ae5457b65864203191e53cdea0cc170e1f4c60acc59eb",
        "207d5a2fc9469ddb0bce2807714dd1a0f600a6d065c6d5042790850bb6156678",
    ),
    (11, "ea", "vmaf"): (
        "e2cdc7618b65d746ce505df271da6c352accd97bf17983069dbc84747b181cc9",
        "77459707e719e0523d13a86367ebe16ebd240ef74ffd382d028cb70b4f98fd36",
        "e8e4c9cccd304d99378d8eef5cabced0bd5257765207d268991c356675255d91",
        "821bee3b1a2a7c98f2c1723d9093d3f2702f7ceb6f04fbb6b586101c20469f07",
        "425181842122c90a8b716d3e3d847b27bef3d1663425595ea6c970b7f4975ef1",
    ),
    (11, "ea", "psnr"): (
        "7aadf86190a6adf4ae42cd190b98ad1c18adb6e7ea7f899a8489cc0dbe34d3a8",
        "09d3c99d01864e44d632c60b5a102cad4d4b383dc1d52b4a85ec053c7e88f737",
        "e30e18b1b807363f27cecb81ebc3787593bf4e33fe414c0bbf717d3a2d74dde4",
        "d3b84c754d287ba8de23b7aae95e632663c0eaacd611346ce1b469ed08972d48",
        "1f4b6e1460bc1cd8e2acfe96c9ee2d73ec01f14892ce9a2644e3c69c5341e93e",
    ),
    (11, "e1", "vmaf"): (
        "bd4247de47022d6eb07d55a145953e80e0aba3192ffb18db5a9e83181795f4a2",
        "b20775ec60edcf3ffb4388e24e147f8da01f1861f766c52f4e662e83e14bd101",
        "68ab8c88de06d664ed356bd08c894325fb20ca5eba05ef4530e30a219f9caaaa",
        "440bad47f891c045c79ff28eb9bcde937d5f20b83dcf1698eef4402f11b0cad7",
        "7dcbd27786e0e23095370fdc70d37ab6a27a6b3a6ce868b0230942dabd5bdb81",
    ),
    (11, "e1", "psnr"): (
        "193c0786a66f5ae192342265688fdb2f53407615ae7460c31ea4599963c9c203",
        "6a0bef38ebfa1db24ece8acd3885791ca99f2aac43a3aea0820418b2007be1c3",
        "a7d67a1da2c2870940d0ef13a4e5ef5cd7b28ebb84a45df3eab7975e235dcb24",
        "efa5b2cf7a9beecc0f769f866dca0fedb8bc10506009638cca20e22d8aa10a35",
        "d613f252c2400c69aec1aa9d21c70f3180dc4e089966bae4207a55fbb177c613",
    ),
    (11, "ca", "vmaf"): (
        "3b23d1b06c4e764af4f1e5005df22962777232c48c7f93cc4f0bf96059311761",
        "4c1359c12798a875ac7e83c9adcbfaa0ba04d0cc197a0d3503db3cf7951b87bc",
        "0411aad2b9d0e109cb2e909c721b8bef47e40245113887824b212b2e9206a6aa",
        "4c1ec45441c0c7532419edc3d90d124e2d4f5e92b2985ecacbce401087cc3644",
        "baf86ddf5f65f28931d41bea8899c47ff6c28bb2eb57ae478770aa2350b77d50",
    ),
    (11, "ca", "psnr"): (
        "ba47697be4b54c40e70df817d877b97a5d9367919a57c1d89c7259714fbb7cec",
        "11e140b63e6155596ccdb49e4dfe323e4c23ce3739c93f5dd3ce62b5d250273b",
        "cde06827deb50013e12caa589fdc74a237e55c899189962a114aec6c757106aa",
        "86725de087c2bbbef9af2dd2d704b32484679c841fabfb5f7d148f3a4cb36031",
        "650ddffd64e1f687167c79ecf68c6c67afacb8bddd4220dca49a7e683338b07a",
    ),
    (11, "c1", "vmaf"): (
        "2c1dca7ce5516bc5eff20fc93d71df508c6405aab628da03e7fd89e1a4b40b1b",
        "38f70003ccbe6c1ee97010337024fe76c9f569a8719ba55daa79b7dbd1831f73",
        "bf6b67acd6ed314a3b5af421705dae95f243685da4335c80851ce74bef528507",
        "6531426076f5d413c5f356eb6419166ed2d42b377cbe6332e8cc08abb6a04959",
        "dbf978ecf08b7257f769a3ae58d1bc496d71bcc1d37a12b44034feb1219c0fe5",
    ),
    (11, "c1", "psnr"): (
        "a5522280d4faacafcf7939447c1285a4ea2c3d4c2276f9b10572ef45328d3989",
        "ec41d255eb89bc4a2753149d1da7f91471c0f58d36f4ea5864c2290c8479ea43",
        "e8bd7a4398c68b7d9894a97206664f5d2a47b1ce749f854373427c5c75ccb18e",
        "899d77499573a113c39bd36a9090a2b497dcd4bb4a6f308d22a16c00cb8c8ffd",
        "194accb916808570c938d745c463bb304433f0a849d3d47b5bda41c42284c189",
    ),
    (13, "ea", "vmaf"): (
        "bbca37b8c97de504ac36c9b2628c383b6a1512234a6bbbcd72e59db9830ffdbb",
        "c2a958b57ee04100f96feea63f348b2882e5795b664a6e642aea04f9ca883593",
        "e629b10be7f8eba44c3b9dfba332748563a4040cdce56fdcadca8ba1c3b6f18a",
        "9ca83a0861374208b9c189b1e47c3869022b6b1c0d878cd560d81dcc5141be34",
        "501beec56fe5769c3990ce82cab304f8863d1e0f010159210597a4f4bd8caf14",
    ),
    (13, "ea", "psnr"): (
        "e8e09efe750d6f403acc50ab7b6bd1e58a6bec816c21c0470657a543efd693ee",
        "ac86b24904357c752f027c852adc2874733e1f9c2876853eca66e88b39833bd5",
        "ba04cbb1b8ce1d5ecc006be88858931736b04966cb0e6f975e6284a74efda332",
        "47b1cfb1968b4c443fe6a0881e0464e40cb44dc527c5c0e02c5bd1f43ebbf704",
        "1bd9609033fe0acc1bdfb90a053bfc1a1532f9ffdd87c3284843d8a22287d7a1",
    ),
    (13, "e1", "vmaf"): (
        "fd12141bbb9c3524f1809115fb7091c7d45d1fd3857a1cc0ad38067091d588d7",
        "68ff8903ef8f9a4e8397ba59ed6ddafc1eb003d88ee470220e662104d973e9d4",
        "d7803a2ccd1671811f93c77a04d26734178f6fc0f3661b9c5feb769b94e32b67",
        "208e9169f2239aa4fbaf477ddaee33b28103e800749c9cebb91c8842e662734e",
        "21c771e35f9358d9d5985e0318e694a275be77a8b735a14c483f00b41b95cc5b",
    ),
    (13, "e1", "psnr"): (
        "b02918350de2351f37fa362ee6124a63291fdd9895fd788aa95dc44fe984ad1d",
        "b54608b6931e5a8673f7a001a707716f306355d4bec0e9b7a29afa9773b3f9a0",
        "2023ab8740cd7243cdf0e0ca72163b5769d8616de1a968182febfccadf61d97b",
        "f372cbe5ea9e984d5a8a30b335d45595fd26903a7cc6c80dbb62fc3fe7a62eb3",
        "a0eebfa5d0390df1c95f984bd8e77700d4875b5af6faed533ee54ff935ae3dfb",
    ),
    (13, "ca", "vmaf"): (
        "aa6021733b25b6ec4933e8c4fc49af2a10460dd8489cbc0efa92203f87f32785",
        "1baa7dd0998f39f6a13fe56d06b418555afc37a850598075ae3e9af3abcaf7c7",
        "cc7ff893f57488f1f28ab0fd56eac258ed0d6bf8feee64be39c370b58aca3320",
        "2d311e76b145e54f45158e78beaa6afab8e10beec52baebdda279594d5d283e7",
        "b7a67024915ffb10b3fd4ab4fd9b9e286547b13e98a3dd96680c082a946b9866",
    ),
    (13, "ca", "psnr"): (
        "91cd7d0aaefcb1c570aea03c705ceeb47454a5a6aca7a31dc657481c431a0fad",
        "f7bfc00b486d847666173da52fd304aa8c31f99ecdc7b4359bc95ce8e6200f03",
        "1f1fe03cc59c5b1d005663ab1398bfa9cbb0dc83d2cfdf110fde58b9c1b79e82",
        "e1366d0c986e57d1b95c55c77cc2cb137f9268733750abfa63e9eaab11ed8a1a",
        "c5650576bb138e9c4d48517ed9ce74d34d5ec10395e55918b2bce1f0b73eb9e7",
    ),
    (13, "c1", "vmaf"): (
        "b8a17dfc208f517f5a78e845ce3192ac6b5f27174d2ca139b17b4a110732be1b",
        "715b11e223ca8cf2af53f9c5726fe6e5b589ba9da993d0d29a593ce79ca93d05",
        "87a78e57f9ec1a5c8cd6fa6bac3eea439baacdc4c5ccd2b2c7546c642f4f9ed2",
        "d78a0cba28f5415bd4929279c869aa496f929193f44adf4b145a11caacd49a94",
        "9a2739ba899f884737b458ae0cf835ec694a56d9ae3e2b3cf45f35af51f04467",
    ),
    (13, "c1", "psnr"): (
        "b6cd391f693affcf4f24e0d9b30bafd4b37db3c79cfc20c7084ae926e4cbcc4f",
        "ade6f2f4fbdec1e2e1277f0049594c88a64b40d6d25b26418077effedd7099b7",
        "974e9a666552fdbfbe75acfd99d24c7588187140f408f2533aa62e3d95f0c2df",
        "6c4e5dfcd925df002f76648309682173266cdab4c52a13107d7a1f7af55f451f",
        "0fc645a0db56165446b6cc8546041e41189db765f7e6a1e9b5a2b16ef9317b37",
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


def walk_digests(out, capsys, *flags, seed=7):
    """sha256 of each of DIGESTED after a synthetic ``ctp dse`` at ``seed`` with ``flags``."""
    assert cli.main(["dse", *flags, "--backend", "synthetic", "--seed", str(seed),
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


@pytest.mark.parametrize("seed, strategy, axis", list(OTHER_SEED_DIGESTS))
def test_other_seed_walk_keeps_its_bytes(tmp_path, capsys, seed, strategy, axis):
    digests = walk_digests(tmp_path / "run", capsys, "--strategy", strategy, "--axis", axis,
                           seed=seed)
    assert digests == dict(zip(DIGESTED, OTHER_SEED_DIGESTS[seed, strategy, axis]))


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

# sha256 of (stdout, stderr) of ``ctp bd --axis both --qps …`` on
# ``write_bd_table`` over five and six qps, per qps.
MORE_QP_BD_DIGESTS = {
    (22, 27, 32, 37, 42): (
        "56c681f702c1aca1de9a707d78299e0ef4ec0c70454a1ef1770884f66c71aeff",
        "baa6b487173bd1da814a282a92325b1ec6f0975efa074d9d4a0b06dafb205b40",
    ),
    (22, 27, 32, 37, 42, 47): (
        "32ea5d8fa84aba1d4a378fa0ddde37b4c5617071a86be009d4c250d22123fa32",
        "baa6b487173bd1da814a282a92325b1ec6f0975efa074d9d4a0b06dafb205b40",
    ),
}


def write_bd_table(path, qps=BD_QPS):
    """The anchor, ``BD_TESTS`` random profiles and the thin-overlap one, from the seed-7 model.

    Each profile has one row per sequence and qp in ``qps``. Floats are
    written by ``repr``, so ingest reads back the model's floats. Returns
    the test masks in table order.
    """
    registry = default_registry()
    evaluate = SyntheticModelEvaluator(
        SyntheticModelParams.random(registry, BD_SEQUENCES, qps, seed=7)).evaluate
    rng = random.Random("bd-table-7")
    profiles = [default_ctp(registry)] + [
        Ctp(registry, sum((rng.random() < 0.5) << i for i in range(len(registry))))
        for _ in range(BD_TESTS)
    ]
    rows = [",".join(CSV_HEADER)]
    anchor_curves = []
    for ctp in profiles:
        curves = evaluate(EvaluationRequest(ctp, BD_SEQUENCES, qps))
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


def bd_table_digests(tmp_path, capsys, *flags, qps=BD_QPS):
    """sha256 of (stdout, stderr) of ``ctp bd --axis both`` with ``flags`` on a BD table."""
    table = tmp_path / "m.csv"
    tests = write_bd_table(table, qps)
    argv = ["bd", "--measurements", str(table), "--axis", "both", *flags]
    for mask in tests:
        argv += ["--test", mask]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert "warning: 00000000: bdr_psnr (s01): quality overlap is only" in err
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, err))


def test_seed_7_bd_table_keeps_its_bytes(tmp_path, capsys):
    assert bd_table_digests(tmp_path, capsys) == BD_DIGESTS


@pytest.mark.parametrize("qps", list(MORE_QP_BD_DIGESTS), ids=len)
def test_seed_7_bd_table_over_more_qps_keeps_its_bytes(tmp_path, capsys, qps):
    digests = bd_table_digests(tmp_path, capsys, "--qps", ",".join(map(str, qps)), qps=qps)
    assert digests == MORE_QP_BD_DIGESTS[qps]


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


# The seeded point set of ``ctp pareto``: coordinates scattered above a
# convex front, so that some hundreds of the points are non-dominated,
# and every 150th point repeated, so that duplicates collapse.
PARETO_POINTS = 3000
PARETO_FILES = ("manifest.json", "points.csv", "front.csv")
# sha256 of each of PARETO_FILES and of stdout of ``ctp pareto --points FILE --out DIR``.
PARETO_DIGESTS = (
    "881479ce7cf693407700ee2f5b19d9b3874d0768e9e2bc7ba76c28d5ecce243d",
    "18e104bbca4be5088325ab4e8de1089225d4116b4de9670648e5253a219686dc",
    "daeaa721f2bd347223157a1af769bb69a2646ebe7339889300c2300663843bb2",
    "a6af9f33c649b0d31a87ac6f8124b5dc0d1492b37c0728cb95b0616c4f0f7b11",
)


def write_points(path):
    """``PARETO_POINTS`` seeded (bdr, bdde) rows and their repeats, floats written by ``repr``."""
    rng = random.Random("pareto-points-7")
    points = []
    for _ in range(PARETO_POINTS):
        bdr = rng.uniform(-5.0, 80.0)
        points.append((bdr, -45.0 * (1 - math.exp(-(bdr + 5.0) / 20.0)) + rng.expovariate(1.0)))
    points += points[::150]
    path.write_text("# seeded points\nbdr,bdde\n"
                    + "".join(f"{bdr!r},{bdde!r}\n" for bdr, bdde in points), encoding="utf-8")


def test_pareto_of_a_points_file_keeps_its_bytes(tmp_path, capsys):
    source, out = tmp_path / "points.csv", tmp_path / "sel"
    write_points(source)
    assert cli.main(["pareto", "--points", str(source), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("front 371 of 3020 points (axis vmaf)\n")
    texts = [(out / name).read_bytes() for name in PARETO_FILES] + [stdout.encode()]
    assert tuple(hashlib.sha256(text).hexdigest() for text in texts) == PARETO_DIGESTS


# An encoder for the external backend: each tool that a profile turns off
# moves every cost and quality by a fixed factor or offset. It fails, with
# exit code 1 and a message, at one job, ``FAILED_JOB`` = (profile,
# sequence, qp), which the first
# iteration of an e1 walk on three tools reaches after the anchor and
# profile 6.
FAILED_JOB = ("5", "s02", 27)
ENCODER = """import sys
mask, sequence, qp, out = int(sys.argv[1], 16), sys.argv[2], int(sys.argv[3]), sys.argv[4]
if (sys.argv[1], sequence, qp) == {failed!r}:
    sys.exit(f"encoder stopped at {{sequence}} qp {{qp}}")
k = (qp - 22) // 5
rate, psnr, vmaf, energy = 8000.0 / 1.8 ** k, 42.5 - 2.7 * k, 92.0 - 8.0 * k, 120.0 / 1.35 ** k
if sequence == "s02":
    rate, energy = rate * 1.5, energy * 1.2
for i in range(3):
    if not mask >> i & 1:
        rate, energy = rate * (1.04 + 0.01 * i), energy * (0.9 - 0.05 * i)
        psnr, vmaf = psnr - 0.05 * (i + 1), vmaf - 0.3 * (i + 1)
with open(out, "w") as handle:
    handle.write("qp,bitrate_kbps,psnr_db,vmaf,energy_j,energy_samples\\n")
    handle.write(f"{{qp}},{{rate!r}},{{psnr!r}},{{vmaf!r}},{{energy!r}},\\n")
"""
# sha256 of stderr of the external walk that fails at FAILED_JOB.
FAILED_WALK_DIGEST = "9c281ddd04712b7b583067853294b8cc01d341385d9b5b06f3db9a7e43ca0923"


def test_failing_external_walk_keeps_its_error(tmp_path, capsys):
    registry, encoder = tmp_path / "r.reg", tmp_path / "enc.py"
    registry.write_text("".join(f"T{i:02d},Other,1\n" for i in range(3)), encoding="utf-8")
    encoder.write_text(ENCODER.format(failed=FAILED_JOB), encoding="utf-8")
    # -S: no site module, so each of the 22 jobs starts quickly.
    template = f"{sys.executable} -S {encoder} {{ctp_mask}} {{sequence}} {{qp}} {{out}}"
    assert cli.main(["dse", "--strategy", "e1", "--backend", "external", "--registry",
                     str(registry), "--sequences", "s01,s02", "--max-parallel", "2",
                     "--command-template", template, "--out", str(tmp_path / "run")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: profile 5: (s02, qp 27): command exited with 1;")
    assert hashlib.sha256(err.encode()).hexdigest() == FAILED_WALK_DIGEST


# The row that the cached walk misses: (profile, sequence, qp) of a single
# flip of the anchor, which the first iteration of an e1 walk evaluates.
MISSED_ROW = ("1D", "s02", 32)
# sha256 of stderr of a cached e1 walk on the gated table without MISSED_ROW.
MISSED_WALK_DIGEST = "bd24365f4cd7a8c4ddb24238eb6cf1622cce45cd98097e97230c436a0bcf8d36"


def test_cached_walk_that_misses_a_row_keeps_its_error(tmp_path, capsys):
    registry, table, _ = write_gated_table(tmp_path)
    with open(table, encoding="utf-8") as handle:
        rows = handle.read().splitlines(keepends=True)
    missed = "{},{},{},".format(*MISSED_ROW)
    kept = [row for row in rows if not row.startswith(missed)]
    assert len(kept) == len(rows) - 1
    with open(table, "w", encoding="utf-8") as handle:
        handle.write("".join(kept))
    assert cli.main(["dse", "--strategy", "e1", "--backend", "cached", "--measurements", table,
                     "--registry", registry, "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err.endswith("error: profile 1D: measurement miss: no rows for (sequence=s02, qp=32)\n")
    assert hashlib.sha256(err.encode()).hexdigest() == MISSED_WALK_DIGEST
