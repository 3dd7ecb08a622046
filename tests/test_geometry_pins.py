"""Golden pins of Geometry's fields: the SHA-256 of the bytes of config_matrix,
mix_matrix, plane_basis and plane for the bundled configs and for seeded
random layouts.

The hashes were recorded before Geometry computed its fields from one
site-probe distance table, and any later change to how the fields are built
must leave them exactly as they are. The random layouts have 1 to 24 probes
and test masses from 1e-5 to 1e5 kg; the last case puts every site and probe
on one axis, so that the two diagonals of the mix rows are parallel and the
second basis row is zero. A property test checks config_matrix against the
per-pair formula bit for bit on many more layouts.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gravsim import Geometry, load_config

FIELDS = ("config_matrix", "mix_matrix", "plane_basis", "plane")

PROBE_COUNTS = (1, 2, 3, 4, 5, 8, 13, 24)


def random_geometry(k: int) -> Geometry:
    """Layout k of 20: random sites and probes, test mass 10 ** (-5 + 10 k / 19) kg."""
    rng = np.random.default_rng(1800 + k)
    sites = rng.uniform(-0.5, 0.5, (4, 3))
    probes = rng.uniform(-2.0, 2.0, (PROBE_COUNTS[k % len(PROBE_COUNTS)], 3))
    return Geometry(sites, probes, test_mass=10.0 ** (-5.0 + 10.0 * k / 19))


def case(name: str) -> Geometry:
    if name.endswith(".json"):
        return load_config(name).geometry
    if name == "parallel_diagonals":
        sites = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [-3.0, 0.0, 0.0]]
        return Geometry(sites=sites, probes=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    return random_geometry(int(name.removeprefix("random_")))


def digests(geom: Geometry) -> tuple[str, ...]:
    return tuple(hashlib.sha256(getattr(geom, f).tobytes()).hexdigest() for f in FIELDS)


# (case, SHA-256 of config_matrix, mix_matrix, plane_basis, plane)
PINS = {
    "default.json": (
        "e59db37a02dec79c5dfadd9e81ef95f12578abf2508b044ea1ac6c1d49fb23f0",
        "af6f7771329562a6c69713fc45bca476e10732367141ee37dbcdb757a58d62dc",
        "3d30c61e787df7d75fb055e4cf7062f35d4e12c9e85284a2d9761eb4f463d73c",
        "ebe74e3ed92873ad5b339d09a101451fecb4fa02d559e0c6ac6262aa1180e8a7",
    ),
    "page_geilker.json": (
        "e59db37a02dec79c5dfadd9e81ef95f12578abf2508b044ea1ac6c1d49fb23f0",
        "af6f7771329562a6c69713fc45bca476e10732367141ee37dbcdb757a58d62dc",
        "3d30c61e787df7d75fb055e4cf7062f35d4e12c9e85284a2d9761eb4f463d73c",
        "ebe74e3ed92873ad5b339d09a101451fecb4fa02d559e0c6ac6262aa1180e8a7",
    ),
    "random_00": (
        "03f46ad93ce56e3b9d12d76857635ad35ed6bab125a41fc19e0adf73dd2bb16c",
        "b85a942c97d373816180f3e57be67c37b5c006e398cd3967f1e32f3447dbeb71",
        "c415e9c386022d59f48086b60c016463df229d97253a94bea576bf9a60218c2a",
        "dd1dc6febea15caecaa260df5a428b8cb2df65c8917f660872fb408c74a74a97",
    ),
    "random_01": (
        "0151d5545da6f9ccbda7bd304e42b983a36b8319327c5fc340f26b865f4da6b8",
        "a5d24e077f625ef0e6025a70ba6ab02905e66d867723af90d8326b6daf11e46e",
        "b6a937014a37f807d97a0a43d82670c5347070bf2e07603442f4acd7b2287dd7",
        "79cc47e18f2367b999166ac58640920ddea4a97d00de4cc0a30f1da8fe85d05b",
    ),
    "random_02": (
        "f8d72aa8274d9e07316b62a74de88f882d817403bbd49287f345f2f64122ed00",
        "8186119a8e4c24cce46005018c2272336dd331730d5d23440ed81119941a2932",
        "4c3e355707aa49fc55dcb3a1d26387af857f5afcf5026647b064b2beca420df6",
        "59cc3e2ee82d68d530ff30c4176ac922ca8427165d1a6cd12119eb0399e79f0b",
    ),
    "random_03": (
        "d714678ef0f42eb9687a08b14d6501a86733d8a90a5670b2350d8d0218d1ba64",
        "fec8fffb427bab7446d89ba8729358846de7d189a17decbb8cac0458423b0972",
        "399c32502461e010c4a0eed49033ef6689f0d5349d4e95f2761605f4da960c07",
        "7c3ca6f97ae82f294860f3fc91c2ee569de7e3b5f96f15b3bda69f9a473487fc",
    ),
    "random_04": (
        "e1f59d1d7e7e2e2a2d4fbe1a83ee9d3158a902c0c41f02a643b2a9cdbf9db2d8",
        "df134a520ab058e4b4d705c646638090685c6eefefd8e5f3b85e330059a53aba",
        "e3ee0359a508bcd68aa805fd82735cd90fc692d7b3dc169a33cf16a95c913342",
        "2cafc3fdc7ad824ff884fd52f51d7d3bafe3f1765421c315c84b99aadb53fffc",
    ),
    "random_05": (
        "bbf29cf47e964ab79b5a1c055fbd354c55b09a75aec40dce2631c3cc485fa26d",
        "70ab22c81bee9a01bd97083844a01883633fd38e5b3987e964047878dbf14483",
        "8d526850a9de33f73ae7529a8fd98cb62da10cba1b54e7c1c6037ab2c108b2c1",
        "bedab702afd06ef39f82c421bbeec28f0af0128ac56e704722bad47e35dda9c8",
    ),
    "random_06": (
        "723be5e36546e4c62ad079418ab63b441afff212cc96edc4d82c92bf88e552ec",
        "3cf9653228fe733d4940d364222109a404abb1d538d03e24d9fb4857a3d87ad2",
        "91e2191c4a85bcaa160aa7fae5d1100a4b5244ccef4f4f3760484460b34e1987",
        "24ab44afad578a671195ee71994ff181fd2a92d5f135ac59d382265e51f6a5bd",
    ),
    "random_07": (
        "e1e4c4e138c5827135f13072b7af2e55fcba85f36e48d6408fab3519d147d350",
        "fe0192a488b27aab5286b9f1c401640dfd9d942daeb0db7ade68ab824f3215eb",
        "b97d5e7fbc6923fc3afd5d9f2229e2f4f639ea24b800de05136059a655f794c5",
        "a7b0fcd1bca629d68685eb9f8013a2905a2e05d8f16af30f79e6d7755a0a53c1",
    ),
    "random_08": (
        "d968ab25ec866b2c7b525d91e0140026b535309477b18a49a5690e0540158df0",
        "9c0ed38c142f2b7c0e36a9032055df90f531017adfd4448df92ce972188a6aac",
        "46147ec7af011d0fe87757ae8d3ec6f9aa9b94801b5087437544b508b5947235",
        "bba57703b9541b3521e66045ee329fb3e4d503cda62f91b9ff84928158f8d5f5",
    ),
    "random_09": (
        "7ae66a2d04da92f46a7cdfb51ac423a1697fc52238617f6a71d5534cded8f33a",
        "146de9517eb874b1ab480fa454d4ee7128fc38c9ac4422cb4e1b7252378f618d",
        "1c97fbd849b834e947d4c42b7ba802404e8f6dd0be0ffb00e407180b79e60d35",
        "8c1777ccb0b64d8b518a18459b1812beb3c7de371d41dd6fd483d646ac3d3bb0",
    ),
    "random_10": (
        "075a9ae69575c14cbb31bf0165857ff3fb2244dfb73db360947f14445b0e503d",
        "d8d00a61c021868a4b27bd47efdefe8abc8428fc33de8b893279c06ce28681e7",
        "f028900c1a2c786efff757d8c2bc930f345d4fc2f3c948fb53938dedea2afe55",
        "ea73466ca63185f0cb60e8803b8dd7efd8046722fab072ff261048e07b3c9f19",
    ),
    "random_11": (
        "1768bde174009cefe8a101e1fa26d69fa24871dff560b6392972f61ad8b5da2e",
        "d33f1f91a78d7712c00744aab8922126f681a4aa9dcfb13013f1744d2056b435",
        "53452c08d94cf06864b530f17fb1c3cf7a91afa9638f66b156735f1890a6c0c5",
        "5f64ab55cf4b921aa31a61e300095ada63dab80e9e0da10c9967c06c9e480f99",
    ),
    "random_12": (
        "eecc15992247ffed537b2d835f34b73139105c996e64ccaeee944002bbdde0d1",
        "f7a825ea8236a7bf72b48ee7becbea9024b99af5ab3ec24f8d0a7fdb3fbcf929",
        "53ca506c9be00827fe071b6052e24d9c2ae60586f7345f51ebc3cf3ea1ad6fc1",
        "d49339bbe1c2fe36b05ec496a05783e6f1e452b048d9165559de574b16157cf3",
    ),
    "random_13": (
        "106eb3c93320992a761ba540e43cbd1129b55b85fa6a26dfc4de2670aea247cc",
        "78f31ab3db18154ebeae91bfc8b18ee583d78f4af56f3d44f4c0b6690d8dfd80",
        "28c0a27f83af9f1e0e2865301ca4d5850bc124a6921f927640306769d0519f5a",
        "e3dab80a7d00d70d2c04bcdba9cf8b3571856c93e1aa2d0085dc6593a1274443",
    ),
    "random_14": (
        "f5fc70fc4742fb64dc9702849e96f770933b0945327a7550e7ac40f00e9fc750",
        "a2c9e75b273692afb7119a6577c559ddbc8cdc377920e30a6995b404d03bb705",
        "106d6947a37e31510de6be15169715f919cb67905f30c6ed6d1a9193c801727e",
        "87871b8358711eafb8afb879254df9adf0afced37c1cf4d846b9bcf4a9036a48",
    ),
    "random_15": (
        "68741f3528326aca461622ba14190624f8f08362256dd8a1864e612bb346e064",
        "e1e5d0448bf1f09ffd8fd603a3fc63ec9ce5a33c637a3398ea1d1aca16b25afe",
        "13494e128c84e861d900daa6a8f5dab5ec53742ddaf2ba88da07a5db74e2303f",
        "1b76b15706aeb4d242b8ebf468e5f50e378237059d8a4d4c9628ba80cf940e4f",
    ),
    "random_16": (
        "e9246c872eda447068fbd0e42dec222e7a09aad803bcdcd22a964cf92c030487",
        "ab2a6a14be45358d62ee69273f96feb04342c6b39d7a5b711c4ecebab5f76baf",
        "b38080e7ce68ed9d2a99f776ce308870df887cf562b54a6dfaaea77722062b22",
        "39901c8754f2b8c069a4c616d7c3d0bf35685d022dcbff4e2e912eb713d30e48",
    ),
    "random_17": (
        "30dce58264d4afc116a71b1a0e49ea32ca6307e664f6daf779cd415cf5dbdb54",
        "8dafae7d0980a5f5b983463821733b6b065762d6e444d178cb9000a81e6187d4",
        "2434e03acf0bf0f326e76b18cccad77a5de738a45a080b980806ce4a42c7cdb8",
        "b569725a53ed38d5828f1e7a2de2b0125e9ba4215177c9f1c1817fbe7bee5d56",
    ),
    "random_18": (
        "77e36063feec88ade2ddf7ee6f4c13d3f2c5bb28800884a19222c4aaeccaa885",
        "c1036a04e0cb2da8d7bfeaa2d1ee2f2ea97ff318e66d3ba8c9506b3d62f7f6c0",
        "ddca4f349509679ae283ed7778e3ddca6fa89b821fe4c6a07afb7972685229ec",
        "dca19ac90d9b2a2e76abc892d858089eef35709ce91b0e5ae5f9d6cbd785dda4",
    ),
    "random_19": (
        "4edfb65a3e6c3787f479505a6f1d24f152a32ac9e3bdf143ddf9e792411aecb0",
        "76e1efad10a7f68c49f0d28932a772ab0c86e7d31a9df9bb6eae56b03c224501",
        "d9c0181e368ceb0fe0a06e4c893ca7ea404e27383a82b0435e1c7d2e0c524dfc",
        "401f0396762935019fe6bd20afb15bf66ca133d5437d1fbdc1d3c3eda3844ff3",
    ),
    "parallel_diagonals": (
        "a9569392b936eee8435d02e48f2b53c5ad3d0cedc77ce468c053a453952a57bb",
        "50b008b0bd75321fb55b00fa8b862d828f02c4e7d991b7d9ac0dae7c14fbee2e",
        "319d23d3e0519bbfca5e071478925f6565e501ee9ee49d98824a30b38e2f93b3",
        "afd7522baa4ef479502814056afbc902fd673d00da212f1de448e43d7ab6a68a",
    ),
}


@pytest.mark.parametrize("name", list(PINS))
def test_geometry_fields_are_pinned(name):
    assert digests(case(name)) == PINS[name]


def per_pair_config_matrix(geom: Geometry) -> np.ndarray:
    """config_matrix by the scalar formula: np.linalg.norm per offset, then a float cube."""
    rows = []
    for site in geom.sites:
        fields = []
        for probe in geom.probes:
            offset = site - probe
            distance = float(np.linalg.norm(offset))
            fields.append(geom.grav_const * geom.test_mass * offset / distance**3)
        rows.append(np.concatenate(fields))
    return np.array(rows)


coordinate = st.floats(-3.0, 3.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    sites=st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=4, max_size=4),
    probes=st.lists(st.tuples(coordinate, coordinate, coordinate), min_size=1, max_size=6),
    log10_mass=st.floats(-5.0, 5.0),
)
def test_config_matrix_is_the_per_pair_formula(sites, probes, log10_mass):
    sites, probes = np.array(sites), np.array(probes)
    gaps = np.linalg.norm(sites[:, np.newaxis] - probes, axis=2)
    coincide = any(np.array_equal(sites[i], sites[j]) for i in range(4) for j in range(i))
    assume(not coincide and gaps.min() >= 1e-3)
    geom = Geometry(sites, probes, test_mass=10.0**log10_mass)
    assert geom.config_matrix.tobytes() == per_pair_config_matrix(geom).tobytes()
