"""Golden corpus: SHA-256 digests of CLI stdout that must stay byte-identical.

The digests were recorded from a build whose output was checked by the rest
of the suite; a faster kernel or emitter must reproduce every byte.  Running
this file as a script prints the table for the current build:

    PYTHONPATH=src python tests/test_golden.py

Regenerate only when an output change is intended and reviewed.  ``ERRORS``
pins bad input the same way: the exit code and the whole of stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex

import pytest

from unival.cli import run

FORMATS = ("plain", "json", "latex")
DIMENSIONS = (2, 5, 8)
PHIS = ("1", "t - 3/2*s", "s^2 - 1/3*t^3 + 5/7*s*t")
SO_PHIS = ("1", "2*t - 1/3*t^3 + t^4")
# Bad input: the exit code and the whole of stderr, with nothing on stdout.
ERRORS: dict[str, tuple[int, str]] = {
    "reduce --n 0 t": (1, "error: complex dimension n must be >= 1\n"),
    "reduce --n 2 s^1.5": (
        1,
        "error: position 3: unexpected character '.' (expected a digit, 's', 't', or an operator)\n",
    ),
    "basis --n 3 --degree 99": (1, "error: degree must lie in 0..6, got 99\n"),
    "matrix --n 0 --k 0 --which P": (1, "error: complex dimension n must be >= 1\n"),
    "matrix --n 0 --k 0 --which Q": (1, "error: complex dimension n must be >= 1\n"),
    "matrix --n 5 --k -1 --which A": (1, "error: requires k >= 0 and 2k+1 <= n, got n=5, k=-1\n"),
    "matrix --n 5 --k -1 --which companion": (1, "error: requires 0 <= 2k <= n-1, got n=5, k=-1\n"),
    "matrix --n 5 --k -1 --which Q": (1, "error: kinematic matrix requires 0 <= 2k <= n, got n=5, k=-1\n"),
    "reduce --n 2 s^²": (
        1,
        "error: position 2: unexpected character '²' (expected a digit, 's', 't', or an operator)\n",
    ),
    "check --n-max 0": (1, "error: --n-max must be >= 1\n"),
    "positivity --n-max 0": (1, "error: --n-max must be >= 1\n"),
}


def _cases() -> dict[str, list[list[str]]]:
    cases: dict[str, list[list[str]]] = {}
    for n in DIMENSIONS:
        top = 2 * n
        reduce_inputs = (
            f"s^{n // 2 + 1}*t^{n % 2 + 1} - 2/3*t^{top - 1} + 7/5*s*t^{n} + t^{top + 4} - 1/11",
            f"3/1024*s^{n - 1}*t^2 - 9/1000*s^{n - 2}*t^4 + 5/7*s^{n}*t + t^{top + 1}",
            f"t^{top + 1} + s^{n + 1}",
        )
        mul_inputs = (
            ("s - 1/2*t^2", "t^3 + 3/4*s*t"),
            (f"t^{n} - 2/9*s", f"s^{n // 2 + 1} + 1/13*t^{n - 1}"),
        )
        for fmt in FORMATS:
            flag = ["--format", fmt]
            for d in (n, n + 1):
                cases.setdefault("basis", []).append(["basis", "--n", str(n), "--degree", str(d), *flag])
            for text in reduce_inputs:
                cases.setdefault("reduce", []).append(["reduce", "--n", str(n), *flag, text])
            for left, right in mul_inputs:
                cases.setdefault("mul", []).append(["mul", "--n", str(n), *flag, left, right])
            for which in ("P", "Q", "A", "R", "companion"):
                # A, R and the companion need 2k+1 <= n; P and Q need 2k <= n
                k_max = n // 2 if which in ("P", "Q") else (n - 1) // 2
                for k in sorted({1, k_max}) if k_max else ():
                    cases.setdefault("matrix", []).append(
                        ["matrix", "--n", str(n), "--k", str(k), "--which", which, *flag]
                    )
            for phi in PHIS:
                cases.setdefault("kinematic", []).append(["kinematic", "--n", str(n), "--phi", phi, *flag])
    for fmt in FORMATS:
        flag = ["--format", fmt]
        # n = 12 pins the tensor kernel above the n <= 8 of the property tests
        for phi in PHIS:
            cases["kinematic"].append(["kinematic", "--n", "12", "--phi", phi, *flag])
        for phi in SO_PHIS:
            cases.setdefault("kinematic-so", []).append(["kinematic", "--so", "4", "--phi", phi, *flag])
        for n, k in ((3, 0), (4, 2), (6, 6)):
            cases.setdefault("son", []).append(["son", "--n", str(n), "--k", str(k), *flag])
    cases["check"] = [["check", "--n-max", "4", "--format", fmt] for fmt in ("plain", "json")]
    cases["positivity"] = [["positivity", "--n-max", "6", "--format", fmt] for fmt in ("plain", "json", "csv")]
    # n = 40 pins the scan far past the range the suite re-checks by elimination
    cases["positivity"].append(["positivity", "--n-max", "40", "--format", "csv"])
    return cases


def stdout_digest(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run(argv)
    assert code == 0, (argv, code)
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


GOLDEN: dict[str, str] = {
    'basis --n 2 --degree 2 --format plain': '9175de4338a28cac04cc2c5f046774deb1994e42510eb9bc0dca2373823cd18b',
    'basis --n 2 --degree 3 --format plain': '9604d90bf2ac1778519dd5dcd3731c5a19b689ae332f4b2246fdf5a7b6689f0d',
    'basis --n 2 --degree 2 --format json': '0ec62c68ffb7f8a85d68ba9e8e2a614429d63c6967d6033538f29661a6c17829',
    'basis --n 2 --degree 3 --format json': '670f9ee1512ea67a024e1bc6fdd5e5bab9484aceb1c8efe8964f9b50f6718878',
    'basis --n 2 --degree 2 --format latex': '9175de4338a28cac04cc2c5f046774deb1994e42510eb9bc0dca2373823cd18b',
    'basis --n 2 --degree 3 --format latex': '9604d90bf2ac1778519dd5dcd3731c5a19b689ae332f4b2246fdf5a7b6689f0d',
    'basis --n 5 --degree 5 --format plain': 'edabbe93b1a2997c4e56382905b1ba1349a3a80afdb29800f6188ddc881b7392',
    'basis --n 5 --degree 6 --format plain': '7787e6584a7b6e23c34eca0f8c45c24c74945442a8eda939e22e2470a4ede319',
    'basis --n 5 --degree 5 --format json': 'aef2e4271d4fcaf60a15531a03fcb7e77af013fb9fb48a13c78265e63748574a',
    'basis --n 5 --degree 6 --format json': 'a2a7b33bb817bdf9f19e32d567487d13d096f90165dae91572f9aded9215363c',
    'basis --n 5 --degree 5 --format latex': '412f0a39d1bd04a7d30d2e5beb3b516e528478d1bceca948a73c7eae35bf1a98',
    'basis --n 5 --degree 6 --format latex': '55dc25900d9096f157c95a54032e548d94d63b7c8749fad06cb67a225a894284',
    'basis --n 8 --degree 8 --format plain': '054b72eac2517f8694623917ea4723dd92fd695e11b97e9ab6b8c98209a4e592',
    'basis --n 8 --degree 9 --format plain': '794a2ed66af90d8466eeb5687f2fe553d5778fea382411e460ba370d79dadea4',
    'basis --n 8 --degree 8 --format json': '02ec88e43b4d3efca6cf607e4d71ceb1496e90ee68a3c43d682091c74490608e',
    'basis --n 8 --degree 9 --format json': '7038661fcf951b050c2385b71f563b881cd7b38037b0bbac45228c99a3793751',
    'basis --n 8 --degree 8 --format latex': '84c3b0124f8cd56a43b4ea9ab994a56fc4251f00557cb8eb5e83aeda352e93cb',
    'basis --n 8 --degree 9 --format latex': '6175dd6d82cf1b865bff6e9426073629f2c76ac51e3828af14ab05bd8368ce8d',
    "reduce --n 2 --format plain 's^2*t^1 - 2/3*t^3 + 7/5*s*t^2 + t^8 - 1/11'": '288f11b7a02cf24709b4272b58100d80a6ae199f6813b55682799ce8ba9632a6',
    "reduce --n 2 --format plain '3/1024*s^1*t^2 - 9/1000*s^0*t^4 + 5/7*s^2*t + t^5'": 'a7531f7f4c43df96a2d64c0f8eb5ddc32600712ce9b9f483399409276aa77be4',
    "reduce --n 2 --format plain 't^5 + s^3'": '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    "reduce --n 2 --format json 's^2*t^1 - 2/3*t^3 + 7/5*s*t^2 + t^8 - 1/11'": 'beaff20d1081b9d44cdd5cd651db92280ddfe038a1b7109a7997d35415763f4a',
    "reduce --n 2 --format json '3/1024*s^1*t^2 - 9/1000*s^0*t^4 + 5/7*s^2*t + t^5'": '96d57048cc824ad9eb9f4dd82b4da55bfb9b1e5c5abdc16e8362e4c985584cb6',
    "reduce --n 2 --format json 't^5 + s^3'": '0e7bfd4eee2fe0f01230045601a0c719064be97e2527a508e8c8084e04cbbc8a',
    "reduce --n 2 --format latex 's^2*t^1 - 2/3*t^3 + 7/5*s*t^2 + t^8 - 1/11'": '48e5dca553f64fdecd52fa39ddc7347e75e2d1323a8358e9506c36b9b593acb4',
    "reduce --n 2 --format latex '3/1024*s^1*t^2 - 9/1000*s^0*t^4 + 5/7*s^2*t + t^5'": '3760c82a91619c793e6d50d4614f95f4b319133ff8d6c5004f0cf3fed6e004d1',
    "reduce --n 2 --format latex 't^5 + s^3'": '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    "reduce --n 5 --format plain 's^3*t^2 - 2/3*t^9 + 7/5*s*t^5 + t^14 - 1/11'": '4ac1ff155bf4ba9f7ed9da5ea843f9a769fbafc2bd43f21114880035754e3f95',
    "reduce --n 5 --format plain '3/1024*s^4*t^2 - 9/1000*s^3*t^4 + 5/7*s^5*t + t^11'": '34146bbda937b528be7f18400d53e8ed280b5549fb71fb146199fdd2b1060782',
    "reduce --n 5 --format plain 't^11 + s^6'": '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    "reduce --n 5 --format json 's^3*t^2 - 2/3*t^9 + 7/5*s*t^5 + t^14 - 1/11'": '243a23e109ec6ba21e3befbc7fedbc3ab33501ad0dc451a3dd44e84be96d6e8f',
    "reduce --n 5 --format json '3/1024*s^4*t^2 - 9/1000*s^3*t^4 + 5/7*s^5*t + t^11'": 'c44e4ef7e06e9c3cb291a38434da5c1f3ab8a45a1dbec4bf3b695f356a3df59d',
    "reduce --n 5 --format json 't^11 + s^6'": '23b5c51f63677382ca18ca7ab36eac1742355afc62f88196c4269a7343b106fc',
    "reduce --n 5 --format latex 's^3*t^2 - 2/3*t^9 + 7/5*s*t^5 + t^14 - 1/11'": 'cf67de77a5ef416c5ef15a2a14e81ad628fa62e1e51908eef71cc45bbe87a2e1',
    "reduce --n 5 --format latex '3/1024*s^4*t^2 - 9/1000*s^3*t^4 + 5/7*s^5*t + t^11'": 'e30d8a74eeb76a0a22235fc63c7084eac22ebb7d68f7833dcc863b378283333f',
    "reduce --n 5 --format latex 't^11 + s^6'": '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    "reduce --n 8 --format plain 's^5*t^1 - 2/3*t^15 + 7/5*s*t^8 + t^20 - 1/11'": '602af57eb28e9edb9945391ab7c1e9de7cda5e2607b6ce76573570f5a34a91b1',
    "reduce --n 8 --format plain '3/1024*s^7*t^2 - 9/1000*s^6*t^4 + 5/7*s^8*t + t^17'": '41d128be938f0e7fd8f3b743deb8742e99b8acf67f673d34aabbff6f762ce834',
    "reduce --n 8 --format plain 't^17 + s^9'": '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    "reduce --n 8 --format json 's^5*t^1 - 2/3*t^15 + 7/5*s*t^8 + t^20 - 1/11'": 'c7420a3c98a1ff3e6a3c9518c3ea16b04b7ccb2cbe897222273f27f49eed51af',
    "reduce --n 8 --format json '3/1024*s^7*t^2 - 9/1000*s^6*t^4 + 5/7*s^8*t + t^17'": '0faeeaccbaf02aa29bf091f25a29f3a0d4018bd540d0ee985bd3b192914c202c',
    "reduce --n 8 --format json 't^17 + s^9'": '4332d84cd2b2f1cd2a30a327a9382c53a421aa26d7fb86f85c59005a96d0e3b3',
    "reduce --n 8 --format latex 's^5*t^1 - 2/3*t^15 + 7/5*s*t^8 + t^20 - 1/11'": '75caa7fe6d57dbcca063873cdea9614d903e8497d81d3c193f1fede0445f0059',
    "reduce --n 8 --format latex '3/1024*s^7*t^2 - 9/1000*s^6*t^4 + 5/7*s^8*t + t^17'": '3d8ba90fb46a7884db3d1567d9a68c301c83fb215777765fa11d1a3c0bacc89b',
    "reduce --n 8 --format latex 't^17 + s^9'": '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    "mul --n 2 --format plain 's - 1/2*t^2' 't^3 + 3/4*s*t'": '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    "mul --n 2 --format plain 't^2 - 2/9*s' 's^2 + 1/13*t^1'": '7fa98130d035a1626505b23df54f2a4b5a6c9eb4547d1a4467b0f828ba6e0a44',
    "mul --n 2 --format json 's - 1/2*t^2' 't^3 + 3/4*s*t'": '0e7bfd4eee2fe0f01230045601a0c719064be97e2527a508e8c8084e04cbbc8a',
    "mul --n 2 --format json 't^2 - 2/9*s' 's^2 + 1/13*t^1'": '5504e88584a60111d72f62343c1dcee78d9fdcd0c1148bd76fe84934bf296af9',
    "mul --n 2 --format latex 's - 1/2*t^2' 't^3 + 3/4*s*t'": '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa',
    "mul --n 2 --format latex 't^2 - 2/9*s' 's^2 + 1/13*t^1'": '2b2f64928d89988f95a56f4da9552dda2a510014e8334d5fb9bd36d916011e67',
    "mul --n 5 --format plain 's - 1/2*t^2' 't^3 + 3/4*s*t'": '2fd995c47a119b63ed04d16e52d9e17f32f7ff75c04cc33bb5295a59e788c516',
    "mul --n 5 --format plain 't^5 - 2/9*s' 's^3 + 1/13*t^4'": 'e211515ab2cab6fb86b6e27d2486d5511fd877df75eceb76ace8a81b89a76043',
    "mul --n 5 --format json 's - 1/2*t^2' 't^3 + 3/4*s*t'": '434f62fd255a13cad9d83145995f750b2aa6608b47701582fe30f2dc848b0556',
    "mul --n 5 --format json 't^5 - 2/9*s' 's^3 + 1/13*t^4'": '36e2618badc820e5c04851f2b08c547422d4989df38dc28622b03ecf5da2b428',
    "mul --n 5 --format latex 's - 1/2*t^2' 't^3 + 3/4*s*t'": '49ee05c7b3572cf2fd1de5c7339af4b60508c17fdf2f5e7add6cb4eea8434c61',
    "mul --n 5 --format latex 't^5 - 2/9*s' 's^3 + 1/13*t^4'": '6c29fa0e849533321a89455a24a90f12d2d5a534e7aa25b0b5f8fa12651ce0a3',
    "mul --n 8 --format plain 's - 1/2*t^2' 't^3 + 3/4*s*t'": '2fd995c47a119b63ed04d16e52d9e17f32f7ff75c04cc33bb5295a59e788c516',
    "mul --n 8 --format plain 't^8 - 2/9*s' 's^5 + 1/13*t^7'": '691ed62b874a61dd8410520d0ac822a1688b6418171f645b265b01fb628c1d45',
    "mul --n 8 --format json 's - 1/2*t^2' 't^3 + 3/4*s*t'": '56a6b74d4b06704404f9136f40836278964ac36912be7ce58845a3c2a854a51e',
    "mul --n 8 --format json 't^8 - 2/9*s' 's^5 + 1/13*t^7'": 'd434b3ba395a370345fb98c3d53f9190f8e20ea8113850440497850ccd8d67a3',
    "mul --n 8 --format latex 's - 1/2*t^2' 't^3 + 3/4*s*t'": '49ee05c7b3572cf2fd1de5c7339af4b60508c17fdf2f5e7add6cb4eea8434c61',
    "mul --n 8 --format latex 't^8 - 2/9*s' 's^5 + 1/13*t^7'": 'cc7b5b7800be80eca1b4ea8d9eea3fee685277206cc9a87b0668123c86fbf0d2',
    'matrix --n 2 --k 1 --which P --format plain': 'b44cb804ba29077795c5c6464f59c9ed5309772ec203f87a8cc5f8707b8144fc',
    'matrix --n 2 --k 1 --which Q --format plain': '9523ba42a591859c0717fee94519c958551435f3a4a750b7d016f2ece882d3c7',
    'matrix --n 2 --k 1 --which P --format json': 'fe6518e07a009a109d7efc057273a52ea83aa2ea4d243cedcefd0cd89a519381',
    'matrix --n 2 --k 1 --which Q --format json': 'bdd797cdc2197c62aa7d0039945d0f3a2c45a4fe01e762fe3945a305ff87e013',
    'matrix --n 2 --k 1 --which P --format latex': '10e6168c7e631b9bca4b8ce48852ad6c12cb8fa631e38c15ab76c386b0088218',
    'matrix --n 2 --k 1 --which Q --format latex': '15156ec2ee731bb438d0243171c8b1e26ec4095c50f127fdbbe47fb9bc63591b',
    'matrix --n 5 --k 1 --which P --format plain': '6f70460d8f9c2cacfc3d9bd7cdd8c2d6a8edfd77a58844001502fde201794c82',
    'matrix --n 5 --k 2 --which P --format plain': '8c7aa0357cfdd147b4c8f28c5e3660e7e48e143569acc5edb58101df1a428ca1',
    'matrix --n 5 --k 1 --which Q --format plain': 'f3ed5f06ab2485ef1dfca495ed22eddf8f64126d96dcf195067508035dbdc70b',
    'matrix --n 5 --k 2 --which Q --format plain': '3bc657d669276a6997be6bfa3e9d617b7013fd4a02fab5bf3896c13c71eb19b1',
    'matrix --n 5 --k 1 --which A --format plain': 'c160cbc47c2a688cd79ed27f9af769788a9840be62981bfd774aa15f15729a72',
    'matrix --n 5 --k 2 --which A --format plain': 'e85b53c29df7ff79f73b132b5695f84a7071ad52bf9448cff5bc350152405e7e',
    'matrix --n 5 --k 1 --which R --format plain': '6f70460d8f9c2cacfc3d9bd7cdd8c2d6a8edfd77a58844001502fde201794c82',
    'matrix --n 5 --k 2 --which R --format plain': 'c9d13e6599b3f2c6e81865b95286a4446f60f5a955c417658a0ad1a3b4124f90',
    'matrix --n 5 --k 1 --which companion --format plain': '04938e576f4f59380256dddb3d7e8c5a374323b411ce3a2ad24d9bd8c8a2de7e',
    'matrix --n 5 --k 2 --which companion --format plain': 'd04305d641d03121377db89fd9b7607410b162fc63eeecdf96a9a47e7734deb5',
    'matrix --n 5 --k 1 --which P --format json': '0145f0865412b1bf94b8b6642e1711c5bfa0c9f6a08621bf084d2844826206b8',
    'matrix --n 5 --k 2 --which P --format json': 'd0b7f148765a64d51dd58b1b1a7f673af7b8208cfeb1faaf55e311771a698a38',
    'matrix --n 5 --k 1 --which Q --format json': '3a70827c794aedf1a8bbadb9b294983e22a4f31ef8a853a7e5d455a9c63b6eb9',
    'matrix --n 5 --k 2 --which Q --format json': '25f0fb3d53a3e17144b283047a4d31e1ab74df6be0f307c5d4e950f2ae2d2cab',
    'matrix --n 5 --k 1 --which A --format json': '1d58a5514e88d023ccc1174c70ccbc2b1ce2cdd32d79169de0c1daa7106464ad',
    'matrix --n 5 --k 2 --which A --format json': 'd3f1502736736be3c32d7bddf7df7c78fd33858ee3b4d8bfc53af437730deab7',
    'matrix --n 5 --k 1 --which R --format json': '0145f0865412b1bf94b8b6642e1711c5bfa0c9f6a08621bf084d2844826206b8',
    'matrix --n 5 --k 2 --which R --format json': 'db2e6f9e227ecd11fa91e90a1f3c4357e00309cf686248678255bf9a11fa540d',
    'matrix --n 5 --k 1 --which companion --format json': 'db1fc61ca74727c8006d2118bbd57f958f9c8a4139c33ae92231c50a6357465f',
    'matrix --n 5 --k 2 --which companion --format json': '85131fa884e79966d3704e3be755b2c46eb098d9628fd185dd2983fe8fc29f8a',
    'matrix --n 5 --k 1 --which P --format latex': '1d01e46a4db81c8a4816d8ee8a14ffd75c38adac394821d21bf91c8558d5075c',
    'matrix --n 5 --k 2 --which P --format latex': '5adfd41f19cbc2701f139d86fcbb0eac58cc1fee002caba99fbb2f80542d63b8',
    'matrix --n 5 --k 1 --which Q --format latex': '6c8dd6a3c91712b3fc05935bc359067d34677e3221af5dd3b404f824ba02e568',
    'matrix --n 5 --k 2 --which Q --format latex': 'b31c0aeb2402e615b0bc66fa5805ca398b14b338bba3572b64171ae28e52e39f',
    'matrix --n 5 --k 1 --which A --format latex': 'b5879ce3c6c414811ec45a8b2acc3893942fbe3fc8be10de1dcfd2819f7ea8f0',
    'matrix --n 5 --k 2 --which A --format latex': '630e0c3afb53ea66632e318ff1bdcc2d22fc75af527620c99f426db7f709a369',
    'matrix --n 5 --k 1 --which R --format latex': '1d01e46a4db81c8a4816d8ee8a14ffd75c38adac394821d21bf91c8558d5075c',
    'matrix --n 5 --k 2 --which R --format latex': 'ee246803af3bd67191a9b6d977b4324911110d786299d5c8a40d842cdf55bf58',
    'matrix --n 5 --k 1 --which companion --format latex': '128f1c6369f878d7ba7356a4257d4e8d9cc6ea3c7d6e45743522d4909c1c64d6',
    'matrix --n 5 --k 2 --which companion --format latex': 'c875611fffe0b8c9f46ee20a28463890dbd28420230ae6b3fdca40bf1f45f5b8',
    'matrix --n 8 --k 1 --which P --format plain': '7eeb56a449c17d6ea887ba3766259d6b178c209387538ce97660d67912c18226',
    'matrix --n 8 --k 4 --which P --format plain': '7c6f9aeed8201a2361f658699b73ba1fecd778202ba1b0ab55b9feda5b1b9361',
    'matrix --n 8 --k 1 --which Q --format plain': '7593851ce951a97f8d46bfc341bc36c3e1e3ecad4413e425e1b8b0ee5fdbed69',
    'matrix --n 8 --k 4 --which Q --format plain': 'c9a9ebb4e43dfa70c02ded7ed56cb47108ebbb3ba346512e2e5cbd06a28cfd2a',
    'matrix --n 8 --k 1 --which A --format plain': 'd5ad9e2f0f9b36f4de52eb9150c92bd4cfcc127285c9480b1c151e31e5e376b2',
    'matrix --n 8 --k 3 --which A --format plain': 'c1fe8c8987028c341e71f6388b8345c8e2976cdaaf791c6e1f91d6924a410070',
    'matrix --n 8 --k 1 --which R --format plain': '7eeb56a449c17d6ea887ba3766259d6b178c209387538ce97660d67912c18226',
    'matrix --n 8 --k 3 --which R --format plain': '6be61287131f0d3c0520e58adfd8a64a82e703e16c1107ba6b8e2f7b40df4ed2',
    'matrix --n 8 --k 1 --which companion --format plain': '80ff7d2f0e274f6033f0fcdf79208f9c43080c9fbc40c50dd3afc228eef7b18c',
    'matrix --n 8 --k 3 --which companion --format plain': '21aa1b703172b245a446994f7c0586eda7160f80fcf42600961f758ec3904d1c',
    'matrix --n 8 --k 1 --which P --format json': '6379b0c23e99b431c3609769c0e775452ecedc52dc1eaa0037409661df6f5f7d',
    'matrix --n 8 --k 4 --which P --format json': '25ee708e24ac6c5bdc79ff17e03faf532dec29cb8006e886067cd93ff3c56fd3',
    'matrix --n 8 --k 1 --which Q --format json': 'e5dcd1b0f024aeede9cbe8948eaf9ea32111e3e353a413de2fb71627214c1161',
    'matrix --n 8 --k 4 --which Q --format json': '81eb93646a39403fee4ae9dbc25f8329ff69c584011c197635b3b7053e791c20',
    'matrix --n 8 --k 1 --which A --format json': '58210a4f7b668e04a7b80a44d5e6621dceba8793437484c3bf4f005df6af9b4f',
    'matrix --n 8 --k 3 --which A --format json': '1386e976785e435e529ec031858d302942b44422f38f530dc03b02ae55680d6b',
    'matrix --n 8 --k 1 --which R --format json': '6379b0c23e99b431c3609769c0e775452ecedc52dc1eaa0037409661df6f5f7d',
    'matrix --n 8 --k 3 --which R --format json': '89601e54958077408c391b6e89db25970f7f8768a86cc485763cdfc72cc7cdae',
    'matrix --n 8 --k 1 --which companion --format json': '6e6f202bb8ccbd14defba00e5c28df6531c5b92843ec027064d3ac7593843b48',
    'matrix --n 8 --k 3 --which companion --format json': '6c86b7b306a2697e0b9c7cd318937a53d1a6e18482c349bb16f80288c7363e0f',
    'matrix --n 8 --k 1 --which P --format latex': '2d66653f988a4093fe176f119ef2c383525966205abc3313a0e8c3e3becfb5a6',
    'matrix --n 8 --k 4 --which P --format latex': 'cd10c2a1a598c2d24e80ea4306683abafc70d652baafedfe9ae5e65342462334',
    'matrix --n 8 --k 1 --which Q --format latex': 'c7efeee66989ec2e658df9928f75490d53a8ebcb043aacbee0ac7263386f0f56',
    'matrix --n 8 --k 4 --which Q --format latex': '9de7292726bc75605b2984830835378f0697f1efc0777cd6b0416e1587519ced',
    'matrix --n 8 --k 1 --which A --format latex': '4073751d288d7da5b62b3c8fb52d9ea377707b694e4a4bec17f94947350d8b5b',
    'matrix --n 8 --k 3 --which A --format latex': '77008e2d7404f63347e3ce4f2e64dc128504a687d59ae7dbe8901b8a94ae537f',
    'matrix --n 8 --k 1 --which R --format latex': '2d66653f988a4093fe176f119ef2c383525966205abc3313a0e8c3e3becfb5a6',
    'matrix --n 8 --k 3 --which R --format latex': 'becd3e54b210e8416c7acbad88d474ec82806f42d1de00fcf2a7e35c8fb7a43a',
    'matrix --n 8 --k 1 --which companion --format latex': '7c977cb6afb4a0bcd24d6bb35276f9692ca0b8a7e82049e0a52993ba15a02094',
    'matrix --n 8 --k 3 --which companion --format latex': '8291f12f89f1f271f8047b7cb4df166fd58ec95e1eee90feb40fa99bf214d858',
    'kinematic --n 2 --phi 1 --format plain': 'd28ac6f09185874d1046de2945251651e1162ffd07b6825790ce1e8db775f2d8',
    "kinematic --n 2 --phi 't - 3/2*s' --format plain": 'd5872918e0e1733cda313035f06cc5849f851bac7e5c8d49cddcf8964ef5172d',
    "kinematic --n 2 --phi 's^2 - 1/3*t^3 + 5/7*s*t' --format plain": '08657f4e50527bc7c48d591357d51baf8509da2e15e6d0421ae07bd564d20be8',
    'kinematic --n 2 --phi 1 --format json': '1fe4ad2361a9210e20c15d05192621c791a3578f3177def827dea1f324aeb2af',
    "kinematic --n 2 --phi 't - 3/2*s' --format json": 'bdd707552edf958011127a9b9f9521ccffda9e3749fcedcb317e7ba8534e0e9a',
    "kinematic --n 2 --phi 's^2 - 1/3*t^3 + 5/7*s*t' --format json": '04f6357d883f0c2c25c1508c1ee71b0c99761b838606236b63487d03812d5bc9',
    'kinematic --n 2 --phi 1 --format latex': '2e2bf058f320d64263c818df409018fb4bdd536480731ac4ef7b7ebecf3c6afb',
    "kinematic --n 2 --phi 't - 3/2*s' --format latex": 'f31867f9a4b1060053a0511c20a1788753271cbb9d551aa99f1c3b369603177b',
    "kinematic --n 2 --phi 's^2 - 1/3*t^3 + 5/7*s*t' --format latex": 'c222cccc52b6ffa5183055f29d4b8b0566f6b26f789be8d86a8e230bb852879e',
    'kinematic --n 5 --phi 1 --format plain': 'd3d70f7179f03eaa29bca6fda86c165228f616ac52d7de93ab9ef3c186d31c1e',
    "kinematic --n 5 --phi 't - 3/2*s' --format plain": '07a017132f3bdb38f1174ac45588b6fd61c9e6bd9fdfa7683d2101a8a6f30598',
    "kinematic --n 5 --phi 's^2 - 1/3*t^3 + 5/7*s*t' --format plain": 'a6f0ee52002e80e032a7cab06445c76e89e4506473251656239c557f9071d16a',
    'kinematic --n 5 --phi 1 --format json': '8cd7202100b391adc61d32a93aa515abe39fc7b0112fd9bc5bc123ac4032effe',
    "kinematic --n 5 --phi 't - 3/2*s' --format json": 'f43460e1f5d357492b8f8d45aa42079daad2b6f9eec39901ee857f9355e194a3',
    "kinematic --n 5 --phi 's^2 - 1/3*t^3 + 5/7*s*t' --format json": '058b0196af42e5e618a7731e24f84c212814edb7e25f46b45982ef36fdab5ef0',
    'kinematic --n 5 --phi 1 --format latex': 'c7b6d512d2734964d1777d7d5cf4293dad288cacbb062c67a5756f213544b115',
    "kinematic --n 5 --phi 't - 3/2*s' --format latex": '924d639a6d0b171b068b2b6dda659ad1672183d6d4d5f1e69e6f3a1d19246d56',
    "kinematic --n 5 --phi 's^2 - 1/3*t^3 + 5/7*s*t' --format latex": '34b277d3ed7040f9b48accfe3402841ac27f65aecec0d247537fdde57a1b27ed',
    'kinematic --n 8 --phi 1 --format plain': '40158522487bb7b4e9c1c9ce496449ee93e6265d31208800835b069b4e3020fa',
    "kinematic --n 8 --phi 't - 3/2*s' --format plain": '605b10e7171637b62d0c839068244e982a86707ff15fed8d47b4851f5d2dd98e',
    "kinematic --n 8 --phi 's^2 - 1/3*t^3 + 5/7*s*t' --format plain": 'bc1768b08a327cbd1c0df62b403c3e773d0ba009015687a92ee8797dc452037f',
    'kinematic --n 8 --phi 1 --format json': '85addde1a8e1588e1f51855f7789dffc37aa8fef93225dc9f774000b97ab69a0',
    "kinematic --n 8 --phi 't - 3/2*s' --format json": '08f6bfa65433444510023aa949426de00ac8642255c8b545f9bde58303c75c10',
    "kinematic --n 8 --phi 's^2 - 1/3*t^3 + 5/7*s*t' --format json": 'adcf017409982465c3f0470c6bd7dd634cf1c9a40e51d273bcea2a03daa168b2',
    'kinematic --n 8 --phi 1 --format latex': '33a169c0d739296ddcb7193f69fdf1e17ae599e74284de9d0dd8b34e12e98b9f',
    "kinematic --n 8 --phi 't - 3/2*s' --format latex": '2784ca0056e72329bc61000d4e68987d7c792bcea4f15d96baeb2aa05554ed16',
    "kinematic --n 8 --phi 's^2 - 1/3*t^3 + 5/7*s*t' --format latex": '6366668c5889f1ad38fd1d01f38871e6ee83c3cf1b646f99d2f0e651bea13e13',
    'kinematic --n 12 --phi 1 --format plain': 'dacfe8e2a6f850ca969b3a7d53c87fd5ecfd7eb2a9712c24f6bffe3083f6a4b3',
    "kinematic --n 12 --phi 't - 3/2*s' --format plain": '3996b9f15f3f0617c1793ce8cb82a8269517f38af3027b8e19cef815409aa368',
    "kinematic --n 12 --phi 's^2 - 1/3*t^3 + 5/7*s*t' --format plain": '33111394c19cb22bc3f6be77cfb00626de9a2b1f2ea0d414dcbee15f1481f22d',
    'kinematic --n 12 --phi 1 --format json': '74924256b06d54f4d3b771767e7d8710587ad7f506257b643428dd8973d966ad',
    "kinematic --n 12 --phi 't - 3/2*s' --format json": 'bde684845201517c618edba19e38ced88e4830f7bfbb3f24b0ae44d4d7130c62',
    "kinematic --n 12 --phi 's^2 - 1/3*t^3 + 5/7*s*t' --format json": '718d421e5363621cd381d9a164494665e02f1af1d89ba2ac70090e7909eafcca',
    'kinematic --n 12 --phi 1 --format latex': '3a2a13867406cf68b15e534dc17d33a7a3f7e5c90a8aa6e1df9da25178f7c759',
    "kinematic --n 12 --phi 't - 3/2*s' --format latex": '88fb961bf6bda1b4c4bb12782b2351be67eceb322b98b8d30a1e097d7be4089a',
    "kinematic --n 12 --phi 's^2 - 1/3*t^3 + 5/7*s*t' --format latex": '02f62f9cebd5d8e602ad890dcacdebfc04b00792424ebc8f18001177403976cc',
    'kinematic --so 4 --phi 1 --format plain': 'e6b970869270173c9ae751d6c728dd4ae7d989ed0bd79dc9a32b6dbc75b12b8a',
    "kinematic --so 4 --phi '2*t - 1/3*t^3 + t^4' --format plain": '6f1db017bd3365b7b5244790fe0a7e6d07e30b45aa3b621fc0769389175053aa',
    'kinematic --so 4 --phi 1 --format json': 'f4c49416169d4565b544bcf6c2f7dd2eb4a1884ac9c1557b0983135632b62314',
    "kinematic --so 4 --phi '2*t - 1/3*t^3 + t^4' --format json": 'f930f85f4380cec964f626c7560c8acf896b71a8cd2f7440d7601f4210fc3837',
    'kinematic --so 4 --phi 1 --format latex': '3c435e57cffbd4b8e9060ab4df2d702f8ddef0a0d9c9902a425c837eb3c7ce08',
    "kinematic --so 4 --phi '2*t - 1/3*t^3 + t^4' --format latex": '2372dc7c94569a44fcc48a46fa28a292decfd42d56fbc88718fb82d6008bf3e3',
    'son --n 3 --k 0 --format plain': '8a34906208ac7776330be94feefe16d3e16d0f95ae3cc8730d036a78d3ffd01a',
    'son --n 4 --k 2 --format plain': 'a3dfc0d9d1e8fcc1e1f97167e665f239b67dd6dcd2ebd922cd96e03c814708c3',
    'son --n 6 --k 6 --format plain': '4d09f45afc154b522538af31a2b94f6f93d344128af46e9d4d1c9e437efeebca',
    'son --n 3 --k 0 --format json': 'ecb53641649a7fa38c5f51442a4b3780d2c67cbc11f383e8c979daa2391fc5d1',
    'son --n 4 --k 2 --format json': '58c1cd4eee0e82e3b9dd56a550751a1e322d375c59b91e47179d643d2aeb33e9',
    'son --n 6 --k 6 --format json': 'a07921c2d766a571634ebaf29263df44efd83dcc036141b11a432e91936da151',
    'son --n 3 --k 0 --format latex': 'edbe9416954c3d3d0c2d762f56c217da9dfa5232fcedd3549acfa4a166b22b27',
    'son --n 4 --k 2 --format latex': '71d3271c198eb02b449f4829cfad7538dd8001a9eed05c8b48d94cb7578d4024',
    'son --n 6 --k 6 --format latex': '2148c5cededf708795b4ee3de314d947fd013c080f58654f8efc4610f301377c',
    'check --n-max 4 --format plain': '1396607db0ea527280179997ca1f1b8b3c74476993a690afa522610b80200cd2',
    'check --n-max 4 --format json': '5d1bb81cf6acc816e267457d5837e389a30d6097c3acbcf06aec974056b090bd',
    'positivity --n-max 6 --format plain': 'b53cb7b792e99924a6894e539b9998b3331df7e8326f3cffb95299d2874eff67',
    'positivity --n-max 6 --format json': 'f74ae5acbe69a59410d46d374b526bf7298cb8210c383bdb6c8462371a5fd3e6',
    'positivity --n-max 6 --format csv': 'f97fae030340927a60561802c904791e6f3c170daa455ce9cf33da22719b80f5',
    'positivity --n-max 40 --format csv': '556d7977e47950dad5da91eff4a1c6b9f321d2b6d8e53cb853369ddc0b8cf3fd',
}


@pytest.mark.parametrize("command", sorted(_cases()))
def test_cli_stdout_matches_golden_digests(command):
    argvs = _cases()[command]
    assert len(argvs) == len({shlex.join(argv) for argv in argvs})
    changed = [shlex.join(argv) for argv in argvs if stdout_digest(argv) != GOLDEN[shlex.join(argv)]]
    assert not changed, f"{len(changed)} of {len(argvs)} outputs changed, e.g. {changed[:3]}"


@pytest.mark.parametrize("command", sorted(ERRORS))
def test_cli_bad_input_matches_golden_exit_and_stderr(command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(shlex.split(command))
    assert (code, err.getvalue(), out.getvalue()) == (*ERRORS[command], "")


if __name__ == "__main__":
    keys = [shlex.join(argv) for argvs in _cases().values() for argv in argvs]
    lines = [f"    {key!r}: {stdout_digest(shlex.split(key))!r}," for key in keys]
    print("GOLDEN: dict[str, str] = {", *lines, "}", sep="\n")
