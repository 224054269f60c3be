"""Golden checksums of tiny runs of every CLI command.

The table pins, byte for byte, every artifact and manifest the runs leave
behind, plus each run's exit code and stdout. A pure refactor must leave
it unchanged. A change that moves float bits on purpose re-baselines it:
run this test, confirm that only the intended entries moved, and paste
the table its failure message prints over ``EXPECTED`` (and its numpy
version over ``NUMPY_VERSION``).

The runs share one working directory and use relative paths, because
manifests record ``--data`` and ``--weights`` exactly as given.
"""

import hashlib
import json

import numpy as np
import pytest

from tripletlab.cli import main

NUMPY_VERSION = "2.4.6"

_SIMULATE_CONFIG = {
    "loss": "nca", "p": 0.0, "gamma": 1.0, "beta_scale": 0.05,
    "resolution": 5, "margin": 0.2, "out_prefix": "tamp",
}

# input files written before the first run
INPUTS = {
    "zero.csv": "label,x0,x1\n0,0,0\n0,0.6,0.8\n1,0.8,0.6\n1,1,0\n",
    "tampered.manifest.json": json.dumps({
        "command": "simulate", "config": _SIMULATE_CONFIG, "seed": None,
        "outputs": {"field_csv": "tamp.field.csv"},
        "checksums": {"tamp.field.csv": "0" * 64},
    }),
    "noconfig.manifest.json": json.dumps(
        {"command": "train", "checksums": {}}
    ),
}

# (label, argv), run in this order
RUNS = [
    ("gen-data", "gen-data --classes 4 --per-class 4 --dim 8 --spread 0.5 "
                 "--seed 3 --out data.csv"),
    ("gen-data sub", "gen-data --classes 3 --per-class 3 --dim 4 "
                     "--spread 1.5 --out sub/plain"),
    ("simulate nca", "simulate --resolution 9 --p 0.5 --gamma 0.8 "
                     "--out-prefix fn"),
    ("simulate margin", "simulate --loss margin --resolution 9 --p 1.0 "
                        "--beta-scale 0.1 --margin 0.3 --out-prefix sub/fm"),
    ("trajectory nca", "trajectory --start-sap 0.8 --start-san 0.95 "
                       "--p 1.0 --steps 10 --out-prefix tr"),
    ("trajectory margin", "trajectory --loss margin --start-sap -0.2 "
                          "--start-san 0.4 --gamma 0.5 --steps 10 "
                          "--out-prefix trm"),
    ("train sct", "train --data data.csv --loss sct --miner hn --epochs 2 "
                  "--classes-per-batch 2 --embed-dim 4 --snapshot-every 1 "
                  "--out-prefix sct"),
    ("train shn", "train --data data.csv --miner shn --grad-mode post "
                  "--lr 0.2 --epochs 2 --classes-per-batch 3 --embed-dim 3 "
                  "--batches-per-epoch 3 --seed 7 --out-prefix shn"),
    # the miners that still draw: random picks the negative, ep the
    # negative after the easiest positive
    ("train random", "train --data data.csv --miner random --lr 0.8 "
                     "--epochs 2 --classes-per-batch 2 --embed-dim 4 "
                     "--snapshot-every 1 --seed 3 --out-prefix rnd"),
    ("train ep", "train --data data.csv --miner ep --grad-mode post "
                 "--lr 0.3 --epochs 2 --classes-per-batch 3 --embed-dim 3 "
                 "--seed 5 --out-prefix ep"),
    ("diagram raw", "diagram --data data.csv --out-prefix raw"),
    ("diagram weights", "diagram --data data.csv --weights sct.weights.csv "
                        "--out-prefix dw"),
    ("rerun gen-data", "rerun data.manifest.json"),
    ("rerun gen-data sub", "rerun sub/plain.manifest.json"),
    ("rerun simulate nca", "rerun fn.manifest.json"),
    ("rerun simulate margin", "rerun sub/fm.manifest.json"),
    ("rerun trajectory", "rerun trm.manifest.json"),
    ("rerun train sct", "rerun sct.manifest.json"),
    ("rerun train shn", "rerun shn.manifest.json"),
    ("rerun train random", "rerun rnd.manifest.json"),
    ("rerun train ep", "rerun ep.manifest.json"),
    ("rerun diagram raw", "rerun raw.manifest.json"),
    ("rerun diagram weights", "rerun dw.manifest.json"),
    # refused runs
    ("gen-data one class", "gen-data --classes 1 --per-class 4 --dim 8 "
                           "--spread 0.5 --out bad.csv"),
    ("gen-data unknown flag", "gen-data --bogus 3"),
    ("simulate sct", "simulate --loss sct --out-prefix bad"),
    ("simulate resolution 1", "simulate --resolution 1 --out-prefix bad"),
    ("trajectory bad start", "trajectory --start-sap 2.0 --start-san 0.0 "
                             "--out-prefix bad"),
    ("trajectory zero steps", "trajectory --start-sap 0.1 --start-san 0.2 "
                              "--steps 0 --out-prefix bad"),
    ("train missing data", "train --data missing.csv --out-prefix bad"),
    ("train negative lr", "train --data data.csv --lr -1 --out-prefix bad"),
    ("diagram missing weights", "diagram --data data.csv --weights "
                                "missing.csv --out-prefix bad"),
    ("diagram zero vector", "diagram --data zero.csv --out-prefix bad"),
    ("rerun missing", "rerun missing.manifest.json"),
    ("rerun no config", "rerun noconfig.manifest.json"),
    ("rerun tampered", "rerun tampered.manifest.json"),
]

EXPECTED = {
    "run gen-data":
        "0 45171d493b79f2457d2ccea3e7ebeec9d64644cd725f43f1b8453035c2607cfc",
    "run gen-data sub":
        "0 dc40cf82e8597e170946b73ccdbbeeba45f1345300db7970ab353d60537c8a05",
    "run simulate nca":
        "0 aba1d05afcc3d0996f93147f8c5dc4c5fde3e4306e727f85da48f395166277e7",
    "run simulate margin":
        "0 59f22292940a2f07e8cba48950d4c1fcc0e3fa04d85a81d3c9446c0d0a25a9bd",
    "run trajectory nca":
        "0 f07f503cbf696cebe3dd130116bd7dd306c4acbacf3cd327293b47983816b4d4",
    "run trajectory margin":
        "0 a719dc8dc833fb6fc52154098aa18fc880507d2aa73dbc057038847a4b6e6357",
    "run train sct":
        "0 8fb64ffae565e3a48fccdc7c6e2ac32698d5e64d62990a12fe9719830e8e8c6a",
    "run train shn":
        "0 44a5e3fc36e322ca520c381fee6bcc9b6157c6ddba95c0d048e750177119ca1d",
    "run train random":
        "0 766de0fabd079df43504ccc0adf48d4530075c9e1f7a71c6374dac3cde5775d1",
    "run train ep":
        "0 f749f0765bbbd25d68684baba15fde18cd741dc3a23c6e549bc2cda8b80a3647",
    "run diagram raw":
        "0 11e18150bb41fa12e33135087f764427a88c34ff85f6a99a2af40325b670b840",
    "run diagram weights":
        "0 93f288c8185731ef0ecb6393d77b72b72af241f37dfc1de9ae215ca651302cb7",
    "run rerun gen-data":
        "0 966ae63cfe0b7b86de6d6110d19d6a6c4d8ca30828b0e458ebd07a11d7773bd5",
    "run rerun gen-data sub":
        "0 b37a721a1d83509f132308e9d1abe01b02ebb87083b3f3c3e6adb3c132ebff82",
    "run rerun simulate nca":
        "0 ab14b07a3f4e31cc1a5e87f4d6e2a28b86ab7bd92e52399d323257c40a552248",
    "run rerun simulate margin":
        "0 0e1bf28565bd8b64505c29136cc0db8e29e23e4f0e9801e057def9a7e06ad09c",
    "run rerun trajectory":
        "0 2d6cf170e76f48ab8b920bc958b8a47b6e5fa67ea859e7a85d00b3ba25932dfe",
    "run rerun train sct":
        "0 1f9ceea1f0c7f4f792994251566c779545a69a74ff6bbeafb468053c05291c7a",
    "run rerun train shn":
        "0 7009dd619a8994a243e78ea5773891559bc399bc39c4bca90031960e3be96b6d",
    "run rerun train random":
        "0 54f0bc030dc23b8af52f53b51610bd1df85b35a000831abdc153fbc896036410",
    "run rerun train ep":
        "0 7f499e3d3f9882ec11daaa90591d6c1c9365cce178b8d9b76b6f0f8e4b60d22e",
    "run rerun diagram raw":
        "0 aa68eaca39b82b09a6f7c972ccb16ce9407c9487f31b320e355348056680ab08",
    "run rerun diagram weights":
        "0 b367694aefc230bc3b7b4f5f97e9a6d19daed9b5d511391081523a64c09a864f",
    "run gen-data one class":
        "1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run gen-data unknown flag":
        "1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run simulate sct":
        "1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run simulate resolution 1":
        "1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run trajectory bad start":
        "1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run trajectory zero steps":
        "1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run train missing data":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run train negative lr":
        "1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run diagram missing weights":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run diagram zero vector":
        "3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run rerun missing":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run rerun no config":
        "2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "run rerun tampered":
        "2 81db0420ee1e3804d06d2c06350af0b9ec4aed44c411228446972fed64c116e5",
    "file data.csv":
        "febc20b6e3b982c8448559f3812b55eca3fa25aa9a4f0fd80a0cb2399e1a13e1",
    "file data.manifest.json":
        "a85792c49d119ce2d2fb082996fb7402a0f321fdca7bbec44a9415986d607c7a",
    "file dw.diagram.csv":
        "5d837f3c5010b6e4d49c37f1e53f6fe8a69bd8da91200ad2dc7f9b9f529096ff",
    "file dw.diagram.svg":
        "e8c45bc90bfe8a436a3a8e876d5a4689cf376f40330036170e404acf269b45c4",
    "file dw.manifest.json":
        "158a1c805041d83878427acd8cd9ff59271f6cfe3c5d93f296b7203a4ea18014",
    "file ep.curves.svg":
        "9c9aa0246e77767033b11aea22a4cafea0ed773a8b5c93fb0513b810eea26b50",
    "file ep.epochs.csv":
        "6bebde898a5f00e95e823d2ab0658b5f91f448bf3218d5a69c1392b6199c3d8f",
    "file ep.epochs.json":
        "fb7f7db4497add46f4fb2283e0ab2574dba4a4ffdf0663de522423f3951da64d",
    "file ep.manifest.json":
        "5fd814372e8a5d5959851b701aa93c1346d0430ec1ce2cc94886a7e6de6314c2",
    "file ep.snap0000.csv":
        "f6a81c177cd4b4bf0399d401ae4b6bc1973d3fc1ca4aeb6a20ae3db0508a9652",
    "file ep.weights.csv":
        "57a07158bf9fa4d87a829c4e6809c83705b23749490db2e070774ee816f8e2bb",
    "file fn.field.csv":
        "c5ae3d80654927dd0e1167d82aa99ef63c288af637564e3340cdd02bac7b92d3",
    "file fn.field.svg":
        "5cd0b525ee9eb5db5eede27df5c195b56dd7645f13f2975a512a22b9b28b0742",
    "file fn.manifest.json":
        "54dfae0e64722a27cfbd0ff0b6052e8a4f70883ccf46a83059906fc6d441280e",
    "file noconfig.manifest.json":
        "d9cf9fd50df8dde8baed6c28e5b620b578d4a7ddf87f3be7eeee3fb7b31adcb3",
    "file raw.diagram.csv":
        "e2fe4689d59efc6b89fa147cbf830687c606d07c348b0785ef1e4296c73b5a2d",
    "file raw.diagram.svg":
        "b1c49ee328675d46fad1469defb9fc825da126df1f58dac727b9fad288775427",
    "file raw.manifest.json":
        "20a87d6aedc8e15aa0ecb20b5f79e1af58ea8d19f003301cf9d1536e718292b2",
    "file rnd.curves.svg":
        "b5317eff7f55e5aced85fb45e28d2329bb8212d79c66b1ddb3b7bff966948bc1",
    "file rnd.epochs.csv":
        "a720551fa8a83a4baafee9f560334007fa87d470eb65b501862b26743e108e3b",
    "file rnd.epochs.json":
        "8ed586c4a755f5dcd6889a1a1ceea134dc620bae9d27873104bd34574f115370",
    "file rnd.manifest.json":
        "0cccb2934836e28fd166b95b591f6a7e2787dbce941a695382b7e352b9fe981a",
    "file rnd.snap0000.csv":
        "3ad6a32d61ca34e6da245710bc516ca54ff6b3ece363872ac1b52f35fa824953",
    "file rnd.snap0001.csv":
        "006daad0c4fd5d2c5d1a10a6652674697416e84195080c874bdd6ff57d91fbe7",
    "file rnd.weights.csv":
        "3789ee0729c6b750683d6089a9e8702035ab2b44e9ebbdcf9d4e79b2e6f899a6",
    "file sct.curves.svg":
        "f1d5ca5ffafdc719c35e60d8e090ca5dc88431f4b32ba7a7d7d65e6cfb37eeac",
    "file sct.epochs.csv":
        "903ad158738b01742942ca6b2298ec1aa1fd42b2413d375f5d600e88bf634f7b",
    "file sct.epochs.json":
        "79e8ace3017bb89fb0366e7834a7ae051965038adf58a18b14c1a1560ca00760",
    "file sct.manifest.json":
        "a4b5caaf1f5451a6355b7bec564ff9c58749dea5c8e4a41a5b528a55c76e0d66",
    "file sct.snap0000.csv":
        "dac02db218b1f92e37c1414b697e633140939a844d7152eb68837645415375f3",
    "file sct.snap0001.csv":
        "5d03496573d759519546157e4da1dd854477fdee180ad2028e5cf7259dac679a",
    "file sct.weights.csv":
        "f67396b30e2f2e528977c08a00abce509d7113a4e7107f448c703474515b29cc",
    "file shn.curves.svg":
        "bca90d405c295e6c58c3fd7586c8add20ea5e55b9e091e80b5a4a822b98bfac5",
    "file shn.epochs.csv":
        "b8debf666781588938d9a588c0f9a795ef4cb667b60be719a0bf93ad785f7b07",
    "file shn.epochs.json":
        "ca4066a818107661f348728fec994c77a0058468fb566895bc5548baec265cb4",
    "file shn.manifest.json":
        "425684d65d36e0c3f16aff529ea2526ecaf1920bf62a3c070c55cc7450f9b073",
    "file shn.snap0000.csv":
        "61a9159eb0788713c516cb4abe18e0df4255ba89862003b64a87216d6e469c78",
    "file shn.weights.csv":
        "737a19d8b690b13a8c52d2d17ed939d04564f47908436c15c17c4db418cb62b5",
    "file sub/fm.field.csv":
        "b83e68458e81868c9b17fe3997a196fe1f55150319173709c50539da3a94284d",
    "file sub/fm.field.svg":
        "70b05c4860e622bfc6710e486da6aef73b354f1a3513caaaa21158c1abbce258",
    "file sub/fm.manifest.json":
        "358aef24454ab3845a909d854dab668638b8add5dcd666cefd485e7e526cad98",
    "file sub/plain":
        "4f1034c23b789a2a15434d4e91198d0fb1b4a8f4e55a22003ce5950cd9689fd7",
    "file sub/plain.manifest.json":
        "631a6023d928b0285239bf2b066d8db0520a4c0d8fda33d5c212f25c224e6d00",
    "file tamp.field.csv":
        "dcd305825532114a9a8887cb27d81417076d8d7878c1e0dc75106adbb07b1a3e",
    "file tamp.field.svg":
        "7a35d2b5364cf899837229a94e0c062926fcf6c942b209d98272667147dc050c",
    "file tamp.manifest.json":
        "0d915b4165fc7a354223ff064b91f650bc657794a476ae82402b3aa96ebca416",
    "file tampered.manifest.json":
        "f4617ce044433cdf7c11c880c4f9fc2ffe3671365514996941ff85e15e0f4d4e",
    "file tr.manifest.json":
        "f6427daa3aa75092981e59e3092a9a3069c913a3bcb128e1e13567b73300f46e",
    "file tr.trajectory.csv":
        "e20294181a0f50fae60600cab9a98c43d6378d3f13b0cc8826d4b81f72ae3b14",
    "file tr.trajectory.svg":
        "8652ae39f241fcaeb7853d33e0612a77a91850e9635f0bd946035731df12185d",
    "file trm.manifest.json":
        "65886321d11d981558b186c6850b7e8b1bcf9579cbf17958dd11742a1e369637",
    "file trm.trajectory.csv":
        "7011bff5b8147f2632dd84aa96211138fd30ed9230a0d113bc56c81a58b96b1a",
    "file trm.trajectory.svg":
        "eb008f73492454e486be337bcceecf5c9155929dac1ff868b34645a967f9bc71",
    "file zero.csv":
        "e215ef12cca4fa970b48149c625fac9a2c1a2413f9adefa9cb9ea9445cecde50",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_all(workdir, capsys) -> dict[str, str]:
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    digests = {}
    for label, argv in RUNS:
        code = main(argv.split())
        stdout = capsys.readouterr().out
        digests[f"run {label}"] = f"{code} {_sha256(stdout.encode())}"
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        name = path.relative_to(workdir).as_posix()
        digests[f"file {name}"] = _sha256(path.read_bytes())
    return digests


def _table(digests: dict[str, str]) -> str:
    lines = [f'NUMPY_VERSION = "{np.__version__}"', "", "EXPECTED = {"]
    for key, value in digests.items():
        lines += [f'    "{key}":', f'        "{value}",']
    return "\n".join(lines + ["}"])


def test_cli_goldens(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TRIPLETLAB_OUT", raising=False)
    actual = _run_all(tmp_path, capsys)
    problems = []
    if np.__version__ != NUMPY_VERSION:
        problems.append(
            f"numpy {np.__version__} is installed, but the goldens were "
            f"made under numpy {NUMPY_VERSION}"
        )
    differing = sorted(
        key for key in actual.keys() | EXPECTED.keys()
        if actual.get(key) != EXPECTED.get(key)
    )
    if differing:
        problems.append("differing entries: " + ", ".join(differing))
    if problems:
        pytest.fail(
            "\n".join(problems + ["actual digests:", _table(actual)]),
            pytrace=False,
        )
