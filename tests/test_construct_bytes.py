"""The bytes of the files that ``construct`` writes.  Each output's sha256 is
pinned: those of the brackets on tensor spaces (the tensor product, the
induced Leibniz algebra, Faulkner's bracket on g (x) g* and the
trace-induced ternary bracket) to the value the entry loops that built these
brackets gave, before they became ``BracketTensor.kron`` calls; those of the
other constructions to the value they gave when each construction got its
own command-line parser.  Output file names are fixed, since the name and
the input names are written into the metadata."""

import hashlib
import json

import pytest

from nambucat import corpus
from nambucat.cli import main


def _diagonal(*entries):
    n = len(entries)
    return {"matrix": [[str(entries[i] if i == j else 0) for j in range(n)] for i in range(n)]}


# the option files of the cases that tests/test_constructions.py and
# tests/test_faulkner.py build: sign4 = diag(1, 1, -1, -1), 3 I, e1 and the
# involution diag(-1, -1, 1) of sl2; gamma3 and tau3 are the trace-ternary case
OPTION_FILES = {
    "sign4": _diagonal(1, 1, -1, -1),
    "three4": _diagonal(3, 3, 3, 3),
    "e1": {"vector": ["1", "0", "0", "0"]},
    "alpha3": _diagonal(-1, -1, 1),
    "gamma3": _diagonal(1, 1, 1),
    "tau3": {"vector": ["0", "0", "1"]},
}

# output file: (construct arguments before -o, sha256); a word that names a
# bundled algebra or an option file stands for its path
PINNED = {
    "tensor-example1.json": (
        "tensor dualnumbers3 example1",
        "bc0df452fda869043521a689051933dbfc700a32d69580216e8729a67a8f5464"),
    "tensor-example2.json": (
        "tensor dualnumbers3 example2",
        "6f1d90063362e9a600982f13a53888fc5eae157f46fc4284192c53de25307f52"),
    "tensor-simple3lie4.json": (
        "tensor dualnumbers3 simple3lie4",
        "f9048d6a84b8de87fef48ebbb6892e5cde465ed21f9db9d9e03aa19b50c095a5"),
    "tensor-zero3.json": (
        "tensor dualnumbers3 zero3",
        "1c983436e0e0dac146dfd89c254082e63a6cd7b4e457cc01d7e460c4901467e5"),
    # zero4's 64-dim output keeps the identity check busy for more than 15 s
    "leibniz-example1.json": (
        "leibniz example1",
        "46da443c37fba17b7801068c46bdb3507a979c9119b9a77d3827e3b6c46a4f8c"),
    "leibniz-heisenberg3.json": (
        "leibniz heisenberg3",
        "8e9b2d2c1c9cb2ba29981d5782dcf90f9ca770197d984e5ea6819f10013f2720"),
    "leibniz-simple3lie4.json": (
        "leibniz simple3lie4",
        "aa4377db900812ec4e81b902f1c6ea78d5eb355b287487acf1702a2e395cfb6d"),
    "leibniz-zero1.json": (
        "leibniz zero1",
        "58fa141610aa5a06c01044eec0b16d0c4e270ff5d4cccfdca02564e21e3ad813"),
    "leibniz-zero2.json": (
        "leibniz zero2",
        "0a03cd0d8073bebdc37cac03b555ed233f5eb3d2164493c26afeffb73a5254a0"),
    "leibniz-zero3.json": (
        "leibniz zero3",
        "fe5a449cbc72cced6b8982b3c7a5628fc49aa65881bbd133ba294bc0eaf3a295"),
    "faulkner-sl2.json": (
        "faulkner sl2 --what leibniz",
        "2b99fd2c0514b6f9e67beb9aa006bfde9e6ce3b77228451e566988fe5b8f7ca0"),
    "trace-heisenberg3.json": (
        "trace-ternary heisenberg3 --gamma gamma3 --tau tau3",
        "bb145740ad400ad8ea15f6589ae1df4c7045f6e4af55d46628839f270c8da54f"),
    "twist-simple3lie4.json": (
        "twist simple3lie4 --rho sign4",
        "02a4aeba4a186d2ffd6346084a76f43f51226bdb41e2b27d6b14f25d0a2f17ac"),
    "self-twist-example1.json": (
        "self-twist example1",
        "897d2b9a74e763beea35028d4af66995a0087323406bb434f0cb43082bef8cc1"),
    "tstar-simple3lie4.json": (
        "tstar simple3lie4",
        "ef297c8f28bbfff484026486ecd40601ebcff18405e42cacc22897ad6ea57028"),
    "tstar-omega-simple3lie4.json": (
        "tstar simple3lie4 --omega sign4",
        "d062878e69bb8b736482ff2f7eb71bceb64338c7c73d0d3d47284e713e111561"),
    "raise-example1.json": (
        "raise example1 -k 1",
        "655b113c7aa208dfd5a2f50486e8a0f91457db6679c15be42c5e9c68204d446f"),
    "reduce-simple3lie4.json": (
        "reduce simple3lie4 --fixed e1",
        "515057fc91841a460c467fd582e3508df6824821364859f7defdaa900dc058c2"),
    "centroid-bracket-simple3lie4.json": (
        "centroid-bracket simple3lie4 --theta three4 -p 2",
        "a1a448f7aaea212e556dfcd5835cf82f1d2668dc3b0d2b7b1911c22dce8869a8"),
    "pullback-form-simple3lie4.json": (
        "pullback-form simple3lie4 --map three4",
        "a063ca6a69e0aad03b686e82799ef85b5b20fc0021b7a1587f3f05c75bd3a5d1"),
    "faulkner-ternary-sl2.json": (
        "faulkner sl2",
        "7e99a2523805256bd049764a20a3fed030b33ca161750a3ca2adb0d7f326c0a5"),
    "faulkner-alpha-ternary-sl2.json": (
        "faulkner sl2 --alpha alpha3 --what ternary",
        "c5e1ff2ee703a495c066b1461ea1be3a066608060a99b5b93e07e868b56648ad"),
    "faulkner-alpha-leibniz-sl2.json": (
        "faulkner sl2 --alpha alpha3 --what leibniz",
        "b8537b9df1052b564b612f425a169c7d2447f83ef89e995365f3ffbc76bcf88c"),
}


def _argv(words, tmp_path):
    """The construct arguments ``words``, with bundled algebras and option
    files (written under ``tmp_path``) replaced by their paths."""
    argv = []
    for word in words.split():
        if word in OPTION_FILES:
            path = tmp_path / f"{word}.json"
            path.write_text(json.dumps(OPTION_FILES[word]))
            word = str(path)
        elif word in corpus.corpus_names():
            word = corpus.corpus_path(word)
        argv.append(word)
    return argv


@pytest.mark.parametrize("out", sorted(PINNED))
def test_construct_output_bytes_are_pinned(out, tmp_path, capsys):
    words, digest = PINNED[out]
    path = tmp_path / out
    assert main(["construct", *_argv(words, tmp_path), "-o", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
