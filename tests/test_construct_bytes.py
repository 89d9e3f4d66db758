"""The bytes of the files that ``construct`` writes for the brackets on tensor
spaces: the tensor product, the induced Leibniz algebra, Faulkner's bracket
on g (x) g* and the trace-induced ternary bracket.  Each output's sha256 is
pinned to the value the entry loops that built these brackets gave, before
they became ``BracketTensor.kron`` calls.  Output file names are fixed,
since the name and the input names are written into the metadata."""

import hashlib
import json

import pytest

from nambucat import corpus
from nambucat.cli import main

PINNED = {
    "tensor-example1.json": "bc0df452fda869043521a689051933dbfc700a32d69580216e8729a67a8f5464",
    "tensor-example2.json": "6f1d90063362e9a600982f13a53888fc5eae157f46fc4284192c53de25307f52",
    "tensor-simple3lie4.json": "f9048d6a84b8de87fef48ebbb6892e5cde465ed21f9db9d9e03aa19b50c095a5",
    "tensor-zero3.json": "1c983436e0e0dac146dfd89c254082e63a6cd7b4e457cc01d7e460c4901467e5",
    # zero4's 64-dim output keeps the identity check busy for more than 15 s
    "leibniz-example1.json": "46da443c37fba17b7801068c46bdb3507a979c9119b9a77d3827e3b6c46a4f8c",
    "leibniz-heisenberg3.json": "8e9b2d2c1c9cb2ba29981d5782dcf90f9ca770197d984e5ea6819f10013f2720",
    "leibniz-simple3lie4.json": "aa4377db900812ec4e81b902f1c6ea78d5eb355b287487acf1702a2e395cfb6d",
    "leibniz-zero1.json": "58fa141610aa5a06c01044eec0b16d0c4e270ff5d4cccfdca02564e21e3ad813",
    "leibniz-zero2.json": "0a03cd0d8073bebdc37cac03b555ed233f5eb3d2164493c26afeffb73a5254a0",
    "leibniz-zero3.json": "fe5a449cbc72cced6b8982b3c7a5628fc49aa65881bbd133ba294bc0eaf3a295",
    "faulkner-sl2.json": "2b99fd2c0514b6f9e67beb9aa006bfde9e6ce3b77228451e566988fe5b8f7ca0",
    "trace-heisenberg3.json": "bb145740ad400ad8ea15f6589ae1df4c7045f6e4af55d46628839f270c8da54f",
}


def _command(out, tmp_path):
    """The construct arguments that write ``out``."""
    kind, name = out[:-len(".json")].split("-", 1)
    if kind == "tensor":
        return ["tensor", corpus.corpus_path("dualnumbers3"), corpus.corpus_path(name)]
    if kind == "leibniz":
        return ["leibniz", corpus.corpus_path(name)]
    if kind == "faulkner":
        return ["faulkner", corpus.corpus_path(name), "--what", "leibniz"]
    # the case of tests/test_constructions.py::test_trace_induced_ternary
    gamma, tau = tmp_path / "gamma.json", tmp_path / "tau.json"
    gamma.write_text(json.dumps({"matrix": [[str(int(i == j)) for j in range(3)]
                                            for i in range(3)]}))
    tau.write_text(json.dumps({"vector": ["0", "0", "1"]}))
    return ["trace-ternary", corpus.corpus_path(name), "--gamma", str(gamma), "--tau", str(tau)]


@pytest.mark.parametrize("out", sorted(PINNED))
def test_construct_output_bytes_are_pinned(out, tmp_path, capsys):
    path = tmp_path / out
    assert main(["construct", *_command(out, tmp_path), "-o", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[out]
