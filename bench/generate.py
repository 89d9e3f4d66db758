"""Seeded input documents for the benchmark.

Every input is an algebra document in the program's JSON file format.  The
seed picks signed permutations of the basis (a change of basis that keeps
every dimension, verdict and tuple count, and keeps the bracket as sparse),
the entry and value of the perturbation, and the automorphism used by
`construct twist`.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import prod
from typing import List, Tuple

import reference as ref

SignedPerm = Tuple[List[int], List[int]]


def _s(x) -> str:
    return str(Fraction(x))


def _identity(d: int) -> List[List[str]]:
    return [[_s(int(i == j)) for j in range(d)] for i in range(d)]


def filippov(d: int) -> dict:
    """Filippov's simple d-dimensional (d-1)-Lie algebra A_d:
    [e_1, .., ^e_i, .., e_d] = (-1)^(d+i) e_i, identity twists."""
    entries = []
    for omit in range(d):
        out = [_s(0)] * d
        out[omit] = _s((-1) ** (d + omit + 1))
        entries.append({"inputs": [i + 1 for i in range(d) if i != omit], "output": out})
    entries.sort(key=lambda e: e["inputs"])
    return {"schema_version": 1, "kind": "hom_nambu", "dim": d, "arity": d - 1,
            "bracket": entries, "twists": [_identity(d)] * (d - 2),
            "flags": {"skew": True, "multiplicative": True}}


def signed_permutation(rng: random.Random, d: int, det_one: bool = False) -> SignedPerm:
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    if det_one and ref.perm_sign(perm) * prod(signs) < 0:
        signs[0] = -signs[0]
    return perm, signs


def perm_matrix(p: SignedPerm) -> List[List[str]]:
    """Matrix sending e_j to s_j e_perm(j)."""
    perm, signs = p
    d = len(perm)
    return [[_s(signs[j] if perm[j] == i else 0) for j in range(d)] for i in range(d)]


def _entries(br, skew: bool, d: int) -> List[dict]:
    keys = sorted(k for k in br if not skew or all(a < b for a, b in zip(k, k[1:])))
    return [{"inputs": [i + 1 for i in k], "output": ref.vec_to_json(br[k], d)}
            for k in keys]


def relabel(doc: dict, p: SignedPerm) -> dict:
    """The same algebra in the basis e'_j = s_j e_perm(j)."""
    perm, signs = p
    a = ref.parse(doc)
    d = a.dim
    inv = [0] * d
    for j, pj in enumerate(perm):
        inv[pj] = j
    br = {}
    for key, out in a.br.items():
        new = tuple(inv[i] for i in key)
        c = prod(signs[j] for j in new)
        br[new] = {inv[k]: c * signs[inv[k]] * x for k, x in out.items()}

    def mat(m):
        return [[_s(signs[r] * signs[c] * Fraction(m[perm[r]][perm[c]])) for c in range(d)]
                for r in range(d)]

    out = {k: v for k, v in doc.items() if k != "metadata"}
    out["bracket"] = _entries(br, a.skew_claim, d)
    out["twists"] = [mat(t) for t in doc["twists"]]
    for k in ("form", "beta"):
        if doc.get(k) is not None:
            out[k] = mat(doc[k])
    return out


def nonskew_twin(doc: dict) -> dict:
    """The same bracket with every nonzero tuple listed and no skew claim."""
    a = ref.parse(doc)
    out = dict(doc)
    out["bracket"] = _entries(a.br, False, a.dim)
    out["flags"] = {"skew": False, "multiplicative": a.mult_claim}
    return out


_BUMPS = [Fraction(p, q) for p in (1, -1, 2, -2, 3, -3) for q in (1, 2, 3)]


def perturbed(doc: dict, rng: random.Random) -> dict:
    """Add a seeded rational to one coordinate of one stored entry; the
    result must violate the fundamental identity under the reference."""
    for _ in range(100):
        out = json.loads(json.dumps(doc))
        e = rng.choice(out["bracket"])
        k = rng.randrange(doc["dim"])
        e["output"][k] = _s(Fraction(e["output"][k]) + rng.choice(_BUMPS))
        if not ref.nambu_holds(ref.parse(out)):
            return out
    raise RuntimeError("no perturbation broke the identity")


def leibniz_as_nambu(doc: dict) -> dict:
    """A hom_leibniz document stored as an arity-2 hom_nambu one, no claims."""
    out = {k: v for k, v in doc.items() if k != "metadata"}
    out["kind"] = "hom_nambu"
    out["flags"] = {"skew": False, "multiplicative": False}
    return out


def make_seeded(seed: int, corpus: dict) -> dict:
    """Every generated document, keyed by file name.  ``corpus`` maps bundled
    algebra names to their documents.  The generation order is fixed, so a
    seed always gives the same documents."""
    rng = random.Random(seed)
    docs = {}
    for d in (4, 5, 6):
        docs[f"A{d}.json"] = relabel(filippov(d), signed_permutation(rng, d))
    docs["A4-nonskew.json"] = nonskew_twin(docs["A4.json"])
    docs["A5-perturbed.json"] = perturbed(docs["A5.json"], rng)
    docs["example1.json"] = relabel(corpus["example1"], signed_permutation(rng, 3))
    docs["sl2.json"] = relabel(corpus["sl2"], signed_permutation(rng, 3))
    docs["rho.json"] = {"matrix": perm_matrix(signed_permutation(rng, 4, det_one=True))}
    return docs


def write(path, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
