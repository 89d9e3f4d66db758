"""The sparse-tensor checkers against the tuple-by-tuple reference loops in
``oracle_checks``: every report must have the same JSON (verdict, first
counterexample, detail and tuples_checked), and a check that raises must
raise the same error."""

import functools
import itertools
import re
from dataclasses import replace
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_checks as oracle
import oracle_skew
from conftest import coef, entries, filippov, matrix, skew_tensors, slot_maps
from nambucat import (BilinearForm, BracketTensor, HomAssocNAry,
                      HomLeibnizAlgebra, HomNambuAlgebra, Matrix,
                      QuadraticStructure, TupleBudgetExceeded, Vector, corpus)
from nambucat import fileio
from nambucat.algebra import _row_minors, all_tuples
from nambucat.checks import (_compare, check_hom_leibniz, check_hom_nambu_identity,
                             check_morphism, check_multiplicativity,
                             check_quadratic, check_skew_symmetry,
                             check_total_hom_associativity)
from nambucat.constructions import (induced_hom_leibniz, raise_arity, self_twist,
                                    tstar_extension, twist_by_morphism)
from nambucat.faulkner import faulkner_ternary, tensor_leibniz
from nambucat.spaces import (assoc_centroid_membership, centroid_membership,
                             compute_centroid, compute_derivations,
                             derivation_membership)

LEVELS = (-1, 0, 1)
SIGN4 = Matrix.diagonal([1, 1, -1, -1])


def _same(new, old, *args):
    """Both raise the same ValueError, or both give the same report JSON."""
    try:
        want = old(*args).to_json()
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            new(*args)
        return
    assert new(*args).to_json() == want


def _maps(d):
    """Candidate maps: identity, zero, two diagonals and a dense one."""
    return [Matrix.identity(d), Matrix.zero(d, d),
            Matrix.diagonal([i + 1 for i in range(d)]),
            Matrix.diagonal([1] * (d - 1) + [-1]),
            Matrix(d, d, [(3 * i + 5 * j) % 4 - 1 for i in range(d) for j in range(d)])]


def _space_elements(a, limit):
    out = list(compute_centroid(a, 0).basis[:limit])
    try:
        out += compute_derivations(a, 0).basis[:limit]
    except ValueError:       # distinct twists: no derivation space
        pass
    return out


def _dense(a):
    """The algebra with its bracket in dense storage."""
    return replace(a, bracket=BracketTensor(a.dim, a.arity, dict(a.bracket.dense_items())))


def _twists_equal(a):
    return all(t == a.twists[0] for t in a.twists[1:])


def _identity_oracle(a, max_tuples=None):
    """The loop over increasing tuples for skew storage under one twist, else
    the loop over all tuples run on the dense twin."""
    if a.skew and _twists_equal(a):
        return oracle.hom_nambu_identity(a, max_tuples)
    return oracle.hom_nambu_identity(_dense(a), max_tuples)


def _leibniz_oracle(l, max_tuples=None):
    """The Hom-Leibniz loop on the dense twin; skew storage, which alternates
    under its one twist, gets the fundamental-identity loop on increasing
    tuples."""
    if l.bracket.skew_storage:
        return replace(oracle.hom_nambu_identity(l.as_nambu(), max_tuples),
                       identity="hom_leibniz")
    return oracle.hom_leibniz(l, max_tuples)


def _compare_nambu(a, maps, levels=LEVELS):
    _same(check_hom_nambu_identity, _identity_oracle, a)
    _same(check_skew_symmetry, oracle.skew_symmetry, a)
    _same(check_multiplicativity, oracle.multiplicativity, a)
    for f in maps:
        _same(check_morphism, oracle.morphism, a, a, f)
        for k in levels:
            _same(centroid_membership, oracle.centroid_membership, a, f, k)
            _same(derivation_membership, oracle.derivation_membership, a, f, k)
    if a.arity == 2:
        l = HomLeibnizAlgebra(a.dim, a.bracket, a.twists[0])
        _same(check_hom_leibniz, _leibniz_oracle, l)
        _same(check_hom_leibniz, oracle.hom_leibniz, replace(l, bracket=_dense(a).bracket))


def _compare_assoc(h, maps):
    _same(check_total_hom_associativity, oracle.total_hom_associativity, h)
    for f in maps:
        for k in LEVELS:
            _same(assoc_centroid_membership, oracle.assoc_centroid_membership, h, f, k)


def _compare_quadratic(q, betas=()):
    """The structure as given, then with each beta in its place."""
    for beta in (q.beta,) + tuple(betas):
        _same(check_quadratic, oracle.quadratic, replace(q, beta=beta))


def _algebra(obj):
    return getattr(obj, "algebra", obj)     # quadratic wrappers hold an algebra


def _quadratic(obj):
    """The quadratic structure an object carries, else the standard form, as
    a plain QuadraticStructure, whose form and beta may be replaced (a
    quadratic Lie algebra refuses a beta and a degenerate form)."""
    if isinstance(obj, QuadraticStructure):
        return QuadraticStructure(obj.algebra, obj.form, obj.beta)
    return QuadraticStructure(obj, BilinearForm.standard(obj.dim))


@pytest.mark.parametrize("name", corpus.corpus_names())
def test_corpus_matches_oracle(name):
    obj = corpus.load(name)
    a = _algebra(obj)
    if isinstance(a, HomAssocNAry):
        _compare_assoc(a, _maps(a.dim))
    else:
        _compare_nambu(a, _maps(a.dim) + _space_elements(a, 3))
        _compare_quadratic(_quadratic(obj), _maps(a.dim))


@pytest.mark.parametrize("d", (4, 5, 6))
def test_filippov_matches_oracle(d):
    a = filippov(d)
    _compare_nambu(a, _maps(d)[2:] + _space_elements(a, 1), levels=(0,))
    # the oracle takes about 1.5 s per form on A6's 6^4 adjoint operators
    _compare_quadratic(_quadratic(a), _maps(d)[1:] if d < 6 else ())


@pytest.mark.parametrize("name", [n for n in corpus.corpus_names() if n != "dualnumbers3"]
                         + ["A4", "A5", "A4-relabelled"])
def test_dense_twins_get_the_skew_verdict(name):
    """Dense storage takes the loop over all tuples: the dense twin of a skew
    algebra gets the skew storage's verdict, and under distinct twists
    (example2) its whole report."""
    if name == "A4-relabelled":
        p = Matrix(4, 4, [1, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, -1, 1, 0, 0, 1])
        a = filippov(4)
        a = replace(a, bracket=a.bracket.transform([p] * 3, out_map=p))
    elif name.startswith("A"):
        a = filippov(int(name[1:]))
    else:
        a = _algebra(corpus.load(name))
    report = check_hom_nambu_identity(_dense(a))
    assert report.to_json() == oracle.hom_nambu_identity(_dense(a)).to_json()
    if report.passed:
        assert report.tuples_checked == a.dim ** (2 * a.arity - 1)
    skew = check_hom_nambu_identity(a)
    assert skew.passed == report.passed
    if not _twists_equal(a):
        assert skew.to_json() == report.to_json()


def _skew_storage_algebras():
    """Skew storage made each way it can be: ``skew_from_entries`` (given
    every signed permutation, or one entry per orbit in any order), a
    skew-claimed file load with unsorted entries, and ``skew_canonical``."""
    out = []
    for a in [filippov(4), filippov(5)] + [
            _algebra(corpus.load(n)) for n in ("sl2", "simple3lie4", "example2", "heisenberg3", "zero3")]:
        items = dict(a.bracket.dense_items())
        reversed_keys = {t[::-1]: v for t, v in items.items() if t == tuple(sorted(t))}
        out += [BracketTensor.skew_from_entries(a.dim, a.arity, items),
                BracketTensor.skew_from_entries(a.dim, a.arity, reversed_keys),
                BracketTensor(a.dim, a.arity, items).skew_canonical()]
    doc = {"schema_version": 1, "kind": "hom_nambu", "dim": 3, "arity": 2,
           "bracket": [{"inputs": [2, 1], "output": ["0", "0", "-1"]},
                       {"inputs": [3, 1], "output": ["2", "0", "0"]},
                       {"inputs": [2, 3], "output": ["0", "2", "0"]}],
           "twists": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]],
           "flags": {"skew": True}}
    out.append(fileio.from_document(doc).bracket)
    out.append(fileio.loads(fileio.dumps(filippov(5))).bracket)
    # transform with one map in every slot: invertible, singular, rectangular
    a4, a5 = filippov(4), filippov(5)
    p = Matrix(4, 4, [1, 1, 0, 0, 0, 1, 2, 0, 0, 0, 1, -1, 1, 0, 0, 1])
    out += [a4.bracket.transform([p] * 3, out_map=p),
            a4.bracket.transform([Matrix(4, 4, [1, 1, 0, 0, 0, 1, 2, 0, 1, 2, 2, 0,
                                                1, 0, 0, 1])] * 3),
            a4.bracket.transform([None] * 3, out_map=SIGN4),
            a5.bracket.transform([Matrix(5, 5, [(i * j) % 3 - 1 for i in range(5)
                                                for j in range(5)])] * 4)]
    return out


@pytest.mark.parametrize("C", _skew_storage_algebras(), ids=repr)
def test_skew_storage_passes_the_oracle(C):
    """``check_skew_symmetry`` returns its verdict on skew storage without
    expanding it; every way of making skew storage must give a tensor the
    tuple-by-tuple oracle passes, with the same report and budget."""
    assert C.skew_storage
    a = HomNambuAlgebra(C.dim, C.arity, C, (Matrix.identity(C.dim),) * (C.arity - 1))
    assert oracle.skew_symmetry(a).passed
    _same(check_skew_symmetry, oracle.skew_symmetry, a)
    need = C.dim ** C.arity
    for check in (check_skew_symmetry, oracle.skew_symmetry):
        with pytest.raises(TupleBudgetExceeded, match=f"needs {need} "):
            check(a, need - 1)


@pytest.fixture(scope="module")
def constructed(ex1, s4, sl2):
    return {
        "raise": raise_arity(ex1, 1),
        "leibniz": induced_hom_leibniz(s4.algebra),
        "tstar": tstar_extension(s4.algebra, BilinearForm.standard(4)),
        "tstar-omega": tstar_extension(s4.algebra, BilinearForm.standard(4), omega=SIGN4),
        "twist": twist_by_morphism(s4.algebra, SIGN4),
        "self-twist": self_twist(ex1.algebra),
        "faulkner-ternary": faulkner_ternary(sl2),
        "faulkner-leibniz": tensor_leibniz(sl2),
    }


@pytest.mark.parametrize("name", ("raise", "leibniz", "tstar", "tstar-omega", "twist",
                                  "self-twist", "faulkner-ternary", "faulkner-leibniz"))
def test_construction_outputs_match_oracle(constructed, name):
    x = constructed[name]
    if isinstance(x, HomLeibnizAlgebra):
        x = x.as_nambu()        # the arity-2 view also runs the Leibniz check
    a = _algebra(x)
    _compare_nambu(a, _maps(a.dim)[2:], levels=(0, 1))
    _compare_quadratic(_quadratic(x), _maps(a.dim)[:2])


def test_rectangular_morphism_matches_oracle(s4, sum5):
    f = Matrix(5, 4, [1 if i == j else 0 for i in range(5) for j in range(4)])
    for g in (f, f.scale(2), f.scale(-1)):
        _same(check_morphism, oracle.morphism, s4.algebra, sum5, g)


def test_budgets_match_oracle(s4, ex2, dualnum):
    a = s4.algebra
    sl2 = HomLeibnizAlgebra(3, corpus.load("sl2").algebra.bracket, Matrix.identity(3))
    for new, old, obj, need in (
            (check_skew_symmetry, oracle.skew_symmetry, a, 64),
            (check_multiplicativity, oracle.multiplicativity, a, 64),
            (check_hom_leibniz, _leibniz_oracle, sl2, 3 * 3),
            (check_hom_leibniz, oracle.hom_leibniz,
             replace(sl2, bracket=_dense(sl2.as_nambu()).bracket), 27),
            (check_total_hom_associativity, oracle.total_hom_associativity,
             dualnum, 8 + 32),
            (check_hom_nambu_identity, oracle.hom_nambu_identity, a, 6 * 4),
            (check_hom_nambu_identity, oracle.hom_nambu_identity, _dense(a), 16 * 64),
            (check_hom_nambu_identity, _identity_oracle, ex2.algebra, 9 * 27),
            (check_quadratic, oracle.quadratic, s4, 16)):
        for check in (new, old):
            with pytest.raises(TupleBudgetExceeded):
                check(obj, need - 1)
        _same(new, old, obj, need)


# ------------------------------------------------- single-entry perturbations

BASES = {name: _algebra(corpus.load(name))
         for name in ("simple3lie4", "sl2", "heisenberg3", "example1", "example2")}
BASES["A4"] = filippov(4)

small = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def _perturb(bracket, t, delta, skew):
    """The bracket with delta added at tuple t: in increasing-tuple storage
    when asked and t has distinct indices, else in dense storage (where t may
    repeat an index)."""
    if skew and bracket.skew_storage and len(set(t)) == len(t):
        key = tuple(sorted(t))
        coeffs = dict(bracket.coeffs)
        coeffs[key] = coeffs.get(key, Vector.zero(bracket.vdim)) + delta
        return BracketTensor(bracket.dim, bracket.arity, coeffs, skew_storage=True)
    coeffs = dict(bracket.dense_items())
    coeffs[t] = coeffs.get(t, Vector.zero(bracket.vdim)) + delta
    return BracketTensor(bracket.dim, bracket.arity, coeffs)


@st.composite
def perturbed(draw, bases):
    base = bases[draw(st.sampled_from(sorted(bases)))]
    d, n = base.dim, base.arity
    t = tuple(draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
    delta = Vector(draw(st.lists(small, min_size=d, max_size=d)
                        .filter(lambda xs: any(xs))))
    skew = draw(st.booleans())
    f = Matrix(d, d, draw(st.lists(st.sampled_from([F(-1), F(0), F(0), F(1), F(2)]),
                                   min_size=d * d, max_size=d * d)))
    mu = _perturb(base.mu if isinstance(base, HomAssocNAry) else base.bracket, t, delta, skew)
    return base, mu, f


@settings(max_examples=120, deadline=None)
@given(perturbed(BASES))
def test_perturbed_brackets_match_oracle(case):
    base, bracket, f = case
    a = HomNambuAlgebra(base.dim, base.arity, bracket, base.twists)
    _compare_nambu(a, [Matrix.identity(a.dim), Matrix.diagonal(range(1, a.dim + 1)), f])


@settings(max_examples=40, deadline=None)
@given(perturbed({"dualnumbers3": corpus.load("dualnumbers3")}))
def test_perturbed_products_match_oracle(case):
    base, mu, f = case
    h = HomAssocNAry(base.dim, base.arity, mu, base.twists)
    _compare_assoc(h, [Matrix.identity(h.dim), f])


def test_product_perturbations_reach_every_failure(dualnum):
    """Perturbing dualnumbers3 at one tuple, or at every ordering of it so
    that the product stays symmetric, reaches the symmetry failure and each
    pair of consecutive association orders; every report matches."""
    details = set()
    for t in itertools.product(range(2), repeat=3):
        for delta in (Vector([1, 0]), Vector([0, 1]), Vector([F(-1, 2), 2])):
            for keys in ({t}, set(itertools.permutations(t))):
                coeffs = dict(dualnum.mu.dense_items())
                for s in keys:
                    coeffs[s] = coeffs.get(s, Vector.zero(2)) + delta
                h = HomAssocNAry(2, 3, BracketTensor(2, 3, coeffs), dualnum.twists)
                _same(check_total_hom_associativity, oracle.total_hom_associativity, h)
                details.add(check_total_hom_associativity(h).detail)
    assert details == {None, "product not symmetric", "association orders 1 and 2 differ",
                       "association orders 2 and 3 differ"}


# -------------------------------- skew claims and quadratic structures perturbed

SKEW_BASES = {name: _algebra(corpus.load(name))
              for name in ("simple3lie4", "sl2", "heisenberg3", "example2")}
SKEW_BASES["A4"] = filippov(4)
SKEW_BASES["A5"] = filippov(5)


@st.composite
def perturbed_skew(draw):
    """A skew base with one stored entry changed, kept in skew storage."""
    base = SKEW_BASES[draw(st.sampled_from(sorted(SKEW_BASES)))]
    d, n = base.dim, base.arity
    t = tuple(sorted(draw(st.sets(st.integers(0, d - 1), min_size=n, max_size=n))))
    delta = Vector(draw(st.lists(small, min_size=d, max_size=d).filter(any)))
    return replace(base, bracket=_perturb(base.bracket, t, delta, True))


@settings(max_examples=120, deadline=None)
@given(perturbed_skew())
def test_perturbed_skew_claims_match_oracle(a):
    """One entry changed in skew storage: under one twist the identity on
    increasing tuples gives the loop's report, and under distinct twists
    (example2) the loop over all tuples gives the dense twin's."""
    assert a.skew
    _same(check_hom_nambu_identity, _identity_oracle, a)


def test_skew_perturbations_fail_at_inner_tuples():
    """Adding a basis vector to one stored entry of A4 or A5 fails the
    identity at tuples past the first x and short of the last tuple; every
    report matches."""
    inner = set()
    for a in (filippov(4), filippov(5)):
        d, n = a.dim, a.arity
        count = comb(d, n - 1) * comb(d, n)
        for t in itertools.combinations(range(d), n):
            for k in range(d):
                coeffs = dict(a.bracket.coeffs)
                coeffs[t] = coeffs.get(t, Vector.zero(d)) + Vector.basis(d, k)
                b = replace(a, bracket=BracketTensor(d, n, coeffs, skew_storage=True))
                _same(check_hom_nambu_identity, oracle.hom_nambu_identity, b)
                r = check_hom_nambu_identity(b)
                if comb(d, n) < r.tuples_checked < count:
                    inner.add((d, r.tuples_checked))
    assert len(inner) >= 4


# ------------------------------- the loop over all tuples against the oracle

@st.composite
def identity_cases(draw):
    """Filippov's A4 in skew or dense storage under diagonal twists (often
    failing past the first x), or a random bracket of arity 2 or 3: in dense
    storage on at most 3 dimensions (absent rows are zero, entries have
    denominators up to 3) or in skew storage on at most 4, sparse or full.
    Identity, one common or distinct twists, and no tuple budget or one next
    to the tuple count."""
    skew = draw(st.booleans())
    if draw(st.booleans()):
        d, n, C = 4, 3, filippov(4).bracket
        if not skew:
            C = BracketTensor(d, n, dict(C.dense_items()))
        def twist():
            return Matrix.diagonal(draw(st.lists(st.sampled_from((1, -1, 0, 2)),
                                                 min_size=d, max_size=d)))
    else:
        n = draw(st.integers(2, 3))
        d = draw(st.integers(n, 4) if skew else st.integers(1, 3))
        keys = list(itertools.combinations(range(d), n) if skew else all_tuples(d, n))
        keys = draw(st.lists(st.sampled_from(keys), unique=True,
                             max_size=draw(st.sampled_from((2, len(keys))))))
        C = BracketTensor(d, n, {t: Vector(draw(st.lists(coef, min_size=d, max_size=d)))
                                 for t in keys}, skew_storage=skew)
        def twist():
            return matrix(draw, d, d)
    kind = draw(st.sampled_from(("identity", "common", "distinct")))
    if kind == "distinct":
        twists = tuple(twist() for _ in range(n - 1))
    else:
        twists = (Matrix.identity(d) if kind == "identity" else twist(),) * (n - 1)
    a = HomNambuAlgebra(d, n, C, twists)
    count = (comb(d, n - 1) * comb(d, n) if skew and _twists_equal(a)
             else d ** (2 * n - 1))
    return a, draw(st.one_of(st.none(), st.integers(count - 1, count + 1)))


@settings(max_examples=300, deadline=None)
@given(identity_cases())
def test_identity_matches_oracle(case):
    """The fundamental identity reads its rows from tables built once per x;
    every report (verdict, first counterexample and tuples_checked) and every
    budget refusal equals the oracle's loop over tuples."""
    a, budget = case
    try:
        want = _identity_oracle(a, budget).to_json()
    except TupleBudgetExceeded as e:
        with pytest.raises(TupleBudgetExceeded, match=re.escape(str(e))):
            check_hom_nambu_identity(a, budget)
        return
    assert check_hom_nambu_identity(a, budget).to_json() == want


def test_dense_perturbations_fail_at_inner_tuples():
    """Adding a basis vector to one entry of the dense twin of example1,
    which has twist diag(1, 1, -1), fails the identity at tuples past the
    first x and short of the last tuple; every report matches."""
    a = _dense(BASES["example1"])
    d, n = a.dim, a.arity
    inner = set()
    for t in all_tuples(d, n):
        for k in range(d):
            b = replace(a, bracket=_perturb(a.bracket, t, Vector.basis(d, k), False))
            _same(check_hom_nambu_identity, oracle.hom_nambu_identity, b)
            r = check_hom_nambu_identity(b)
            if d ** n < r.tuples_checked < d ** (2 * n - 1):
                inner.add(r.tuples_checked)
    assert len(inner) >= 4


QUADRATIC_BASES = ("simple3lie4", "example1", "example2", "sl2", "A4", "tstar", "tstar-omega")


@functools.lru_cache(maxsize=None)
def _quadratic_base(name):
    s4 = corpus.load("simple3lie4")
    if name == "A4":
        return _quadratic(filippov(4))
    if name == "tstar":
        return tstar_extension(s4.algebra, BilinearForm.standard(4))
    if name == "tstar-omega":
        return tstar_extension(s4.algebra, BilinearForm.standard(4), omega=SIGN4)
    return _quadratic(corpus.load(name))


def _plus(m, i, j, delta):
    entries = list(m.entries)
    entries[i * m.cols + j] += delta
    return Matrix(m.rows, m.cols, entries)


@st.composite
def perturbed_quadratic(draw):
    q = _quadratic_base(draw(st.sampled_from(QUADRATIC_BASES)))
    a = q.algebra
    d, n = a.dim, a.arity
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    delta = draw(small.filter(bool))
    part = draw(st.sampled_from(("gram", "beta", "bracket")))
    if part == "gram":
        return replace(q, form=BilinearForm(d, _plus(_plus(q.form.gram, i, j, delta),
                                                      j, i, delta)))
    if part == "beta":
        return replace(q, beta=_plus(q.beta or Matrix.identity(d), i, j, delta))
    t = tuple(draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n)))
    bracket = _perturb(a.bracket, t, Vector.basis(d, i).scale(delta), draw(st.booleans()))
    return replace(q, algebra=replace(a, bracket=bracket))


@settings(max_examples=150, deadline=None)
@given(perturbed_quadratic())
def test_perturbed_quadratic_structures_match_oracle(q):
    _same(check_quadratic, oracle.quadratic, q)
    _same(check_quadratic, oracle.quadratic_swap, q)


def test_quadratic_perturbations_fail_at_inner_tuples():
    """Symmetric changes of one pair of Gram entries of the T*-extension fail
    invariance at x past the first and short of the last; every report,
    counterexample pair (i, j) included, matches."""
    q = _quadratic_base("tstar")
    d, n = q.algebra.dim, q.algebra.arity
    inner, off_diagonal = 0, 0
    for i in range(d):
        for j in range(i, d):
            p = replace(q, form=BilinearForm(d, _plus(_plus(q.form.gram, i, j, 1), j, i, 1)))
            _same(check_quadratic, oracle.quadratic, p)
            r = check_quadratic(p)
            if not r.passed:
                inner += 1 < r.tuples_checked < d ** (n - 1)
                yz = r.counterexample.indices[-2:]
                off_diagonal += yz[0] != yz[1]
    assert inner >= 4 and off_diagonal >= 4


# --------------------------- skew storage kept through transform and compare

@st.composite
def skew_cases(draw):
    d = draw(st.integers(2, 5))
    n = draw(st.integers(2, min(d, 4)))
    vdim = draw(st.integers(1, 4))
    return d, n, vdim, draw(skew_tensors(d, n, vdim))


@settings(max_examples=150, deadline=None)
@given(skew_cases(), st.data())
def test_skew_transform_matches_dense_oracle(case, data):
    """One map in every slot keeps skew storage, any other choice gives dense
    storage; either way every tuple has the dense oracle's value."""
    d, n, vdim, C = case
    m = data.draw(slot_maps(d))
    uniform = m.cols != d or data.draw(st.booleans())
    maps = [m] * n
    if not uniform:     # a square map with the identity in one slot
        maps[data.draw(st.integers(0, n - 1))] = None
    rows = data.draw(st.sampled_from((None, 0, 1, 2, 3, 4)))
    out_map = (None if rows is None else Matrix.identity(vdim) if rows == 0
               else matrix(data.draw, rows, vdim))
    new = C.transform(maps, out_map)
    old = oracle_skew.transform(C, maps, out_map)
    assert new.skew_storage == (uniform or m == Matrix.identity(d))
    assert (new.dim, new.arity, new.vdim) == (old.dim, old.arity, old.vdim)
    for t in all_tuples(new.dim, n):
        assert new.value(t) == old.value(t)


@settings(max_examples=150, deadline=None)
@given(skew_cases(), st.data())
def test_skew_compare_matches_dense_oracle(case, data):
    """Two skew-storage tensors compared on stored keys give the report of the
    comparison of their expanded entries."""
    d, n, vdim, left = case
    how = data.draw(st.sampled_from(("random", "perturbed", "mapped", "equal")))
    if how == "random":
        right = data.draw(skew_tensors(d, n, vdim))
    elif how == "perturbed" and left.coeffs:
        coeffs = dict(left.coeffs)
        key = data.draw(st.sampled_from(sorted(coeffs)))
        coeffs[key] = coeffs[key] + Vector(data.draw(st.lists(entries, min_size=vdim,
                                                              max_size=vdim)))
        right = BracketTensor(d, n, coeffs, skew_storage=True, vdim=vdim)
    elif how == "mapped":
        right = left.transform([data.draw(slot_maps(d, "invertible"))] * n)
    else:
        right = BracketTensor(d, n, dict(left.coeffs), skew_storage=True, vdim=vdim)
    assert left.skew_storage and right.skew_storage
    new = _compare("skew", d, n, left, right)
    old = _compare("skew", d, n, dict(left.dense_items()), dict(right.dense_items()))
    assert new.to_json() == old.to_json()


@settings(max_examples=120, deadline=None)
@given(skew_cases(), st.data())
def test_skew_identity_matches_dense_oracle(case, data):
    """On skew storage under one twist the fundamental identity reads the
    bracket and its twisted copies through ``free_slot_items``; the report
    equals the one of the code that built them densely.  Under distinct
    twists the identity does not alternate, and the report equals the loop
    over all tuples run on the dense twin."""
    d, n, _, _ = case
    C = data.draw(skew_tensors(d, n, d))
    kind = data.draw(st.sampled_from(("identity", "common", "distinct")))
    if kind == "identity":
        twists = (Matrix.identity(d),) * (n - 1)
    elif kind == "common":
        twists = (data.draw(slot_maps(d, data.draw(st.sampled_from(("invertible",
                                                                     "singular"))))),) * (n - 1)
    else:
        twists = tuple(data.draw(slot_maps(d, "invertible")) for _ in range(n - 1))
    a = HomNambuAlgebra(d, n, C, twists)
    if _twists_equal(a):
        _same(check_hom_nambu_identity, oracle_skew.hom_nambu_identity, a)
    else:
        _same(check_hom_nambu_identity, _identity_oracle, a)


# ------------------- skew storage read through minors, invariance unexpanded

@settings(max_examples=150, deadline=None)
@given(skew_cases(), st.data())
def test_mapped_free_slot_items_match_transform(case, data):
    """The entries with slot i free and the other slots increasing, of the
    tensor with one square map in every other slot, equal those the dense
    oracle transform gives."""
    d, n, _, C = case
    kind = data.draw(st.sampled_from(("identity", "invertible", "singular", "zero")))
    m = Matrix.zero(d, d) if kind == "zero" else data.draw(slot_maps(d, kind))
    slot = data.draw(st.integers(0, n - 1))
    maps = [None if k == slot else m for k in range(n)]
    got = C.free_slot_items(slot, m)
    want = {t: v for t, v in oracle_skew.transform(C, maps).coeffs.items()
            if oracle_skew.is_increasing(t[:slot] + t[slot + 1:])}
    assert len(dict(got)) == len(got)
    assert dict(got) == want


# entries with denominators 2, 3 and 6
fractional = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3), F(5, 6)])


@st.composite
def minor_maps(draw):
    """A square or rectangular map: random entries (often singular), rank
    one, or a diagonal or signed permutation padded with zero rows or
    columns."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("random", "rank one", "diagonal", "signed permutation")))
    if kind == "random":
        return Matrix(rows, cols, draw(st.lists(fractional, min_size=rows * cols,
                                                max_size=rows * cols)))
    if kind == "rank one":
        u = draw(st.lists(fractional, min_size=rows, max_size=rows))
        v = draw(st.lists(fractional, min_size=cols, max_size=cols))
        return Matrix(rows, cols, [x * y for x in u for y in v])
    k = min(rows, cols)
    perm = list(range(k)) if kind == "diagonal" else draw(st.permutations(range(k)))
    vals = draw(st.lists(fractional if kind == "diagonal" else st.sampled_from((F(1), F(-1))),
                         min_size=k, max_size=k))
    return Matrix(rows, cols, [vals[i] if i < k and j == perm[i] else 0
                               for i in range(rows) for j in range(cols)])


@settings(max_examples=300, deadline=None)
@given(minor_maps(), st.data())
def test_row_minors_match_bareiss_oracle(m, data):
    """The minors built as an exterior product row by row equal one Bareiss
    determinant per minor, for distinct rows in any order."""
    rows = tuple(data.draw(st.lists(st.integers(0, m.rows - 1), unique=True,
                                    max_size=m.rows)))
    assert _row_minors(m, rows) == oracle_skew.row_minors(m, rows)


def test_row_minors_of_small_maps():
    """The reversal of three columns needs the sign of each moved column, and
    a 2 x 3 map whose rows share their columns has only the minors of
    distinct columns."""
    reversal = Matrix(3, 3, [0, 0, 1, 0, 1, 0, 1, 0, 0])
    assert _row_minors(reversal, (0, 1, 2)) == {(0, 1, 2): -1}
    m = Matrix(2, 3, [1, 2, 0, 3, 4, 5])
    assert _row_minors(m, (0, 1)) == {(0, 1): -2, (0, 2): 5, (1, 2): 10}
    assert _row_minors(None, (1, 3)) == {(1, 3): 1}


def test_mapped_free_slot_items_reject_a_rectangular_map():
    C = filippov(4).bracket
    with pytest.raises(ValueError, match="slot map has wrong shape"):
        C.free_slot_items(1, Matrix.zero(4, 3))


def test_free_slot_items_reject_dense_storage():
    """Only skew storage is read off its keys; a dense tensor is refused,
    with or without a map."""
    C = BracketTensor(4, 3, dict(filippov(4).bracket.dense_items()))
    for m in (None, Matrix.identity(4), Matrix.zero(4, 4)):
        with pytest.raises(ValueError, match="skew storage only"):
            C.free_slot_items(1, m)


@st.composite
def skew_quadratic(draw):
    """A random skew-storage bracket with identity twists, a random
    symmetric form (maybe degenerate) and beta: invariance usually fails."""
    d = draw(st.integers(2, 5))
    n = draw(st.integers(2, min(d, 4)))
    C = draw(skew_tensors(d, n, d))
    g = matrix(draw, d, d)
    gram = g + g.T
    beta = draw(st.one_of(st.none(), slot_maps(d, "invertible")))
    a = HomNambuAlgebra(d, n, C, (Matrix.identity(d),) * (n - 1))
    return QuadraticStructure(a, BilinearForm(d, gram), beta=beta)


@settings(max_examples=150, deadline=None)
@given(skew_quadratic())
def test_skew_quadratic_matches_swap_oracle(q):
    """Invariance read off skew storage gives the report of the tensor plus
    its swap_output, and so does the same bracket in dense storage."""
    _same(check_quadratic, oracle.quadratic_swap, q)
    _same(check_quadratic, oracle.quadratic, q)
    a = q.algebra
    dense = replace(a, bracket=BracketTensor(a.dim, a.arity, dict(a.bracket.dense_items())))
    _same(check_quadratic, oracle.quadratic_swap, replace(q, algebra=dense))


def _no_expansion(monkeypatch):
    """Make expanding skew storage an error."""
    dense_items = BracketTensor.dense_items

    def guarded(self):
        assert not self.skew_storage, "skew storage expanded"
        return dense_items(self)
    monkeypatch.setattr(BracketTensor, "dense_items", guarded)


def test_skew_storage_stays_unexpanded_under_a_common_twist(monkeypatch):
    """The T*-extension of A5, with identity twists, with one invertible
    twist and with the zero twist: every space at k = -1..2, the skew
    identity and invariance never expand skew storage."""
    from nambucat.spaces import compute_center, compute_central_derivations
    q = tstar_extension(filippov(5), BilinearForm.standard(5))
    a = q.algebra
    d, n = a.dim, a.arity
    twist = Matrix(d, d, [1 if i == j else 1 if j == i + 1 and i % 2 == 0 else 0
                          for i in range(d) for j in range(d)])
    _no_expansion(monkeypatch)
    for alpha in (Matrix.identity(d), twist, Matrix.zero(d, d)):
        b = replace(a, twists=(alpha,) * (n - 1))
        assert b.bracket.skew_storage
        for k in (-1, 0, 1, 2):
            compute_centroid(b, k)
            compute_derivations(b, k)
        compute_center(b)
        compute_central_derivations(b)
        check_hom_nambu_identity(b)
    assert check_quadratic(q).passed
