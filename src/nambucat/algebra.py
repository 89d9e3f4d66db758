"""Domain types for n-ary brackets over exact rationals.

A bracket is stored as a sparse tensor of structure constants: a map from
basis index tuples to the coordinate vector of the bracket of those basis
elements. The standard coordinate basis e_0..e_{d-1} is fixed throughout
(serialized 1-based as e_1..e_d); change of basis is always an explicit
transform, never implicit.

Skew storage keeps the strictly increasing keys only.  A map applied to
every slot of such a tensor enters through the minors of the map, which are
built row by row as exterior products, so the storage is never expanded
into its signed permutations.

Every other contraction of one tensor with others goes through one kernel,
``BracketTensor.compose``: A(inner_0(..), ..., inner_{n-1}(..)), built slot
by slot from nonzero entries.  Substituting a tensor into one slot, fixing
leading slots to vectors, and mapping slots by matrices (each map as the
arity-1 tensor ``linear(m)``) are calls of it.  Brackets on tensor spaces
are sums of Kronecker products of tensors, built by one more kernel,
``BracketTensor.kron``.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import Matrix, Vector, rank


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence of distinct comparables: the
    parity of its inversion count."""
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def sort_with_sign(idx: Tuple[int, ...]) -> Tuple[Optional[Tuple[int, ...]], int]:
    """Sorted index tuple and permutation sign; (None, 0) on repeated indices."""
    if len(set(idx)) != len(idx):
        return None, 0
    return tuple(sorted(idx)), perm_sign(idx)


class BracketTensor:
    """Sparse structure constants of an n-linear map into a d-dimensional space.

    ``coeffs`` maps index tuples to output Vectors; absent tuples are zero.
    With ``skew_storage`` only strictly increasing tuples are stored and all
    other values are derived by permutation sign (repeated indices give zero).
    The output dimension ``vdim`` defaults to ``dim`` but may differ (used for
    operator-valued tensors such as representations).
    """

    __slots__ = ("dim", "arity", "vdim", "coeffs", "skew_storage", "_dense", "_zero")

    def __init__(self, dim: int, arity: int,
                 coeffs: Dict[Tuple[int, ...], Vector],
                 skew_storage: bool = False,
                 vdim: Optional[int] = None):
        self.dim = dim
        self.arity = arity
        self.vdim = dim if vdim is None else vdim
        self.skew_storage = skew_storage
        clean: Dict[Tuple[int, ...], Vector] = {}
        for idx, vec in coeffs.items():
            idx = tuple(idx)
            if len(idx) != arity or any(not 0 <= i < dim for i in idx):
                raise ValueError(f"bad index tuple {idx}")
            if vec.dim != self.vdim:
                raise ValueError("coefficient vector has wrong length")
            if skew_storage and any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"skew storage requires strictly increasing tuples, got {idx}")
            if any(vec.entries):
                clean[idx] = vec
        self.coeffs = clean
        self._dense = None
        self._zero = Vector.zero(self.vdim)   # shared: Vector is immutable

    @classmethod
    def zero(cls, dim: int, arity: int, vdim: Optional[int] = None) -> "BracketTensor":
        return cls(dim, arity, {}, vdim=vdim)

    @classmethod
    def skew_from_entries(cls, dim: int, arity: int,
                          coeffs: Dict[Tuple[int, ...], Vector]) -> "BracketTensor":
        """Canonicalize arbitrary entries of a skew bracket into increasing-tuple storage."""
        canon: Dict[Tuple[int, ...], Vector] = {}
        for idx, vec in coeffs.items():
            key, sign = sort_with_sign(tuple(idx))
            if key is None:
                if not vec.is_zero():
                    raise ValueError(f"nonzero value on repeated indices {idx}")
                continue
            contrib = vec if sign == 1 else -vec
            if key in canon and canon[key] != contrib:
                raise ValueError(f"inconsistent skew data at {key}")
            canon[key] = contrib
        return cls(dim, arity, canon, skew_storage=True)

    def value(self, idx: Tuple[int, ...]) -> Vector:
        """Bracket of the basis tuple idx (0-based)."""
        if self.skew_storage:
            key, sign = sort_with_sign(idx)
            if key is None:
                return self._zero
            vec = self.coeffs.get(key)
            if vec is None:
                return self._zero
            return vec if sign == 1 else -vec
        return self.coeffs.get(tuple(idx), self._zero)

    def dense_items(self) -> List[Tuple[Tuple[int, ...], Vector]]:
        """All nonzero (tuple, value) pairs, skew storage expanded, sorted."""
        if self._dense is None:
            if self.skew_storage:
                out = []
                for idx, vec in self.coeffs.items():
                    for perm in itertools.permutations(idx):
                        sign = perm_sign(perm)
                        out.append((perm, vec if sign == 1 else -vec))
                self._dense = sorted(out)
            else:
                self._dense = sorted(self.coeffs.items())
        return self._dense

    def free_slot_items(self, slot: int, m: Optional[Matrix] = None
                        ) -> List[Tuple[Tuple[int, ...], Vector]]:
        """The nonzero entries (t, value) of this tensor with the square map
        ``m`` applied to every slot but ``slot`` (None or the identity: no
        map): on skew storage those whose other slots strictly increase, on
        dense storage all of them (``dense_items``).

        On skew storage they are read off the stored keys without expanding
        them: stored key K gives one entry per position p, with K[p] moved to
        ``slot`` and sign (-1)^(p - slot).  The other slots R = K minus K[p]
        of that entry spread over the increasing J with coefficient
        det(m[R, J]), an (n-1)-minor of m (without a map, J = R only), and
        the entries that land on one key are summed.
        """
        if m is not None and _is_identity(m, self.dim):
            m = None
        if m is not None and (m.rows != self.dim or m.cols != self.dim):
            raise ValueError("slot map has wrong shape")
        if not self.skew_storage:
            return (self if m is None else self.transform(
                [None if k == slot else m for k in range(self.arity)])).dense_items()
        minors: Dict[Tuple[int, ...], Dict[Tuple[int, ...], Fraction]] = {}
        acc: Dict[Tuple[int, ...], Vector] = {}
        summed = set()      # the keys of several terms, the only ones that may cancel
        for key, vec in self.coeffs.items():
            for p, k in enumerate(key):
                rest = key[:p] + key[p + 1:]
                if rest not in minors:
                    minors[rest] = _row_minors(m, rest)
                for cols, c in minors[rest].items():
                    c = -c if (p - slot) % 2 else c
                    term = vec.scale(c)
                    t = cols[:slot] + (k,) + cols[slot:]
                    if t in acc:
                        acc[t] = acc[t] + term
                        summed.add(t)
                    else:
                        acc[t] = term
        return [(t, v) for t, v in acc.items() if t not in summed or any(v.entries)]

    def eval(self, args: Sequence[Vector]) -> Vector:
        """Multilinear extension: the arguments fixed in every slot by one
        ``compose`` (which rejects an argument of the wrong dimension)."""
        if len(args) != self.arity:
            raise ValueError("arity mismatch")
        return self.fix(args).value(())

    @classmethod
    def constant(cls, v: Vector) -> "BracketTensor":
        """A fixed vector as an arity-0 tensor (its one key is ``()``)."""
        return cls(v.dim, 0, {(): v})

    @classmethod
    def linear(cls, m: Matrix) -> "BracketTensor":
        """A ``dim x d'`` map as an arity-1 tensor on d'-dimensional
        arguments: key (j,) takes column j."""
        return cls(m.cols, 1, {(j,): m.col(j) for j in range(m.cols)}, vdim=m.rows)

    def fix(self, vectors: Sequence[Vector]) -> "BracketTensor":
        """The tensor with ``vectors`` substituted into its leading slots."""
        return self.compose([BracketTensor.constant(v) for v in vectors]
                            + [None] * (self.arity - len(vectors)))

    def substitute(self, slot: int, inner: "BracketTensor") -> "BracketTensor":
        """Tensor of A(a_0..a_{slot-1}, inner(b_0..b_{m-1}), a_{slot+1}..), of
        arity n+m-1 with this tensor's ``vdim``; ``inner`` maps into the
        argument space, and an arity-0 ``inner`` is a fixed vector."""
        if not 0 <= slot < self.arity:
            raise ValueError(f"no slot {slot} in an arity-{self.arity} tensor")
        return self.compose([inner if k == slot else None for k in range(self.arity)])

    def compose(self, inners: Sequence[Optional["BracketTensor"]]) -> "BracketTensor":
        """Tensor of A(inner_0(..), ..., inner_{n-1}(..)) with this tensor's
        ``vdim``, whose slots are the inners' slots in order.  ``inners[k]``
        is None (slot k stays as it is), an arity-0 tensor (slot k is fixed to
        its vector) or a tensor into the argument space; every remaining slot
        has one dimension.  The result has dense storage.

        The slots are filled left to right from nonzero entries only.  A
        partial key holds the inners' slots so far, then this tensor's
        indices still to fill, so slots of different dimensions coexist.  At
        slot k the inner's entries are indexed by their nonzero output
        coordinates, and each partial entry whose index at k is one of them
        is extended by every such entry.  Partial entries that land on one
        key are summed, and those that cancel are dropped.
        """
        if len(inners) != self.arity:
            raise ValueError("arity mismatch")
        dims = {self.dim if t is None else t.dim for t in inners if t is None or t.arity}
        if len(dims) > 1 or any(t is not None and t.vdim != self.dim for t in inners):
            raise ValueError("dimension mismatch")
        items = self.dense_items()      # (key, Vector), then (key, row) once filled
        pos = 0                         # where slot k's index sits in a partial key
        for inner in inners:
            if inner is None:
                pos += 1
                continue
            by_coord: Dict[int, list] = {}
            for t, w in inner.dense_items():
                for j, c in enumerate(w.entries):
                    if c:
                        by_coord.setdefault(j, []).append((t, c))
            acc: Dict[Tuple[int, ...], List[Fraction]] = {}
            for key, vals in items:
                for t, c in by_coord.get(key[pos], ()):
                    add_scaled(acc, key[:pos] + t + key[pos + 1:], c, vals)
            items = [(key, row) for key, row in acc.items() if any(row)]
            pos += inner.arity
        return BracketTensor(dims.pop() if dims else self.dim, pos,
                             {key: Vector.trusted(row) for key, row in items}, vdim=self.vdim)

    def permute(self, order: Sequence[int]) -> "BracketTensor":
        """The tensor with its slots reordered: the entry at key t moves to
        ``tuple(t[o] for o in order)``, so new slot k takes old slot
        ``order[k]``.  The result has dense storage."""
        if sorted(order) != list(range(self.arity)):
            raise ValueError(f"{order} does not reorder {self.arity} slots")
        return BracketTensor(self.dim, self.arity,
                             {tuple(t[o] for o in order): v for t, v in self.dense_items()},
                             vdim=self.vdim)

    def swap_output(self, slot: int) -> "BracketTensor":
        """The tensor with one slot and the output coordinate exchanged:
        coordinate r of the entry at key t becomes coordinate ``t[slot]`` of
        the entry at t with slot ``slot`` set to r.  Needs ``vdim == dim``;
        applied twice it gives the tensor back.  The result has dense storage."""
        if not 0 <= slot < self.arity:
            raise ValueError(f"no slot {slot} in an arity-{self.arity} tensor")
        if self.vdim != self.dim:
            raise ValueError("swap_output needs vdim == dim")
        acc: Dict[Tuple[int, ...], List[Fraction]] = {}
        for t, v in self.dense_items():
            for r, c in enumerate(v.entries):
                if c:
                    key = t[:slot] + (r,) + t[slot + 1:]
                    acc.setdefault(key, [Fraction(0)] * self.dim)[t[slot]] = c
        return BracketTensor(self.dim, self.arity,
                             {key: Vector.trusted(row) for key, row in acc.items()})

    @classmethod
    def combine(cls, terms: Sequence[Tuple[int, "BracketTensor"]]) -> "BracketTensor":
        """The sum of c * T over the (c, T) pairs, which share dim, arity and
        vdim; entries that cancel are dropped."""
        shapes = {(t.dim, t.arity, t.vdim) for _, t in terms}
        if len(shapes) != 1:
            raise ValueError("combine needs one or more tensors of one shape")
        acc: Dict[Tuple[int, ...], List[Fraction]] = {}
        for c, tensor in terms:
            for key, vec in tensor.dense_items():
                add_scaled(acc, key, c, vec.entries)
        dim, arity, vdim = shapes.pop()
        return cls(dim, arity, {key: Vector.trusted(row) for key, row in acc.items()},
                   vdim=vdim)

    @classmethod
    def kron(cls, terms: Sequence[Tuple[Sequence["BracketTensor"],
                                        Sequence[Sequence[Tuple[int, int]]]]]) -> "BracketTensor":
        """The sum over the terms (factors, slots) of A_0(..) (x) ... (x)
        A_{k-1}(..), outputs multiplied in factor order.  Result slot p reads
        the (factor, slot) pairs ``slots[p]`` as one slot of their tensor
        product, the first pair most significant.  Each term reads every factor
        slot once, and all terms give one shape; an arity-0 result has
        ``dim == vdim``.  Terms are built factor by factor from nonzero entries
        into one table of rows, and rows that cancel are dropped (dense storage)."""
        acc: Dict[Tuple[int, ...], List[Fraction]] = {}
        shapes = set()
        for factors, slots in terms:
            if sorted(p for group in slots for p in group) != [
                    (f, s) for f, t in enumerate(factors) for s in range(t.arity)]:
                raise ValueError("a kron term must read every factor slot once")
            vdim = prod(t.vdim for t in factors)
            shapes |= {(prod(factors[f].dim for f, _ in group), len(slots), vdim)
                       for group in slots} or {(vdim, 0, vdim)}
            if len(shapes) > 1:
                raise ValueError("kron result slots or terms differ in shape")
            places = [[(f, s, prod(factors[g].dim for g, _ in group[q + 1:]))
                       for q, (f, s) in enumerate(group)] for group in slots]
            partial = [((0,) * len(slots), None)]       # (key so far, output so far)
            for f, t in enumerate(factors):
                part = [(tuple(sum(key[s] * r for g, s, r in read if g == f) for read in places),
                         [(j, c) for j, c in enumerate(v.entries) if c])
                        for key, v in t.dense_items()]
                partial = [(tuple(a + b for a, b in zip(key, share)), w if out is None
                            else [(i * t.vdim + j, c * x) for i, c in out for j, x in w])
                           for key, out in partial for share, w in part]
            for key, out in partial:
                row = acc.setdefault(key, [Fraction(0)] * vdim)
                for i, c in out or [(0, 1)]:
                    row[i] += c
        if not shapes:
            raise ValueError("kron needs one or more terms")
        dim, arity, vdim = shapes.pop()
        return cls(dim, arity, {key: Vector.trusted(row) for key, row in acc.items()},
                   vdim=vdim)

    def transform(self, slot_maps: Sequence[Optional[Matrix]],
                  out_map: Optional[Matrix] = None) -> "BracketTensor":
        """Tensor of (args) -> out_map(bracket(M_1 a_1, ..., M_n a_n)).

        ``slot_maps[k]`` is the linear map applied to argument k (None for
        identity). Slot maps are ``dim x d'`` with one shared ``d'``, and the
        result is a tensor on ``d'``-dimensional arguments whose value on a
        basis tuple j is the bracket evaluated on the mapped basis vectors.
        Identity maps are skipped like None.

        Skew storage with one map M in every slot stays skew: the value on
        increasing J is the sum over stored keys K of det(M[K, J]) times the
        value at K, with J over the columns M has nonzero on rows K.  Any
        other case gives dense storage, built by ``compose`` with each map as
        ``linear(m)``.
        """
        if len(slot_maps) != self.arity:
            raise ValueError("need one map per slot")
        maps = [None if m is None or _is_identity(m, self.dim) else m for m in slot_maps]
        widths = {self.dim if m is None else m.cols for m in maps}
        if len(widths) > 1 or any(m is not None and m.rows != self.dim for m in maps):
            raise ValueError("slot map has wrong shape")
        (width,) = widths
        skew = self.skew_storage and all(m == maps[0] for m in maps[1:])
        if skew:
            items = self.coeffs if maps[0] is None else self._minors(maps[0])
        elif all(m is None for m in maps):
            items = dict(self.dense_items())
        else:
            items = self.compose([None if m is None else BracketTensor.linear(m)
                                  for m in maps]).coeffs
        vdim = self.vdim
        if out_map is not None and not _is_identity(out_map, vdim):
            items = {key: out_map.apply(vec) for key, vec in items.items()}
            vdim = out_map.rows
        return BracketTensor(width, self.arity, items, skew_storage=skew, vdim=vdim)

    def _minors(self, m: Matrix) -> Dict[Tuple[int, ...], Vector]:
        """Increasing-key values of a skew-storage tensor with m in every slot."""
        acc: Dict[Tuple[int, ...], List[Fraction]] = {}
        for key, vec in self.coeffs.items():
            for cols, c in _row_minors(m, key).items():
                add_scaled(acc, cols, c, vec.entries)
        return {key: Vector.trusted(v) for key, v in acc.items()}

    def skew_canonical(self) -> "BracketTensor":
        """Re-store a (verified skew) tensor with increasing-tuple storage."""
        if self.skew_storage:
            return self
        return BracketTensor.skew_from_entries(self.dim, self.arity, self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BracketTensor):
            return NotImplemented
        if (self.dim, self.arity, self.vdim) != (other.dim, other.arity, other.vdim):
            return False
        return dict(self.dense_items()) == dict(other.dense_items())

    def __hash__(self):
        raise TypeError("BracketTensor is not hashable")

    def __repr__(self) -> str:
        return (f"BracketTensor(dim={self.dim}, arity={self.arity}, "
                f"nnz={len(self.coeffs)}, skew_storage={self.skew_storage})")


def add_scaled(acc: Dict[Tuple[int, ...], List[Fraction]], key: Tuple[int, ...],
               c: Fraction, vals: Sequence[Fraction]) -> None:
    """Add c * vals to the row stored under key, starting from zeros."""
    row = acc.get(key)
    if row is None:
        row = acc[key] = [Fraction(0)] * len(vals)
    for r, v in enumerate(vals):
        if v:
            row[r] += c * v


def _row_minors(m: Optional[Matrix], rows: Tuple[int, ...]
                ) -> Dict[Tuple[int, ...], Fraction]:
    """The nonzero minors det(m[rows, J]), keyed by the increasing column
    tuples J; without a map (m None, the identity) that is {rows: 1}.

    They are the coordinates of the exterior product of the rows, built one
    row at a time: each nonzero entry (j, x) of the next row extends every
    key J without j, and moving j from the end of J into place past the
    columns of J above it gives the sign."""
    if m is None:
        return {rows: 1}
    wedge: Dict[Tuple[int, ...], Fraction] = {(): 1}
    for i in rows:
        row = [(j, x) for j, x in enumerate(m.entries[i * m.cols:(i + 1) * m.cols]) if x]
        nxt: Dict[Tuple[int, ...], Fraction] = {}
        for cols, c in wedge.items():
            for j, x in row:
                if j not in cols:
                    p = bisect_left(cols, j)
                    key = cols[:p] + (j,) + cols[p:]
                    nxt[key] = nxt.get(key, 0) + (-c * x if (len(cols) - p) % 2 else c * x)
        wedge = {cols: c for cols, c in nxt.items() if c}
    return wedge


def _is_identity(m: Matrix, n: int) -> bool:
    """m is the n x n identity, read off its entries without building one."""
    return m.rows == m.cols == n and all(
        x == (1 if k % (n + 1) == 0 else 0) for k, x in enumerate(m.entries))


def _common_twist(twists: Tuple[Matrix, ...]) -> Matrix:
    if any(t != twists[0] for t in twists[1:]):
        raise ValueError("twists differ")
    return twists[0]


@dataclass(frozen=True)
class HomNambuAlgebra:
    """An n-ary bracket with a family of n-1 twist maps.

    The bracket's storage is the one record of alternation: ``skew`` reads
    it, and only a bracket declared or verified alternating is put in skew
    storage.  The ``multiplicative`` flag is a claim: constructors never set
    it silently, verification routines confirm it.
    """

    dim: int
    arity: int
    bracket: BracketTensor
    twists: Tuple[Matrix, ...]
    multiplicative: bool = False

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(self.twists))
        if self.bracket.dim != self.dim or self.bracket.arity != self.arity:
            raise ValueError("bracket tensor does not match dim/arity")
        if len(self.twists) != self.arity - 1:
            raise ValueError(f"expected {self.arity - 1} twist maps")
        for t in self.twists:
            if t.rows != self.dim or t.cols != self.dim:
                raise ValueError("twist map has wrong shape")

    @property
    def skew(self) -> bool:
        """The bracket is alternating: it has skew storage."""
        return self.bracket.skew_storage

    @property
    def twist(self) -> Matrix:
        """The common twist of a multiplicative algebra (twists must agree)."""
        return _common_twist(self.twists)


@dataclass(frozen=True)
class HomLeibnizAlgebra:
    """Binary bracket with a single twist map (not necessarily skew)."""

    dim: int
    bracket: BracketTensor
    twist: Matrix

    def __post_init__(self):
        if self.bracket.arity != 2 or self.bracket.dim != self.dim:
            raise ValueError("bracket must be binary on the stated dimension")
        if self.twist.rows != self.dim or self.twist.cols != self.dim:
            raise ValueError("twist map has wrong shape")

    def as_nambu(self) -> HomNambuAlgebra:
        """View as an arity-2 Hom-Nambu algebra (shared checker machinery)."""
        return HomNambuAlgebra(self.dim, 2, self.bracket, (self.twist,))


@dataclass(frozen=True)
class HomAssocNAry:
    """Symmetric n-ary totally Hom-associative algebra."""

    dim: int
    arity: int
    mu: BracketTensor
    twists: Tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(self.twists))
        if self.mu.dim != self.dim or self.mu.arity != self.arity:
            raise ValueError("product tensor does not match dim/arity")
        if len(self.twists) != self.arity - 1:
            raise ValueError(f"expected {self.arity - 1} twist maps")

    @property
    def twist(self) -> Matrix:
        """The common twist (twists must agree)."""
        return _common_twist(self.twists)


@dataclass(frozen=True)
class BilinearForm:
    """Symmetric bilinear form given by its Gram matrix."""

    dim: int
    gram: Matrix

    def __post_init__(self):
        if self.gram.rows != self.dim or self.gram.cols != self.dim:
            raise ValueError("gram matrix has wrong shape")
        if not self.gram.is_symmetric():
            raise ValueError("gram matrix must be symmetric")

    def apply(self, x: Vector, y: Vector) -> Fraction:
        return self.gram.apply(y).dot(x)

    @property
    def nondegenerate(self) -> bool:
        return rank(self.gram) == self.dim

    @classmethod
    def standard(cls, dim: int) -> "BilinearForm":
        return cls(dim, Matrix.identity(dim))


@dataclass(frozen=True)
class QuadraticStructure:
    """Algebra together with an (optionally beta-twisted) invariant form."""

    algebra: HomNambuAlgebra
    form: BilinearForm
    beta: Optional[Matrix] = None

    def __post_init__(self):
        if self.form.dim != self.algebra.dim:
            raise ValueError("form dimension mismatch")
        if self.beta is not None and (self.beta.rows != self.algebra.dim
                                      or self.beta.cols != self.algebra.dim):
            raise ValueError("beta has wrong shape")


def eval_bracket(a: HomNambuAlgebra, args: Sequence[Vector]) -> Vector:
    """n-linear extension of the structure constants."""
    return a.bracket.eval(args)


def adjoint_operator(a: HomNambuAlgebra, x: Sequence[Vector]) -> Matrix:
    """Matrix of y -> [x_1, ..., x_{n-1}, y] in the coordinate basis."""
    if len(x) != a.arity - 1:
        raise ValueError("need n-1 arguments")
    op = a.bracket.fix(x)
    return Matrix.from_columns([op.value((j,)) for j in range(a.dim)])


def all_tuples(dim: int, length: int) -> Iterable[Tuple[int, ...]]:
    return itertools.product(range(dim), repeat=length)


def tuple_position(t: Tuple[int, ...], dim: int) -> int:
    """Position of a tuple in ``all_tuples(dim, len(t))`` order."""
    position = 0
    for i in t:
        position = position * dim + i
    return position


def increasing_tuples(dim: int, length: int) -> Iterable[Tuple[int, ...]]:
    return itertools.combinations(range(dim), length)
