"""Domain types for n-ary brackets over exact rationals.

A bracket is stored as a sparse tensor of structure constants: a map from
basis index tuples to the coordinate vector of the bracket of those basis
elements. The standard coordinate basis e_0..e_{d-1} is fixed throughout
(serialized 1-based as e_1..e_d); change of basis is always an explicit
transform, never implicit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import Matrix, Vector


def perm_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a sequence of distinct comparables."""
    sign = 1
    seen = [False] * len(perm)
    order = sorted(range(len(perm)), key=lambda i: perm[i])
    pos = [0] * len(perm)
    for rank, i in enumerate(order):
        pos[i] = rank
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = pos[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


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
            if not vec.is_zero():
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

    def eval(self, args: Sequence[Vector]) -> Vector:
        """Multilinear extension: the arguments substituted slot by slot
        (``substitute`` rejects an argument of the wrong dimension)."""
        if len(args) != self.arity:
            raise ValueError("arity mismatch")
        return self.fix(args).value(())

    @classmethod
    def constant(cls, v: Vector) -> "BracketTensor":
        """A fixed vector as an arity-0 tensor (its one key is ``()``)."""
        return cls(v.dim, 0, {(): v})

    def fix(self, vectors: Sequence[Vector]) -> "BracketTensor":
        """The tensor with ``vectors`` substituted into its leading slots."""
        out = self
        for v in vectors:
            out = out.substitute(0, BracketTensor.constant(v))
        return out

    def substitute(self, slot: int, inner: "BracketTensor") -> "BracketTensor":
        """Tensor of A(a_0..a_{slot-1}, inner(b_0..b_{m-1}), a_{slot+1}..), of
        arity n+m-1 with this tensor's ``vdim``; ``inner`` maps into the
        argument space, and an arity-0 ``inner`` is a fixed vector.

        Built from nonzero entries only: the outer entries are grouped by
        their slot index, and each nonzero coordinate of each inner entry adds
        one scaled outer entry per group member.  Entries that cancel are
        dropped.
        """
        if not 0 <= slot < self.arity:
            raise ValueError(f"no slot {slot} in an arity-{self.arity} tensor")
        if inner.vdim != self.dim or (inner.arity and inner.dim != self.dim):
            raise ValueError("dimension mismatch")
        outer: Dict[int, list] = {}
        for idx, vec in self.dense_items():
            outer.setdefault(idx[slot], []).append(
                (idx[:slot], idx[slot + 1:], vec.entries))
        acc: Dict[Tuple[int, ...], List[Fraction]] = {}
        for t, w in inner.dense_items():
            for j, c in enumerate(w.entries):
                if not c:
                    continue
                for head, tail, vals in outer.get(j, ()):
                    add_scaled(acc, head + t + tail, c, vals)
        return BracketTensor(self.dim, self.arity + inner.arity - 1,
                             {key: Vector(row) for key, row in acc.items()},
                             vdim=self.vdim)

    def permute(self, order: Sequence[int]) -> "BracketTensor":
        """The tensor with its slots reordered: the entry at key t moves to
        ``tuple(t[o] for o in order)``, so new slot k takes old slot
        ``order[k]``.  The result has dense storage."""
        if sorted(order) != list(range(self.arity)):
            raise ValueError(f"{order} does not reorder {self.arity} slots")
        return BracketTensor(self.dim, self.arity,
                             {tuple(t[o] for o in order): v for t, v in self.dense_items()},
                             vdim=self.vdim)

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
        return cls(dim, arity, {key: Vector(row) for key, row in acc.items()}, vdim=vdim)

    def transform(self, slot_maps: Sequence[Optional[Matrix]],
                  out_map: Optional[Matrix] = None) -> "BracketTensor":
        """Tensor of (args) -> out_map(bracket(M_1 a_1, ..., M_n a_n)).

        ``slot_maps[k]`` is the linear map applied to argument k (None for
        identity). Slot maps are ``dim x d'`` with one shared ``d'``, and the
        result is a dense-storage tensor on ``d'``-dimensional arguments whose
        value on a basis tuple j is the bracket evaluated on the mapped basis
        vectors. Identity maps are skipped like None.
        """
        if len(slot_maps) != self.arity:
            raise ValueError("need one map per slot")
        maps = [None if m is None or _is_identity(m, self.dim) else m for m in slot_maps]
        widths = {self.dim if m is None else m.cols for m in maps}
        if len(widths) > 1 or any(m is not None and m.rows != self.dim for m in maps):
            raise ValueError("slot map has wrong shape")
        (width,) = widths
        items = dict(self.dense_items())
        for k, m in enumerate(maps):
            if m is None:
                continue
            nxt: Dict[Tuple[int, ...], List[Fraction]] = {}
            for idx, vec in items.items():
                i = idx[k]
                for j in range(width):
                    c = m[i, j]
                    if c == 0:
                        continue
                    add_scaled(nxt, idx[:k] + (j,) + idx[k + 1:], c, vec.entries)
            items = {key: Vector(v) for key, v in nxt.items()}
        vdim = self.vdim
        if out_map is not None and not _is_identity(out_map, vdim):
            items = {key: out_map.apply(vec) for key, vec in items.items()}
            vdim = out_map.rows
        return BracketTensor(width, self.arity, items, vdim=vdim)

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


def _is_identity(m: Matrix, n: int) -> bool:
    return m.rows == m.cols == n and m == Matrix.identity(n)


def _common_twist(twists: Tuple[Matrix, ...]) -> Matrix:
    if any(t != twists[0] for t in twists[1:]):
        raise ValueError("twists differ")
    return twists[0]


@dataclass(frozen=True)
class HomNambuAlgebra:
    """An n-ary bracket with a family of n-1 twist maps.

    The ``skew`` and ``multiplicative`` flags are claims: constructors never
    set them silently, verification routines confirm them.
    """

    dim: int
    arity: int
    bracket: BracketTensor
    twists: Tuple[Matrix, ...]
    skew: bool = False
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
    def twist(self) -> Matrix:
        """The common twist of a multiplicative algebra (twists must agree)."""
        return _common_twist(self.twists)

    def with_flags(self, skew: Optional[bool] = None,
                   multiplicative: Optional[bool] = None) -> "HomNambuAlgebra":
        return replace(self,
                       skew=self.skew if skew is None else skew,
                       multiplicative=self.multiplicative if multiplicative is None
                       else multiplicative)


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

    def as_nambu(self, skew: bool = False) -> HomNambuAlgebra:
        """View as an arity-2 Hom-Nambu algebra (shared checker machinery)."""
        return HomNambuAlgebra(self.dim, 2, self.bracket, (self.twist,), skew=skew)


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
        from .linalg import rank
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
