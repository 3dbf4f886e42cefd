"""Finite-dimensional unital algebras given by structure constants.

An :class:`AlgebraSpec` fixes a basis e_0..e_{dim-1} and a sparse table
c[i][j][k] with e_i e_j = sum_k c[i][j][k] e_k.  Elements and tensor squares
(elements of A (x) A) are sparse tables of Scalars with one shared base
class; linear/algebra maps hold a sparse table per column.  Everything is
immutable and exact.  This module does arithmetic only: the structure file
format that reads and writes these tables lives in ``oqa.structures``.

The two concrete algebras used by the builders are the matrix algebra M_n(k)
with basis E_ij (row-major) and the four-dimensional algebra generated by
``g, x`` with g^2 = 1, x^2 = 0, xg = -gx (basis 1, g, x, gx).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .scalar import Scalar, SymbolTable

__all__ = [
    "AlgebraError",
    "SingularError",
    "AlgebraSpec",
    "AlgebraElement",
    "TensorSquareElement",
    "AlgebraMap",
    "matrix_algebra",
    "sweedler_algebra",
    "tensor_mul",
    "tensor_invert",
    "qybe_check",
    "apply_map_tensor",
    "echelon_basis",
]


class AlgebraError(ValueError):
    pass


class SingularError(AlgebraError):
    """A linear problem (tensor inverse, map inverse) has no solution."""


Coeffs = Dict[int, Scalar]


@dataclass(frozen=True)
class AlgebraSpec:
    """A finite-dimensional unital associative algebra over a SymbolTable."""

    table: SymbolTable
    dim: int
    basis_labels: Tuple[str, ...]
    structure: Mapping[Tuple[int, int], Tuple[Tuple[int, Scalar], ...]]
    unit: Tuple[Tuple[int, Scalar], ...]
    name: str = "algebra"

    def __repr__(self) -> str:
        return f"AlgebraSpec({self.name}, dim={self.dim})"

    def label_index(self, label: str) -> int:
        try:
            return self.basis_labels.index(label)
        except ValueError:
            raise AlgebraError(f"unknown basis label {label!r} in {self!r}") from None

    # -- element constructors ------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {k: c for k, c in self.unit})

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, {i: self.table.one})

    def element(self, coeffs: Mapping[int, Scalar]) -> "AlgebraElement":
        return AlgebraElement(self, coeffs)

    def opposite(self) -> "AlgebraSpec":
        structure = {
            (j, i): terms for (i, j), terms in self.structure.items()
        }
        return AlgebraSpec(
            table=self.table,
            dim=self.dim,
            basis_labels=self.basis_labels,
            structure=structure,
            unit=self.unit,
            name=self.name + "^op",
        )

    # -- sanity ---------------------------------------------------------------

    def check_unital(self) -> None:
        one = self.one()
        for i in range(self.dim):
            e = self.basis_element(i)
            if one * e != e or e * one != e:
                raise AlgebraError(f"unit fails on basis element {self.basis_labels[i]}")

    def check_associative(self) -> None:
        for i, j, k in itertools.product(range(self.dim), repeat=3):
            ei, ej, ek = map(self.basis_element, (i, j, k))
            if (ei * ej) * ek != ei * (ej * ek):
                raise AlgebraError(
                    "associativity fails on "
                    f"({self.basis_labels[i]}, {self.basis_labels[j]}, {self.basis_labels[k]})"
                )


def _clean(coeffs: Mapping) -> dict:
    return {k: c for k, c in coeffs.items() if not c.is_zero}


@dataclass(frozen=True)
class _SparseTable:
    """A sparse table of nonzero Scalars of ``algebra``, keyed by basis
    indices (an element of A) or by pairs of them (an element of A (x) A).
    Values of different classes are never equal."""

    algebra: AlgebraSpec
    coeffs: Mapping

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _clean(self.coeffs))

    def _check(self, other: "_SparseTable") -> None:
        if other.algebra.basis_labels != self.algebra.basis_labels:
            raise AlgebraError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return type(self)(self.algebra, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.algebra, {k: -c for k, c in self.coeffs.items()})

    def scale(self, s: Scalar):
        return type(self)(self.algebra, {k: c * s for k, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.algebra.basis_labels == other.algebra.basis_labels
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs


@dataclass(frozen=True, eq=False)
class AlgebraElement(_SparseTable):
    coeffs: Mapping[int, Scalar]

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out: dict = {}
        structure = self.algebra.structure
        for i, ci in self.coeffs.items():
            for j, cj in other.coeffs.items():
                terms = structure.get((i, j))
                if not terms:
                    continue
                cij = ci * cj
                for k, c in terms:
                    s = out.get(k)
                    contrib = cij * c
                    out[k] = contrib if s is None else s + contrib
        return AlgebraElement(self.algebra, out)

    def pairing(self, functional: Mapping[int, Scalar]) -> Scalar:
        """Apply a linear functional given by its values on basis elements."""
        total = self.algebra.table.zero
        for k, c in self.coeffs.items():
            f = functional.get(k)
            if f is not None:
                total = total + c * f
        return total

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        labels = self.algebra.basis_labels
        parts = [f"({self.coeffs[k].text()})*{labels[k]}" for k in sorted(self.coeffs)]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"AlgebraElement({self.text()})"


@dataclass(frozen=True, eq=False)
class TensorSquareElement(_SparseTable):
    """Element of A (x) A as a sparse table over basis pairs."""

    coeffs: Mapping[Tuple[int, int], Scalar]

    def _tensorand_span(self, side: int) -> List[AlgebraElement]:
        """The elements sum_k c_(k, m) e_k (side 0) or sum_k c_(m, k) e_k
        (side 1), one per index m of the other tensorand."""
        by_other: Dict[int, dict] = {}
        for key, c in self.coeffs.items():
            by_other.setdefault(key[1 - side], {})[key[side]] = c
        return [AlgebraElement(self.algebra, v) for v in by_other.values()]

    def first_tensorand_span(self) -> List[AlgebraElement]:
        return self._tensorand_span(0)

    def second_tensorand_span(self) -> List[AlgebraElement]:
        return self._tensorand_span(1)


def tensor_unit(algebra: AlgebraSpec) -> TensorSquareElement:
    coeffs: dict = {}
    for i, ci in algebra.unit:
        for j, cj in algebra.unit:
            coeffs[(i, j)] = ci * cj
    return TensorSquareElement(algebra, coeffs)


def tensor_mul(
    algebra: AlgebraSpec,
    u: TensorSquareElement,
    v: TensorSquareElement,
    second_factor_opposite: bool = False,
) -> TensorSquareElement:
    """Product of u and v in A (x) A, or in A (x) A^op when flagged.

    With the flag set, second tensorands multiply in reverse order.
    """
    out: dict = {}
    structure = algebra.structure
    for (i, j), cu in u.coeffs.items():
        for (p, q), cv in v.coeffs.items():
            first = structure.get((i, p))
            if not first:
                continue
            second = structure.get((q, j) if second_factor_opposite else (j, q))
            if not second:
                continue
            c = cu * cv
            for k1, c1 in first:
                for k2, c2 in second:
                    key = (k1, k2)
                    contrib = c * c1 * c2
                    s = out.get(key)
                    out[key] = contrib if s is None else s + contrib
    return TensorSquareElement(algebra, out)


# -- sparse linear algebra ---------------------------------------------------


def solve_sparse(
    table: SymbolTable,
    rows: List[Dict[int, Scalar]],
    rhs: List[Scalar],
    nunknowns: int,
) -> Optional[List[Scalar]]:
    """Solve a sparse exact linear system; None when it is inconsistent.

    Gaussian elimination with a sparsity-biased pivot, run only on the rows a
    nonzero right-hand side reaches through shared unknowns (an empty row
    with a nonzero right-hand side included).  Every other block of rows is
    homogeneous and solves to zero, and pivots within a block do not depend
    on other blocks, so the result is the full elimination's.  Free unknowns
    are set to zero.  For a rho from ``build_thm5`` on M_n, rho X = 1 has n^4
    unknowns, and the unit reaches at most 2n^2 - n rows.
    """
    rows = [{c: v for c, v in r.items() if not v.is_zero} for r in rows]
    rhs = list(rhs)
    assignments: Dict[int, Tuple[Dict[int, Scalar], Scalar]] = {}
    rows_of: Dict[int, List[int]] = {}
    for k, r in enumerate(rows):
        for c in r:
            rows_of.setdefault(c, []).append(k)
    stack = [k for k, b in enumerate(rhs) if not b.is_zero]
    reached = set(stack)
    while stack:
        for c in rows[stack.pop()]:
            for m in rows_of.pop(c, ()):
                if m not in reached:
                    reached.add(m)
                    stack.append(m)
    active = sorted(reached)
    solved_order: List[int] = []
    while True:
        best = None
        for k in active:
            row = rows[k]
            if not row:
                if not rhs[k].is_zero:
                    return None
                continue
            score = len(row)
            if best is None or score < best[0]:
                best = (score, k)
        if best is None:
            break
        _, k = best
        row, b = rows[k], rhs[k]
        col = min(row)
        pivot = row[col]
        inv = pivot.inv()
        norm_row = {c: v * inv for c, v in row.items() if c != col}
        norm_b = b * inv
        assignments[col] = (norm_row, norm_b)
        solved_order.append(col)
        active = [m for m in active if m != k]
        for m in active:
            r = rows[m]
            factor = r.pop(col, None)
            if factor is None or factor.is_zero:
                continue
            for c, v in norm_row.items():
                s = r.get(c)
                nv = (s - factor * v) if s is not None else -factor * v
                if nv.is_zero:
                    r.pop(c, None)
                else:
                    r[c] = nv
            rhs[m] = rhs[m] - factor * norm_b
        active = [m for m in active if rows[m] or not rhs[m].is_zero]

    solution = [table.zero] * nunknowns
    known: Dict[int, Scalar] = {}
    for col in reversed(solved_order):
        row, b = assignments[col]
        val = b
        for c, v in row.items():
            if c in known:
                val = val - v * known[c]
            # unsolved columns are free; set to zero
        known[col] = val
        solution[col] = val
    return solution


def tensor_invert(algebra: AlgebraSpec, u: TensorSquareElement) -> TensorSquareElement:
    """Two-sided inverse of u in A (x) A via a linear solve; raises if singular."""
    dim = algebra.dim
    index = {
        (i, j): i * dim + j for i in range(dim) for j in range(dim)
    }
    rows: List[Dict[int, Scalar]] = [dict() for _ in range(dim * dim)]
    structure = algebra.structure
    for (i, j), cu in u.coeffs.items():
        for r in range(dim):
            first = structure.get((i, r))
            if not first:
                continue
            for s in range(dim):
                second = structure.get((j, s))
                if not second:
                    continue
                col = index[(r, s)]
                for k1, c1 in first:
                    for k2, c2 in second:
                        row = rows[k1 * dim + k2]
                        contrib = cu * c1 * c2
                        prev = row.get(col)
                        row[col] = contrib if prev is None else prev + contrib
    one = tensor_unit(algebra)
    rhs = [algebra.table.zero] * (dim * dim)
    for (i, j), c in one.coeffs.items():
        rhs[i * dim + j] = c
    sol = solve_sparse(algebra.table, rows, rhs, dim * dim)
    if sol is None:
        raise SingularError("tensor-square element is not invertible")
    coeffs = {
        (i, j): sol[index[(i, j)]]
        for i in range(dim)
        for j in range(dim)
        if not sol[index[(i, j)]].is_zero
    }
    v = TensorSquareElement(algebra, coeffs)
    if tensor_mul(algebra, u, v) != one or tensor_mul(algebra, v, u) != one:
        raise SingularError("tensor-square element is not two-sided invertible")
    return v


# -- the quantum Yang-Baxter equation ----------------------------------------


def qybe_check(algebra: AlgebraSpec, rho: TensorSquareElement) -> bool:
    """Whether rho_12 rho_13 rho_23 = rho_23 rho_13 rho_12 holds exactly."""
    return not qybe_defect(algebra, rho)


def _qybe_side(algebra: AlgebraSpec, rho: TensorSquareElement) -> dict:
    """rho_12 rho_13 rho_23 as a triple table; over A^op it is rho_23 rho_13 rho_12.

    With rho = sum_s c_s e_{i_s} (x) e_{j_s} this is
    sum_{s,t,u} c_s c_t c_u e_{i_s} e_{i_t} (x) e_{j_s} e_{i_u} (x) e_{j_t} e_{j_u}.
    The (s, t) pairs are summed first, keyed by (first slot, j_s, j_t); each
    u then multiplies into the second and third slots.
    """
    structure = algebra.structure
    terms = list(rho.coeffs.items())
    pairs: dict = {}
    for (i_s, j_s), c_s in terms:
        for (i_t, j_t), c_t in terms:
            first = structure.get((i_s, i_t))
            if not first:
                continue
            c = c_s * c_t
            for k1, c1 in first:
                key = (k1, j_s, j_t)
                contrib = c * c1
                s = pairs.get(key)
                pairs[key] = contrib if s is None else s + contrib
    out: dict = {}
    for (k1, j_s, j_t), cp in pairs.items():
        if cp.is_zero:
            continue
        for (i_u, j_u), c_u in terms:
            second = structure.get((j_s, i_u))
            if not second:
                continue
            third = structure.get((j_t, j_u))
            if not third:
                continue
            c = cp * c_u
            for k2, c2 in second:
                c12 = c * c2
                for k3, c3 in third:
                    key = (k1, k2, k3)
                    contrib = c12 * c3
                    s = out.get(key)
                    out[key] = contrib if s is None else s + contrib
    return out


def qybe_defect(algebra: AlgebraSpec, rho: TensorSquareElement) -> dict:
    """Nonzero slots of rho_12 rho_13 rho_23 - rho_23 rho_13 rho_12 (witnesses);
    the right side is the left side over A^op."""
    out = _qybe_side(algebra, rho)
    for k, c in _qybe_side(algebra.opposite(), rho).items():
        s = out.get(k)
        out[k] = -c if s is None else s - c
    return {k: c for k, c in out.items() if not c.is_zero}


# -- linear and algebra maps -------------------------------------------------


@dataclass(frozen=True)
class AlgebraMap:
    """A linear endomap; column j holds the image of basis element j."""

    algebra: AlgebraSpec
    columns: Mapping[int, Mapping[int, Scalar]]

    def __post_init__(self):
        cols = {j: c for j, col in self.columns.items() if (c := _clean(col))}
        object.__setattr__(self, "columns", cols)

    @staticmethod
    def identity(algebra: AlgebraSpec) -> "AlgebraMap":
        one = algebra.table.one
        return AlgebraMap(algebra, {j: {j: one} for j in range(algebra.dim)})

    @staticmethod
    def diagonal(algebra: AlgebraSpec, entries: Mapping[int, Scalar]) -> "AlgebraMap":
        return AlgebraMap(algebra, {j: {j: c} for j, c in entries.items()})

    def is_identity(self) -> bool:
        one = self.algebra.table.one
        return all(
            self.columns.get(j, {}) == {j: one} for j in range(self.algebra.dim)
        )

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        out: dict = {}
        for j, cj in x.coeffs.items():
            col = self.columns.get(j)
            if not col:
                continue
            for i, c in col.items():
                contrib = cj * c
                s = out.get(i)
                out[i] = contrib if s is None else s + contrib
        return AlgebraElement(self.algebra, out)

    def apply_basis(self, j: int) -> AlgebraElement:
        return AlgebraElement(self.algebra, dict(self.columns.get(j, {})))

    def compose(self, other: "AlgebraMap") -> "AlgebraMap":
        """self after other."""
        cols = {
            j: self.apply(other.apply_basis(j)).coeffs
            for j in range(self.algebra.dim)
        }
        return AlgebraMap(self.algebra, cols)

    def power(self, n: int) -> "AlgebraMap":
        """self^n for any integer n.  Powers are memoized on the map, each one
        compose away from its neighbour towards 0, and self is inverted (a
        linear solve per column) at most once."""
        memo = self.__dict__.get("_powers")
        if memo is None:
            memo = {0: AlgebraMap.identity(self.algebra)}
            object.__setattr__(self, "_powers", memo)
        if n not in memo:
            step = 1 if n > 0 else -1
            start = n
            while start - step not in memo:
                start -= step
            for k in range(start, n + step, step):
                if k > 0:
                    memo[k] = self.compose(memo[k - 1])
                else:
                    inverse = memo[-1] if k < -1 else self.inverse()
                    memo[k] = inverse.compose(memo[k + 1])
        return memo[n]

    def inverse(self) -> "AlgebraMap":
        dim = self.algebra.dim
        table = self.algebra.table
        cols = {}
        rows: List[Dict[int, Scalar]] = [dict() for _ in range(dim)]
        for j, col in self.columns.items():
            for i, c in col.items():
                rows[i][j] = c
        for target in range(dim):
            rhs = [table.one if i == target else table.zero for i in range(dim)]
            sol = solve_sparse(table, rows, rhs, dim)
            if sol is None:
                raise SingularError("map is not invertible")
            cols[target] = {i: c for i, c in enumerate(sol) if not c.is_zero}
        return AlgebraMap(self.algebra, cols)

    def is_multiplicative(self) -> bool:
        algebra = self.algebra
        for i in range(algebra.dim):
            fi = self.apply_basis(i)
            for j in range(algebra.dim):
                fj = self.apply_basis(j)
                prod = algebra.basis_element(i) * algebra.basis_element(j)
                if self.apply(prod) != fi * fj:
                    return False
        return self.apply(algebra.one()) == algebra.one()

    def commutes_with(self, other: "AlgebraMap") -> bool:
        return self.compose(other) == other.compose(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraMap):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self) -> int:
        return hash(
            frozenset(
                (j, frozenset(col.items())) for j, col in self.columns.items()
            )
        )


def apply_map_tensor(
    f: AlgebraMap, g: AlgebraMap, u: TensorSquareElement
) -> TensorSquareElement:
    """(f (x) g)(u)."""
    out: dict = {}
    for (i, j), c in u.coeffs.items():
        fi = f.columns.get(i)
        gj = g.columns.get(j)
        if not fi or not gj:
            continue
        for p, cp in fi.items():
            for q, cq in gj.items():
                key = (p, q)
                contrib = c * cp * cq
                s = out.get(key)
                out[key] = contrib if s is None else s + contrib
    return TensorSquareElement(u.algebra, out)


def echelon_basis(vectors: Iterable[AlgebraElement]) -> List[AlgebraElement]:
    """Reduced spanning set of a list of elements (exact row echelon)."""
    basis: Dict[int, AlgebraElement] = {}
    for v in vectors:
        v = AlgebraElement(v.algebra, dict(v.coeffs))
        while not v.is_zero:
            lead = min(v.coeffs)
            if lead in basis:
                v = v - basis[lead].scale(v.coeffs[lead])
            else:
                basis[lead] = v.scale(v.coeffs[lead].inv())
                break
    return [basis[k] for k in sorted(basis)]


# -- concrete algebras -------------------------------------------------------


def matrix_algebra(table: SymbolTable, n: int) -> AlgebraSpec:
    """M_n(k) with the standard basis E_ij (row-major), E_ij E_lm = delta_jl E_im."""
    if n < 1:
        raise AlgebraError("matrix algebra needs n >= 1")
    one = table.one
    idx = lambda i, j: i * n + j
    labels = tuple(f"E{i + 1}{j + 1}" for i in range(n) for j in range(n))
    structure = {}
    for i, j, l, m in itertools.product(range(n), repeat=4):
        if j == l:
            structure[(idx(i, j), idx(l, m))] = ((idx(i, m), one),)
    unit = tuple((idx(i, i), one) for i in range(n))
    return AlgebraSpec(table, n * n, labels, structure, unit, name=f"M{n}")


def sweedler_algebra(table: SymbolTable) -> AlgebraSpec:
    """The 4-dimensional algebra <g, x | g^2 = 1, x^2 = 0, xg = -gx>.

    Basis order: 1, g, x, gx.  Characteristic zero is automatic here.
    """
    one = table.one
    E, G, X, GX = 0, 1, 2, 3
    products = {
        (E, E): (E, 1), (E, G): (G, 1), (E, X): (X, 1), (E, GX): (GX, 1),
        (G, E): (G, 1), (G, G): (E, 1), (G, X): (GX, 1), (G, GX): (X, 1),
        (X, E): (X, 1), (X, G): (GX, -1), (X, X): None, (X, GX): None,
        (GX, E): (GX, 1), (GX, G): (X, -1), (GX, X): None, (GX, GX): None,
    }
    structure = {}
    for (i, j), res in products.items():
        if res is None:
            continue
        k, sign = res
        structure[(i, j)] = ((k, one if sign == 1 else -one),)
    labels = ("1", "g", "x", "gx")
    return AlgebraSpec(table, 4, labels, structure, tuple([(E, one)]), name="H4")
