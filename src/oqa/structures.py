"""Oriented quantum algebra structures and their verification.

An oriented quantum algebra is a quadruple (A, rho, t_d, t_u): an invertible
rho in A (x) A together with commuting algebra automorphisms t_d, t_u such
that

  (qa.1) (1 (x) t_u)(rho) and (t_d (x) 1)(rho^-1) are inverses in A (x) A^op,
  (qa.2) rho = (t_d (x) t_d)(rho) = (t_u (x) t_u)(rho),
  (qa.3) rho_12 rho_13 rho_23 = rho_23 rho_13 rho_12.

"Standard" means t_d = 1, "balanced" means t_d = t_u.  A twist is an
invertible G fixed by both automorphisms with t_d(t_u(x)) = G x G^-1; it is
what closes tangle invariants into knot/link invariants.

This module builds the matrix-algebra families (the one-parameter solution
rho_{a,B,C}, its balanced structure, and the full diagonal-block
classification), the four-dimensional ``sweedler_oqa`` example, and provides
the axiom checker, standardization, opposites, minimal subalgebras and twist
attachment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .algebra import (
    AlgebraElement,
    AlgebraMap,
    AlgebraSpec,
    SingularError,
    TensorSquareElement,
    _json_object,
    apply_map_tensor,
    echelon_basis,
    matrix_algebra,
    qybe_check,
    qybe_defect,
    sweedler_algebra,
    tensor_invert,
    tensor_mul,
    tensor_unit,
)
from .scalar import Scalar, SymbolTable, perfect_sqrt

__all__ = [
    "StructureError",
    "TwistError",
    "Twist",
    "OrientedQuantumAlgebraStructure",
    "AxiomReport",
    "check_axioms",
    "build_rho_abc",
    "build_balanced_example2",
    "MnStructureParams",
    "Thm5Report",
    "classify_thm5",
    "build_thm5",
    "standardize",
    "opposite",
    "sweedler_oqa",
    "minimal_subalgebra",
    "attach_twist",
    "matrix_trace",
    "is_tracelike",
    "structure_to_json",
    "structure_from_json",
    "params_from_json",
]


class StructureError(ValueError):
    pass


class TwistError(StructureError):
    """A twist precondition failed; the message names which one."""


@dataclass(frozen=True)
class Twist:
    g: AlgebraElement
    g_inv: AlgebraElement

    def power(self, d: int) -> AlgebraElement:
        base = self.g if d >= 0 else self.g_inv
        out = self.g.algebra.one()
        for _ in range(abs(d)):
            out = out * base
        return out


@dataclass(frozen=True)
class OrientedQuantumAlgebraStructure:
    """(A, rho, t_d, t_u) with cached inverse, optional twist and trace."""

    algebra: AlgebraSpec
    rho: TensorSquareElement
    rho_inv: TensorSquareElement
    t_d: AlgebraMap
    t_u: AlgebraMap
    twist: Optional[Twist] = None
    trace: Optional[Mapping[int, Scalar]] = None
    name: str = "oqa"

    @staticmethod
    def create(
        algebra: AlgebraSpec,
        rho: TensorSquareElement,
        t_d: AlgebraMap,
        t_u: AlgebraMap,
        rho_inv: Optional[TensorSquareElement] = None,
        trace: Optional[Mapping[int, Scalar]] = None,
        name: str = "oqa",
        validate_maps: bool = True,
    ) -> "OrientedQuantumAlgebraStructure":
        """Assemble a structure, inverting rho when no inverse is supplied.

        Validates that t_d, t_u are commuting algebra automorphisms and that
        the supplied inverse really is one.  Axioms are not checked here;
        that is check_axioms' job, and a twist is added by attach_twist.
        """
        if rho_inv is None:
            rho_inv = tensor_invert(algebra, rho)
        else:
            one = tensor_unit(algebra)
            if (
                tensor_mul(algebra, rho, rho_inv) != one
                or tensor_mul(algebra, rho_inv, rho) != one
            ):
                raise StructureError("supplied rho_inv is not a two-sided inverse")
        if validate_maps:
            for label, m in (("t_d", t_d), ("t_u", t_u)):
                if not m.is_multiplicative():
                    raise StructureError(f"{label} is not an algebra map")
                m.inverse()  # raises SingularError when not bijective
            if not t_d.commutes_with(t_u):
                raise StructureError("t_d and t_u do not commute")
        return OrientedQuantumAlgebraStructure(
            algebra, rho, rho_inv, t_d, t_u, None, trace, name
        )

    @property
    def table(self) -> SymbolTable:
        return self.algebra.table

    @property
    def is_balanced(self) -> bool:
        return self.t_d == self.t_u

    @property
    def is_standard(self) -> bool:
        return self.t_d.is_identity()

    def d_then_u(self) -> AlgebraMap:
        return self.t_u.compose(self.t_d)


@dataclass(frozen=True)
class AxiomReport:
    qa1: bool
    qa2: bool
    qa3: bool
    witnesses: Tuple[str, ...] = ()

    @property
    def all_true(self) -> bool:
        return self.qa1 and self.qa2 and self.qa3


def _tensor_diff_witness(
    got: TensorSquareElement, want: TensorSquareElement
) -> Optional[str]:
    keys = set(got.coeffs) | set(want.coeffs)
    zero = got.algebra.table.zero
    labels = got.algebra.basis_labels
    for key in sorted(keys):
        g = got.coeffs.get(key, zero)
        w = want.coeffs.get(key, zero)
        if g != w:
            i, j = key
            return f"slot {labels[i]}(x){labels[j]}: {g.text()} != {w.text()}"
    return None


def check_axioms(
    S: OrientedQuantumAlgebraStructure, full_report: bool = False
) -> AxiomReport:
    """Evaluate (qa.1)-(qa.3) exactly, reporting the first witness per failure.

    With ``full_report`` every failing tensor slot is reported instead of
    only the first.
    """
    algebra = S.algebra
    witnesses: List[str] = []
    one = tensor_unit(algebra)

    def witness(want: TensorSquareElement, *tagged: Tuple[str, TensorSquareElement]):
        for tag, got in tagged:
            w = _tensor_diff_witness(got, want)
            if w:
                witnesses.append(f"{tag}: {w}")
                if not full_report:
                    return

    p = apply_map_tensor(AlgebraMap.identity(algebra), S.t_u, S.rho)
    r = apply_map_tensor(S.t_d, AlgebraMap.identity(algebra), S.rho_inv)
    prod1 = tensor_mul(algebra, p, r, second_factor_opposite=True)
    prod2 = tensor_mul(algebra, r, p, second_factor_opposite=True)
    qa1 = prod1 == one and prod2 == one
    if not qa1:
        witness(one, ("qa1 left", prod1), ("qa1 right", prod2))

    dd = apply_map_tensor(S.t_d, S.t_d, S.rho)
    uu = apply_map_tensor(S.t_u, S.t_u, S.rho)
    qa2 = dd == S.rho and uu == S.rho
    if not qa2:
        witness(S.rho, ("qa2 t_d", dd), ("qa2 t_u", uu))

    qa3 = qybe_check(algebra, S.rho)
    if not qa3:
        defect = qybe_defect(algebra, S.rho)
        labels = algebra.basis_labels
        for key in sorted(defect):
            i, j, k = key
            witnesses.append(
                f"qa3: slot {labels[i]}(x){labels[j]}(x){labels[k]}: "
                f"{defect[key].text()} != 0"
            )
            if not full_report:
                break

    return AxiomReport(qa1, qa2, qa3, tuple(witnesses))


# -- the matrix-algebra families ---------------------------------------------


def _unit_index(n: int, i: int, j: int) -> int:
    """Index of E_ij in the row-major M_n basis; i, j are 1-based."""
    return (i - 1) * n + (j - 1)


def build_rho_abc(
    table: SymbolTable,
    n: int,
    a: Scalar,
    bc: Scalar,
    B: Mapping[Tuple[int, int], Scalar],
    algebra: Optional[AlgebraSpec] = None,
) -> TensorSquareElement:
    """The Yang-Baxter solution rho_{a,B,C} on M_n.

    rho = sum_{i<j} (a - bc/a) E_ij (x) E_ji + sum_i a E_ii (x) E_ii
        + sum_{i<j} (b_ij E_ii (x) E_jj + c_ji E_jj (x) E_ii),

    with c_ji = bc / b_ij.  B maps 1-based pairs (i, j), i < j, to b_ij.
    """
    if n < 2:
        raise StructureError("rho_{a,B,C} needs n >= 2")
    for name, v in (("a", a), ("bc", bc)):
        if table.scalar(v).is_zero:
            raise StructureError(f"parameter {name} must be invertible")
    algebra = algebra if algebra is not None else matrix_algebra(table, n)
    # single_block_params raises "parameter b_ij must be invertible"
    return _params_rho(single_block_params(table, n, [a] * n, bc, B, table.one), algebra)


def matrix_trace(algebra: AlgebraSpec, n: int) -> Dict[int, Scalar]:
    """The matrix trace as a functional on the E_ij basis."""
    return {_unit_index(n, i, i): algebra.table.one for i in range(1, n + 1)}


def is_tracelike(
    algebra: AlgebraSpec, functional: Mapping[int, Scalar]
) -> bool:
    """tr(xy) = tr(yx) on all basis pairs."""
    for i in range(algebra.dim):
        ei = algebra.basis_element(i)
        for j in range(i + 1, algebra.dim):
            ej = algebra.basis_element(j)
            if (ei * ej).pairing(functional) != (ej * ei).pairing(functional):
                return False
    return True


def build_balanced_example2(
    table: SymbolTable,
    n: int,
    a: Scalar,
    bc: Scalar,
    B: Mapping[Tuple[int, int], Scalar],
    omega1_sq: Scalar,
) -> OrientedQuantumAlgebraStructure:
    """Balanced structure (M_n, rho_{a,B,C}, t) with its diagonal twist.

    omega_i^2 = (a^2/bc)^(i-1) omega_1^2 and t(E_ij) = (omega_i/omega_j) E_ij
    with the positive square-root branch; G = sum_i omega_i^2 E_ii.  Requires
    a^2 != bc, 1 (automatic symbolically, checked on numeric input) and bc a
    perfect square in the scalar field.
    """
    params = single_block_params(table, n, [a] * n, bc, B, omega1_sq)
    return build_thm5(params, name=f"example2(n={n})")


# -- the diagonal-block classification on M_n ---------------------------------


@dataclass(frozen=True)
class MnStructureParams:
    """Parameters of a diagonal-block structure on M_n.

    Indices are 1-based.  ``blocks`` partitions {1..n}; the list order of
    each block is its well-order.  ``diag[i]`` is rho_iiii, ``off_diag[(i,l)]``
    is rho_ilil for i != l, ``bc[k]`` is the block constant of blocks[k],
    ``omega_sq[i]`` is omega_i^2.  ``exchange`` optionally overrides the
    derived rho_illi values (tests tamper it); entries may exist for any
    ordered pair and must vanish off the block orders.  ``omega_base_root``
    optionally provides a square root of omega_e^2 for each block's least
    element (needed only when several blocks must be related by t).

    From construction on, every value of ``bc``, ``diag``, ``off_diag``,
    ``omega_sq``, ``exchange`` and ``omega_base_root`` is a Scalar of ``table``:
    ints and Fractions are coerced, a Scalar of another table raises ScalarError.
    """

    table: SymbolTable
    n: int
    blocks: Tuple[Tuple[int, ...], ...]
    bc: Mapping[int, Scalar]
    diag: Mapping[int, Scalar]
    off_diag: Mapping[Tuple[int, int], Scalar]
    omega_sq: Mapping[int, Scalar]
    exchange: Optional[Mapping[Tuple[int, int], Scalar]] = None
    omega_base_root: Optional[Mapping[int, Scalar]] = None

    def __post_init__(self):
        for name in ("bc", "diag", "off_diag", "omega_sq", "exchange", "omega_base_root"):
            values = getattr(self, name)
            if values is not None:
                coerced = {k: self.table.scalar(v) for k, v in values.items()}
                object.__setattr__(self, name, coerced)
        object.__setattr__(self, "_derived_x", {})

    def block_of(self, i: int) -> int:
        for k, blk in enumerate(self.blocks):
            if i in blk:
                return k
        raise StructureError(f"index {i} not covered by blocks")

    def precedes(self, i: int, j: int) -> bool:
        """i comes strictly before j in a common block's well-order."""
        for blk in self.blocks:
            if i in blk and j in blk:
                return blk.index(i) < blk.index(j)
        return False

    def derived_x(self, k: int) -> Scalar:
        x = self._derived_x.get(k)
        if x is None:
            a_e = self.diag[self.blocks[k][0]]
            x = self._derived_x[k] = a_e - self.bc[k] / a_e
        return x

    def exchange_value(self, i: int, j: int) -> Scalar:
        if self.exchange is not None:
            return self.exchange.get((i, j), self.table.zero)
        if self.precedes(i, j):
            return self.derived_x(self.block_of(i))
        return self.table.zero


def _omega_sq_chain(a: Sequence[Scalar], bc: Scalar, w_e: Scalar) -> List[Scalar]:
    """omega^2 along a block whose diagonal values are ``a`` in block order:
    omega_e^2 = w_e and omega_cur^2 = omega_prev^2 a_prev a_cur / bc, that is
    omega_u^2 = (a_e a_u / bc) omega_e^2 prod_{e<j<u} a_j^2 / bc."""
    out = [w_e]
    for prev, cur in zip(a, a[1:]):
        out.append(out[-1] * (prev * cur / bc))
    return out


def single_block_params(
    table: SymbolTable,
    n: int,
    a_values: Sequence[Scalar],
    bc: Scalar,
    B: Mapping[Tuple[int, int], Scalar],
    omega1_sq: Scalar,
) -> MnStructureParams:
    """Convenience: one block 1..n in natural order, off-diagonals from B."""
    a_values = [table.scalar(v) for v in a_values]
    bc = table.scalar(bc)
    omega1_sq = table.scalar(omega1_sq)
    off: Dict[Tuple[int, int], Scalar] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            b_ij = table.scalar(B[(i, j)])
            if b_ij.is_zero:
                raise StructureError(f"parameter b_{i}{j} must be invertible")
            off[(i, j)] = b_ij
            off[(j, i)] = bc / b_ij
    return MnStructureParams(
        table=table,
        n=n,
        blocks=(tuple(range(1, n + 1)),),
        bc={0: bc},
        diag={i: a_values[i - 1] for i in range(1, n + 1)},
        off_diag=off,
        omega_sq=dict(enumerate(_omega_sq_chain(a_values, bc, omega1_sq), start=1)),
    )


@dataclass(frozen=True)
class Thm5Report:
    """Per-clause verdicts for the diagonal-block classification.

    Clauses: "a" (all rho_ijij invertible), "b" (partition/well-order),
    "c" (exchange slots vanish off the block orders), "d_i" (omega squares),
    "d_ii" (opposite off-diagonal products equal the block constant),
    "d_iii" (exchange values equal x_l = a - bc_l/a, nonzero),
    "d_iv" (diagonal values equal or opposite), and "cross" (for i before l
    in a block, rho_ikik rho_kiki is independent of the choice of i, for
    every third index k; forced by the Yang-Baxter equation).
    """

    clauses: Mapping[str, Tuple[bool, Tuple[str, ...]]]

    @property
    def ok(self) -> bool:
        return all(v[0] for v in self.clauses.values())

    def failing(self) -> List[str]:
        return [k for k, v in self.clauses.items() if not v[0]]


def classify_thm5(params: MnStructureParams) -> Thm5Report:
    """Decide, clause by clause, whether params define a balanced structure."""
    n = params.n
    clauses: Dict[str, Tuple[bool, Tuple[str, ...]]] = {}

    def record(name: str, problems: List[str]) -> None:
        clauses[name] = (not problems, tuple(problems))

    # (a) invertible diagonal-slot coefficients
    problems = []
    for i in range(1, n + 1):
        if params.diag[i].is_zero:
            problems.append(f"rho_{i}{i}{i}{i} = 0")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and params.off_diag[(i, j)].is_zero:
                problems.append(f"rho_{i}{j}{i}{j} = 0")
    record("a", problems)

    # (b) blocks partition {1..n}
    problems = []
    seen: List[int] = []
    for blk in params.blocks:
        if not blk:
            problems.append("empty block")
        seen.extend(blk)
    if sorted(seen) != list(range(1, n + 1)):
        problems.append(f"blocks {params.blocks} do not partition 1..{n}")
    record("b", problems)

    # (c) exchange support respects the block orders
    problems = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            v = params.exchange_value(i, j)
            if not params.precedes(i, j) and not v.is_zero:
                problems.append(f"rho_{i}{j}{j}{i} = {v.text()} off the order")
    record("c", problems)

    # (d) per-block constraints
    d_i: List[str] = []
    d_ii: List[str] = []
    d_iii: List[str] = []
    d_iv: List[str] = []
    for k, blk in enumerate(params.blocks):
        if len(blk) < 2:
            continue
        bc = params.bc[k]
        if bc.is_zero:
            d_ii.append(f"bc of block {k} is zero")
            continue
        e = blk[0]
        x = params.derived_x(k)
        if x.is_zero:
            d_iii.append(f"x of block {k} vanishes (a_{e}^2 = bc)")
        for pos_i, i in enumerate(blk):
            a_i = params.diag[i]
            for j in blk[pos_i + 1 :]:
                a_j = params.diag[j]
                if params.off_diag[(i, j)] * params.off_diag[(j, i)] != bc:
                    d_ii.append(f"rho_{i}{j}{i}{j} * rho_{j}{i}{j}{i} != bc_{k}")
                if not (a_i == a_j or a_i * a_j == -bc):
                    d_iv.append(f"a_{i}, a_{j} neither equal nor of product -bc_{k}")
                v = params.exchange_value(i, j)
                if a_i**2 != bc and v != a_i - bc / a_i:
                    d_iii.append(
                        f"rho_{i}{j}{j}{i} = {v.text()} != a_{i} - bc_{k}/a_{i}"
                    )
        # omega squares against the product formula
        chain = _omega_sq_chain([params.diag[i] for i in blk], bc, params.omega_sq[e])
        for u, expected in zip(blk[1:], chain[1:]):
            if params.omega_sq[u] != expected:
                d_i.append(f"omega_{u}^2 != block formula value")
    record("d_i", d_i)
    record("d_ii", d_ii)
    record("d_iii", d_iii)
    record("d_iv", d_iv)

    # coupling across blocks: for i before l, the products rho_ikik rho_kiki
    # and rho_lklk rho_klkl agree for every third index k.  Inside a block
    # this repeats (d_ii); across blocks it is an extra Yang-Baxter
    # constraint that the per-block clauses do not see.
    problems = []
    for blk in params.blocks:
        for pos_i, i in enumerate(blk):
            for l in blk[pos_i + 1 :]:
                for k in range(1, n + 1):
                    if k in (i, l):
                        continue
                    lhs = params.off_diag[(i, k)] * params.off_diag[(k, i)]
                    rhs = params.off_diag[(l, k)] * params.off_diag[(k, l)]
                    if lhs != rhs:
                        problems.append(
                            f"rho_{i}{k}{i}{k}rho_{k}{i}{k}{i} != "
                            f"rho_{l}{k}{l}{k}rho_{k}{l}{k}{l}"
                        )
    record("cross", problems)

    return Thm5Report(clauses)


def _block_root_ratios(params: MnStructureParams, k: int) -> Dict[int, Scalar]:
    """sigma_i / sigma_e for each i in block k (positive-branch roots)."""
    t = params.table
    blk = params.blocks[k]
    out = {blk[0]: t.one}
    for prev, cur in zip(blk, blk[1:]):
        # (omega_prev / omega_cur)^2 = bc / (a_prev a_cur)
        ratio_sq = params.bc[k] / (params.diag[prev] * params.diag[cur])
        ratio = perfect_sqrt(ratio_sq)
        if ratio is None:
            raise StructureError(
                f"omega_{prev}/omega_{cur} needs a square root of "
                f"{ratio_sq.text()}; declare it (or use a Gaussian table)"
            )
        out[cur] = out[prev] / ratio
    return out


def _params_rho(params: MnStructureParams, algebra: AlgebraSpec) -> TensorSquareElement:
    """rho on M_n from a parameter table: the diagonal values rho_iiii, the
    off-diagonal rho_ilil and the nonzero exchange values rho_illi."""
    n = params.n
    coeffs: Dict[Tuple[int, int], Scalar] = {}
    diagonal = {i: _unit_index(n, i, i) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        coeffs[(diagonal[i], diagonal[i])] = params.diag[i]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                coeffs[(diagonal[i], diagonal[j])] = params.off_diag[(i, j)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            v = params.exchange_value(i, j)
            if not v.is_zero:
                coeffs[(_unit_index(n, i, j), _unit_index(n, j, i))] = v
    return TensorSquareElement(algebra, coeffs)


def _params_rho_inv(params: MnStructureParams, algebra: AlgebraSpec) -> TensorSquareElement:
    """The inverse of ``_params_rho`` in closed form.  On V (x) V, rho is a_i on
    v_i (x) v_i and, for i < j, the block [[b_ij, x_ij], [x_ji, b_ji]] on
    (v_i (x) v_j, v_j (x) v_i), where b_ij = rho_ijij and x_ij = rho_ijji; each
    block inverts on its own."""
    n = params.n
    coeffs: Dict[Tuple[int, int], Scalar] = {}
    for i in range(1, n + 1):
        ii = _unit_index(n, i, i)
        coeffs[(ii, ii)] = params.diag[i].inv()
        for j in range(i + 1, n + 1):
            jj = _unit_index(n, j, j)
            b_ij, b_ji = params.off_diag[(i, j)], params.off_diag[(j, i)]
            x_ij, x_ji = params.exchange_value(i, j), params.exchange_value(j, i)
            det = b_ij * b_ji - x_ij * x_ji
            coeffs[(ii, jj)] = b_ji / det
            coeffs[(jj, ii)] = b_ij / det
            for (r, c), x in (((i, j), x_ij), ((j, i), x_ji)):
                if not x.is_zero:
                    coeffs[(_unit_index(n, r, c), _unit_index(n, c, r))] = -x / det
    return TensorSquareElement(algebra, coeffs)


def _require_thm5(params: MnStructureParams) -> None:
    """Raise StructureError naming the failing clauses unless params classify."""
    report = classify_thm5(params)
    if not report.ok:
        bad = report.failing()
        details = "; ".join(
            w for c in bad for w in report.clauses[c][1][:2]
        )
        raise StructureError(f"classification fails clause(s) {bad}: {details}")


def _thm5_sigma(params: MnStructureParams) -> Dict[int, Scalar]:
    """sigma_i for t(E_ij) = (sigma_i / sigma_j) E_ij, from classified params:
    per block, the base root of omega_e^2 (1 for a single block) times the
    positive-branch ratios sigma_i / sigma_e."""
    t = params.table
    sigma: Dict[int, Scalar] = {}
    for k, blk in enumerate(params.blocks):
        ratios = _block_root_ratios(params, k)
        base = t.one
        if len(params.blocks) > 1:
            e = blk[0]
            w_e = params.omega_sq[e]
            if params.omega_base_root and e in params.omega_base_root:
                base = params.omega_base_root[e]
                if base * base != w_e:
                    raise StructureError(
                        f"omega_base_root for block {k} does not square to omega_{e}^2"
                    )
            else:
                base = perfect_sqrt(w_e)
                if base is None:
                    raise StructureError(
                        f"relating block {k} to the others needs a square root "
                        f"of omega_{e}^2 = {w_e.text()}; pass omega_base_root"
                    )
        for i, ratio in ratios.items():
            sigma[i] = base * ratio
    return sigma


def _assemble_thm5(
    params: MnStructureParams, sigma: Mapping[int, Scalar], name: str
) -> OrientedQuantumAlgebraStructure:
    """The structure of classified params with t(E_ij) = (sigma_i / sigma_j) E_ij."""
    t = params.table
    n = params.n
    algebra = matrix_algebra(t, n)

    t_cols: Dict[int, Dict[int, Scalar]] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            idx = _unit_index(n, i, j)
            # the table's own 1 keeps the unit rule of Scalar products
            t_cols[idx] = {idx: t.one if i == j else sigma[i] / sigma[j]}
    t_map = AlgebraMap(algebra, t_cols)

    g = AlgebraElement(
        algebra,
        {_unit_index(n, i, i): params.omega_sq[i] for i in range(1, n + 1)},
    )
    g_inv = AlgebraElement(
        algebra,
        {_unit_index(n, i, i): params.omega_sq[i].inv() for i in range(1, n + 1)},
    )

    S = OrientedQuantumAlgebraStructure.create(
        algebra,
        _params_rho(params, algebra),
        t_map,
        t_map,
        rho_inv=_params_rho_inv(params, algebra),
        trace=matrix_trace(algebra, n),
        name=name,
        validate_maps=False,
    )
    return attach_twist(S, g, g_inv)


def build_thm5(
    params: MnStructureParams, name: str = "thm5"
) -> OrientedQuantumAlgebraStructure:
    """Assemble the twist balanced structure a valid parameter table defines.

    Raises StructureError naming the failing clause when classification
    fails.  The returned structure carries t from the positive-branch
    square-root convention, the diagonal twist G = sum omega_i^2 E_ii and the
    matrix trace.

    rho^-1 is 1/a_i on E_ii (x) E_ii and, for i < j, inverts rho's block
    [[b_ij, x_ij], [x_ji, b_ji]] as [[b_ji, -x_ij], [-x_ji, b_ij]] / det.

    sigma is not re-checked against omega^2: each step (sigma_cur /
    sigma_prev)^2 = a_prev a_cur / bc is the omega^2 chain step clause d_i checked.
    attach_twist is the one exact check that G conjugates by t o t.
    """
    _require_thm5(params)
    return _assemble_thm5(params, _thm5_sigma(params), name)


def _bind_thm5(
    params: MnStructureParams, f: Callable[[Scalar], Scalar], name: str
) -> OrientedQuantumAlgebraStructure:
    """``build_thm5(params)`` with f applied to every table entry, built once
    over f's values of the parameters.  sigma is taken from ``params`` and
    mapped, so t keeps the branch that ``params`` fixes (building over the
    values could flip it, e.g. where a < 0).  Raises as ``build_thm5(params)``
    when params do not classify; f's errors, and the values' failure to
    classify, propagate."""
    _require_thm5(params)
    sigma = _thm5_sigma(params)
    mapped = lambda values: None if values is None else {k: f(v) for k, v in values.items()}
    bound = replace(
        params, bc=mapped(params.bc), diag=mapped(params.diag),
        off_diag=mapped(params.off_diag), omega_sq=mapped(params.omega_sq),
        exchange=mapped(params.exchange), omega_base_root=mapped(params.omega_base_root),
    )
    _require_thm5(bound)
    return _assemble_thm5(bound, {i: f(s) for i, s in sigma.items()}, name)


# -- derived structures -------------------------------------------------------


def standardize(S: OrientedQuantumAlgebraStructure) -> OrientedQuantumAlgebraStructure:
    """(A, rho, 1, t_d o t_u), twist and trace carried over unchanged."""
    return replace(
        S,
        t_d=AlgebraMap.identity(S.algebra),
        t_u=S.t_u.compose(S.t_d),
        name=S.name + "_std",
    )


def opposite(S: OrientedQuantumAlgebraStructure) -> OrientedQuantumAlgebraStructure:
    """(A^op, rho, t_d, t_u); the twist inverts, the trace is unchanged."""
    op = _map_scalars(S, lambda c: c, S.algebra.opposite())
    twist = None if op.twist is None else Twist(op.twist.g_inv, op.twist.g)
    return replace(op, twist=twist, name=S.name + "_op")


def _map_scalars(
    S: OrientedQuantumAlgebraStructure,
    f: Callable[[Scalar], Scalar],
    algebra: Optional[AlgebraSpec] = None,
) -> OrientedQuantumAlgebraStructure:
    """S with f applied to every table entry, over ``algebra`` (default S's),
    unverified.  The order is fixed -- twist g and g^-1, trace, rho, t_d, t_u,
    rho^-1 -- so the first entry on which f raises is always the same one."""
    A = algebra if algebra is not None else S.algebra
    element = lambda x: AlgebraElement(A, {k: f(c) for k, c in x.coeffs.items()})
    tensor = lambda u: TensorSquareElement(A, {k: f(c) for k, c in u.coeffs.items()})
    linear = lambda m: AlgebraMap(
        A, {j: {i: f(c) for i, c in col.items()} for j, col in m.columns.items()}
    )
    twist = None if S.twist is None else Twist(element(S.twist.g), element(S.twist.g_inv))
    trace = None if S.trace is None else {k: f(c) for k, c in S.trace.items()}
    rho, t_d, t_u = tensor(S.rho), linear(S.t_d), linear(S.t_u)
    return replace(
        S, algebra=A, rho=rho, rho_inv=tensor(S.rho_inv), t_d=t_d, t_u=t_u,
        twist=twist, trace=trace,
    )


def sweedler_oqa(
    table: SymbolTable, alpha: Scalar
) -> OrientedQuantumAlgebraStructure:
    """The standard structure (H4, rho_alpha, 1, s^-2).

    rho_alpha = (1/2)(1(x)1 + 1(x)g + g(x)1 - g(x)g)
              + (alpha/2)(x(x)x + x(x)gx + gx(x)gx - gx(x)x),

    s^-2 fixes 1 and g and negates x and gx.
    """
    algebra = sweedler_algebra(table)
    half = table.rational(1, 2)
    ha = table.scalar(alpha) * half
    E, G, X, GX = 0, 1, 2, 3
    rho = TensorSquareElement(
        algebra,
        {
            (E, E): half, (E, G): half, (G, E): half, (G, G): -half,
            (X, X): ha, (X, GX): ha, (GX, GX): ha, (GX, X): -ha,
        },
    )
    one = table.one
    s_minus_2 = AlgebraMap(
        algebra, {E: {E: one}, G: {G: one}, X: {X: -one}, GX: {GX: -one}}
    )
    return OrientedQuantumAlgebraStructure.create(
        algebra,
        rho,
        AlgebraMap.identity(algebra),
        s_minus_2,
        name=f"sweedler(alpha={table.scalar(alpha).text()})",
        validate_maps=False,
    )


def minimal_subalgebra(S: OrientedQuantumAlgebraStructure) -> List[AlgebraElement]:
    """Echelon basis of the smallest subalgebra supporting the structure.

    Generated by the unit together with the tensorand spans of rho and
    rho^-1; closed under multiplication and stable under both automorphisms.
    """
    gens: List[AlgebraElement] = [S.algebra.one()]
    for u in (S.rho, S.rho_inv):
        gens.extend(u.first_tensorand_span())
        gens.extend(u.second_tensorand_span())
    basis = echelon_basis(gens)
    while True:
        extended = list(basis)
        for x in basis:
            extended.append(S.t_d.apply(x))
            extended.append(S.t_u.apply(x))
            for y in basis:
                extended.append(x * y)
        new_basis = echelon_basis(extended)
        if len(new_basis) == len(basis):
            return new_basis
        basis = new_basis


def attach_twist(
    S: OrientedQuantumAlgebraStructure,
    g: AlgebraElement,
    g_inv: Optional[AlgebraElement] = None,
) -> OrientedQuantumAlgebraStructure:
    """Attach a twist after verifying its three defining properties."""
    algebra = S.algebra
    if g_inv is None:
        cols = {j: (g * algebra.basis_element(j)).coeffs for j in range(algebra.dim)}
        try:
            g_inv = AlgebraMap(algebra, cols).inverse().apply(algebra.one())
        except SingularError:
            raise TwistError("twist element is not invertible") from None
    if g * g_inv != algebra.one() or g_inv * g != algebra.one():
        raise TwistError("twist element is not invertible")
    if S.t_d.apply(g) != g:
        raise TwistError("twist is not fixed by t_d")
    if S.t_u.apply(g) != g:
        raise TwistError("twist is not fixed by t_u")
    du = S.d_then_u()
    for j in range(algebra.dim):
        e = algebra.basis_element(j)
        if g * e * g_inv != du.apply(e):
            raise TwistError(
                "conjugation by the twist differs from t_d o t_u on basis "
                + algebra.basis_labels[j]
            )
    return replace(S, twist=Twist(g, g_inv))


# -- JSON serialization -------------------------------------------------------


def _element_to_json(x: AlgebraElement) -> dict:
    labels = x.algebra.basis_labels
    return {labels[i]: c.text() for i, c in sorted(x.coeffs.items())}


def _json_n(value) -> int:
    # bool is an int subclass, and int() would truncate 2.7 and read "2"
    if type(value) is not int:
        raise StructureError(f"n must be a JSON integer, got {value!r}")
    if value < 1:
        raise StructureError("matrix algebra needs n >= 1")
    return value


def _scalars_from_json(algebra: AlgebraSpec, data, what: str) -> Dict[int, Scalar]:
    """{basis label: scalar text} as {basis index: Scalar}."""
    return {
        algebra.label_index(k): algebra.table.parse(v)
        for k, v in _json_object(data, what).items()
    }


def _algebra_from_json(table: SymbolTable, alg: Mapping) -> AlgebraSpec:
    if alg["kind"] == "matrix":
        algebra = matrix_algebra(table, _json_n(alg["n"]))
    elif alg["kind"] == "sweedler":
        algebra = sweedler_algebra(table)
    else:
        raise StructureError(f"unknown algebra kind {alg['kind']!r}")
    return algebra.opposite() if alg.get("opposite") else algebra


def _algebra_to_json(algebra: AlgebraSpec) -> dict:
    """The JSON form that rebuilds exactly these structure constants."""
    n = math.isqrt(algebra.dim)
    kinds = [{"kind": "matrix", "n": n}] if n * n == algebra.dim else []
    kinds.append({"kind": "sweedler"})
    for kind in kinds:
        for alg in (kind, dict(kind, opposite=True)):
            model = _algebra_from_json(algebra.table, alg)
            if model.dim == algebra.dim and model.structure == algebra.structure:
                return alg
    raise StructureError(f"no JSON form for algebra {algebra.name}")


def structure_to_json(S: OrientedQuantumAlgebraStructure) -> dict:
    algebra = S.algebra
    out = {
        "symbols": list(S.table.symbols),
        "gaussian": S.table.gaussian,
        "algebra": _algebra_to_json(algebra),
        "rho": S.rho.to_json(),
        "rho_inv": S.rho_inv.to_json(),
        "t_d": S.t_d.to_json(),
        "t_u": S.t_u.to_json(),
        "name": S.name,
    }
    if S.twist is not None:
        out["twist"] = {
            "g": _element_to_json(S.twist.g),
            "g_inv": _element_to_json(S.twist.g_inv),
        }
    if S.trace is not None:
        labels = algebra.basis_labels
        out["trace"] = {labels[i]: c.text() for i, c in sorted(S.trace.items())}
    return out


def params_from_json(data: Mapping) -> MnStructureParams:
    """Single-block parameters from the JSON layout example2 files and
    verify-section6 share: symbols, gaussian, n, a, optional a_values, bc,
    b ({"i,j": b_ij} for 1 <= i < j <= n, default 1), omega1_sq (default 1)."""
    table = SymbolTable(tuple(data.get("symbols", ())), bool(data.get("gaussian")))
    n = _json_n(data["n"])
    a = table.parse(data["a"])
    bc = table.parse(data["bc"])
    a_values = [a] * n
    if "a_values" in data:
        a_values = [table.parse(v) for v in data["a_values"]]
        if len(a_values) != n:
            raise StructureError(f"a_values has {len(a_values)} entries, not n = {n}")
    B = {(i, j): table.one for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    for key, text in _json_object(data.get("b", {}), "b").items():
        try:
            pair = tuple(int(x) for x in key.split(","))
        except ValueError:
            pair = None
        if pair not in B:
            raise StructureError(f"b key {key!r} is not i,j with 1 <= i < j <= {n}")
        B[pair] = table.parse(text)
    omega1_sq = table.parse(data.get("omega1_sq", "1"))
    return single_block_params(table, n, a_values, bc, B, omega1_sq)


def structure_from_json(data: Mapping) -> OrientedQuantumAlgebraStructure:
    builder = data.get("builder")
    if builder == "example2":
        params = params_from_json(data)
        return build_thm5(params, name=f"example2(n={params.n})")
    table = SymbolTable(tuple(data.get("symbols", ())), bool(data.get("gaussian")))
    if builder == "sweedler":
        return sweedler_oqa(table, table.parse(data.get("alpha", "1")))
    if builder is not None:
        raise StructureError(f"unknown builder {builder!r}")

    algebra = _algebra_from_json(table, data["algebra"])

    rho = TensorSquareElement.from_json(algebra, data["rho"])
    rho_inv = (
        TensorSquareElement.from_json(algebra, data["rho_inv"])
        if "rho_inv" in data
        else None
    )
    t_d = AlgebraMap.from_json(algebra, data["t_d"])
    t_u = AlgebraMap.from_json(algebra, data["t_u"])
    trace = None
    if "trace" in data:
        trace = _scalars_from_json(algebra, data["trace"], "trace")
    S = OrientedQuantumAlgebraStructure.create(
        algebra,
        rho,
        t_d,
        t_u,
        rho_inv=rho_inv,
        trace=trace,
        name=data.get("name", "oqa"),
    )
    if "twist" in data:
        g, g_inv = (
            AlgebraElement(algebra, _scalars_from_json(algebra, data["twist"][k], k))
            for k in ("g", "g_inv")
        )
        S = attach_twist(S, g, g_inv)
    return S
