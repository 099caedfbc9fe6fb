"""Seeded operation streams for the clampbeam benchmark, and their output checks.

Three workloads, each a closed loop with a single client:

* ``sweep-small``  parse -> canonicalize -> solve on generated problems at
  n in {100, 200, 400}.  Per-solve fixed costs dominate.
* ``refine-large`` in-process ``cli.main`` runs of ``solve`` and ``table`` at
  n from 10^4 to 10^5, writing CSV artifacts.  Per-node cost dominates.
* ``certify``      parse -> canonicalize -> ``check_conditions`` on built-in
  and generated right sides; never reaches the solver.

Operation ``i`` of a stream depends only on (workload, seed, i), so the same
seed gives the same inputs however many operations a run gets through.  The
properties that set an operation's cost (grid size, lattice size, which slot
of the hard tail) follow the operation index on a fixed schedule; the seed
chooses the content (right side, coefficients, boundary data, manufactured
solution).  That keeps runs on different seeds comparable.

Each generator returns an operation record (``SolveOp``, ``CheckOp`` or
``CliOp``): the input the program sees, plus what the benchmark needs to
check the output.  Checks never use the program under test to build their
references.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import Polynomial

WORKLOADS = ("sweep-small", "refine-large", "certify")

# Fixed bounds every output must meet (see check_* below).
SOLVE_TOL = 1e-15               # the solver's default stopping tolerance
SMALL_RESIDUAL_BOUND = 1e-10    # sweep-small residual, scaled by max(1, sup|u|)
SMALL_EU_BOUND = 1e-8           # sweep-small error against the manufactured solution
LARGE_RESIDUAL_BOUND = 1e-9     # refine-large residual
LARGE_EU_BOUND = 1e-10          # refine-large error of example 1 (floor 1.8e-11 at 1e5)
RECOVER_RTOL = 1e-12            # raw-coordinate w against u + P

SWEEP_GRIDS = (100, 200, 400)
HARD_PERIOD = 8                 # every 8th sweep-small operation is a hard case
HARD_CASES = (
    # (right side, n or None for the schedule's n)
    ("2400 + u*z/2 - y*v/4", 100),   # stalls at its rounding floor at n=100
    ("300*u + 1", None),             # contracts slowly: about 90 iterations
    ("500*u + 1", None),             # does not contract
)
CERTIFY_PERIOD = 8
DOMAIN_LATTICES = (5, 6, 7, 8, 9)
REFINE_DECK = 6
# A run measures whole schedule periods, so every run does the same mix:
# grid sizes x hard cases, slots x domain lattices, one refine deck.
PERIODS = {
    "sweep-small": len(SWEEP_GRIDS) * HARD_PERIOD,
    "refine-large": REFINE_DECK,
    "certify": CERTIFY_PERIOD * len(DOMAIN_LATTICES),
}


# ---------------------------------------------------------------------------
# Right-side templates: the six built-in examples with free coefficients.
# Fields {x},{u},{y},{v},{z} take variable names or polynomial text.


@dataclass(frozen=True)
class Template:
    text: str
    coeffs: tuple
    data: tuple = (0.0, 0.0, 0.0, 0.0)   # A1, B1, A2, B2
    M: float = 1.0
    ks: Optional[tuple] = None
    manufacturable: bool = True


_SQRT3 = math.sqrt(3.0)

TEMPLATES = {
    1: Template("{c0} + {c1}*{u}*{z} - {c2}*{y}*{v} + {c3}*{y}",
                (12.0, 0.5, 0.25, 0.25), M=36.0,
                ks=(18.0, 37.0 / 4.0, 1.0 / (8.0 * _SQRT3), 3.0 / 64.0)),
    2: Template("{c0}*{x} + {c1}*{x}^2 + {c2}*{u}^2*{v} + {c3}*{y}*sin({z})",
                (1.0, 1.0, 1.0, 1.0), M=5.0,
                ks=(25.0 / 192.0, 1.0, 25.0 / 147456.0, 5.0 / (72.0 * _SQRT3))),
    3: Template("{c0}*{u}^2*sin({u}) + {c1}*sin({x})", (1.0, 1.0),
                data=(1.0, 0.0, 0.0, 0.0), M=6.0, ks=(12545.0 / 4096.0, 0.0, 0.0, 0.0)),
    4: Template("{c0}*{u}*sin({u}) + {c1}*exp(-{x}^2)", (1.0, 1.0),
                data=(1.0, 0.0, 0.0, 0.0), M=6.0, ks=(129.0 / 64.0, 0.0, 0.0, 0.0)),
    # sqrt(w) touches w = 0 at the right end, so no manufactured solution.
    5: Template("{c0}*sqrt({u})*sin(exp({u})) + {c1}*exp(-{x}^2)", (1.0, 1.0),
                data=(1.0, 0.0, 0.0, 0.0), M=5.0, manufacturable=False),
    6: Template("{c0}*{u}^5", (1.0,), data=(0.0, 1.87, 0.0, 5.61), M=100.0,
                ks=(103.0, 0.0, 0.0, 0.0)),
}


def _num(value: float) -> str:
    text = repr(float(value))
    return f"({text})" if value < 0 else text


def _fill(template: Template, coeffs, variables: dict) -> str:
    fields = {f"c{i}": _num(c) for i, c in enumerate(coeffs)}
    fields.update(variables)
    return template.text.format(**fields)


def poly_text(poly: Polynomial) -> str:
    """Monomial text in x, every coefficient written with all its digits."""
    terms = []
    for k, c in enumerate(poly.coef):
        if c == 0.0:
            continue
        if k == 0:
            terms.append(_num(c))
        elif k == 1:
            terms.append(f"{_num(c)}*x")
        else:
            terms.append(f"{_num(c)}*x^{k}")
    return "(" + (" + ".join(terms) if terms else "0") + ")"


def hermite(a: float, b: float, A1: float, B1: float, A2: float, B2: float) -> Polynomial:
    """The cubic with P(a)=A1, P(b)=B1, P'(a)=A2, P'(b)=B2, in t."""
    L = b - a
    s = Polynomial([-a / L, 1.0 / L])
    h00 = Polynomial([1.0, 0.0, -3.0, 2.0])
    h10 = Polynomial([0.0, 1.0, -2.0, 1.0])
    h01 = Polynomial([0.0, 0.0, 3.0, -2.0])
    h11 = Polynomial([0.0, 0.0, -1.0, 1.0])
    return (A1 * h00 + L * A2 * h10 + B1 * h01 + L * B2 * h11)(s)


def _problem_text(f: str, b: float = 1.0, data=(0.0,) * 4,
                  exact: Optional[str] = None, M: Optional[float] = None,
                  ks: Optional[tuple] = None) -> str:
    """Problem-file text on [0, b]."""
    lines = [f"f = {f}"]
    if b != 1.0:
        lines.append(f"b = {b!r}")
    for key, val in zip(("A1", "B1", "A2", "B2"), data):
        if val != 0.0:
            lines.append(f"{key} = {val!r}")
    if exact is not None:
        lines.append(f"exact = {exact}")
    if M is not None:
        lines.append(f"M = {M!r}")
    if ks is not None:
        lines += [f"K{i} = {k!r}" for i, k in enumerate(ks, start=1)]
    return "\n".join(lines) + "\n"


_VARS = {name: name for name in "xuyvz"}


# ---------------------------------------------------------------------------
# sweep-small


@dataclass(frozen=True)
class SolveOp:
    text: str
    n: int
    kind: str                       # "manufactured", "perturbed" or "hard"
    b: float = 1.0                  # the interval is [0, b]
    shift: Optional[Polynomial] = None   # Hermite cubic of the boundary data
    exact: Optional[Polynomial] = None   # manufactured w(t)


def sweep_small_op(seed: int, i: int) -> SolveOp:
    n = SWEEP_GRIDS[i % len(SWEEP_GRIDS)]
    if i % HARD_PERIOD == HARD_PERIOD - 1:
        rhs, fixed_n = HARD_CASES[(i // HARD_PERIOD) % len(HARD_CASES)]
        return SolveOp(_problem_text(rhs), fixed_n or n, "hard")

    rng = random.Random(f"sweep-small/{seed}/{i}")
    tpl = TEMPLATES[rng.randint(1, 6)]
    coeffs = [c * rng.uniform(0.9, 1.0) for c in tpl.coeffs]
    data = tpl.data
    if tpl.manufacturable:
        # With A1 off 1, P(1) of example 5 rounds below 0 and sqrt fails.
        data = tuple(d * rng.uniform(0.95, 1.05) for d in data)
    if not tpl.manufacturable or rng.random() < 0.25:
        return SolveOp(_problem_text(_fill(tpl, coeffs, _VARS), data=data), n, "perturbed")

    # Manufactured solution w = P + s * bump on [0, b]: the bump keeps the
    # boundary data, and f = g(x,u,y,v,z) + w'''' - g(x,w,w',w'',w''').
    b = rng.uniform(0.9, 1.1)
    shift = hermite(0.0, b, *data)
    s = Polynomial([0.0, 1.0 / b])
    bump = (s * (1.0 - s)) ** 2 * (1.0 + rng.uniform(-0.5, 0.5) * s)
    w = shift + rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.6) * bump
    derivs = [w.deriv(k) for k in range(5)]
    g_vars = _fill(tpl, coeffs, _VARS)
    g_exact = _fill(tpl, coeffs, {"x": "x", "u": poly_text(derivs[0]),
                                  "y": poly_text(derivs[1]), "v": poly_text(derivs[2]),
                                  "z": poly_text(derivs[3])})
    f = f"{g_vars} + {poly_text(derivs[4])} - ({g_exact})"
    text = _problem_text(f, b, data, exact=poly_text(w))
    return SolveOp(text, n, "manufactured", b=b, shift=shift, exact=w)


def check_solve(op: SolveOp, report) -> tuple:
    """(ok, reason, eu) for a SolveReport the program returned for op.

    eu is recomputed here from the canonical profile, the benchmark's own
    Hermite shift and the manufactured solution; None without one.
    """
    u = np.asarray(report.profile.u.values, dtype=float)
    if not report.converged:
        return False, "not converged", None
    if not np.all(np.isfinite(u)) or u.shape != (op.n + 1,):
        return False, "profile malformed", None
    if not (len(report.e_history) == report.iterations and report.final_e <= SOLVE_TOL):
        return False, f"final e {report.final_e!r} above tolerance", None
    scale = max(1.0, float(np.max(np.abs(u))))
    if not report.residual <= SMALL_RESIDUAL_BOUND * scale:
        return False, f"residual {report.residual!r} above bound", None
    eu = None
    if op.exact is not None:
        t = op.b * np.linspace(0.0, 1.0, op.n + 1)
        eu = float(np.max(np.abs(u + op.shift(t) - op.exact(t))))
        if not eu <= SMALL_EU_BOUND:
            return False, f"eu {eu!r} above bound", eu
    return True, "", eu


# ---------------------------------------------------------------------------
# certify


@dataclass(frozen=True)
class CheckOp:
    text: str
    lattice: int
    kind: str                   # "builtin", "generated", "abs", "domain"
    expect_certified: bool = True
    supplied: bool = False
    fd_vars: tuple = ()
    domain_arg: Optional[str] = None     # "sqrt" or "log"
    domain_coeff: float = 0.0            # c in u + c*(1 - 3x^2 + 2x^3)
    M: float = 1.0
    ks: Optional[tuple] = None


# Example 2 couples all five variables, so its checks cost ten times more
# than the others; it has a slot of its own to keep every run's mix fixed.
_CERTIFIED = (1, 3, 4, 6)


def _builtin_check(rng, lattice: int, supplied: bool, ident: Optional[int] = None) -> CheckOp:
    tpl = TEMPLATES[ident or rng.choice(_CERTIFIED)]
    ks = tpl.ks if supplied else None
    text = _problem_text(_fill(tpl, tpl.coeffs, _VARS), data=tpl.data, M=tpl.M, ks=ks)
    return CheckOp(text, lattice, "builtin", supplied=supplied, M=tpl.M, ks=ks)


def _generated_check(rng, lattice: int, ident: Optional[int] = None) -> CheckOp:
    # Coefficients only shrink, by at most 10%; the built-in certificates
    # have room for that, so the claim "unique" still holds.
    tpl = TEMPLATES[ident or rng.choice(_CERTIFIED)]
    coeffs = [c * rng.uniform(0.9, 1.0) for c in tpl.coeffs]
    text = _problem_text(_fill(tpl, coeffs, _VARS), data=tpl.data, M=tpl.M)
    return CheckOp(text, lattice, "generated", M=tpl.M)


def _abs_check(rng, lattice: int) -> CheckOp:
    if rng.random() < 0.5:
        c1, c2 = rng.uniform(0.2, 0.8), rng.uniform(0.5, 1.0)
        f, M, fd = f"{_num(c1)}*abs(y) + {_num(c2)}*x", 5.0, ("y",)
    else:
        c1, c2, c3 = rng.uniform(0.1, 0.4), rng.uniform(0.5, 1.0), rng.uniform(0.2, 0.5)
        f, M, fd = f"{_num(c1)}*abs(u - {_num(c3)}*v) + {_num(c2)}*exp(-x^2)", 4.0, ("u", "v")
    return CheckOp(_problem_text(f, M=M), lattice, "abs", fd_vars=fd, M=M)


def _domain_check(rng, k: int) -> CheckOp:
    lattice = DOMAIN_LATTICES[k % len(DOMAIN_LATTICES)]
    if (k // len(DOMAIN_LATTICES)) % 2 == 0:
        tpl = TEMPLATES[5]
        text = _problem_text(_fill(tpl, tpl.coeffs, _VARS), data=tpl.data, M=tpl.M)
        return CheckOp(text, lattice, "domain", expect_certified=False,
                       domain_arg="sqrt", domain_coeff=1.0, M=tpl.M)
    # Shaped like canonical example 5, so a rescan costs the same: the
    # argument u + c*P(x), P = (1-x)^2 (1+2x), is negative first at x = 1
    # because c*P stays above M/384 at every other x node when c >= 0.5.
    fn = rng.choice(("sqrt", "log"))
    c = rng.uniform(0.5, 1.5)
    arg = f"u + {_num(c)}*(1 - 3*x^2 + 2*x^3)"
    f = f"{fn}({arg})*sin(exp({arg})) + exp(-x^2)"
    return CheckOp(_problem_text(f, M=5.0), lattice, "domain", expect_certified=False,
                   domain_arg=fn, domain_coeff=c, M=5.0)


def certify_op(seed: int, i: int) -> CheckOp:
    rng = random.Random(f"certify/{seed}/{i}")
    slot = i % CERTIFY_PERIOD
    if slot == 0:
        return _builtin_check(rng, 9, supplied=True)
    if slot == 1:
        return _builtin_check(rng, 17, supplied=False)
    if slot == 2:
        return _generated_check(rng, 17)
    if slot == 3:
        return _abs_check(rng, 17)
    if slot == 4:
        return _builtin_check(rng, 17, supplied=True)
    if slot == 5:
        return _generated_check(rng, 9)
    if slot == 6:
        return _domain_check(rng, i // CERTIFY_PERIOD)
    turn = (i // CERTIFY_PERIOD) % 3
    if turn == 2:
        return _generated_check(rng, 17, ident=2)
    return _builtin_check(rng, 17, supplied=turn == 0, ident=2)


def lattice_axes(M: float, points: int) -> list:
    """The check's lattice, axis by axis in the order (x, u, y, v, z)."""
    bounds = (M / 384.0, M / (72.0 * _SQRT3), M, M)
    return [np.linspace(0.0, 1.0, points)] + [np.linspace(-b, b, points) for b in bounds]


def expected_bad_point(op: CheckOp) -> tuple:
    """First lattice point, in C order, where the op's right side is undefined."""
    xs, us, ys, vs, zs = lattice_axes(op.M, op.lattice)
    X, U = np.meshgrid(xs, us, indexing="ij")
    arg = U + op.domain_coeff * (1.0 - 3.0 * X ** 2 + 2.0 * X ** 3)
    bad = arg < 0.0 if op.domain_arg == "sqrt" else arg <= 0.0
    if not bad.any():
        raise ValueError("no undefined lattice point")
    ix, iu = np.unravel_index(int(np.argmax(bad)), bad.shape)
    # f does not depend on where y, v, z sit, so their first index is first.
    return (float(xs[ix]), float(us[iu]), float(ys[0]), float(vs[0]), float(zs[0]))


def check_condition_report(op: CheckOp, report) -> tuple:
    """(ok, reason) for a ConditionReport the program returned for op."""
    if not op.expect_certified:
        return False, "check passed where f is undefined in the box"
    if report.certified != op.expect_certified:
        return False, f"verdict {report.certified} does not match the claim"
    if not (np.isfinite(report.sup_f) and report.sup_f > 0):
        return False, "sup|f| malformed"
    if report.lattice_points != op.lattice:
        return False, "wrong lattice size reported"
    if op.supplied:
        if not report.ks_supplied or tuple(report.ks) != tuple(op.ks):
            return False, "supplied constants not used"
        k1, k2, k3, k4 = op.ks
        q = k1 / 384.0 + k2 / (72.0 * _SQRT3) + k3 + k4
        if not math.isclose(report.q, q, rel_tol=1e-14):
            return False, f"q {report.q!r} differs from {q!r}"
    elif report.ks_supplied or not all(np.isfinite(k) and k >= 0 for k in report.ks):
        return False, "estimated constants malformed"
    if tuple(sorted(report.fd_fallback)) != tuple(sorted(op.fd_vars)):
        return False, f"finite-difference fallback on {report.fd_fallback}, expected {op.fd_vars}"
    return True, ""


def check_domain_failure(op: CheckOp, point) -> tuple:
    """(ok, reason) for a DomainSamplingError the program raised for op."""
    if op.expect_certified:
        return False, "f reported undefined where it is defined"
    expected = expected_bad_point(op)
    got = tuple(float(p) for p in point)
    if len(got) != 5 or not np.allclose(got, expected, rtol=1e-12, atol=1e-15):
        return False, f"offending point {got} is not the first undefined point {expected}"
    return True, ""


# ---------------------------------------------------------------------------
# refine-large


@dataclass(frozen=True)
class CliOp:
    argv: tuple                 # cli.main arguments without --out-dir
    example: int
    grids: tuple
    repeat_of: Optional[int] = None   # index of the op whose artifacts must match


def _jitter(rng, n: int) -> int:
    return n + 2 * rng.randint(-n // 200, n // 200)


def refine_large_op(seed: int, i: int) -> CliOp:
    deck, slot = divmod(i, REFINE_DECK)
    rng = random.Random(f"refine-large/{seed}/{deck}")
    first = deck * REFINE_DECK
    ops = []
    k1, n1 = rng.randint(1, 6), _jitter(rng, 10_000)
    ops.append(CliOp(("solve", f"example:{k1}", "--n", str(n1)), k1, (n1,)))
    k2, g1, g2 = rng.randint(1, 6), _jitter(rng, 10_000), _jitter(rng, 20_000)
    ops.append(CliOp(("table", f"example:{k2}", "--grids", f"{g1},{g2}"), k2, (g1, g2)))
    n3 = _jitter(rng, 100_000)
    ops.append(CliOp(("solve", "example:1", "--n", str(n3)), 1, (n3,)))
    ops.append(CliOp(ops[0].argv, k1, (n1,), repeat_of=first))
    k4, n4 = rng.randint(1, 6), _jitter(rng, 40_000)
    ops.append(CliOp(("solve", f"example:{k4}", "--n", str(n4)), k4, (n4,)))
    ops.append(CliOp(ops[1].argv, k2, (g1, g2), repeat_of=first + 1))
    return ops[slot]


def _read_csv(path):
    """Header and numeric rows; ValueError when a field is not a number."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_cli_artifacts(op: CliOp, code: int, stdout: str, files: dict) -> tuple:
    """(ok, reason, eu, residual) for one CLI run; files maps name -> path.

    eu is recomputed from solution.csv for example 1 (read from table.csv for
    tables); residual is the one the run printed, None for tables.
    """
    if code != 0:
        return False, f"exit status {code}", None, None
    exact = op.example == 1
    eu = None
    if op.argv[0] == "table":
        header, data = _read_csv(files["table.csv"])
        want = ["N", "K"] + (["eu"] if exact else []) + ["e"]
        if header != want:
            return False, f"table header {header}", None, None
        if data.shape[0] != len(op.grids) or list(data[:, 0].astype(int)) != sorted(op.grids):
            return False, "table rows do not match the grids", None, None
        if not np.all(data[:, -1] <= SOLVE_TOL) or not np.all(data[:, 1] >= 1):
            return False, "table row not converged", None, None
        if exact:
            eu = float(np.max(data[:, 2]))
            if not eu <= LARGE_EU_BOUND:
                return False, f"table eu {eu!r} above bound", eu, None
        return True, "", eu, None

    n = op.grids[0]
    residual = None
    for line in stdout.splitlines():
        if "converged in" in line and "residual" in line:
            residual = float(line.rsplit("residual", 1)[1])
    if residual is None or not residual <= LARGE_RESIDUAL_BOUND:
        return False, f"residual {residual!r} missing or above bound", None, None
    header, conv = _read_csv(files["convergence.csv"])
    if header != (["k", "e", "eu"] if exact else ["k", "e"]) or not conv[-1, 1] <= SOLVE_TOL:
        return False, "convergence.csv does not end converged", None, None
    header, sol = _read_csv(files["solution.csv"])
    if header[:5] != ["x", "u", "du", "d2u", "d3u"] or sol.shape[0] != n + 1:
        return False, "solution.csv malformed", None, None
    x, u = sol[:, 0], sol[:, 1]
    if not np.allclose(x, np.linspace(0.0, 1.0, n + 1), rtol=0, atol=1e-15) \
            or u[0] != 0.0 or u[-1] != 0.0:
        return False, "solution.csv grid or boundary values wrong", None, None
    tpl = TEMPLATES[op.example]
    if header[5:] == ["t", "w"]:
        w_expected = u + hermite(0.0, 1.0, *tpl.data)(sol[:, 5])
        if not np.allclose(sol[:, 6], w_expected, rtol=RECOVER_RTOL, atol=RECOVER_RTOL):
            return False, "raw-coordinate w differs from u + P", None, None
    elif header[5:] or tpl.data != (0.0,) * 4:
        return False, "solution.csv raw columns wrong", None, None
    if exact:
        eu = float(np.max(np.abs(u - x ** 2 * (1.0 - x) ** 2 / 2.0)))
        if not eu <= LARGE_EU_BOUND:
            return False, f"eu {eu!r} above bound", eu, None
    return True, "", eu, residual


GENERATORS = {
    "sweep-small": sweep_small_op,
    "refine-large": refine_large_op,
    "certify": certify_op,
}
