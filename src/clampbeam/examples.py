"""Built-in benchmark problems with certified condition data.

Each entry carries the problem, a box size M, and (where they were derived
by hand) Lipschitz constants K1..K4 valid on D_M, so the condition check
can run with rigorous inputs instead of lattice estimates.  The constants
below were obtained by maximizing the exact partial derivatives over the
box by elementary calculus; the resulting contraction factors q are

    benchmark 1: q ~ 0.2401,   benchmark 2: q ~ 0.0486,
    benchmark 3: q ~ 0.0080,   benchmark 4: q ~ 0.0052,
    benchmark 6: q ~ 0.2682.

Benchmark 5 ships without constants: its square root is not Lipschitz at
u + P = 0, which happens on the boundary of the box, so only existence
(boundedness) can be argued and the automatic check reports the offending
sample.  The solver itself still converges because the iterates keep
u + P positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .expr import parse
from .problem import CanonicalProblem, LoadedProblem, RawProblem, canonicalize

__all__ = ["BuiltinExample", "EXAMPLES", "get_example"]


@dataclass(frozen=True)
class BuiltinExample:
    ident: int
    slug: str
    rhs_text: str
    a: float = 0.0
    b: float = 1.0
    A1: float = 0.0
    B1: float = 0.0
    A2: float = 0.0
    B2: float = 0.0
    exact_text: Optional[str] = None
    M: Optional[float] = None
    ks: Optional[tuple] = None
    note: str = ""

    def load(self) -> LoadedProblem:
        raw = RawProblem(
            rhs=parse(self.rhs_text),
            a=self.a, b=self.b,
            A1=self.A1, B1=self.B1, A2=self.A2, B2=self.B2,
            exact=parse(self.exact_text) if self.exact_text else None,
        )
        return LoadedProblem(raw=raw, M=self.M, ks=self.ks)

    def canonical(self) -> CanonicalProblem:
        return canonicalize(self.load().raw)

    @property
    def data_line(self) -> str:
        return (f"[{self.a:g}, {self.b:g}], "
                f"w({self.a:g})={self.A1:g}, w({self.b:g})={self.B1:g}, "
                f"w'({self.a:g})={self.A2:g}, w'({self.b:g})={self.B2:g}")


_SQRT3 = math.sqrt(3.0)

EXAMPLES: tuple = (
    BuiltinExample(
        ident=1,
        slug="quartic-benchmark",
        rhs_text="12 + u*z/2 - y*v/4 + y/4",
        exact_text="x^4/2 - x^3 + x^2/2",
        M=36.0,
        ks=(18.0, 37.0 / 4.0, 1.0 / (8.0 * _SQRT3), 3.0 / 64.0),
        note="Known closed-form solution x^2(1-x)^2/2; the workhorse for "
             "grid-refinement tables since eu(k) can be measured exactly.",
    ),
    BuiltinExample(
        ident=2,
        slug="mixed-nonlinearity",
        rhs_text="x + x^2 + u^2*v + y*sin(z)",
        M=5.0,
        ks=(25.0 / 192.0, 1.0, 25.0 / 147456.0, 5.0 / (72.0 * _SQRT3)),
        note="Couples all four unknown arguments; no closed-form solution.",
    ),
    BuiltinExample(
        ident=3,
        slug="trig-cubic-shift",
        rhs_text="u^2*sin(u) + sin(x)",
        A1=1.0,
        M=6.0,
        ks=(12545.0 / 4096.0, 0.0, 0.0, 0.0),
        note="Nonzero left boundary value; the homogenized unknown satisfies "
             "|w| <= 1.015625 throughout the certified box.",
    ),
    BuiltinExample(
        ident=4,
        slug="damped-sine",
        rhs_text="u*sin(u) + exp(-x^2)",
        A1=1.0,
        M=6.0,
        ks=(129.0 / 64.0, 0.0, 0.0, 0.0),
        note="Same boundary data as benchmark 3 with a gentler nonlinearity.",
    ),
    BuiltinExample(
        ident=5,
        slug="square-root-existence",
        rhs_text="sqrt(u)*sin(exp(u)) + exp(-x^2)",
        A1=1.0,
        M=5.0,
        ks=None,
        note="sqrt(w) is defined only for w >= 0 and is not Lipschitz at "
             "w = 0, which the box boundary touches, so only existence is "
             "claimed: sup|f| <= sqrt(1 + M/384) + 1 <= M/2 for M = 5.  The "
             "automatic check reports the sample where evaluation fails; the "
             "iteration still converges because every iterate keeps w > 0 "
             "in the interior.",
    ),
    BuiltinExample(
        ident=6,
        slug="quintic-stiff-data",
        rhs_text="u^5",
        B1=1.87,
        B2=5.61,
        M=100.0,
        ks=(103.0, 0.0, 0.0, 0.0),
        note="Large boundary data defeat cruder existence tests: bounding "
             "|w| by twice the data size k0 = 1.87 gives sup|w^5| = 32 k0^5, "
             "and certifying that way needs 32 k0^5 / 384 <= k0, i.e. "
             "12 / k0^4 >= 1, false for k0 >= 1.87.  The box/contraction "
             "check at M = 100 certifies a unique solution regardless.",
    ),
)


def get_example(ident: int) -> BuiltinExample:
    for ex in EXAMPLES:
        if ex.ident == ident:
            return ex
    raise KeyError(f"no built-in example {ident}; available: 1..{len(EXAMPLES)}")
