"""The four workloads: seeded op lists, warm-up passes and op executors.

An op is a tuple ``(kind, args, fault)``.  ``kind`` names an executor below,
``args`` holds plain Python numbers only, and ``fault`` marks the one op per
round that exercises a known fault on fixed inputs (it fails every time, so
the failed share of a run is exact).  A run repeats one seeded round of ops.

hfock is imported lazily by the executors, so the prepare step (which runs
in the mpmath process) never loads it.
"""
from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("verify", "gram", "pointwise", "quadrature")

# nominal seconds one round takes on the reference machine (see README); the
# op count of a run is fixed from --seconds with these, so it never depends
# on how fast the program happens to be
ROUND_SECONDS = {"verify": 5.5, "gram": 0.45, "pointwise": 0.015, "quadrature": 0.15}

VERIFY_SUITES = ("numerics", "expint", "moments", "hfock", "bargmann", "lerch", "dbar")
# verify seeds 1-3 make the moments suite leave the validated region of
# moments.generating_series; that fault runs once per round on seed 1
VERIFY_SEEDS = tuple(range(10))
MOMENTS_FAULT_SEEDS = (1, 2, 3)

# condition number sum|terms| / |sum| above which a seeded kernel or Bargmann
# draw is redrawn: beyond it, plain double-precision rounding nears 1e-12,
# which is the fault regime the fixed ops below cover
KAPPA_MAX = 100.0

GRAM_ROUND = (
    ("gram_kernel", 50, 0.5), ("gram_kernel", 50, 2.0), ("gram_kernel", 50, 5.0),
    ("gram_kernel", 100, 0.5), ("gram_kernel", 200, 0.5),
    ("gram_phi1", 50, 0.95), ("gram_phi2", 50, 0.95), ("gram_phi3", 50, 0.95),
    ("gram_poly2", 200, 1.5),
)
GRAM_SAMPLES = 16  # entries per Gram matrix checked against mpmath

POINTWISE_ROUND = {
    "kernel": 48, "phi": 16, "lerch_phi": 16, "en_family": 32, "laplace_en": 32,
    "bargmann_kernel": 8, "kernel_l2_norm_sq": 1, "generating_series": 24,
}
POINTWISE_FAULTS = (
    # q = z conj(w) = -3: efun(-3) comes out 9e-11 off, relative
    ("kernel", (1.5, -2.0)),
    # A(z, x): the sum of |terms| is 4e7 times the value
    ("bargmann_kernel", (2.75, -2.65)),
)

QUADRATURE_ROUND = {
    "eta_quadrature": 16, "log_eta_quadrature": 8, "en_integral_identity": 8,
    "lerch_phi_integral": 8, "hurwitz_zeta_integral": 8, "eta_table": 1,
}
# the G8/G16 error estimate under-reads the t^(s-2) endpoint singularity
QUADRATURE_FAULTS = (("hurwitz_zeta_integral", (1.5, 1.0)),)


# fewest rounds of a run: each op's latency is the best of its repeats, and
# ops as long as a verify argv (about 1 s) or a 200-point Gram matrix (about
# 200 ms) need many repeats before one of them misses the machine's slow
# stretches
LEAST_ROUNDS = {"verify": 8, "gram": 36, "pointwise": 2, "quadrature": 2}


def rounds_for(workload: str, seconds: float) -> int:
    return max(LEAST_ROUNDS[workload], round(seconds / ROUND_SECONDS[workload]))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _lattice(rng: random.Random, count: int, dims: int = 1) -> list[tuple[float, ...]]:
    """``count`` points of [0, 1)^dims, one in each stratum of every coordinate.

    Point k sits in stratum (k * g_d) mod count of coordinate d, for fixed
    multipliers g_d prime to count, and only its place inside the stratum
    comes from the seed.  The input sizes that set an op's cost are drawn
    this way, so every seed gives a round of the same make-up and order."""
    gens, g = [], 1
    while len(gens) < dims:
        if math.gcd(g, count) == 1:
            gens.append(g)
        g += 2 if g > 1 else 4  # 1, 5, 7, 9, ...: spread-out multipliers
    return [tuple(((k * gd) % count + rng.random()) / count for gd in gens)
            for k in range(count)]


def _strata(rng: random.Random, count: int) -> list[float]:
    return [u for (u,) in _lattice(rng, count)]


def _polar(rng: random.Random, radius: float, u: float) -> complex:
    """A point of the disk of the given radius at area fraction u (uniform for uniform u)."""
    return cmath.rect(radius * math.sqrt(u), rng.uniform(-math.pi, math.pi))


def _pick(items, u: float):
    return items[int(u * len(items))]


def _by_kind(ops: list[tuple]) -> list[list[tuple]]:
    groups: dict = {}
    for op in ops:
        groups.setdefault((op[0], op[2]), []).append(op)
    return list(groups.values())


def _interleave(groups: list[list[tuple]]) -> list[tuple]:
    """Merge the groups evenly, in an order that depends only on their sizes.

    The order of ops decides which sizes the moment-table cache holds, so it
    is kept the same for every seed."""
    slots = [((k + 0.5) / len(g), gi, op) for gi, g in enumerate(groups) for k, op in enumerate(g)]
    return [op for _, _, op in sorted(slots, key=lambda s: s[:2])]


# --------------------------------------------------------------------------
# op lists

def verify_round(seed: int) -> list[tuple]:
    rng = _rng("verify", seed)
    ops = []
    for suite in VERIFY_SUITES:
        pool = VERIFY_SEEDS
        if suite == "moments":
            pool = tuple(s for s in VERIFY_SEEDS if s not in MOMENTS_FAULT_SEEDS)
        ops.append(("verify", (suite, "--seed", str(rng.choice(pool))), False))
    ops.append(("verify", ("bounds", "--nmax", "170"), False))
    ops.append(("verify", ("moments", "--seed", str(MOMENTS_FAULT_SEEDS[0])), True))
    return ops


def gram_round(seed: int) -> list[tuple]:
    rng = _rng("gram", seed)
    ops = []
    for kind, m, radius in GRAM_ROUND:
        pts = [_polar(rng, radius, u) for u in _strata(rng, m)]
        pairs = [tuple(sorted((rng.randrange(m), rng.randrange(m)))) for _ in range(GRAM_SAMPLES)]
        ops.append((kind, (pts, pairs), False))
    return ops


def _generating_points(rng: random.Random, count: int) -> list[complex]:
    """Half on each route of moments.generating_series, inside its documented
    validated regions: the direct disk |z| <= 0.92, and the rest of the
    acceleration region |z/(1+z)| <= 0.9, a disk of centre 81/19 and radius
    90/19 in the z-plane."""
    half = count // 2
    points = [_polar(rng, 0.92, u) for u in _strata(rng, half)]
    for u in _strata(rng, count - half):
        z = 0.0
        while abs(z) <= 0.92:
            z = 81.0 / 19.0 + _polar(rng, 0.999 * 90.0 / 19.0, u)
        points.append(z)
    return points


def pointwise_round(seed: int) -> list[tuple]:
    import oracle

    rng = _rng("pointwise", seed)
    n = POINTWISE_ROUND

    def conditioned(args, redraw, condition):
        # redraw the angle-like inputs, keeping the stratified sizes
        while condition(*args) > KAPPA_MAX:
            args = redraw(args)
        return args

    def rotate(z):
        return cmath.rect(abs(z), rng.uniform(-math.pi, math.pi))

    ops = []
    for rz, rw in _lattice(rng, n["kernel"], 2):
        args = (_polar(rng, 2.0, rz), _polar(rng, 2.0, rw))
        ops.append(("kernel", conditioned(args, lambda a: (a[0], rotate(a[1])),
                                          oracle.kernel_condition), False))
    for u, v in _lattice(rng, n["phi"], 2):
        ops.append(("phi", (_pick((1, 2, 3), v), _polar(rng, 0.95, u)), False))
    for u, s, a in _lattice(rng, n["lerch_phi"], 3):
        ops.append(("lerch_phi", (_polar(rng, 0.95, u), 0.5 + 2.5 * s, 0.5 + 2.5 * a), False))
    for u, x in _lattice(rng, n["en_family"], 2):
        ops.append(("en_family", (_pick(range(1, 21), u), 50.0 * (1.0 - x)), False))
    for u, a in _lattice(rng, n["laplace_en"], 2):
        # a in [-0.9, 0.9] or [1, 5]: the series for |a| < 1 needs about
        # 41 / (1 - |a|) terms, so draws close to +-1 would set the run time
        a = -0.9 + 5.8 * a
        ops.append(("laplace_en", (_pick(range(1, 9), u), a if a <= 0.9 else a + 0.1), False))
    for u in _strata(rng, n["bargmann_kernel"]):
        args = (_polar(rng, 3.0, u), rng.uniform(-3.0, 3.0))
        ops.append(("bargmann_kernel", conditioned(
            args, lambda a: (rotate(a[0]), rng.uniform(-3.0, 3.0)),
            oracle.bargmann_condition), False))
    for u in _strata(rng, n["kernel_l2_norm_sq"]):
        ops.append(("kernel_l2_norm_sq", (_polar(rng, 2.0, u),), False))
    for z in _generating_points(rng, n["generating_series"]):
        ops.append(("generating_series", (z,), False))
    ops.extend((kind, args, True) for kind, args in POINTWISE_FAULTS)
    return _interleave(_by_kind(ops))


def quadrature_round(seed: int) -> list[tuple]:
    rng = _rng("quadrature", seed)
    n = QUADRATURE_ROUND
    # for 66 <= n <= 100, t**n overflows to NaN and eta_quadrature spends its
    # whole 2M-evaluation budget before it raises
    eta_orders = list(range(0, 66)) + list(range(101, 171))
    ops = [("eta_quadrature", (_pick(eta_orders, u),), False)
           for u in _strata(rng, n["eta_quadrature"])]
    ops += [("log_eta_quadrature", (_pick(range(401), u),), False)
            for u in _strata(rng, n["log_eta_quadrature"])]
    ops += [("en_integral_identity", (_pick(range(61), u),), False)
            for u in _strata(rng, n["en_integral_identity"])]
    ops += [("lerch_phi_integral", (_polar(rng, 0.9, u), 1.0 + 2.0 * s, 0.5 + 2.5 * a), False)
            for u, s, a in _lattice(rng, n["lerch_phi_integral"], 3)]
    ops += [("hurwitz_zeta_integral", (2.0 + 2.0 * s, 0.5 + 2.5 * a), False)
            for s, a in _lattice(rng, n["hurwitz_zeta_integral"], 2)]
    # the table of `hfock moments --nmax 170`, whose cost does not hang on the seed
    ops += [("eta_table", (170,), False)] * n["eta_table"]
    ops.extend((kind, args, True) for kind, args in QUADRATURE_FAULTS)
    return _interleave(_by_kind(ops))


ROUNDS = {"verify": verify_round, "gram": gram_round,
          "pointwise": pointwise_round, "quadrature": quadrature_round}


# --------------------------------------------------------------------------
# executors (run in the hfock process)

def executors() -> dict:
    from hfock import bargmann, dbar, expint, lerch, moments, space

    def poly2(points):
        return space.build_gram(points, lambda zi, zj: dbar.poly_fock_kernel(2, zi, zj))

    return {
        "gram_kernel": lambda pts, _pairs: space.gram_kernel(pts),
        "gram_phi1": lambda pts, _pairs: lerch.gram_phi(1, pts),
        "gram_phi2": lambda pts, _pairs: lerch.gram_phi(2, pts),
        "gram_phi3": lambda pts, _pairs: lerch.gram_phi(3, pts),
        "gram_poly2": lambda pts, _pairs: poly2(pts),
        "kernel": space.kernel,
        "phi": lerch.phi,
        "lerch_phi": lerch.lerch_phi,
        "en_family": expint.en_family,
        "laplace_en": expint.laplace_en,
        "bargmann_kernel": bargmann.bargmann_kernel,
        "kernel_l2_norm_sq": bargmann.kernel_l2_norm_sq,
        "generating_series": moments.generating_series,
        "eta_quadrature": moments.eta_quadrature,
        "log_eta_quadrature": moments.log_eta_quadrature,
        "en_integral_identity": moments.en_integral_identity,
        "lerch_phi_integral": lerch.lerch_phi_integral,
        "hurwitz_zeta_integral": lerch.hurwitz_zeta_integral,
        "eta_table": moments.eta_table,
    }


# one op of every kind a workload runs, on fixed inputs: fills the Gauss
# rules, the Laguerre projection and the moment-table caches before timing
WARMUP = {
    "gram": [("gram_kernel", ([0.3 + 0.1j, -0.2 + 0.4j, 1.0], [])),
             ("gram_phi1", ([0.3 + 0.1j, -0.2 + 0.4j, 0.5], [])),
             ("gram_poly2", ([0.3 + 0.1j, -0.2 + 0.4j, 1.0], []))],
    "pointwise": [("kernel", (0.5 + 0.5j, 1.0 - 0.3j)), ("phi", (2, 0.5 + 0.2j)),
                  ("lerch_phi", (0.5 + 0.2j, 1.5, 1.0)), ("en_family", (10, 2.5)),
                  ("laplace_en", (3, 0.5)), ("bargmann_kernel", (1.0 + 0.5j, 0.3)),
                  ("kernel_l2_norm_sq", (1.0 + 0.5j,)), ("generating_series", (0.3 + 0.2j,)),
                  ("generating_series", (2.0 + 0.5j,))],
    "quadrature": [("eta_quadrature", (5,)), ("log_eta_quadrature", (200,)),
                   ("en_integral_identity", (10,)), ("lerch_phi_integral", (0.5, 1.5, 1.0)),
                   ("hurwitz_zeta_integral", (2.5, 1.0)), ("eta_table", (170,))],
}


def warm_up(workload: str) -> None:
    if workload == "verify":
        from hfock import cli
        cli.build_parser()
        return
    run = executors()
    for kind, args in WARMUP[workload]:
        run[kind](*args)
