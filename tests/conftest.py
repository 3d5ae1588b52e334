import pytest

from hfock import golden


@pytest.fixture(scope="session")
def gold():
    """Golden values (pre-computed at 50 digits, see tools/) as floats."""
    return {name: float(entry["value"]) for name, entry in golden.load().items()}


@pytest.fixture(scope="session")
def mp_gram():
    """mpmath references, good to about 40 digits, for the diagonal kernels,
    and a check of a Gram matrix against them.

    ``mp_gram.efun(q)`` is sum q^n / eta_n with eta_0 = 1 - e E_1(1) and
    eta_n = (e (1+n) E_n(1) - 1) (n-1)!, where E_n(1) comes from the forward
    recurrence E_{n+1}(1) = (1/e - E_n(1)) / n, which damps its errors.
    ``mp_gram.phi(n, q)`` is sum q^k / (k+n), summed directly for |q| < 1/2
    and from the closed form q^-n (-log(1-q) - sum_{j<n} q^j/j) elsewhere.
    ``mp_gram.check(g, series)`` asserts that ``g`` is exactly Hermitian, that
    its min_eig is >= 0, that its trace is within 8192 u of the reference and
    each upper entry within 8192 u sqrt(K(z,z) K(w,w)), u = 2^-53, where
    ``series(q)`` gives K(z, w) at q = z conj(w).
    """
    import math
    from types import SimpleNamespace

    mp = pytest.importorskip("mpmath")
    ctx = mp.MPContext()
    ctx.dps = 50
    n_max = 3000
    inv_e = ctx.exp(-1)
    en = [None, ctx.e1(1)]
    for n in range(1, n_max):
        en.append((inv_e - en[n]) / n)
    eta = [1 - ctx.e * en[1]]
    fact = ctx.mpf(1)
    for n in range(1, n_max):
        eta.append((ctx.e * (1 + n) * en[n] - 1) * fact)
        fact *= n

    def efun(q):
        q = ctx.mpc(q)
        total, size, qn = ctx.mpc(0), ctx.mpf(0), ctx.mpc(1)
        for n in range(n_max):
            term = qn / eta[n]
            total += term
            size += abs(term)
            # eta_n >= n!/(8 2^n): past n > 4|q| the terms halve at each step
            if n > 4 * abs(q) + 2 and abs(term) < ctx.mpf(10) ** -45 * size:
                return total
            qn *= q
        raise AssertionError(f"mp_gram.efun: {n_max} terms are not enough at q = {q}")

    def phi(n, q):
        q = ctx.mpc(q)
        if q == 0:
            return ctx.mpf(1) / n
        if abs(q) < 0.5:
            total, qk, k = ctx.mpc(0), ctx.mpc(1), 0
            while abs(qk) > 1e-50:
                total += qk / (k + n)
                qk *= q
                k += 1
            return total
        with ctx.workdps(ctx.dps + 20 + n):
            return (-ctx.log(1 - q) - ctx.fsum(q ** j / j for j in range(1, n))) / q ** n

    def check(g, series):
        tol = 8192 * 2.0 ** -53
        assert (g.entries == g.entries.conj().T).all()
        assert g.min_eig >= 0.0
        pts = [ctx.mpc(p) for p in g.points]
        diag = [series(abs(p) ** 2).real for p in pts]
        trace = float(ctx.fsum(diag))
        assert abs(g.trace - trace) <= tol * trace
        diag = [float(d) for d in diag]
        for i in range(len(pts)):
            for j in range(i, len(pts)):
                ref = complex(series(pts[i] * ctx.conj(pts[j])))
                assert abs(complex(g.entries[i, j]) - ref) <= tol * math.sqrt(diag[i] * diag[j]), \
                    (i, j, g.entries[i, j], ref)

    return SimpleNamespace(efun=efun, phi=phi, eta0=eta[0], check=check)
