"""Per-cell loop bodies of the compiled rungs (backend-neutral).

These two functions are the arithmetic spec of the compiled kernels and
their bitwise oracle: :mod:`repro.core.kernels.compiled.numba_backend`
wraps them with ``numba.njit(parallel=True, fastmath=False)`` unchanged,
and the C of :mod:`repro.core.kernels.compiled.cffi_backend` performs the
same floating-point operations in the same order, specialized to the
alloy's numbers of phases and solutes and with each mu face flux
evaluated once instead of from both sides (a face term is symmetric in
its two cells, so the bits do not change).  The compiled suite checks
the C output ``np.array_equal`` to these loops run un-jitted — which
they do (slowly), so the algorithm itself stays testable in environments
without either backend.

Layout conventions (identical for both backends):

* Fields arrive **flattened** with the component axis leading: a ghosted
  field of interior shape ``(n0, n1, n2)`` (``n0 == 1`` and no x-ghosts
  in 2-D) is indexed as ``field[comp * cs + cell]`` where ``cs`` is the
  ghosted cells-per-component stride.  Outputs are interior-only with
  stride ``ocs``.
* ``geom = [dim3, n0, n1, n2, N, K, liquid]`` (int64) and
  ``scal = [dx, dt, eps, gamma_triple, t_eut]`` (float64) carry the
  :class:`~repro.core.kernels.api.KernelContext` constants; matrices are
  flattened row-major (``gamma[a*N+b]``, ``inv_curv[(a*K+i)*K+j]``).
* The T(z) slice-coefficient tables (the "tz" rung optimization) are
  built once per sweep before the parallel loop.
* Shortcuts are *per-cell branches* (the paper's "cellwise with
  shortcuts" strategy): inactive cells copy through, non-diffuse active
  cells skip the driving force, non-front cells skip anti-trapping.
  Tolerances match the NumPy shortcut rung (``_TOL`` / ``GRAD_TOL``).

Every temporary is allocated *inside* the parallel iteration, so the
loops are safe under ``parallel=True`` without any shared scratch — in
particular they never touch ``KernelContext.get_scratch``.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only when numba is installed
    from numba import prange
except ImportError:  # pragma: no cover
    prange = range

__all__ = ["phi_cellwise", "mu_cellwise", "TOL", "GRAD_TOL"]

#: Interface-detection tolerance (same value as the NumPy shortcut rung).
TOL = 1e-9
#: Gradient-norm cutoff of the anti-trapping normals (see antitrapping.py).
GRAD_TOL = 1e-12


def phi_cellwise(phi, mu, tg, out, geom, scal,
                 gamma, tau, inv_curv, c_eq, c_slope, latent, diff,
                 shortcuts):
    """Cell-wise phi sweep (Eqs. 1-2) over flattened ghosted arrays."""
    dim3 = geom[0]
    n0 = geom[1]
    n1 = geom[2]
    n2 = geom[3]
    N = geom[4]
    K = geom[5]
    dx = scal[0]
    dt = scal[1]
    eps = scal[2]
    gt = scal[3]
    t_eut = scal[4]
    g1 = n1 + 2
    g2 = n2 + 2
    g0 = n0 + 2 if dim3 else 1
    cs = g0 * g1 * g2
    ocs = n0 * n1 * n2
    nax = 3 if dim3 else 2
    pref = 16.0 / (np.pi * np.pi)

    # T(z) slice coefficients, once per sweep (the tz optimization)
    cmin_z = np.empty((n2, N, K))
    lat_z = np.empty((n2, N))
    for iz in range(n2):
        dT = tg[iz + 1] - t_eut
        for a in range(N):
            lat_z[iz, a] = latent[a] * dT
            for i in range(K):
                cmin_z[iz, a, i] = c_eq[a * K + i] + c_slope[a * K + i] * dT

    for p01 in prange(n0 * n1):
        i0 = p01 // n1
        i1 = p01 - i0 * n1
        off = np.empty(3, np.int64)
        if dim3:
            off[0] = g1 * g2
            off[1] = g2
            off[2] = 1
            base01 = ((i0 + 1) * g1 + (i1 + 1)) * g2
        else:
            off[0] = g2
            off[1] = 1
            off[2] = 0
            base01 = (i1 + 1) * g2
        phi_c = np.empty(N)
        mu_c = np.empty(K)
        grad = np.empty((3, N))
        rhs = np.empty(N)
        psi = np.empty(N)
        vnew = np.empty(N)
        u = np.empty(N)
        for i2 in range(n2):
            c = base01 + i2 + 1
            oc = (i0 * n1 + i1) * n2 + i2
            for a in range(N):
                phi_c[a] = phi[a * cs + c]
            for i in range(K):
                mu_c[i] = mu[i * cs + c]

            diffuse = True
            if shortcuts:
                for a in range(N):
                    if phi_c[a] >= 1.0 - TOL:
                        diffuse = False
                        break
                active = diffuse
                if not active:
                    for d in range(nax):
                        if active:
                            break
                        for si in range(2):
                            if active:
                                break
                            nb = c + (1 - 2 * si) * off[d]
                            for a in range(N):
                                if abs(phi[a * cs + nb] - phi_c[a]) > TOL:
                                    active = True
                                    break
                if not active:
                    # bulk cell with uniform neighbourhood: fixed point
                    for a in range(N):
                        out[a * ocs + oc] = phi_c[a]
                    continue

            # centered phase gradients
            for d in range(nax):
                o = off[d]
                for a in range(N):
                    grad[d, a] = (
                        phi[a * cs + c + o] - phi[a * cs + c - o]
                    ) / (2.0 * dx)

            # dA/dphi_a
            for a in range(N):
                acc = 0.0
                for b in range(N):
                    if b == a:
                        continue
                    g = gamma[a * N + b]
                    if g == 0.0:
                        continue
                    dot = 0.0
                    for d in range(nax):
                        dot += (
                            phi_c[a] * grad[d, b] - phi_c[b] * grad[d, a]
                        ) * grad[d, b]
                    acc += 2.0 * g * dot
                rhs[a] = acc

            # - div(dA/d grad phi_a) via the 2*dim face fluxes
            for d in range(nax):
                o = off[d]
                for si in range(2):
                    s = 1 - 2 * si
                    nb = c + s * o
                    for a in range(N):
                        pna = phi[a * cs + nb]
                        acc = 0.0
                        for b in range(N):
                            if b == a:
                                continue
                            g = gamma[a * N + b]
                            if g == 0.0:
                                continue
                            pnb = phi[b * cs + nb]
                            avg_a = 0.5 * (phi_c[a] + pna)
                            avg_b = 0.5 * (phi_c[b] + pnb)
                            da = s * (pna - phi_c[a]) / dx
                            db = s * (pnb - phi_c[b]) / dx
                            acc += 2.0 * g * (
                                avg_b * avg_b * da - avg_a * avg_b * db
                            )
                        rhs[a] -= s * acc / dx

            t = tg[i2 + 1]
            for a in range(N):
                rhs[a] *= t * eps

            # obstacle potential dW/dphi_a
            for a in range(N):
                acc = 0.0
                for b in range(N):
                    if b != a:
                        acc += pref * gamma[a * N + b] * phi_c[b]
                if gt != 0.0:
                    acc3 = 0.0
                    for b in range(N):
                        if b == a:
                            continue
                        for e in range(b + 1, N):
                            if e == a:
                                continue
                            acc3 += phi_c[b] * phi_c[e]
                    acc += gt * acc3
                rhs[a] += (t / eps) * acc

            # driving force (diffuse-interface cells only under shortcuts)
            if (not shortcuts) or diffuse:
                sq_sum = 0.0
                for a in range(N):
                    sq_sum += phi_c[a] * phi_c[a]
                sq_sum += 1e-300
                for a in range(N):
                    quad = 0.0
                    for i in range(K):
                        quad += inv_curv[(a * K + i) * K + i] * mu_c[i] * mu_c[i]
                        for j in range(i + 1, K):
                            quad += (
                                2.0 * inv_curv[(a * K + i) * K + j]
                                * mu_c[i] * mu_c[j]
                            )
                    lin = 0.0
                    for i in range(K):
                        lin += mu_c[i] * cmin_z[i2, a, i]
                    psi[a] = -0.5 * quad - lin + lat_z[i2, a]
                weighted = 0.0
                for a in range(N):
                    weighted += phi_c[a] * phi_c[a] * psi[a]
                weighted /= sq_sum
                for a in range(N):
                    rhs[a] += (2.0 / sq_sum) * phi_c[a] * (psi[a] - weighted)

            # Lagrange term, explicit Euler, simplex projection
            mean = 0.0
            for a in range(N):
                mean += rhs[a]
            mean /= N
            for a in range(N):
                vnew[a] = phi_c[a] - (dt / (tau[a] * eps)) * (rhs[a] - mean)

            # Michelot/Condat projection: sort desc, last positive pivot
            for a in range(N):
                u[a] = vnew[a]
            for a in range(1, N):
                key = u[a]
                b = a - 1
                while b >= 0 and u[b] < key:
                    u[b + 1] = u[b]
                    b -= 1
                u[b + 1] = key
            css = 0.0
            theta = 0.0
            for a in range(N):
                css += u[a]
                cand = u[a] + (1.0 - css) / (a + 1)
                if cand > 0.0:
                    theta = (1.0 - css) / (a + 1.0)
            for a in range(N):
                x = vnew[a] + theta
                out[a * ocs + oc] = x if x > 0.0 else 0.0
    return out


def mu_cellwise(mu, phi_src, phi_dst, t_old, t_new, out, geom, scal,
                inv_curv, c_eq, c_slope, diff,
                anti_trapping, shortcuts, include_at, only_at):
    """Cell-wise mu sweep (Eqs. 3-4) over flattened ghosted arrays.

    ``include_at=0`` evaluates only the local part (everything except the
    anti-trapping divergence, Algorithm 2 line 6); ``only_at=1`` adds the
    deferred ``dt chi^{-1}(-div J_at)`` onto *out*, which must then arrive
    pre-filled with the local partial result (Algorithm 2 line 8).
    """
    dim3 = geom[0]
    n0 = geom[1]
    n1 = geom[2]
    n2 = geom[3]
    N = geom[4]
    K = geom[5]
    ell = geom[6]
    dx = scal[0]
    dt = scal[1]
    eps = scal[2]
    t_eut = scal[4]
    g1 = n1 + 2
    g2 = n2 + 2
    g0 = n0 + 2 if dim3 else 1
    cs = g0 * g1 * g2
    ocs = n0 * n1 * n2
    nax = 3 if dim3 else 2
    pref_at = np.pi * eps / 4.0

    # T(z) coefficients at cell centres and growth-axis faces
    cmin_c = np.empty((n2, N, K))
    for iz in range(n2):
        dT = t_old[iz + 1] - t_eut
        for a in range(N):
            for i in range(K):
                cmin_c[iz, a, i] = c_eq[a * K + i] + c_slope[a * K + i] * dT
    cmin_f = np.empty((n2 + 1, N, K))
    for f in range(n2 + 1):
        dT = 0.5 * (t_old[f] + t_old[f + 1]) - t_eut
        for a in range(N):
            for i in range(K):
                cmin_f[f, a, i] = c_eq[a * K + i] + c_slope[a * K + i] * dT

    for p01 in prange(n0 * n1):
        i0 = p01 // n1
        i1 = p01 - i0 * n1
        off = np.empty(3, np.int64)
        if dim3:
            off[0] = g1 * g2
            off[1] = g2
            off[2] = 1
            base01 = ((i0 + 1) * g1 + (i1 + 1)) * g2
        else:
            off[0] = g2
            off[1] = 1
            off[2] = 0
            base01 = (i1 + 1) * g2
        phio = np.empty(N)
        phin = np.empty(N)
        mu_c = np.empty(K)
        h_old = np.empty(N)
        h_new = np.empty(N)
        rhs = np.empty(K)
        dmu = np.empty(K)
        flux = np.empty(K)
        phi_f = np.empty(N)
        dphidt_f = np.empty(N)
        mu_f = np.empty(K)
        gl = np.empty(3)
        nl = np.empty(3)
        ga = np.empty(3)
        na = np.empty(3)
        c_l = np.empty(K)
        chi = np.empty((K, K))
        sol = np.empty(K)
        for i2 in range(n2):
            c = base01 + i2 + 1
            oc = (i0 * n1 + i1) * n2 + i2
            told = t_old[i2 + 1]
            tnew = t_new[i2 + 1]
            for a in range(N):
                phio[a] = phi_src[a * cs + c]
                phin[a] = phi_dst[a * cs + c]
            for i in range(K):
                mu_c[i] = mu[i * cs + c]

            active = True
            front = True
            if shortcuts:
                diffuse = True
                for a in range(N):
                    if phio[a] >= 1.0 - TOL:
                        diffuse = False
                        break
                active = diffuse
                if not active:
                    for d in range(nax):
                        if active:
                            break
                        for si in range(2):
                            if active:
                                break
                            nb = c + (1 - 2 * si) * off[d]
                            for a in range(N):
                                if abs(phi_src[a * cs + nb] - phio[a]) > TOL:
                                    active = True
                                    break
                if active:
                    near = phi_src[ell * cs + c] > TOL
                    if not near:
                        for d in range(nax):
                            if near:
                                break
                            for si in range(2):
                                nb = c + (1 - 2 * si) * off[d]
                                if phi_src[ell * cs + nb] > TOL:
                                    near = True
                                    break
                    front = near
                else:
                    front = False

            do_at = anti_trapping and front
            if only_at and not do_at:
                continue  # out already holds the local partial result

            # Moelans interpolation weights of both time levels
            sqo = 0.0
            sqn = 0.0
            for a in range(N):
                sqo += phio[a] * phio[a]
                sqn += phin[a] * phin[a]
            sqo += 1e-300
            sqn += 1e-300
            for a in range(N):
                h_old[a] = phio[a] * phio[a] / sqo
                h_new[a] = phin[a] * phin[a] / sqn

            for i in range(K):
                rhs[i] = 0.0
            if not only_at:
                if active:
                    # phase-change source -sum_a dh_a c_a(mu, T_old) / dt
                    for a in range(N):
                        dh = h_new[a] - h_old[a]
                        for i in range(K):
                            c_ai = cmin_c[i2, a, i]
                            for j in range(K):
                                c_ai += inv_curv[(a * K + i) * K + j] * mu_c[j]
                            rhs[i] -= dh * c_ai / dt
                # temperature drift source -dcdT dT/dt
                fac = (tnew - told) / dt
                for i in range(K):
                    acc = 0.0
                    for a in range(N):
                        acc += h_new[a] * c_slope[a * K + i]
                    rhs[i] -= acc * fac

            # face fluxes: div(M grad mu - J_at)
            for d in range(nax):
                o = off[d]
                for si in range(2):
                    s = 1 - 2 * si
                    nb = c + s * o
                    for i in range(K):
                        flux[i] = 0.0
                    if not only_at:
                        for i in range(K):
                            dmu[i] = s * (mu[i * cs + nb] - mu_c[i]) / dx
                        for a in range(N):
                            w = 0.5 * (phio[a] + phi_src[a * cs + nb])
                            if w < 0.0:
                                w = 0.0
                            elif w > 1.0:
                                w = 1.0
                            for i in range(K):
                                acc = 0.0
                                for j in range(K):
                                    acc += inv_curv[(a * K + i) * K + j] * dmu[j]
                                flux[i] += w * diff[a] * acc
                    if do_at and include_at:
                        # anti-trapping current through this face
                        sqs = 0.0
                        for a in range(N):
                            v = 0.5 * (phio[a] + phi_src[a * cs + nb])
                            if v < 0.0:
                                v = 0.0
                            elif v > 1.0:
                                v = 1.0
                            phi_f[a] = v
                            dphidt_f[a] = 0.5 * (
                                (phin[a] - phio[a])
                                + (phi_dst[a * cs + nb] - phi_src[a * cs + nb])
                            ) / dt
                            sqs += v * v
                        sqs += 1e-300
                        for i in range(K):
                            mu_f[i] = 0.5 * (mu_c[i] + mu[i * cs + nb])
                        # liquid normal at the face
                        normsq = 0.0
                        for e in range(nax):
                            if e == d:
                                gl[e] = s * (
                                    phi_src[ell * cs + nb]
                                    - phi_src[ell * cs + c]
                                ) / dx
                            else:
                                oe = off[e]
                                gl[e] = 0.5 * (
                                    (phi_src[ell * cs + c + oe]
                                     - phi_src[ell * cs + c - oe]) / (2.0 * dx)
                                    + (phi_src[ell * cs + nb + oe]
                                       - phi_src[ell * cs + nb - oe]) / (2.0 * dx)
                                )
                            normsq += gl[e] * gl[e]
                        norm_l = np.sqrt(normsq)
                        for e in range(nax):
                            nl[e] = gl[e] / norm_l if norm_l > GRAD_TOL else 0.0
                        # c_l(mu_f, T_face)
                        if d == nax - 1:
                            fz = i2 + 1 if s > 0 else i2
                            for i in range(K):
                                c_l[i] = cmin_f[fz, ell, i]
                        else:
                            fz = -1
                            for i in range(K):
                                c_l[i] = cmin_c[i2, ell, i]
                        for i in range(K):
                            acc = 0.0
                            for j in range(K):
                                acc += inv_curv[(ell * K + i) * K + j] * mu_f[j]
                            c_l[i] += acc
                        for a in range(N):
                            if a == ell:
                                continue
                            normsq = 0.0
                            for e in range(nax):
                                if e == d:
                                    ga[e] = s * (
                                        phi_src[a * cs + nb]
                                        - phi_src[a * cs + c]
                                    ) / dx
                                else:
                                    oe = off[e]
                                    ga[e] = 0.5 * (
                                        (phi_src[a * cs + c + oe]
                                         - phi_src[a * cs + c - oe]) / (2.0 * dx)
                                        + (phi_src[a * cs + nb + oe]
                                           - phi_src[a * cs + nb - oe]) / (2.0 * dx)
                                    )
                                normsq += ga[e] * ga[e]
                            norm_a = np.sqrt(normsq)
                            for e in range(nax):
                                na[e] = ga[e] / norm_a if norm_a > GRAD_TOL else 0.0
                            amp = np.sqrt(phi_f[a] * phi_f[ell]) * phi_f[ell] / sqs
                            dot = 0.0
                            for e in range(nax):
                                dot += na[e] * nl[e]
                            scalf = pref_at * amp * dphidt_f[a] * dot * na[d]
                            for i in range(K):
                                if fz >= 0:
                                    c_ai = cmin_f[fz, a, i]
                                else:
                                    c_ai = cmin_c[i2, a, i]
                                for j in range(K):
                                    c_ai += (
                                        inv_curv[(a * K + i) * K + j] * mu_f[j]
                                    )
                                flux[i] -= scalf * (c_l[i] - c_ai)
                    for i in range(K):
                        rhs[i] += s * flux[i] / dx

            # susceptibility solve chi dmu = rhs
            if K == 2:
                ca = 0.0
                cb = 0.0
                cc = 0.0
                cd = 0.0
                for a in range(N):
                    ca += h_new[a] * inv_curv[a * 4 + 0]
                    cb += h_new[a] * inv_curv[a * 4 + 1]
                    cc += h_new[a] * inv_curv[a * 4 + 2]
                    cd += h_new[a] * inv_curv[a * 4 + 3]
                det = ca * cd - cb * cc
                sol[0] = (cd * rhs[0] - cb * rhs[1]) / det
                sol[1] = (ca * rhs[1] - cc * rhs[0]) / det
            else:
                for i in range(K):
                    for j in range(K):
                        acc = 0.0
                        for a in range(N):
                            acc += h_new[a] * inv_curv[(a * K + i) * K + j]
                        chi[i, j] = acc
                    sol[i] = rhs[i]
                # Gaussian elimination with partial pivoting
                for col in range(K):
                    piv = col
                    for r in range(col + 1, K):
                        if abs(chi[r, col]) > abs(chi[piv, col]):
                            piv = r
                    if piv != col:
                        for j in range(K):
                            tmp = chi[col, j]
                            chi[col, j] = chi[piv, j]
                            chi[piv, j] = tmp
                        tmp = sol[col]
                        sol[col] = sol[piv]
                        sol[piv] = tmp
                    for r in range(col + 1, K):
                        f = chi[r, col] / chi[col, col]
                        for j in range(col, K):
                            chi[r, j] -= f * chi[col, j]
                        sol[r] -= f * sol[col]
                for col in range(K - 1, -1, -1):
                    acc = sol[col]
                    for j in range(col + 1, K):
                        acc -= chi[col, j] * sol[j]
                    sol[col] = acc / chi[col, col]

            if only_at:
                for i in range(K):
                    out[i * ocs + oc] += dt * sol[i]
            else:
                for i in range(K):
                    out[i * ocs + oc] = mu_c[i] + dt * sol[i]
    return out
