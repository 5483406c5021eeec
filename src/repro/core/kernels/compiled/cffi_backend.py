"""Generated-C compiled backend (cffi ABI mode, OpenMP threading).

A C implementation of the per-cell sweeps of
:mod:`repro.core.kernels.compiled.loops`, compiled on demand with the
system C compiler into a shared library and loaded through ``cffi``'s ABI
mode (``dlopen``) — no setuptools machinery, no build at install time.
The paper's ladder ends in explicitly vectorized compiled kernels; this
backend is the equivalent rung for environments without numba (ROADMAP
lists "Numba ``@njit(parallel=True)`` or a generated-C/cffi kernel" as
interchangeable options for it).

What the C adds to the loop spec
--------------------------------
It keeps ``loops.py``'s arithmetic term by term, in the same order, and
adds the two node-level steps of the paper's ladder (Sec. 3.3):

* **Specialization.** Both sweeps are one C template instantiated twice
  through the preprocessor: with the Ag-Al-Cu numbers of phases and
  solutes (``N = 4``, ``K = 2``) as compile-time constants, and with
  the runtime ``geom[4]``/``geom[5]`` for any other alloy.  The exported
  entry points dispatch on ``geom``.
* **Staggered mu buffering.** The mu sweep evaluates every face flux
  once, from the face's lower cell, into per-axis face arrays, and the
  cell update reads its ``2 * dim`` faces from there; the cellwise loop
  evaluates each face twice, once from either side.  Every face term is
  symmetric in its two cells, so the result is bitwise that of the
  cellwise loop.  The phi sweep stays cellwise.

``tests/test_kernels_compiled.py`` pins both sweeps bitwise
(``np.array_equal``) to the interpreted loop spec.

Compilation policy
------------------
* The C source is hashed (together with the compiler identity); the
  shared object is cached under ``_build/`` next to this module
  (override with ``REPRO_COMPILED_CACHE``), so each environment compiles
  exactly once.  Builds go to a temp name and ``os.replace`` in, so
  concurrent processes race benignly.
* No ``-ffast-math``: the bitwise pin to the loop spec needs IEEE
  semantics (and the default x86-64 target has no fused multiply-add to
  contract into).  No ``-march`` either, so the cached ``.so`` is not
  tied to one host.
* ``-fopenmp`` is attempted first and dropped if the toolchain lacks it;
  the library records which variant is loaded (:func:`num_threads`).

Team size: each simulated rank gets a share of the cores
(:mod:`repro.simmpi.cores`); the share recorded for the calling rank
thread is applied through ``repro_set_num_threads`` at its first kernel
call.  The first call that runs with a team of more than one thread sets
:func:`parallel_started` — a process-wide flag that forked children
inherit, so a process rank forked afterwards is capped at one thread
instead of hanging in libgomp's stale pool.

Memory: per-cell temporaries live on the per-thread stack inside the
OpenMP loops; the T(z) tables, the mu sweep's region flags and face
arrays are ``malloc``'d per call (ranks call the library concurrently
from their own threads, so nothing is static or shared), and the kernels
never touch ``KernelContext.get_scratch``.  Every allocation happens
before the first input is read; when one fails the sweep returns a
non-zero status and :func:`phi_step_raw`/:func:`mu_step_raw` raise
:class:`MemoryError`.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.simmpi.cores import take_pending_threads

__all__ = [
    "available",
    "load",
    "build_error",
    "num_threads",
    "parallel_started",
    "phi_step_raw",
    "mu_step_raw",
]

_CDEF = """
int repro_phi_step(
    const double *phi, const double *mu, const double *tg, double *out,
    const long long *geom, const double *scal,
    const double *gamma, const double *tau, const double *inv_curv,
    const double *c_eq, const double *c_slope, const double *latent,
    const double *diff, int shortcuts);
int repro_mu_step(
    const double *mu, const double *phi_src, const double *phi_dst,
    const double *t_old, const double *t_new, double *out,
    const long long *geom, const double *scal,
    const double *inv_curv, const double *c_eq, const double *c_slope,
    const double *diff, int anti_trapping, int shortcuts,
    int include_at, int only_at);
int repro_num_threads(void);
void repro_set_num_threads(int n);
"""

_C_PRELUDE = r"""
#include <math.h>
#include <stdlib.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#define MAXN 8
#define MAXK 4
#define TOL 1e-9
#define GRAD_TOL 1e-12

/* (N, K) the sweeps are specialized to: the Ag-Al-Cu system (three solids
 * + liquid, two independent solutes).  Other alloys run the generic
 * instance of the same template. */
#define SPEC_N 4
#define SPEC_K 2

typedef long long i64;

int repro_num_threads(void)
{
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}

void repro_set_num_threads(int n)
{
#ifdef _OPENMP
    omp_set_num_threads(n);
#else
    (void)n;
#endif
}
"""

# The two sweeps, written once against the macros NPH/NSOL (numbers of
# phases/solutes) and PHI_SWEEP/MU_SWEEP (the instance names); see
# _instantiate.  The arithmetic is loops.py's, term by term and in the
# same order; the mu sweep only reorganizes *where* each face flux is
# evaluated (once per face instead of once from each side).
_C_SWEEPS = r"""
static int PHI_SWEEP(
    const double *phi, const double *mu, const double *tg, double *out,
    const i64 *geom, const double *scal,
    const double *gamma, const double *tau, const double *inv_curv,
    const double *c_eq, const double *c_slope, const double *latent,
    int shortcuts)
{
    const int dim3 = (int)geom[0];
    const i64 n0 = geom[1], n1 = geom[2], n2 = geom[3];
    const int N = NPH, K = NSOL;
    const double dx = scal[0], dt = scal[1], eps = scal[2];
    const double gt = scal[3], t_eut = scal[4];
    const i64 g1 = n1 + 2, g2 = n2 + 2;
    const i64 g0 = dim3 ? n0 + 2 : 1;
    const i64 cs = g0 * g1 * g2;
    const i64 ocs = n0 * n1 * n2;
    const int nax = dim3 ? 3 : 2;
    const double pref = 16.0 / (M_PI * M_PI);

    double *cmin_z = (double *)malloc((size_t)(n2 * N * K) * sizeof(double));
    double *lat_z = (double *)malloc((size_t)(n2 * N) * sizeof(double));
    if (!cmin_z || !lat_z) {
        free(cmin_z);
        free(lat_z);
        return 1;
    }

    /* T(z) slice coefficients, once per sweep (the tz optimization) */
    for (i64 iz = 0; iz < n2; iz++) {
        const double dT = tg[iz + 1] - t_eut;
        for (int a = 0; a < N; a++) {
            lat_z[iz * N + a] = latent[a] * dT;
            for (int i = 0; i < K; i++)
                cmin_z[(iz * N + a) * K + i] =
                    c_eq[a * K + i] + c_slope[a * K + i] * dT;
        }
    }

#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (i64 p01 = 0; p01 < n0 * n1; p01++) {
        const i64 i0 = p01 / n1;
        const i64 i1 = p01 - i0 * n1;
        i64 off[3];
        i64 base01;
        if (dim3) {
            off[0] = g1 * g2; off[1] = g2; off[2] = 1;
            base01 = ((i0 + 1) * g1 + (i1 + 1)) * g2;
        } else {
            off[0] = g2; off[1] = 1; off[2] = 0;
            base01 = (i1 + 1) * g2;
        }
        double phi_c[MAXN], mu_c[MAXK], grad[3][MAXN];
        double rhs[MAXN], psi[MAXN], vnew[MAXN], u[MAXN];
        for (i64 i2 = 0; i2 < n2; i2++) {
            const i64 c = base01 + i2 + 1;
            const i64 oc = (i0 * n1 + i1) * n2 + i2;
            for (int a = 0; a < N; a++) phi_c[a] = phi[a * cs + c];
            for (int i = 0; i < K; i++) mu_c[i] = mu[i * cs + c];

            int diffuse = 1;
            if (shortcuts) {
                for (int a = 0; a < N; a++)
                    if (phi_c[a] >= 1.0 - TOL) { diffuse = 0; break; }
                int active = diffuse;
                for (int d = 0; d < nax && !active; d++)
                    for (int si = 0; si < 2 && !active; si++) {
                        const i64 nb = c + (i64)(1 - 2 * si) * off[d];
                        for (int a = 0; a < N; a++)
                            if (fabs(phi[a * cs + nb] - phi_c[a]) > TOL) {
                                active = 1;
                                break;
                            }
                    }
                if (!active) {
                    /* bulk cell with uniform neighbourhood: fixed point */
                    for (int a = 0; a < N; a++)
                        out[a * ocs + oc] = phi_c[a];
                    continue;
                }
            }

            /* centered phase gradients */
            for (int d = 0; d < nax; d++) {
                const i64 o = off[d];
                for (int a = 0; a < N; a++)
                    grad[d][a] =
                        (phi[a * cs + c + o] - phi[a * cs + c - o])
                        / (2.0 * dx);
            }

            /* dA/dphi_a */
            for (int a = 0; a < N; a++) {
                double acc = 0.0;
                for (int b = 0; b < N; b++) {
                    if (b == a) continue;
                    const double g = gamma[a * N + b];
                    if (g == 0.0) continue;
                    double dot = 0.0;
                    for (int d = 0; d < nax; d++)
                        dot += (phi_c[a] * grad[d][b]
                                - phi_c[b] * grad[d][a]) * grad[d][b];
                    acc += 2.0 * g * dot;
                }
                rhs[a] = acc;
            }

            /* - div(dA/d grad phi_a) via the 2*dim face fluxes */
            for (int d = 0; d < nax; d++) {
                const i64 o = off[d];
                for (int si = 0; si < 2; si++) {
                    const int s = 1 - 2 * si;
                    const i64 nb = c + (i64)s * o;
                    for (int a = 0; a < N; a++) {
                        const double pna = phi[a * cs + nb];
                        double acc = 0.0;
                        for (int b = 0; b < N; b++) {
                            if (b == a) continue;
                            const double g = gamma[a * N + b];
                            if (g == 0.0) continue;
                            const double pnb = phi[b * cs + nb];
                            const double avg_a = 0.5 * (phi_c[a] + pna);
                            const double avg_b = 0.5 * (phi_c[b] + pnb);
                            const double da = s * (pna - phi_c[a]) / dx;
                            const double db = s * (pnb - phi_c[b]) / dx;
                            acc += 2.0 * g
                                * (avg_b * avg_b * da - avg_a * avg_b * db);
                        }
                        rhs[a] -= s * acc / dx;
                    }
                }
            }

            const double t = tg[i2 + 1];
            for (int a = 0; a < N; a++) rhs[a] *= t * eps;

            /* obstacle potential dW/dphi_a */
            for (int a = 0; a < N; a++) {
                double acc = 0.0;
                for (int b = 0; b < N; b++)
                    if (b != a) acc += pref * gamma[a * N + b] * phi_c[b];
                if (gt != 0.0) {
                    double acc3 = 0.0;
                    for (int b = 0; b < N; b++) {
                        if (b == a) continue;
                        for (int e = b + 1; e < N; e++) {
                            if (e == a) continue;
                            acc3 += phi_c[b] * phi_c[e];
                        }
                    }
                    acc += gt * acc3;
                }
                rhs[a] += (t / eps) * acc;
            }

            /* driving force (diffuse cells only under shortcuts) */
            if (!shortcuts || diffuse) {
                double sq_sum = 0.0;
                for (int a = 0; a < N; a++) sq_sum += phi_c[a] * phi_c[a];
                sq_sum += 1e-300;
                for (int a = 0; a < N; a++) {
                    double quad = 0.0;
                    for (int i = 0; i < K; i++) {
                        quad += inv_curv[(a * K + i) * K + i]
                            * mu_c[i] * mu_c[i];
                        for (int j = i + 1; j < K; j++)
                            quad += 2.0 * inv_curv[(a * K + i) * K + j]
                                * mu_c[i] * mu_c[j];
                    }
                    double lin = 0.0;
                    for (int i = 0; i < K; i++)
                        lin += mu_c[i] * cmin_z[(i2 * N + a) * K + i];
                    psi[a] = -0.5 * quad - lin + lat_z[i2 * N + a];
                }
                double weighted = 0.0;
                for (int a = 0; a < N; a++)
                    weighted += phi_c[a] * phi_c[a] * psi[a];
                weighted /= sq_sum;
                for (int a = 0; a < N; a++)
                    rhs[a] += (2.0 / sq_sum) * phi_c[a] * (psi[a] - weighted);
            }

            /* Lagrange term, explicit Euler, simplex projection */
            double mean = 0.0;
            for (int a = 0; a < N; a++) mean += rhs[a];
            mean /= N;
            for (int a = 0; a < N; a++)
                vnew[a] = phi_c[a] - (dt / (tau[a] * eps)) * (rhs[a] - mean);

            /* Michelot/Condat: sort desc, last positive pivot, clip */
            for (int a = 0; a < N; a++) u[a] = vnew[a];
            for (int a = 1; a < N; a++) {
                const double key = u[a];
                int b = a - 1;
                while (b >= 0 && u[b] < key) { u[b + 1] = u[b]; b--; }
                u[b + 1] = key;
            }
            double css = 0.0, theta = 0.0;
            for (int a = 0; a < N; a++) {
                css += u[a];
                const double cand = u[a] + (1.0 - css) / (a + 1);
                if (cand > 0.0) theta = (1.0 - css) / (a + 1.0);
            }
            for (int a = 0; a < N; a++) {
                const double x = vnew[a] + theta;
                out[a * ocs + oc] = x > 0.0 ? x : 0.0;
            }
        }
    }
    free(cmin_z);
    free(lat_z);
    return 0;
}

/* The mu sweep runs in three passes:
 *   1. region flags of every interior cell (active, front);
 *   2. every face flux, evaluated once from the face's lower cell
 *      (s = +1) into per-axis face arrays;
 *   3. the cell update, reading its 2*dim faces in (d, s) order.
 * A face term seen from the upper cell (s = -1) is bitwise the same
 * number: the averages are sums of the same two operands, and
 * -1 * (x - y) equals y - x exactly (the differences only ever reach an
 * accumulator that starts at +0.0, so no sign of zero survives).
 *
 * Face arrays hold two slots per face: flux_d the diffusion flux D, and
 * flux_at D with the anti-trapping current subtracted, filled only when
 * an adjacent interior cell is a front cell (under only_at it starts
 * from 0, as the cellwise loop does).  The faces of axis d are indexed
 * by their upper cell over the interior grid extended by one along d. */
static int MU_SWEEP(
    const double *mu, const double *phi_src, const double *phi_dst,
    const double *t_old, const double *t_new, double *out,
    const i64 *geom, const double *scal,
    const double *inv_curv, const double *c_eq, const double *c_slope,
    const double *diff, int anti_trapping, int shortcuts,
    int include_at, int only_at)
{
    const int dim3 = (int)geom[0];
    const i64 n0 = geom[1], n1 = geom[2], n2 = geom[3];
    const int N = NPH, K = NSOL;
    const int ell = (int)geom[6];
    const double dx = scal[0], dt = scal[1], eps = scal[2];
    const double t_eut = scal[4];
    const i64 g1 = n1 + 2, g2 = n2 + 2;
    const i64 g0 = dim3 ? n0 + 2 : 1;
    const i64 cs = g0 * g1 * g2;
    const i64 ocs = n0 * n1 * n2;
    const int nax = dim3 ? 3 : 2;
    const double pref_at = M_PI * eps / 4.0;
    const int at_faces = anti_trapping && include_at;

    /* ghosted offset of each axis d; interior extent and stride of the
     * array axis it runs along (2-D fields have no x-ghosts, n0 == 1) */
    const i64 off[3] = {dim3 ? g1 * g2 : g2, dim3 ? g2 : 1, dim3 ? 1 : 0};
    const i64 ext[3] = {n0, n1, n2};
    const i64 ostr[3] = {n1 * n2, n2, 1};
    /* face grid of axis d: extents fm*, stride fstep along d, first face */
    i64 fm0[3], fm1[3], fm2[3], fstep[3], fstart[4];
    fstart[0] = 0;
    for (int d = 0; d < 3; d++) {
        const int ax = d + 3 - nax;
        fm0[d] = n0 + (ax == 0);
        fm1[d] = n1 + (ax == 1);
        fm2[d] = n2 + (ax == 2);
        fstep[d] = ax == 0 ? fm1[d] * fm2[d] : (ax == 1 ? fm2[d] : 1);
        fstart[d + 1] = fstart[d] + (d < nax ? fm0[d] * fm1[d] * fm2[d] : 0);
    }
    const size_t fbytes = (size_t)(fstart[nax] * K) * sizeof(double);

    double *cmin_c = (double *)malloc((size_t)(n2 * N * K) * sizeof(double));
    double *cmin_f =
        (double *)malloc((size_t)((n2 + 1) * N * K) * sizeof(double));
    unsigned char *flags = (unsigned char *)malloc((size_t)ocs);
    double *flux_d = only_at ? NULL : (double *)malloc(fbytes);
    double *flux_at = at_faces ? (double *)malloc(fbytes) : NULL;
    if (!cmin_c || !cmin_f || !flags || (!only_at && !flux_d)
        || (at_faces && !flux_at)) {
        free(cmin_c);
        free(cmin_f);
        free(flags);
        free(flux_d);
        free(flux_at);
        return 1;
    }

    /* T(z) coefficients at cell centres and growth-axis faces */
    for (i64 iz = 0; iz < n2; iz++) {
        const double dT = t_old[iz + 1] - t_eut;
        for (int a = 0; a < N; a++)
            for (int i = 0; i < K; i++)
                cmin_c[(iz * N + a) * K + i] =
                    c_eq[a * K + i] + c_slope[a * K + i] * dT;
    }
    for (i64 f = 0; f < n2 + 1; f++) {
        const double dT = 0.5 * (t_old[f] + t_old[f + 1]) - t_eut;
        for (int a = 0; a < N; a++)
            for (int i = 0; i < K; i++)
                cmin_f[(f * N + a) * K + i] =
                    c_eq[a * K + i] + c_slope[a * K + i] * dT;
    }

    /* pass 1: region flags (bit 0 active, bit 1 front) */
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (i64 p01 = 0; p01 < n0 * n1; p01++) {
        const i64 i0 = p01 / n1;
        const i64 i1 = p01 - i0 * n1;
        const i64 base01 = dim3 ? ((i0 + 1) * g1 + (i1 + 1)) * g2
                                : (i1 + 1) * g2;
        double phio[MAXN];
        for (i64 i2 = 0; i2 < n2; i2++) {
            const i64 c = base01 + i2 + 1;
            int active = 1, front = 1;
            if (shortcuts) {
                for (int a = 0; a < N; a++) phio[a] = phi_src[a * cs + c];
                int diffuse = 1;
                for (int a = 0; a < N; a++)
                    if (phio[a] >= 1.0 - TOL) { diffuse = 0; break; }
                active = diffuse;
                for (int d = 0; d < nax && !active; d++)
                    for (int si = 0; si < 2 && !active; si++) {
                        const i64 nb = c + (i64)(1 - 2 * si) * off[d];
                        for (int a = 0; a < N; a++)
                            if (fabs(phi_src[a * cs + nb] - phio[a]) > TOL) {
                                active = 1;
                                break;
                            }
                    }
                if (active) {
                    int near = phi_src[ell * cs + c] > TOL;
                    for (int d = 0; d < nax && !near; d++)
                        for (int si = 0; si < 2; si++) {
                            const i64 nb = c + (i64)(1 - 2 * si) * off[d];
                            if (phi_src[ell * cs + nb] > TOL) {
                                near = 1;
                                break;
                            }
                        }
                    front = near;
                } else {
                    front = 0;
                }
            }
            flags[p01 * n2 + i2] = (unsigned char)(active | front << 1);
        }
    }

    /* pass 2: face fluxes of div(M grad mu - J_at), seen from cell c
     * below the face (s = +1, neighbour nb above it) */
    for (int d = 0; d < nax; d++) {
        const int ax = d + 3 - nax;
        const i64 o = off[d];
        const i64 m1 = fm1[d], m2 = fm2[d];
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
        for (i64 p01 = 0; p01 < fm0[d] * m1; p01++) {
            const i64 j0 = p01 / m1;
            const i64 j1 = p01 - j0 * m1;
            const i64 base01 = dim3 ? ((j0 + 1) * g1 + (j1 + 1)) * g2
                                    : (j1 + 1) * g2;
            double phio[MAXN], phin[MAXN], mu_c[MAXK];
            double dmu[MAXK], flux[MAXK];
            double phi_f[MAXN], dphidt_f[MAXN], mu_f[MAXK];
            double gl[3], nl[3], ga[3], na[3], c_l[MAXK];
            for (i64 j2 = 0; j2 < m2; j2++) {
                const i64 nb = base01 + j2 + 1;
                const i64 c = nb - o;
                const i64 f = fstart[d] + p01 * m2 + j2;
                /* position of the face along d; interior index of nb */
                const i64 jd = ax == 0 ? j0 : (ax == 1 ? j1 : j2);
                const i64 onb = (j0 * n1 + j1) * n2 + j2;
                const int at = at_faces
                    && ((jd > 0 && (flags[onb - ostr[ax]] & 2))
                        || (jd < ext[ax] && (flags[onb] & 2)));
                if (only_at && !at)
                    continue;
                /* z index of c for the T(z) tables (faces across z use
                 * the face table, entry fz) */
                const i64 i2 = ax == 2 ? j2 - 1 : j2;
                for (int a = 0; a < N; a++) {
                    phio[a] = phi_src[a * cs + c];
                    double v = 0.5 * (phio[a] + phi_src[a * cs + nb]);
                    if (v < 0.0) v = 0.0;
                    else if (v > 1.0) v = 1.0;
                    phi_f[a] = v;
                }
                for (int i = 0; i < K; i++) mu_c[i] = mu[i * cs + c];

                for (int i = 0; i < K; i++) flux[i] = 0.0;
                if (!only_at) {
                    for (int i = 0; i < K; i++)
                        dmu[i] = (mu[i * cs + nb] - mu_c[i]) / dx;
                    for (int a = 0; a < N; a++) {
                        const double w = phi_f[a];
                        for (int i = 0; i < K; i++) {
                            double acc = 0.0;
                            for (int j = 0; j < K; j++)
                                acc += inv_curv[(a * K + i) * K + j]
                                    * dmu[j];
                            flux[i] += w * diff[a] * acc;
                        }
                    }
                    for (int i = 0; i < K; i++) flux_d[f * K + i] = flux[i];
                }
                if (!at)
                    continue;

                /* anti-trapping current through this face */
                double sqs = 0.0;
                for (int a = 0; a < N; a++) {
                    phin[a] = phi_dst[a * cs + c];
                    dphidt_f[a] = 0.5 * (
                        (phin[a] - phio[a])
                        + (phi_dst[a * cs + nb]
                           - phi_src[a * cs + nb])) / dt;
                    sqs += phi_f[a] * phi_f[a];
                }
                sqs += 1e-300;
                for (int i = 0; i < K; i++)
                    mu_f[i] = 0.5 * (mu_c[i] + mu[i * cs + nb]);
                /* liquid normal at the face */
                double normsq = 0.0;
                for (int e = 0; e < nax; e++) {
                    if (e == d) {
                        gl[e] = (phi_src[ell * cs + nb]
                                 - phi_src[ell * cs + c]) / dx;
                    } else {
                        const i64 oe = off[e];
                        gl[e] = 0.5 * (
                            (phi_src[ell * cs + c + oe]
                             - phi_src[ell * cs + c - oe])
                            / (2.0 * dx)
                            + (phi_src[ell * cs + nb + oe]
                               - phi_src[ell * cs + nb - oe])
                            / (2.0 * dx));
                    }
                    normsq += gl[e] * gl[e];
                }
                const double norm_l = sqrt(normsq);
                for (int e = 0; e < nax; e++)
                    nl[e] = norm_l > GRAD_TOL ? gl[e] / norm_l : 0.0;
                /* c_l(mu_f, T_face) */
                i64 fz = -1;
                if (d == nax - 1) {
                    fz = i2 + 1;
                    for (int i = 0; i < K; i++)
                        c_l[i] = cmin_f[(fz * N + ell) * K + i];
                } else {
                    for (int i = 0; i < K; i++)
                        c_l[i] = cmin_c[(i2 * N + ell) * K + i];
                }
                for (int i = 0; i < K; i++) {
                    double acc = 0.0;
                    for (int j = 0; j < K; j++)
                        acc += inv_curv[(ell * K + i) * K + j] * mu_f[j];
                    c_l[i] += acc;
                }
                for (int a = 0; a < N; a++) {
                    if (a == ell) continue;
                    double nsq = 0.0;
                    for (int e = 0; e < nax; e++) {
                        if (e == d) {
                            ga[e] = (phi_src[a * cs + nb]
                                     - phi_src[a * cs + c]) / dx;
                        } else {
                            const i64 oe = off[e];
                            ga[e] = 0.5 * (
                                (phi_src[a * cs + c + oe]
                                 - phi_src[a * cs + c - oe])
                                / (2.0 * dx)
                                + (phi_src[a * cs + nb + oe]
                                   - phi_src[a * cs + nb - oe])
                                / (2.0 * dx));
                        }
                        nsq += ga[e] * ga[e];
                    }
                    const double norm_a = sqrt(nsq);
                    for (int e = 0; e < nax; e++)
                        na[e] = norm_a > GRAD_TOL ? ga[e] / norm_a : 0.0;
                    const double amp =
                        sqrt(phi_f[a] * phi_f[ell]) * phi_f[ell] / sqs;
                    double dot = 0.0;
                    for (int e = 0; e < nax; e++)
                        dot += na[e] * nl[e];
                    const double scalf =
                        pref_at * amp * dphidt_f[a] * dot * na[d];
                    for (int i = 0; i < K; i++) {
                        double c_ai = fz >= 0
                            ? cmin_f[(fz * N + a) * K + i]
                            : cmin_c[(i2 * N + a) * K + i];
                        for (int j = 0; j < K; j++)
                            c_ai += inv_curv[(a * K + i) * K + j] * mu_f[j];
                        flux[i] -= scalf * (c_l[i] - c_ai);
                    }
                }
                for (int i = 0; i < K; i++) flux_at[f * K + i] = flux[i];
            }
        }
    }

    /* pass 3: cell update */
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (i64 p01 = 0; p01 < n0 * n1; p01++) {
        const i64 i0 = p01 / n1;
        const i64 i1 = p01 - i0 * n1;
        const i64 base01 = dim3 ? ((i0 + 1) * g1 + (i1 + 1)) * g2
                                : (i1 + 1) * g2;
        double phio[MAXN], phin[MAXN], mu_c[MAXK];
        double h_old[MAXN], h_new[MAXN];
        double rhs[MAXK];
        double chi[MAXK][MAXK], sol[MAXK];
        for (i64 i2 = 0; i2 < n2; i2++) {
            const i64 c = base01 + i2 + 1;
            const i64 oc = p01 * n2 + i2;
            const int active = flags[oc] & 1;
            const int do_at = anti_trapping && (flags[oc] & 2);
            if (only_at && !do_at)
                continue;  /* out already holds the local partial result */
            const double told = t_old[i2 + 1];
            const double tnew = t_new[i2 + 1];
            for (int a = 0; a < N; a++) {
                phio[a] = phi_src[a * cs + c];
                phin[a] = phi_dst[a * cs + c];
            }
            for (int i = 0; i < K; i++) mu_c[i] = mu[i * cs + c];

            /* Moelans interpolation weights of both time levels */
            double sqo = 0.0, sqn = 0.0;
            for (int a = 0; a < N; a++) {
                sqo += phio[a] * phio[a];
                sqn += phin[a] * phin[a];
            }
            sqo += 1e-300;
            sqn += 1e-300;
            for (int a = 0; a < N; a++) {
                h_old[a] = phio[a] * phio[a] / sqo;
                h_new[a] = phin[a] * phin[a] / sqn;
            }

            for (int i = 0; i < K; i++) rhs[i] = 0.0;
            if (!only_at) {
                if (active) {
                    /* phase-change source */
                    for (int a = 0; a < N; a++) {
                        const double dh = h_new[a] - h_old[a];
                        for (int i = 0; i < K; i++) {
                            double c_ai = cmin_c[(i2 * N + a) * K + i];
                            for (int j = 0; j < K; j++)
                                c_ai += inv_curv[(a * K + i) * K + j]
                                    * mu_c[j];
                            rhs[i] -= dh * c_ai / dt;
                        }
                    }
                }
                /* temperature drift source */
                const double fac = (tnew - told) / dt;
                for (int i = 0; i < K; i++) {
                    double acc = 0.0;
                    for (int a = 0; a < N; a++)
                        acc += h_new[a] * c_slope[a * K + i];
                    rhs[i] -= acc * fac;
                }
            }

            /* face fluxes: div(M grad mu - J_at); a face is this cell's
             * upper face (s = +1) or lower face (s = -1) along d.  No
             * slot is filled for only_at without include_at, where every
             * flux of the cellwise loop is zero. */
            const double *fx = do_at && include_at ? flux_at : flux_d;
            for (int d = 0; d < nax && fx; d++) {
                const i64 lower =
                    fstart[d] + (i0 * fm1[d] + i1) * fm2[d] + i2;
                for (int si = 0; si < 2; si++) {
                    const int s = 1 - 2 * si;
                    const i64 f = si == 0 ? lower + fstep[d] : lower;
                    for (int i = 0; i < K; i++)
                        rhs[i] += s * fx[f * K + i] / dx;
                }
            }

            /* susceptibility solve chi dmu = rhs */
            if (K == 2) {
                double ca = 0.0, cb = 0.0, cc = 0.0, cd = 0.0;
                for (int a = 0; a < N; a++) {
                    ca += h_new[a] * inv_curv[a * 4 + 0];
                    cb += h_new[a] * inv_curv[a * 4 + 1];
                    cc += h_new[a] * inv_curv[a * 4 + 2];
                    cd += h_new[a] * inv_curv[a * 4 + 3];
                }
                const double det = ca * cd - cb * cc;
                sol[0] = (cd * rhs[0] - cb * rhs[1]) / det;
                sol[1] = (ca * rhs[1] - cc * rhs[0]) / det;
            } else {
                for (int i = 0; i < K; i++) {
                    for (int j = 0; j < K; j++) {
                        double acc = 0.0;
                        for (int a = 0; a < N; a++)
                            acc += h_new[a] * inv_curv[(a * K + i) * K + j];
                        chi[i][j] = acc;
                    }
                    sol[i] = rhs[i];
                }
                /* Gaussian elimination with partial pivoting */
                for (int col = 0; col < K; col++) {
                    int piv = col;
                    for (int r = col + 1; r < K; r++)
                        if (fabs(chi[r][col]) > fabs(chi[piv][col])) piv = r;
                    if (piv != col) {
                        for (int j = 0; j < K; j++) {
                            const double tmp = chi[col][j];
                            chi[col][j] = chi[piv][j];
                            chi[piv][j] = tmp;
                        }
                        const double tmp = sol[col];
                        sol[col] = sol[piv];
                        sol[piv] = tmp;
                    }
                    for (int r = col + 1; r < K; r++) {
                        const double f = chi[r][col] / chi[col][col];
                        for (int j = col; j < K; j++)
                            chi[r][j] -= f * chi[col][j];
                        sol[r] -= f * sol[col];
                    }
                }
                for (int col = K - 1; col >= 0; col--) {
                    double acc = sol[col];
                    for (int j = col + 1; j < K; j++)
                        acc -= chi[col][j] * sol[j];
                    sol[col] = acc / chi[col][col];
                }
            }

            if (only_at) {
                for (int i = 0; i < K; i++)
                    out[i * ocs + oc] += dt * sol[i];
            } else {
                for (int i = 0; i < K; i++)
                    out[i * ocs + oc] = mu_c[i] + dt * sol[i];
            }
        }
    }
    free(cmin_c);
    free(cmin_f);
    free(flags);
    free(flux_d);
    free(flux_at);
    return 0;
}
"""

# Exported entry points: the alloy's (N, K) runs the specialized
# instance, anything else the generic one.  Both return 0, or 1 when a
# scratch allocation failed (before any input was read).
_C_ENTRY = r"""
int repro_phi_step(
    const double *phi, const double *mu, const double *tg, double *out,
    const i64 *geom, const double *scal,
    const double *gamma, const double *tau, const double *inv_curv,
    const double *c_eq, const double *c_slope, const double *latent,
    const double *diff, int shortcuts)
{
    (void)diff;
    if (geom[4] == SPEC_N && geom[5] == SPEC_K)
        return phi_sweep_spec(phi, mu, tg, out, geom, scal, gamma, tau,
                              inv_curv, c_eq, c_slope, latent, shortcuts);
    return phi_sweep_any(phi, mu, tg, out, geom, scal, gamma, tau,
                         inv_curv, c_eq, c_slope, latent, shortcuts);
}

int repro_mu_step(
    const double *mu, const double *phi_src, const double *phi_dst,
    const double *t_old, const double *t_new, double *out,
    const i64 *geom, const double *scal,
    const double *inv_curv, const double *c_eq, const double *c_slope,
    const double *diff, int anti_trapping, int shortcuts,
    int include_at, int only_at)
{
    if (geom[4] == SPEC_N && geom[5] == SPEC_K)
        return mu_sweep_spec(mu, phi_src, phi_dst, t_old, t_new, out, geom,
                             scal, inv_curv, c_eq, c_slope, diff,
                             anti_trapping, shortcuts, include_at, only_at);
    return mu_sweep_any(mu, phi_src, phi_dst, t_old, t_new, out, geom,
                        scal, inv_curv, c_eq, c_slope, diff,
                        anti_trapping, shortcuts, include_at, only_at);
}
"""


def _instantiate(name: str, nph: str, nsol: str) -> str:
    """The sweep template with NPH/NSOL bound and its functions named."""
    return (
        f"\n#define NPH {nph}\n#define NSOL {nsol}\n"
        f"#define PHI_SWEEP phi_sweep_{name}\n"
        f"#define MU_SWEEP mu_sweep_{name}\n"
        + _C_SWEEPS
        + "#undef NPH\n#undef NSOL\n#undef PHI_SWEEP\n#undef MU_SWEEP\n"
    )


_C_SOURCE = (
    _C_PRELUDE
    + _instantiate("spec", "SPEC_N", "SPEC_K")
    + _instantiate("any", "((int)geom[4])", "((int)geom[5])")
    + _C_ENTRY
)

_CC_CANDIDATES = ("cc", "gcc", "clang")

_lib = None
_ffi = None
_build_error: str | None = None
_loaded = False
_parallel_started = False


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_COMPILED_CACHE")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "_build"


def _find_cc() -> str | None:
    import shutil

    for cc in _CC_CANDIDATES:
        path = shutil.which(cc)
        if path:
            return path
    return None


def _compile(cc: str, cache: Path, tag: str) -> Path:
    """Compile the kernel library into the cache (atomic publish)."""
    cache.mkdir(parents=True, exist_ok=True)
    target = cache / f"repro_kernels_{tag}.so"
    if target.exists():
        return target
    src = cache / f"repro_kernels_{tag}.c"
    src.write_text(_C_SOURCE)
    fd, tmp = tempfile.mkstemp(
        suffix=".so", prefix="repro_kernels_", dir=str(cache)
    )
    os.close(fd)
    base = [cc, "-O3", "-fPIC", "-shared", str(src), "-o", tmp, "-lm"]
    attempts = (
        base[:1] + ["-fopenmp"] + base[1:],  # threaded build first
        base,                                # serial fallback
    )
    last = None
    for cmd in attempts:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=300
        )
        if proc.returncode == 0:
            os.replace(tmp, target)
            return target
        last = proc.stderr.strip()
    os.unlink(tmp)
    raise RuntimeError(f"C kernel build failed with {cc}: {last}")


def load():
    """Compile (once per environment) and dlopen the kernel library.

    Returns the cffi library handle, or ``None`` when no working C
    toolchain or cffi is present (the registry then reports the compiled
    rungs unavailable instead of erroring).
    """
    global _lib, _ffi, _build_error, _loaded
    if _loaded:
        return _lib
    _loaded = True
    try:
        import cffi
    except ImportError:
        _build_error = "cffi is not installed"
        return None
    cc = _find_cc()
    if cc is None:
        _build_error = f"no C compiler found (tried {_CC_CANDIDATES})"
        return None
    tag = hashlib.sha256(
        (_C_SOURCE + _CDEF + cc).encode()
    ).hexdigest()[:16]
    try:
        path = _compile(cc, _cache_dir(), tag)
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        _lib = ffi.dlopen(str(path))
        _ffi = ffi
    except (RuntimeError, OSError) as exc:
        _build_error = str(exc)
        _lib = None
    return _lib


def available() -> bool:
    """True when the C library compiled and loaded in this environment."""
    return load() is not None


def build_error() -> str | None:
    """Why :func:`available` is False (None when it is True)."""
    load()
    return _build_error


def _apply_budget(lib):
    """Apply the calling rank thread's pending core budget to *lib*."""
    want = take_pending_threads()
    if want is not None:
        lib.repro_set_num_threads(want)
    return lib


def num_threads() -> int:
    """OpenMP team size of the calling thread (1 = serial build).

    Inside a rank this is the team the rank's kernels run with.
    """
    lib = load()
    if lib is None:
        return 0
    return int(_apply_budget(lib).repro_num_threads())


def parallel_started() -> bool:
    """True once a kernel ran with a team of more than one thread here.

    Process-wide and inherited by ``fork``: libgomp's thread pool does
    not survive into a forked child (see :mod:`repro.simmpi.cores`).
    """
    return _parallel_started


def _team_lib():
    """The library, budgeted for the calling thread, before a kernel call."""
    global _parallel_started
    lib = _apply_budget(load())
    if not _parallel_started and lib.repro_num_threads() > 1:
        _parallel_started = True
    return lib


def _ptr(arr: np.ndarray, ctype: str = "const double *"):
    return _ffi.cast(ctype, arr.ctypes.data)


def _check(status: int, sweep: str, geom) -> None:
    """Raise when the C sweep could not allocate its scratch."""
    if status:
        raise MemoryError(
            f"compiled {sweep} sweep could not allocate its scratch "
            f"(geom={[int(g) for g in geom]})"
        )


def phi_step_raw(phi, mu, tg, out, geom, scal, gamma, tau, inv_curv,
                 c_eq, c_slope, latent, diff, shortcuts):
    """Flat-array phi sweep (same signature as ``loops.phi_cellwise``)."""
    status = _team_lib().repro_phi_step(
        _ptr(phi), _ptr(mu), _ptr(tg), _ptr(out, "double *"),
        _ptr(geom, "const long long *"), _ptr(scal),
        _ptr(gamma), _ptr(tau), _ptr(inv_curv), _ptr(c_eq),
        _ptr(c_slope), _ptr(latent), _ptr(diff), int(shortcuts),
    )
    _check(status, "phi", geom)
    return out


def mu_step_raw(mu, phi_src, phi_dst, t_old, t_new, out, geom, scal,
                inv_curv, c_eq, c_slope, diff,
                anti_trapping, shortcuts, include_at, only_at):
    """Flat-array mu sweep (same signature as ``loops.mu_cellwise``)."""
    status = _team_lib().repro_mu_step(
        _ptr(mu), _ptr(phi_src), _ptr(phi_dst), _ptr(t_old), _ptr(t_new),
        _ptr(out, "double *"), _ptr(geom, "const long long *"), _ptr(scal),
        _ptr(inv_curv), _ptr(c_eq), _ptr(c_slope), _ptr(diff),
        int(anti_trapping), int(shortcuts), int(include_at), int(only_at),
    )
    _check(status, "mu", geom)
    return out
