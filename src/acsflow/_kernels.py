"""Dormand-Prince 4(5) marcher for the shrinker profile ODE.

U'' = U^(-1/alpha) - U, started from (u_max, 0), carrying the variation eta
(eta'' + eta + (1/alpha) U^(-1-1/alpha) eta = 0) and the running quadrature
q of U^(1-1/alpha). The march either stops at the first interior minimum of
U, polished on the true ODE, or lands exactly on requested output angles.
The state has five components, so the marcher is scalar Python.
"""

import numpy as np


# State vector y = (U, U', eta, eta', q) with q' = U^(1-1/alpha).

# statuses of the marcher
OK = 0
EVENT_NOT_FOUND = 1
STEP_UNDERFLOW = 2
NODE_OVERFLOW = 3


def _profile_rhs(y, inv_alpha, dy):
    u = y[0]
    if u <= 0.0:
        return False
    upow = u ** (-inv_alpha)
    dy[0] = y[1]
    dy[1] = upow - u
    dy[2] = y[3]
    dy[3] = -(1.0 + inv_alpha * upow / u) * y[2]
    dy[4] = u * upow  # U^(1 - 1/alpha)
    return True


def _dp45_step(y, h, inv_alpha, out, err):
    """One Dormand-Prince 4(5) step; fills out (5th order) and err estimate."""
    k1 = np.empty(5)
    k2 = np.empty(5)
    k3 = np.empty(5)
    k4 = np.empty(5)
    k5 = np.empty(5)
    k6 = np.empty(5)
    k7 = np.empty(5)
    tmp = np.empty(5)

    if not _profile_rhs(y, inv_alpha, k1):
        return False
    for i in range(5):
        tmp[i] = y[i] + h * 0.2 * k1[i]
    if not _profile_rhs(tmp, inv_alpha, k2):
        return False
    for i in range(5):
        tmp[i] = y[i] + h * (3.0 / 40.0 * k1[i] + 9.0 / 40.0 * k2[i])
    if not _profile_rhs(tmp, inv_alpha, k3):
        return False
    for i in range(5):
        tmp[i] = y[i] + h * (44.0 / 45.0 * k1[i] - 56.0 / 15.0 * k2[i] + 32.0 / 9.0 * k3[i])
    if not _profile_rhs(tmp, inv_alpha, k4):
        return False
    for i in range(5):
        tmp[i] = y[i] + h * (19372.0 / 6561.0 * k1[i] - 25360.0 / 2187.0 * k2[i]
                             + 64448.0 / 6561.0 * k3[i] - 212.0 / 729.0 * k4[i])
    if not _profile_rhs(tmp, inv_alpha, k5):
        return False
    for i in range(5):
        tmp[i] = y[i] + h * (9017.0 / 3168.0 * k1[i] - 355.0 / 33.0 * k2[i]
                             + 46732.0 / 5247.0 * k3[i] + 49.0 / 176.0 * k4[i]
                             - 5103.0 / 18656.0 * k5[i])
    if not _profile_rhs(tmp, inv_alpha, k6):
        return False
    for i in range(5):
        out[i] = y[i] + h * (35.0 / 384.0 * k1[i] + 500.0 / 1113.0 * k3[i]
                             + 125.0 / 192.0 * k4[i] - 2187.0 / 6784.0 * k5[i]
                             + 11.0 / 84.0 * k6[i])
    if not _profile_rhs(out, inv_alpha, k7):
        return False
    # difference between the 5th and embedded 4th order results
    for i in range(5):
        err[i] = h * (71.0 / 57600.0 * k1[i] - 71.0 / 16695.0 * k3[i]
                      + 71.0 / 1920.0 * k4[i] - 17253.0 / 339200.0 * k5[i]
                      + 22.0 / 525.0 * k6[i] - 1.0 / 40.0 * k7[i])
    return True


def _sub_integrate(y0, span, inv_alpha, nsub, out):
    """Integrate span with nsub fixed DP45 substeps (event polishing helper)."""
    cur = np.empty(5)
    for i in range(5):
        cur[i] = y0[i]
    err = np.empty(5)
    h = span / nsub
    for _ in range(nsub):
        if not _dp45_step(cur, h, inv_alpha, out, err):
            return False
        for i in range(5):
            cur[i] = out[i]
    for i in range(5):
        out[i] = cur[i]
    return True


def _error_norm(err, y, ynew, scale_u, scale_v, rtol, atol):
    # component scales: amplitude-aware for (U, U'); running magnitude for the
    # variation pair; O(1) floor for the quadrature component
    e = abs(err[0]) / scale_u
    ev = abs(err[1]) / scale_v
    if ev > e:
        e = ev
    se = atol + rtol * max(abs(y[2]), abs(ynew[2]))
    if se > 0.0:
        ee = abs(err[2]) / se
        if ee > e:
            e = ee
    sf = atol + rtol * max(abs(y[3]), abs(ynew[3]))
    if sf > 0.0:
        ee = abs(err[3]) / sf
        if ee > e:
            e = ee
    sq = atol + rtol * max(1.0, abs(y[4]))
    ee = abs(err[4]) / sq
    if ee > e:
        e = ee
    return e


def _march_profile(alpha, u_max, eta0, rtol, atol, theta_max,
                   theta_out, use_event, nodes):
    """March the profile ODE from (u_max, 0).

    use_event: stop at the first interior minimum of U (U' = 0, U'' > 0),
    polished on the true ODE; the final recorded node is the event point.
    Otherwise land exactly on every angle in theta_out (recorded in order,
    nodes gets exactly len(theta_out) rows).

    nodes: preallocated (cap, 6) buffer of rows (theta, U, U', eta, eta', q).
    Returns (status, n_nodes).
    """
    inv_alpha = 1.0 / alpha
    cap = nodes.shape[0]

    y = np.empty(5)
    y[0] = u_max
    y[1] = 0.0
    y[2] = eta0
    y[3] = 0.0
    y[4] = 0.0

    # first-integral energy fixes the exact amplitude of U'
    coef = 2.0 * alpha / (1.0 - alpha)
    energy = u_max * u_max + coef * u_max ** (1.0 - inv_alpha)
    vamp2 = energy - (1.0 + coef)
    vamp = np.sqrt(vamp2) if vamp2 > 0.0 else atol
    scale_u = atol + rtol * u_max
    scale_v = atol + rtol * vamp

    th = 0.0
    n_nodes = 0
    out_idx = 0
    n_out = theta_out.shape[0]
    if use_event:
        nodes[0, 0] = th
        nodes[0, 1] = y[0]
        nodes[0, 2] = y[1]
        nodes[0, 3] = y[2]
        nodes[0, 4] = y[3]
        nodes[0, 5] = y[4]
        n_nodes = 1
    else:
        if n_out == 0:
            return OK, 0
        if theta_out[0] == 0.0:
            nodes[0, 0] = 0.0
            nodes[0, 1] = y[0]
            nodes[0, 2] = y[1]
            nodes[0, 3] = y[2]
            nodes[0, 4] = y[3]
            nodes[0, 5] = y[4]
            n_nodes = 1
            out_idx = 1

    h = 1e-3
    ynew = np.empty(5)
    err = np.empty(5)
    went_negative = False

    for _ in range(2000000):
        if use_event:
            limit = theta_max
        else:
            if out_idx >= n_out:
                return OK, n_nodes
            limit = theta_out[out_idx]
        landing = False
        if th + h >= limit:
            h = limit - th
            landing = True
        if h <= 1e-15 * max(1.0, th) and not landing:
            return STEP_UNDERFLOW, n_nodes

        ok = _dp45_step(y, h, inv_alpha, ynew, err)
        if not ok:
            h *= 0.25
            if h < 1e-15:
                return STEP_UNDERFLOW, n_nodes
            continue
        enorm = _error_norm(err, y, ynew, scale_u, scale_v, rtol, atol)
        if not np.isfinite(enorm):
            enorm = 10.0
        if enorm > 1.0 and not (landing and h <= 1e-13):
            fac = 0.9 * enorm ** (-0.2)
            if fac < 0.1:
                fac = 0.1
            h *= fac
            continue

        th_prev = th
        th = limit if landing else th + h

        if use_event:
            if ynew[1] < 0.0:
                went_negative = True
            if went_negative and ynew[1] >= 0.0:
                # minimum inside (th_prev, th]: polish on the true ODE
                lo = 0.0
                hi = th - th_prev
                s = hi
                probe = np.empty(5)
                for i in range(5):
                    probe[i] = ynew[i]
                v = probe[1]
                for _ in range(80):
                    dv = probe[0] ** (-inv_alpha) - probe[0]
                    if v < 0.0:
                        lo = s
                    else:
                        hi = s
                    step = -v / dv if dv != 0.0 else 0.0
                    snew = s + step
                    if not (lo < snew < hi) or step == 0.0:
                        snew = 0.5 * (lo + hi)
                    if abs(snew - s) < 1e-14 * max(1.0, th_prev + s):
                        s = snew
                        break
                    s = snew
                    if not _sub_integrate(y, s, inv_alpha, 8, probe):
                        return STEP_UNDERFLOW, n_nodes
                    v = probe[1]
                if not _sub_integrate(y, s, inv_alpha, 8, probe):
                    return STEP_UNDERFLOW, n_nodes
                if n_nodes >= cap:
                    return NODE_OVERFLOW, n_nodes
                nodes[n_nodes, 0] = th_prev + s
                nodes[n_nodes, 1] = probe[0]
                nodes[n_nodes, 2] = probe[1]
                nodes[n_nodes, 3] = probe[2]
                nodes[n_nodes, 4] = probe[3]
                nodes[n_nodes, 5] = probe[4]
                n_nodes += 1
                return OK, n_nodes
            if n_nodes >= cap:
                return NODE_OVERFLOW, n_nodes
            nodes[n_nodes, 0] = th
            nodes[n_nodes, 1] = ynew[0]
            nodes[n_nodes, 2] = ynew[1]
            nodes[n_nodes, 3] = ynew[2]
            nodes[n_nodes, 4] = ynew[3]
            nodes[n_nodes, 5] = ynew[4]
            n_nodes += 1
            if th >= theta_max:
                return EVENT_NOT_FOUND, n_nodes
        else:
            if landing:
                if n_nodes >= cap:
                    return NODE_OVERFLOW, n_nodes
                nodes[n_nodes, 0] = th
                nodes[n_nodes, 1] = ynew[0]
                nodes[n_nodes, 2] = ynew[1]
                nodes[n_nodes, 3] = ynew[2]
                nodes[n_nodes, 4] = ynew[3]
                nodes[n_nodes, 5] = ynew[4]
                n_nodes += 1
                out_idx += 1

        for i in range(5):
            y[i] = ynew[i]

        if landing:
            h = max(h, 1e-6)
        fac = 5.0 if enorm == 0.0 else 0.9 * enorm ** (-0.2)
        if fac > 5.0:
            fac = 5.0
        if fac < 0.2:
            fac = 0.2
        h *= fac

    return STEP_UNDERFLOW, n_nodes


# -- wrappers -----------------------------------------------------------------

_NODE_CAP = 16384


def march_event(alpha, u_max, eta0=0.0, rtol=1e-12, atol=1e-15,
                theta_max=10.0 * np.pi):
    """Integrate the profile arc to its first interior minimum.

    Returns (status, nodes) where nodes is an (m, 6) array of rows
    (theta, U, U', eta, eta', q); the last row is the polished event point.
    """
    buf = np.empty((_NODE_CAP, 6))
    status, m = _march_profile(float(alpha), float(u_max), float(eta0),
                               float(rtol), float(atol), float(theta_max),
                               np.empty(0), True, buf)
    return status, buf[:m].copy()


def march_resample(alpha, u_max, theta_out, eta0=0.0, rtol=1e-12, atol=1e-15):
    """Integrate the profile arc landing exactly on each angle in theta_out."""
    theta_out = np.asarray(theta_out, dtype=float)
    buf = np.empty((len(theta_out), 6))
    status, m = _march_profile(float(alpha), float(u_max), float(eta0),
                               float(rtol), float(atol), float(np.inf),
                               theta_out, False, buf)
    return status, buf[:m].copy()
