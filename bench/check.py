"""Checks of one pipeline operation, computed apart from the program.

Every function returns a list of problems; an empty list means the check
passed.  The system matrices are read from the project document itself,
and the reference values come from numpy and scipy, so a wrong program
cannot pass by agreeing with itself.  The tolerances repeat the values the
program documents; they are written out here so that the benchmark keeps
judging later versions of the program by the same standard.
"""

import re

import numpy as np
from scipy import linalg as sla

# Residual of the construction identities, relative to max(1, |A|) or max(1, |D|).
ALGEBRAIC_TOL = 1e-8
# Eigenvalue slack of a certificate the program computed itself.
COMPUTED_CERT_TOL = 1e-7
# Eigenvalue slack of an injected certificate (rounded published tables).
INJECTED_CERT_TOL = 5e-2
# Slack on a sampled bound.
BOUND_TOL = 1e-6
# Agreement of a recomputed quantity with the one the program returned.
AGREE_TOL = 1e-9

# The published table for the bundled example, with the tolerances the
# program's own reproduction report uses.
PUBLISHED_K4 = 1.47
PUBLISHED_RHO = {"s1": 1.81, "s2": 1.41, "s3": 1.81, "s4": 1.41}
PUBLISHED_MU_OVER_D = {"s1": 0.78, "s2": 1.41, "s3": 0.78, "s4": 1.41}
# the coupling parameter each subsystem's mu is quoted against
PUBLISHED_COUPLING = {"s1": "d1", "s2": "d2", "s3": "d3", "s4": "d2"}
PUBLISHED_ETA = (0.4, 0.6, 0.5, 0.6)
PUBLISHED_EPSILON = 4.0
PUBLISHED_COMPOSED_LAM = 0.8
PUBLISHED_BOUND_RANGE = (5.6, 6.0)
PUBLISHED_TOL = 0.01

_ENTRY = re.compile(r"^([+-]?)(\d+(?:\.\d*)?|\.\d+)?\*?([A-Za-z_]\w*)$")


def _entry(value, parameters):
    if isinstance(value, str):
        sign, coefficient, name = _ENTRY.match(value.strip()).groups()
        number = (float(coefficient) if coefficient else 1.0) * parameters[name]
        return -number if sign == "-" else number
    return float(value)


def _matrix(rows, parameters, n_rows):
    if not rows or not any(rows):
        return np.zeros((n_rows, 0))
    return np.array([[_entry(v, parameters) for v in row] for row in rows], dtype=float)


class Subsystem:
    """One subsystem as the project document states it."""

    def __init__(self, block, parameters):
        self.name = block["name"]
        self.A = _matrix(block["A"], parameters, 0)
        n = self.A.shape[0]
        self.B = _matrix(block.get("B", []), parameters, n)
        self.C = _matrix(block.get("C", []), parameters, 0).reshape(-1, n)
        self.D = _matrix(block.get("D", []), parameters, n)
        self.channels = [(ch["from"], int(ch["width"])) for ch in block.get("inputs", [])]
        self.C_int = {peer: _matrix(rows, parameters, 0).reshape(-1, n)
                      for peer, rows in block.get("outputs_to", {}).items()}
        abstraction = block.get("abstraction", {})
        p = abstraction.get("P")
        self.P = None if isinstance(p, str) or p is None else _matrix(p, parameters, n)
        self.injected = "certificate" in abstraction

    @property
    def output_blocks(self):
        return [blk for blk in [self.C, *self.C_int.values()] if blk.shape[0]]


def parse(doc) -> list:
    parameters = doc.get("parameters", {})
    return [Subsystem(block, parameters) for block in doc["subsystems"]]


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b), initial=0.0)) / max(1.0, float(np.max(np.abs(b), initial=0.0)))


def _sqrt_spd(m):
    w, u = np.linalg.eigh(m)
    return (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T


def check_subsystem(sub: Subsystem, result) -> list:
    """Construction identities, certificate inequalities and gains of one
    abstraction, recomputed from the matrices it returned."""
    fn, ab, gains = result.simfn, result.system, result.gains
    out = []
    where = sub.name
    if sub.P is not None and not np.array_equal(fn.P, sub.P):
        out.append(f"{where}: P differs from the project's injection")
    p = fn.P
    res_a = np.linalg.norm(sub.A @ p - p @ ab.A - sub.B @ fn.K2)
    if res_a > ALGEBRAIC_TOL * max(1.0, np.linalg.norm(sub.A, 2)):
        out.append(f"{where}: A P - P Ahat - B K2 residual {res_a:.3e}")
    if sub.D.shape[1]:
        res_d = np.linalg.norm(sub.D - p @ ab.D - sub.B @ fn.K3)
        if res_d > ALGEBRAIC_TOL * max(1.0, np.linalg.norm(sub.D, 2)):
            out.append(f"{where}: D - P Dhat - B K3 residual {res_d:.3e}")
    if _rel(result.phat @ p, np.eye(p.shape[1])) > ALGEBRAIC_TOL:
        out.append(f"{where}: phat P is not the identity")
    if _rel(ab.C_ext, sub.C @ p) > AGREE_TOL:
        out.append(f"{where}: Chat differs from C P")

    m, k1, lam = fn.M, fn.K1, fn.lam
    tol = INJECTED_CERT_TOL if sub.injected else COMPUTED_CERT_TOL
    if _rel(m, m.T) > AGREE_TOL:
        out.append(f"{where}: M is not symmetric")
    m = 0.5 * (m + m.T)
    for blk in sub.output_blocks:
        slack = np.linalg.eigvalsh(m - blk.T @ blk)[0]
        if slack < -tol:
            out.append(f"{where}: M - Cb^T Cb has eigenvalue {slack:.3e}")
    a_cl = sub.A + sub.B @ k1 if k1.size else sub.A
    decay = np.linalg.eigvalsh(a_cl.T @ m + m @ a_cl + 2.0 * lam * m)[-1]
    if decay > tol:
        out.append(f"{where}: decay matrix has eigenvalue {decay:.3e}")
    if not (lam > 0 and lam == gains.lam):
        out.append(f"{where}: decay rate {lam} does not match gains {gains.lam}")
    if not sub.injected:
        # M must be a positive multiple of the shifted closed-loop Lyapunov solution
        ref = sla.solve_continuous_lyapunov((a_cl + lam * np.eye(len(a_cl))).T, -np.eye(len(a_cl)))
        scale = float(np.sum(m * ref) / np.sum(ref * ref))
        if not scale > 0 or np.linalg.norm(m - scale * ref) > 1e-6 * np.linalg.norm(m):
            out.append(f"{where}: M is not a positive multiple of scipy's Lyapunov solution")

    root = _sqrt_spd(m)
    target = p @ ab.B
    if sub.B.shape[1]:
        # K4 minimizes |sqrt(M) (P Bhat - B K4)|: the normal equations hold
        normal = sub.B.T @ m @ (target - sub.B @ fn.K4)
        if np.linalg.norm(normal) > 1e-8 * max(1.0, np.linalg.norm(sub.B.T @ m @ target)):
            out.append(f"{where}: K4 does not minimize the input mismatch")
        residual = target - sub.B @ fn.K4
    else:
        residual = target
    rho = np.linalg.norm(root @ residual, 2) if residual.size else 0.0
    if abs(rho - gains.rho) > AGREE_TOL * max(1.0, rho):
        out.append(f"{where}: rho {gains.rho} recomputes to {rho}")
    mu = [np.linalg.norm(root @ sub.D[:, k]) for k in range(sub.D.shape[1])]
    if len(mu) != len(gains.mu) or _rel(gains.mu, mu) > AGREE_TOL:
        out.append(f"{where}: mu {gains.mu} recomputes to {mu}")
    return out


def check_network(subs, results, gm, path, composed) -> list:
    """Small-gain certificate of the network, from the per-subsystem gains."""
    out = []
    names = [s.name for s in subs]
    index = {name: i for i, name in enumerate(names)}
    gamma = np.zeros((len(subs), len(subs)))
    for i, sub in enumerate(subs):
        mu = results[sub.name].gains.mu
        offset = 0
        for source, width in sub.channels:
            gamma[i, index[source]] += sum(mu[offset:offset + width])
            offset += width
    lam = np.array([results[name].gains.lam for name in names])
    rho = np.array([results[name].gains.rho for name in names])
    if tuple(gm.names) != tuple(names):
        out.append("gain matrices order the subsystems differently")
        return out
    if _rel(gm.gamma, gamma) > AGREE_TOL or not np.array_equal(gm.lam, lam):
        out.append("Gamma or Lambda differs from the per-subsystem gains")
    scaled = gamma / lam[None, :]
    radius = float(np.max(np.abs(np.linalg.eigvals(scaled))))
    if abs(radius - path.rho_spec) > 1e-6 * max(1.0, radius):
        out.append(f"spectral radius {path.rho_spec} recomputes to {radius}")
    if not radius < 1.0:
        out.append(f"spectral radius {radius} is not below 1")
    eta, eps = np.asarray(path.eta), path.epsilon
    if not (np.all(eta > 0) and eps > 0):
        out.append("eta and epsilon must be positive")
    elif not np.all(eta - (1.0 + eps) * scaled @ eta > 0):
        out.append("eta and epsilon fail the strict small-gain inequality")
    out += check_composition(lam, rho, eta, eps, composed)
    return out


def check_composition(lam, rho, eta, eps, composed) -> list:
    weights = lam / eta
    lam_c = float(np.min(lam) * eps / (1.0 + eps))
    rho_c = float(np.max(rho * weights))
    if abs(composed.lam - lam_c) > AGREE_TOL * lam_c or abs(composed.rho - rho_c) > AGREE_TOL * max(1.0, rho_c):
        return [f"composed (lam, rho) = ({composed.lam}, {composed.rho}), expected ({lam_c}, {rho_c})"]
    if _rel(composed.weights, weights) > AGREE_TOL:
        return ["composed weights differ from lam / eta"]
    return []


def check_published(doc, subs, results, composed_published) -> list:
    """The bundled example against its published table."""
    out = []
    by_name = {s.name: s for s in subs}

    def near(label, published, computed):
        if not abs(computed - published) <= PUBLISHED_TOL:
            out.append(f"{label}: published {published}, computed {computed:.6g}")

    s1 = by_name["s1"]
    m, p = results["s1"].simfn.M, results["s1"].simfn.P
    # the published interface gain is stated for the unit abstract input:
    # argmin_k |sqrt(M) (P - B k)| = (B^T M B)^-1 B^T M P
    k4 = np.linalg.solve(s1.B.T @ m @ s1.B, s1.B.T @ m @ p)
    near("K4 (unit input)", PUBLISHED_K4, float(k4[0, 0]))
    for name, value in PUBLISHED_RHO.items():
        near(f"rho {name}", value, results[name].gains.rho)
    for name, value in PUBLISHED_MU_OVER_D.items():
        d = doc["parameters"][PUBLISHED_COUPLING[name]]
        near(f"mu/d {name}", value, results[name].gains.mu[0] / d)
    names = [s.name for s in subs]
    lam = np.array([results[n].gains.lam for n in names])
    rho = np.array([results[n].gains.rho for n in names])
    eta = np.array(PUBLISHED_ETA)
    out += check_composition(lam, rho, eta, PUBLISHED_EPSILON, composed_published)
    if composed_published.lam != PUBLISHED_COMPOSED_LAM:
        out.append(f"composed lambda {composed_published.lam} on the published path, expected 0.8")
    ratio = composed_published.rho / composed_published.lam
    lo, hi = PUBLISHED_BOUND_RANGE
    if not lo <= ratio <= hi:
        out.append(f"bound coefficient rho/lambda {ratio:.6g} outside [{lo}, {hi}]")
    return out


def input_samples(doc, widths, grid) -> np.ndarray:
    """The stacked abstract input on the grid, held over each step."""
    t_final = float(doc["simulation"]["t_final"])
    specs = doc["simulation"].get("inputs", {})
    parts = []
    for block, width in zip(doc["subsystems"], widths):
        spec = specs.get(block["name"], {"kind": "zero"})
        part = np.zeros((len(grid), width))
        if spec["kind"] == "square":
            half = float(spec["period"]) / 2.0
            switches = half * np.arange(int(np.ceil(max(t_final, half) / half)))
            index = np.searchsorted(switches, grid, side="right") - 1
            sign = np.where(index % 2 == 0, 1.0, -1.0)
            part = sign[:, None] * np.asarray(spec["amplitude"], dtype=float)[None, :]
        elif spec["kind"] != "zero":
            raise ValueError(f"input kind {spec['kind']!r} is not generated by the benchmark")
        parts.append(part)
    return np.hstack(parts)


def _blocks(subs, results):
    """Per-subsystem state slices of the concrete and abstract stacks."""
    xs, xhs = [], []
    x0 = xh0 = 0
    for sub in subs:
        n, nh = sub.A.shape[0], results[sub.name].system.A.shape[0]
        xs.append(slice(x0, x0 + n))
        xhs.append(slice(xh0, xh0 + nh))
        x0 += n
        xh0 += nh
    return xs, xhs


def check_run(subs, results, composed, run, report, uhat) -> list:
    """Deviations, outputs and the scalar bound along a run."""
    out = []
    xs, xhs = _blocks(subs, results)
    x, xh = run.concrete.states, run.abstract.states
    v = np.empty((len(x), len(subs)))
    y_err = []
    for i, sub in enumerate(subs):
        fn = results[sub.name].simfn
        err = x[:, xs[i]] - xh[:, xhs[i]] @ fn.P.T
        v[:, i] = np.sqrt(np.maximum(np.einsum("ti,ij,tj->t", err, fn.M, err), 0.0))
        y_err.append(x[:, xs[i]] @ sub.C.T - xh[:, xhs[i]] @ (sub.C @ fn.P).T)
    if _rel(run.v, v) > 1e-8:
        out.append("V_i recomputed from the states differ from the run's")
    v_comp = np.max(v * composed.weights[None, :], axis=1)
    if _rel(run.v_composed, v_comp) > 1e-8:
        out.append("composed V differs from max_i w_i V_i")
    mismatch = np.linalg.norm(np.hstack(y_err), axis=1)
    if _rel(run.mismatch, mismatch) > 1e-8:
        out.append("output mismatch differs from |Chat xhat - C x|")
    u_inf = float(np.max(np.linalg.norm(uhat, axis=1)))
    bound = np.exp(-composed.lam * run.times) * v_comp[0] + composed.rho / composed.lam * u_inf
    worst = float(np.min(bound - mismatch))
    if worst < -BOUND_TOL:
        out.append(f"output mismatch exceeds the scalar bound by {-worst:.3e}")
    if not report.ok or abs(report.min_margin - worst) > 1e-8 * max(1.0, abs(worst)):
        out.append(f"bound report (ok {report.ok}, margin {report.min_margin}) disagrees, expected margin {worst}")
    return out


def closed_loop(subs, results):
    """Joint abstract/concrete system assembled from the interface law
    ``u = K1 (x - P xhat) - K2 xhat - K3 what + K4 uhat``.

    Returns ``(A, B)`` acting on ``[xhat; x]`` with input ``uhat``.
    """
    xs, xhs = _blocks(subs, results)
    n, nh = xs[-1].stop, xhs[-1].stop
    widths = [results[s.name].system.B.shape[1] for s in subs]
    offsets = np.concatenate([[0], np.cumsum(widths)])
    index = {s.name: i for i, s in enumerate(subs)}
    a = np.zeros((nh + n, nh + n))
    b = np.zeros((nh + n, offsets[-1]))
    for i, sub in enumerate(subs):
        r = results[sub.name]
        fn, ab = r.simfn, r.system
        rh, rx = xhs[i], slice(nh + xs[i].start, nh + xs[i].stop)
        cols_u = slice(offsets[i], offsets[i + 1])
        # abstract twin: xhat' = Ahat xhat + Bhat uhat + Dhat what
        a[rh, rh] += ab.A
        b[rh, cols_u] += ab.B
        # concrete: x' = A x + B u + D w
        a[rx, rx] += sub.A
        k1 = fn.K1 if fn.K1.size else np.zeros((sub.B.shape[1], sub.A.shape[0]))
        a[rx, rx] += sub.B @ k1
        a[rx, rh] += -sub.B @ (k1 @ fn.P + fn.K2)
        if fn.K4.size:
            b[rx, cols_u] += sub.B @ fn.K4
        col = 0
        for source, width in sub.channels:
            j = index[source]
            c_conc = subs[j].C_int[sub.name]
            c_abs = c_conc @ results[source].simfn.P
            d_cols = slice(col, col + width)
            col += width
            a[rx, slice(nh + xs[j].start, nh + xs[j].stop)] += sub.D[:, d_cols] @ c_conc
            a[rh, xhs[j]] += ab.D[:, d_cols] @ c_abs
            if fn.K3.size:
                a[rx, xhs[j]] += -sub.B @ fn.K3[:, d_cols] @ c_abs
    return a, b


def check_trajectory(subs, results, run, uhat, dt, samples: int = 9) -> list:
    """Co-simulated states against an exact propagation with held inputs.

    The program integrates with classical fourth-order steps, so the
    states may differ from the exact ones by the global error of that
    method; the tolerance is ``T |A|^5 dt^4 / 120`` times the state
    size, with a factor 10 of headroom.
    """
    a, b = closed_loop(subs, results)
    size, width = a.shape[0], b.shape[1]
    aug = np.zeros((size + width, size + width))
    aug[:size, :size] = a
    aug[:size, size:] = b
    step = sla.expm(aug * dt)
    phi, gamma = step[:size, :size], step[:size, size:]
    states = np.hstack([run.abstract.states, run.concrete.states])
    z = states[0].copy()
    exact = np.empty_like(states)
    exact[0] = z
    for k in range(len(states) - 1):
        z = phi @ z + gamma @ uhat[k]
        exact[k + 1] = z
    picks = np.unique(np.linspace(0, len(states) - 1, samples).round().astype(int))
    norm_a = np.linalg.norm(a, 2)
    horizon = run.times[-1]
    scale = max(1.0, float(np.max(np.abs(exact))))
    tol = 10.0 * max(horizon, dt) * norm_a ** 5 * dt ** 4 / 120.0 * scale
    err = float(np.max(np.abs(states[picks] - exact[picks])))
    if not err <= tol:
        return [f"states differ from the exact propagation by {err:.3e} (tolerance {tol:.3e})"]
    return []


def expected_table(run) -> np.ndarray:
    return np.column_stack(
        [run.times, run.concrete.states, run.concrete.outputs, run.v_composed, run.v]
    )


def check_csv(csv_path, run) -> list:
    """The exported trajectory, read back, equals the run's arrays bit for bit."""
    with open(csv_path, encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split(",")
    n, q, k = run.concrete.states.shape[1], run.concrete.outputs.shape[1], run.v.shape[1]
    if len(header) != 2 + n + q + k or header[0] != "t" or header[1 + n + q] != "V":
        return ["CSV header does not match the run"]
    try:
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return [f"CSV does not parse: {exc}"]
    expected = expected_table(run)
    if table.shape != expected.shape or not np.array_equal(table, expected):
        return ["CSV read back differs from the run's arrays"]
    return []


def check_gnuplot(gp_path, csv_name) -> list:
    with open(gp_path, encoding="ascii") as fh:
        text = fh.read()
    if f"csv = '{csv_name}'" not in text or "plot " not in text:
        return ["gnuplot script does not plot the exported CSV"]
    return []
