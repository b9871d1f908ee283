"""Command-line interface: project files and the pipeline commands.

A project is a single JSON document describing the interconnected
subsystems, the abstraction directives (injection, optional
certificate) and an optional simulation block.  :func:`read_numbers`
reads every numeric field; its entries are numbers or strings of the
form ``[sign][coefficient]name`` referring to a named scalar parameter,
which covers coupling terms such as ``-d2`` or ``2d2`` without an
expression language.

Exit codes: 0 success, 1 validation or small-gain failure, 2 malformed
project, 3 numerical failure.
"""

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .abstraction import AbstractionResult, build_abstraction, compute_k4
from .compose import (
    SmallGainError,
    compose_abstractions,
    compose_simfn,
    gain_matrices,
    small_gain,
)
from .geometry import image, minimal_invariant
from .linalg import (
    BOUND_TOL,
    EXACT_ENTRY_TOL,
    PUBLISHED_ETA_TOL,
    PUBLISHED_GAIN_TOL,
    NumericsError,
    spectral_norm,
    sqrtm_spd,
    stack,
)
from .simulate import (
    Signal,
    appendix_gammas,
    bound_report,
    grid_steps,
    refine_and_run,
    require_memory,
    square_switches,
    write_csv,
    write_gnuplot,
    write_table,
)
from .systems import Interconnection, InternalChannel, LinearSystem


class ProjectError(ValueError):
    """The project document cannot be parsed into an interconnection."""


_ENTRY_RE = re.compile(r"^([+-]?)(\d+(?:\.\d*)?|\.\d+)?\*?([A-Za-z_]\w*)$")

# entries of these exact types need no grammar (bool is excluded)
_PLAIN = frozenset((float, int))

# what a field of each depth must be, as the error states it
_DEPTHS = ("a number", "an array of numbers", "an array of array rows")

# each input signal kind: the shape of every numeric field it reads, and
# the Signal it builds for an abstract input of ``width`` up to ``t_final``
_SIGNAL_KINDS = {
    "zero": ({}, lambda s, width, t_final: Signal.zero(width)),
    "constant": ({"value": (None,)}, lambda s, width, t_final: Signal.constant(s["value"])),
    # the period's shape is checked with its sign
    "square": ({"amplitude": (None,), "period": None}, lambda s, width, t_final: Signal.square(
        s["amplitude"], float(s["period"]), t_final)),
    "samples": ({"times": (None,), "values": (None, None)},
                lambda s, width, t_final: Signal(s["times"], s["values"])),
}


def _number(value, where: str) -> float:
    """A JSON number as a float: no boolean, no integer beyond the
    double range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProjectError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ProjectError(f"{where} is beyond the double range") from None


def parse_entry(entry, parameters: dict) -> float:
    """One finite entry: a number, or ``[sign][coefficient]name``.

    The error leaves the entry's location to :func:`read_numbers`.
    """
    if isinstance(entry, bool):
        raise ProjectError("boolean is not a matrix entry")
    if isinstance(entry, (int, float)):
        try:
            value = float(entry)
        except OverflowError:
            raise ProjectError("integer entry is beyond the double range") from None
    elif isinstance(entry, str):
        match = _ENTRY_RE.match(entry.strip())
        if not match:
            raise ProjectError(f"cannot parse entry {entry!r}")
        sign, coefficient, name = match.groups()
        if name not in parameters:
            raise ProjectError(f"unknown parameter {name!r} in {entry!r}")
        value = (float(coefficient) if coefficient else 1.0) * parameters[name]
        value = -value if sign == "-" else value
    else:
        raise ProjectError(f"entry {entry!r} has unsupported type")
    # JSON admits NaN and Infinity
    if not math.isfinite(value):
        raise ProjectError(f"entry {entry!r} is not finite")
    return value


def _at(index) -> str:
    return "".join(f"[{i}]" for i in index)


def read_numbers(value, parameters: dict, where: str, shape) -> np.ndarray:
    """A number, or a rectangular nested array of entries, as one finite
    float array.

    ``shape`` lists the dimensions the field needs, ``None`` for a free
    one; ``shape=None`` reads any depth. ``[]`` is empty at any depth. A
    rejected entry is named by its index, as in ``where[i][j]``.
    """
    try:
        array = np.array(value, dtype=float)
        leaves = (value,) if array.ndim == 0 else value
        for _ in range(array.ndim - 1):
            leaves = tuple(chain.from_iterable(leaves))
        # for tiny fields, the common case, Python beats a numpy reduction
        plain = set(map(type, leaves)) <= _PLAIN and all(map(math.isfinite, leaves))
    except (TypeError, ValueError, OverflowError):
        plain = False
    if not plain:
        # entry by entry, so that the first bad one is named
        entries = []

        def walk(item, index: tuple) -> tuple:
            if not isinstance(item, list):
                try:
                    entries.append(parse_entry(item, parameters))
                except ProjectError as exc:
                    raise ProjectError(f"{where}{_at(index)}: {exc}") from None
                return ()
            shapes = {walk(sub, (*index, i)) for i, sub in enumerate(item)}
            if len(shapes) > 1:
                unequal = "lengths" if len({len(s) for s in shapes}) == 1 else "depths"
                raise ProjectError(f"{where}{_at(index)}: rows have unequal {unequal}")
            return (len(item), *shapes.pop()) if shapes else (0,)

        dims = walk(value, ())
        array = np.array(entries, dtype=float).reshape(dims)
    if shape is None:
        return array
    if array.shape == (0,) and len(shape) > 1:
        array = array.reshape((0,) * len(shape))
    if array.ndim != len(shape):
        raise ProjectError(f"{where}: expected {_DEPTHS[len(shape)]}")
    for want, got in zip(shape, array.shape):
        if want is not None and want != got:
            if all(w is None for w in shape[1:]):
                raise ProjectError(f"{where}: expected {shape[0]} rows, got {len(array)}")
            raise ProjectError(f"{where}: expected shape {shape}, got {array.shape}")
    return array


@dataclass
class Directive:
    """Per-subsystem abstraction instructions."""

    p: object = "identity"  # matrix, "identity" or "minimal-invariant"
    certificate: tuple | None = None


@dataclass
class SimulationSpec:
    t_final: float = 20.0
    dt: float = 1e-3
    xhat0: np.ndarray | None = None
    x0: object = "matched"
    inputs: dict = field(default_factory=dict)


@dataclass
class Project:
    interconnection: Interconnection
    directives: dict[str, Directive]
    simulation: SimulationSpec


def _parse_directive(block, parameters: dict, where: str, sub: LinearSystem) -> Directive:
    if not isinstance(block, dict):
        raise ProjectError(f"{where}: abstraction block must be an object")
    p = block.get("P", "identity")
    if isinstance(p, str):
        if p not in ("identity", "minimal-invariant"):
            raise ProjectError(f"{where}: unknown P directive {p!r}")
    else:
        p = read_numbers(p, parameters, f"{where}.P", (sub.n, None))
    certificate = None
    if "certificate" in block:
        cert = block["certificate"]
        if not isinstance(cert, dict) or not {"M", "K1", "lambda"} <= cert.keys():
            raise ProjectError(f"{where}: certificate needs M, K1 and lambda")
        n = sub.n
        m = read_numbers(cert["M"], parameters, f"{where}.M", (n, n))
        # an empty K1 is the zero feedback
        k1 = (
            read_numbers(cert["K1"], parameters, f"{where}.K1", (sub.m, n))
            if cert["K1"] != []
            else np.zeros((sub.m, n))
        )
        lam = _number(cert["lambda"], f"{where}: certificate lambda")
        if not (math.isfinite(lam) and lam > 0):
            raise ProjectError(
                f"{where}: certificate lambda must be finite and positive, got {lam!r}"
            )
        certificate = (m, k1, lam)
    return Directive(p=p, certificate=certificate)


def _parse_simulation(block, parameters: dict) -> SimulationSpec:
    if not isinstance(block, dict):
        raise ProjectError("simulation block must be an object")
    spec = SimulationSpec()
    if "t_final" in block:
        spec.t_final = float(read_numbers(block["t_final"], parameters, "t_final", ()))
    if "dt" in block:
        spec.dt = float(read_numbers(block["dt"], parameters, "dt", ()))
    try:
        grid_steps(spec.t_final, spec.dt)
    except ValueError as exc:
        raise ProjectError(f"simulation: {exc}") from exc
    if "xhat0" in block:
        spec.xhat0 = read_numbers(block["xhat0"], parameters, "xhat0", (None,))
    x0 = block.get("x0", "matched")
    if isinstance(x0, list):
        spec.x0 = read_numbers(x0, parameters, "x0", (None,))
    elif x0 != "matched":
        raise ProjectError('x0 must be "matched" or an array')
    inputs = block.get("inputs", {})
    if not isinstance(inputs, dict):
        raise ProjectError("inputs must map subsystem names to signal specs")
    for name, sig in inputs.items():
        kind = sig.get("kind") if isinstance(sig, dict) else None
        if not isinstance(kind, str) or kind not in _SIGNAL_KINDS:
            raise ProjectError(
                f"input for {name!r} needs a kind out of {tuple(_SIGNAL_KINDS)}"
            )
        where = f"simulation.inputs.{name}"
        parsed = {"kind": kind}
        for key, shape in _SIGNAL_KINDS[kind][0].items():
            if key not in sig:
                raise ProjectError(f"{where}: a {kind} input needs {key!r}")
            parsed[key] = read_numbers(sig[key], parameters, f"{where}.{key}", shape)
        period = parsed.get("period")
        if period is not None and not (period.ndim == 0 and period > 0):
            raise ProjectError(
                f"{where}.period: expected a positive number, got {sig['period']!r}"
            )
        spec.inputs[name] = parsed
    return spec


def parse_project(doc) -> Project:
    """Turn a JSON document into an interconnection plus directives."""
    if not isinstance(doc, dict):
        raise ProjectError("project must be a JSON object")
    parameters = doc.get("parameters", {})
    if not isinstance(parameters, dict):
        raise ProjectError("parameters must be an object of scalars")
    parameters = {
        key: _number(value, f"parameter {key!r}") for key, value in parameters.items()
    }
    blocks = doc.get("subsystems")
    if not isinstance(blocks, list) or not blocks:
        raise ProjectError("project needs a nonempty subsystems array")

    subsystems = []
    directives = {}
    for block in blocks:
        if not isinstance(block, dict) or "name" not in block:
            raise ProjectError("every subsystem block needs a name")
        name = block["name"]
        if not isinstance(name, str):
            raise ProjectError(f"subsystem name must be a string, got {name!r}")
        # names prefix the files `abstract` writes inside its --out directory
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise ProjectError(f"subsystem name {name!r} is not a plain file name")
        where = f"subsystem {name}"
        a, b, c, d = (
            read_numbers(block.get(key, []), parameters, f"{where}.{key}", (None, None))
            for key in "ABCD"
        )
        channels = block.get("inputs", [])
        if not isinstance(channels, list):
            raise ProjectError(f"{where}.inputs: expected an array of channels")
        for i, ch in enumerate(channels):
            if not isinstance(ch, dict) or "from" not in ch or "width" not in ch:
                raise ProjectError(f"{where}: inputs need 'from' and 'width'")
            if not isinstance(ch["from"], str):
                raise ProjectError(
                    f"{where}.inputs[{i}].from: expected a subsystem name, got {ch['from']!r}"
                )
            width = ch["width"]
            if isinstance(width, bool) or not isinstance(width, int):
                raise ProjectError(
                    f"{where}.inputs[{i}].width: expected an integer, got {width!r}"
                )
        outputs_to = block.get("outputs_to", {})
        if not isinstance(outputs_to, dict):
            raise ProjectError(f"{where}.outputs_to: expected an object of output blocks")
        c_int = {
            peer: read_numbers(mat, parameters, f"{where}.outputs_to[{peer}]", (None, None))
            for peer, mat in outputs_to.items()
        }
        channels_in = tuple(InternalChannel(ch["from"], ch["width"]) for ch in channels)
        try:
            sub = LinearSystem(name, a, b, c, d, channels_in, c_int, finite=True)
        except ValueError as exc:
            raise ProjectError(f"{where}: {exc}") from exc
        subsystems.append(sub)
        directives[name] = (
            _parse_directive(block["abstraction"], parameters, where, sub)
            if "abstraction" in block
            else Directive()
        )
    simulation = (
        _parse_simulation(doc["simulation"], parameters)
        if "simulation" in doc
        else SimulationSpec()
    )
    for name in simulation.inputs:
        if name not in directives:
            raise ProjectError(f"simulation.inputs.{name}: no subsystem is named {name!r}")
    interconnection = Interconnection(subsystems)
    # the abstract sizes are known only once the subsystems are abstracted,
    # so the run is measured here by its concrete states alone
    try:
        require_memory(
            simulation.t_final, simulation.dt, interconnection.state_offsets[-1],
            _input_rows(simulation, simulation.t_final),
        )
    except ValueError as exc:
        raise ProjectError(f"simulation: {exc}") from exc
    return Project(
        interconnection=interconnection,
        directives=directives,
        simulation=simulation,
    )


def _input_rows(simulation: SimulationSpec, t_final: float) -> float:
    """The switch and sample times the stacked input signal holds up to
    ``t_final``, at most: a row at each of its parts' times, so those of
    each distinct square-wave period (inputs of one period share them)
    and of each ``samples`` input."""
    specs = simulation.inputs.values()
    periods = {float(spec["period"]) for spec in specs if spec["kind"] == "square"}
    return sum(square_switches(period, t_final) for period in periods) + sum(
        len(spec["times"]) for spec in specs if spec["kind"] == "samples"
    )


def load_project(path) -> Project:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProjectError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProjectError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    return parse_project(doc)


def resolve_injection(sys: LinearSystem, directive: Directive) -> np.ndarray:
    if isinstance(directive.p, np.ndarray):
        return directive.p
    if directive.p == "identity":
        return np.eye(sys.n)
    # the smallest invariant subspace absorbing both input images keeps
    # every driven direction inside im P + im B
    seed = image(np.hstack([sys.B, sys.D])[np.newaxis])[0]
    return minimal_invariant(sys.A, seed).basis


def _stacks(project: Project) -> list[list]:
    """The ``(subsystem, P, certificate)`` members of each stack, in
    network order: subsystems of one shape (state, input and disturbance
    widths, the injection's shape, the rows of each output block, and
    the shapes of an injected certificate or its absence) form one
    stack, and one subsystem is a stack of one."""
    groups: dict[tuple, list] = {}
    for sub in project.interconnection.subsystems:
        directive = project.directives[sub.name]
        p = resolve_injection(sub, directive)
        cert = directive.certificate
        signature = (
            sub.n, sub.m, sub.p, p.shape,
            tuple(block.shape[0] for block in sub.output_blocks()),
            None if cert is None else (np.shape(cert[0]), np.shape(cert[1])),
        )
        groups.setdefault(signature, []).append((sub, p, cert))
    return list(groups.values())


def certify(project: Project) -> dict[str, AbstractionResult | Exception]:
    """Each subsystem's abstraction, or the error its certification
    raised, in network order. A stack that raises is halved
    (:func:`_certify_stack`)."""
    outcomes = {}
    for members in _stacks(project):
        for (sub, _, _), outcome in zip(members, _certify_stack(members)):
            outcomes[sub.name] = outcome
    return {name: outcomes[name] for name in project.interconnection.names}


def _certify_stack(members):
    """Each member's abstraction, or the error it raises alone, in order
    and lazily. A stack that raises is certified again as its two
    halves, left first: one failing member among N costs about 2 log2 N
    stacks, where a retry member by member would cost N, and a caller
    that stops at the first error costs at most 2 ceil(log2 N) + 1."""
    try:
        outcome = build_abstraction(
            [sub for sub, _, _ in members],
            stack([p for _, p, _ in members]),
            None if members[0][2] is None else [cert for _, _, cert in members],
        )
    except np.linalg.LinAlgError:
        # a ValueError subclass, but a numerical failure, not a verdict
        raise
    except (ValueError, NumericsError) as exc:
        outcome = exc
    if not isinstance(outcome, Exception):
        yield from outcome
    elif len(members) == 1:
        yield outcome
    else:
        half = len(members) // 2
        yield from _certify_stack(members[:half])
        yield from _certify_stack(members[half:])


def build_abstractions(project: Project) -> dict[str, AbstractionResult]:
    """Every subsystem's abstraction; raises the error of the first
    subsystem, in network order, whose certification fails. Each stack
    is halved only down to its first failing member."""
    results, failures = {}, {}
    for members in _stacks(project):
        for (sub, _, _), outcome in zip(members, _certify_stack(members)):
            if isinstance(outcome, Exception):
                failures[sub.name] = outcome
                break
            results[sub.name] = outcome
    names = project.interconnection.names
    for name in names:
        if name in failures:
            raise failures[name]
    return {name: results[name] for name in names}


def run_compose(project: Project, results, eta=None, epsilon=None):
    gm = gain_matrices(
        project.interconnection, {n: r.gains for n, r in results.items()}
    )
    path = small_gain(gm, eta=eta, epsilon=epsilon)
    composed = compose_simfn(gm, path)
    return gm, path, composed


def build_input_signal(project: Project, results, t_final: float) -> Signal:
    """Stack the per-subsystem abstract input signals in network order."""
    parts = []
    for sub in project.interconnection.subsystems:
        width = results[sub.name].system.m
        spec = project.simulation.inputs.get(sub.name, {"kind": "zero"})
        try:
            sig = _SIGNAL_KINDS[spec["kind"]][1](spec, width, t_final)
        except ValueError as exc:
            raise ProjectError(f"simulation.inputs.{sub.name}: {exc}") from exc
        if sig.width != width:
            raise ProjectError(
                f"input for {sub.name} has width {sig.width},"
                f" the abstraction takes {width}"
            )
        parts.append(sig)
    return Signal.stack(parts)


def resolve_initial_states(project: Project, results):
    ic = project.interconnection
    abstract = compose_abstractions(ic, results)
    n_hat = abstract.state_offsets[-1]
    sim = project.simulation
    xhat0 = np.zeros(n_hat) if sim.xhat0 is None else sim.xhat0
    if len(xhat0) != n_hat:
        raise ProjectError(
            f"xhat0 has length {len(xhat0)}, the abstractions have {n_hat} states"
        )
    if isinstance(sim.x0, str):
        with np.errstate(over="ignore", invalid="ignore"):
            parts = [
                results[name].simfn.P @ xhat0[abstract.state_slice(name)] for name in ic.names
            ]
        x0 = np.concatenate(parts)
        if not np.isfinite(x0).all():
            name = next(n for n, part in zip(ic.names, parts) if not np.isfinite(part).all())
            raise NumericsError(
                f"xhat0 is too large for subsystem {name}: its matched"
                " initial state P xhat0 has non-finite entries"
            )
    else:
        x0 = sim.x0
        n = ic.state_offsets[-1]
        if len(x0) != n:
            raise ProjectError(
                f"x0 has length {len(x0)}, the interconnection has {n} states"
            )
    return xhat0, x0


def _fmt(x) -> str:
    return format(float(x), ".6g")


def _fmt_vector(v) -> str:
    return "[" + ", ".join(_fmt(x) for x in np.asarray(v).reshape(-1)) + "]"


def _fmt_matrix(a) -> str:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return "[" + "; ".join(", ".join(_fmt(x) for x in row) for row in a) + "]"


def cmd_check(args) -> int:
    """Print each subsystem's injection conditions as :func:`certify`
    decides them, or its error; then decide the certified network as
    ``bounds`` does before its run (:func:`_prepare_run`)."""
    project = load_project(args.file)
    print(f"interconnection: {len(project.interconnection.subsystems)} subsystems, wiring ok")
    outcomes = certify(project)
    for name, result in outcomes.items():
        if isinstance(result, Exception):
            print(f"{name}: construction failed: {result}")
            continue
        # a certified subsystem is stabilizable, the first line of its report
        print(f"{name}: stabilizable yes")
        for line in result.conditions.lines()[1:]:
            print(f"  {line}")
    if any(isinstance(result, Exception) for result in outcomes.values()):
        print("check: FAIL")
        return 1
    _prepare_run(project, outcomes, project.simulation.t_final, project.simulation.dt)
    print("check: pass")
    return 0


_EXPORTS = (
    ("Ahat", lambda r: r.system.A),
    ("Bhat", lambda r: r.system.B),
    ("Chat", lambda r: r.system.C_ext),
    ("Dhat", lambda r: r.system.D),
    ("P", lambda r: r.simfn.P),
    ("Phat", lambda r: r.phat),
    ("M", lambda r: r.simfn.M),
    ("K1", lambda r: r.simfn.K1),
    ("K2", lambda r: r.simfn.K2),
    ("K3", lambda r: r.simfn.K3),
    ("K4", lambda r: r.simfn.K4),
    ("gains", lambda r: [[r.gains.lam, r.gains.rho, *r.gains.mu]]),
)


def cmd_abstract(args) -> int:
    project = load_project(args.file)
    os.makedirs(args.out, exist_ok=True)
    summary = []
    failures = []
    for name, result in certify(project).items():
        if isinstance(result, Exception):
            failures.append(name)
            summary.append(f"{name}: construction failed: {result}")
            continue
        for label, pick in _EXPORTS:
            write_table(os.path.join(args.out, f"{name}_{label}.csv"), pick(result))
        gains = result.gains
        summary.append(
            f"{name}: nhat {result.system.n},"
            f" Ahat {_fmt_matrix(result.system.A)},"
            f" Dhat {_fmt_matrix(result.system.D)},"
            f" lambda {_fmt(gains.lam)}, rho {_fmt(gains.rho)},"
            f" mu {_fmt_vector(gains.mu)},"
            f" K4 norm {_fmt(spectral_norm(result.simfn.K4[np.newaxis])[0])}"
        )
    text = "\n".join(summary) + "\n"
    with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    print(text, end="")
    return 1 if failures else 0


def cmd_compose(args) -> int:
    project = load_project(args.file)
    results = build_abstractions(project)
    try:
        eta = None if args.eta is None else np.array([float(t) for t in args.eta.split(",")])
    except ValueError as exc:
        raise ValueError(f"--eta: {exc}") from None
    gm, path, composed = run_compose(project, results, eta=eta, epsilon=args.eps)
    print("Gamma:")
    for i, name in enumerate(gm.names):
        print(f"  {name}: {_fmt_vector(gm.gamma[i])}")
    print(f"Lambda: {_fmt_vector(gm.lam)}")
    print(f"spectral radius of Gamma Lambda^-1: {_fmt(path.rho_spec)}")
    eta_source = "dominant vector" if args.eta is None else "override"
    print(f"eta ({eta_source}): {_fmt_vector(path.eta)}")
    print(f"epsilon ({'default' if args.eps is None else 'override'}): {_fmt(path.epsilon)}")
    print(f"path margin: {_fmt(path.margin)}"
          f" ({'strict' if path.validated else 'NOT strict'})")
    print(f"composed lambda: {_fmt(composed.lam)}")
    print(f"composed rho: {_fmt(composed.rho)}")
    print(f"bound coefficient rho/lambda: {_fmt(composed.rho / composed.lam)}")
    return 0


def _prepare_run(project: Project, results, horizon: float, step: float):
    """Everything ``bounds`` decides before its run: the composition, the
    run's memory, the input signal and the initial states, returned as
    ``gm, path, composed, uhat, xhat0, x0``."""
    gm, path, composed = run_compose(project, results)
    # a bad horizon or step, and a run too large for memory (the joint
    # states, abstract inputs and switch times), before any is allocated
    width = project.interconnection.state_offsets[-1] + sum(
        r.system.n + r.system.m for r in results.values()
    )
    require_memory(horizon, step, width, _input_rows(project.simulation, horizon))
    uhat = build_input_signal(project, results, horizon)
    xhat0, x0 = resolve_initial_states(project, results)
    return gm, path, composed, uhat, xhat0, x0


def _run_pipeline(project: Project, t_final=None, dt=None, v0=None):
    """Abstract, compose, co-simulate and check the bounds.

    ``t_final`` and ``dt`` default to the project's simulation block.
    Returns the abstractions, gain matrices, small-gain path, composed
    deviation function, run and bound report.
    """
    sim = project.simulation
    horizon = sim.t_final if t_final is None else t_final
    step = sim.dt if dt is None else dt
    results = build_abstractions(project)
    gm, path, composed, uhat, xhat0, x0 = _prepare_run(project, results, horizon, step)
    run = refine_and_run(
        project.interconnection, results, composed, x0, xhat0, uhat,
        t_final=horizon, dt=step,
    )
    report = bound_report(run, composed, gm, uhat, v0=v0)
    return results, gm, path, composed, run, report


def cmd_run(args) -> int:
    """``simulate`` and ``bounds``: report the bounds along a run, and
    export the trajectory when ``--out`` is given."""
    project = load_project(args.file)
    if args.out:
        base = os.path.splitext(args.out)[0]
        if os.path.abspath(base + ".gp") == os.path.abspath(args.out):
            raise ValueError(f"--out {args.out}: the gnuplot script would overwrite the trajectory")
    results, _, _, composed, run, report = _run_pipeline(
        project, args.tfinal, args.dt, args.v0
    )
    if args.out:
        write_csv(args.out, run)
        write_gnuplot(base + ".gp", os.path.basename(args.out), run)
    for line in report.lines():
        print(line)
    gamma_ext, _ = appendix_gammas(composed.lam, composed.rho, 0.0)
    print(f"conservative external gain 4 rho / lambda: {_fmt(gamma_ext)}")
    for name in report.names:
        gains = results[name].gains
        ext, internal = appendix_gammas(gains.lam, gains.rho, gains.mu_total)
        print(f"  {name}: gamma_ext {_fmt(ext)}, gamma_int {_fmt(internal)}")
    if args.out:
        print(f"trajectory written to {args.out}")
        print(f"gnuplot script written to {base}.gp")
    return 0 if report.ok else 1


def _table_line(label, published, computed, tolerance, verdict) -> str:
    return f"{label:<40}{published:>12}{computed:>14}{tolerance:>16}   {verdict}"


def _judge(published, computed, rule) -> tuple[str, str]:
    """Tolerance text and verdict of one row of the reproduction table.

    ``rule`` is an absolute tolerance around ``published``, an inclusive
    ``(lo, hi)`` range, ``"exact"``, ``"margin"`` (a bound margin, judged
    against ``BOUND_TOL``) or ``"< 1"``. The last is the small-gain
    condition that a published value certifies without being reproduced,
    so its pass is flagged.
    """
    if isinstance(rule, tuple):
        lo, hi = rule
        return f"[{_fmt(lo)}, {_fmt(hi)}]", "PASS" if lo <= computed <= hi else "FAIL"
    if rule == "exact":
        return rule, "PASS" if computed == published else "FAIL"
    if rule == "margin":
        return _fmt(-BOUND_TOL), "PASS" if computed >= -BOUND_TOL else "FAIL"
    if rule == "< 1":
        return rule, "PASS (flagged)" if computed < 1.0 else "FAIL"
    return _fmt(rule), "PASS" if abs(computed - published) <= rule else "FAIL"


def cmd_reproduce(args) -> int:
    # demo parses its document with this module, so it is imported here
    from .demo import PUBLISHED, demo_project

    project = parse_project(demo_project())
    ic = project.interconnection
    results, _, path, _, _, report = _run_pipeline(project)
    eta_pub = np.array(PUBLISHED["eta"])
    _, path_pub, composed_pub = run_compose(
        project, results, eta=eta_pub, epsilon=PUBLISHED["epsilon"]
    )
    d1, d2 = float(ic["s1"].D[2, 0]), float(-ic["s2"].D[0, 0])
    # the published interface gain is stated for the unit abstract
    # input direction, so recompute it against bhat = 1
    s1_simfn = results["s1"].simfn
    k4_scalar = compute_k4(
        sqrtm_spd(s1_simfn.M[np.newaxis]), s1_simfn.P[np.newaxis],
        np.ones((1, 1, 1)), ic["s1"].B[np.newaxis],
    )[0][0]
    s1, s2 = results["s1"], results["s2"]
    gain, exact = PUBLISHED_GAIN_TOL, EXACT_ENTRY_TOL
    rows = [
        ("interface gain K4 (unit input)", PUBLISHED["k4"], float(k4_scalar[0, 0]), gain),
        *((f"rho {name}", PUBLISHED["rho"][name], results[name].gains.rho, gain)
          for name in ic.names),
        ("mu s1 coefficient / d1", PUBLISHED["mu_over_d"]["s1"], s1.gains.mu[0] / d1, gain),
        ("mu s2 coefficient / d2", PUBLISHED["mu_over_d"]["s2"], s2.gains.mu[0] / d2, gain),
        ("Ahat s1", 0.0, float(np.max(np.abs(s1.system.A))), exact),
        ("Dhat s1", 0.0, float(np.max(np.abs(s1.system.D))), exact),
        ("K3 s1 / d1", 1.0, float(s1.simfn.K3[0, 0]) / d1, exact),
        ("Ahat s2", -2.0, float(s2.system.A[0, 0]), exact),
        ("Dhat s2 / d2", -1.0, float(s2.system.D[0, 0]) / d2, exact),
        ("eta (overrides, max deviation)", 0.0, float(np.max(np.abs(path.eta - eta_pub))),
         PUBLISHED_ETA_TOL),
        ("composed lambda (published path)", PUBLISHED["composed_lam"], composed_pub.lam, "exact"),
        ("composed rho (published path)", PUBLISHED["composed_rho"], composed_pub.rho, (4.5, 4.8)),
        ("bound coefficient rho/lambda", PUBLISHED["bound_coefficient"],
         composed_pub.rho / composed_pub.lam, (5.6, 6.0)),
        ("spectral radius Gamma Lambda^-1", PUBLISHED["spectral_radius"], path.rho_spec, "< 1"),
        ("simulation min bound margin", f">= {_fmt(-BOUND_TOL)}", report.min_margin, "margin"),
    ]

    ok = True
    print(_table_line("quantity", "published", "computed", "tolerance", "verdict"))
    for label, published, computed, rule in rows:
        tolerance, verdict = _judge(published, computed, rule)
        ok &= verdict != "FAIL"
        shown = published if isinstance(published, str) else _fmt(published)
        print(_table_line(label, shown, _fmt(computed), tolerance, verdict))
    print()
    print("note: the published spectral radius 0.19 is not reproduced;")
    print(f"recomputation gives {_fmt(path.rho_spec)}, which still certifies the")
    print("small-gain condition. The published eta and epsilon fail the strict")
    print("path inequality against the recomputed gain matrix (margin"
          f" {_fmt(path_pub.margin)}) and are applied as explicit overrides only.")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simcompose",
        description="Approximate abstractions of interconnected linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify every subsystem and test the network as bounds does")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("abstract", help="construct and export all abstractions")
    p.add_argument("file")
    p.add_argument("--out", required=True, help="output directory for matrices")
    p.set_defaults(func=cmd_abstract)

    p = sub.add_parser("compose", help="small-gain analysis of the network")
    p.add_argument("file")
    p.add_argument("--eta", help="comma-separated weight overrides")
    p.add_argument("--eps", type=float, help="path parameter override")
    p.set_defaults(func=cmd_compose)

    for name, help_text, out_help in (
        ("simulate", "co-simulate and export a trajectory CSV", "trajectory CSV path"),
        ("bounds", "evaluate deviation bounds along a run", None),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        if out_help:
            p.add_argument("--out", required=True, help=out_help)
        p.add_argument("--tfinal", type=float, help="override the horizon")
        p.add_argument("--dt", type=float, help="override the step size")
        p.add_argument("--v0", type=float, help="scalar bound start level override")
        p.set_defaults(func=cmd_run, out=None)

    p = sub.add_parser(
        "reproduce-example",
        help="run the bundled example and compare against its published values",
    )
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProjectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SmallGainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a numerical failure, not a bad input
        print(f"error: numerical failure in numpy.linalg: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # project files are read through load_project, so this is an output
        target = exc.filename if exc.filename is not None else getattr(args, "out", None)
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
