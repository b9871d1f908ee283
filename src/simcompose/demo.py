"""Bundled four-subsystem example and its published reference values.

Two triple integrators are cross-coupled with two damped second-order
nodes: each integrator listens to the other pair, and the second-order
nodes relay between them.  The example ships with explicit injections,
deviation certificates and input signals, so every pipeline stage can
be reproduced end to end, and the regression report compares the
results against the values published for this network.

:func:`demo_project` is the one definition of the network; the other
helpers parse it with :func:`~simcompose.cli.parse_project`.
"""

import numpy as np

from .cli import parse_project
from .systems import Interconnection

__all__ = [
    "CERT_K1_INTEGRATOR",
    "CERT_LAM_INTEGRATOR",
    "CERT_LAM_NODE",
    "CERT_M_INTEGRATOR",
    "CERT_M_NODE",
    "DEMO_DT",
    "DEMO_INPUT_AMPLITUDE",
    "DEMO_INPUT_PERIOD",
    "DEMO_T_FINAL",
    "DEMO_XHAT0",
    "PUBLISHED",
    "demo_certificates",
    "demo_interconnection",
    "demo_project",
    "demo_projections",
]

# Rounded certificate and gain values published for this network; the
# regression report checks the pipeline against them.
PUBLISHED = {
    "k4": 1.47,
    "rho": {"s1": 1.81, "s2": 1.41, "s3": 1.81, "s4": 1.41},
    "mu_over_d": {"s1": 0.78, "s2": 1.41, "s3": 0.78, "s4": 1.41},
    "eta": (0.4, 0.6, 0.5, 0.6),
    "epsilon": 4.0,
    "spectral_radius": 0.19,
    "composed_lam": 0.8,
    "composed_rho": 4.8,
    "bound_coefficient": 5.9,
}

# Decay certificates for the two node types, quoted to three digits.
CERT_M_INTEGRATOR = np.array(
    [[4.59, 4.07, 0.90], [4.07, 4.72, 1.24], [0.90, 1.24, 0.61]]
)
CERT_K1_INTEGRATOR = np.array([[-5.13, -7.12, -3.03]])
CERT_LAM_INTEGRATOR = 1.0
CERT_M_NODE = np.array([[26.0, 10.0], [10.0, 4.0]])
CERT_LAM_NODE = 2.0

_A_INTEGRATOR = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
_B_INTEGRATOR = np.array([[0.0], [0.0], [1.0]])
_C_INTEGRATOR = np.array([[1.0, 0.0, 0.0]])
_A_NODE = np.array([[0.0, 1.0], [-6.0, -5.0]])
_C_NODE = np.array([[1.0, 0.0]])

# Abstract inputs are kept inside the ball of radius 0.1: the two
# integrator abstractions each receive amplitude 0.1/sqrt(2), spread
# evenly over their three input slots, with opposite signs.
DEMO_INPUT_AMPLITUDE = 0.1 / np.sqrt(6.0)
DEMO_INPUT_PERIOD = 5.0
DEMO_XHAT0 = (0.6, -0.4, 0.5, 0.3)
DEMO_T_FINAL = 20.0
DEMO_DT = 1e-3


def demo_project(d1: float = 0.5, d2: float = 0.5, d3: float = 0.5) -> dict:
    """The example as a JSON-ready project document.

    ``s1`` and ``s3`` are the integrators, ``s2`` and ``s4`` the
    second-order nodes.  ``s1`` feeds both nodes, the nodes feed
    ``s3``, and ``s3`` closes the loop back into ``s1``.  The nodes
    have no external input of their own; they are driven purely
    through the coupling.  The coupling strengths enter as the named
    parameters ``d1``, ``d2``, ``d3``, so the document exercises
    parameter substitution.
    """
    amp = DEMO_INPUT_AMPLITUDE
    node = {
        "A": _A_NODE.tolist(),
        "B": [[], []],
        "C": _C_NODE.tolist(),
        "D": [["-d2"], ["2d2"]],
        "inputs": [{"from": "s1", "width": 1}],
        "outputs_to": {"s3": _C_NODE.tolist()},
        "abstraction": {
            "P": [[1.0], [-2.0]],
            "certificate": {
                "M": CERT_M_NODE.tolist(),
                "K1": [],
                "lambda": CERT_LAM_NODE,
            },
        },
    }
    integrator_cert = {
        "M": CERT_M_INTEGRATOR.tolist(),
        "K1": CERT_K1_INTEGRATOR.tolist(),
        "lambda": CERT_LAM_INTEGRATOR,
    }
    return {
        "parameters": {"d1": d1, "d2": d2, "d3": d3},
        "subsystems": [
            {
                "name": "s1",
                "A": _A_INTEGRATOR.tolist(),
                "B": _B_INTEGRATOR.tolist(),
                "C": _C_INTEGRATOR.tolist(),
                "D": [[0.0], [0.0], ["d1"]],
                "inputs": [{"from": "s3", "width": 1}],
                "outputs_to": {
                    "s2": _C_INTEGRATOR.tolist(),
                    "s4": _C_INTEGRATOR.tolist(),
                },
                "abstraction": {
                    "P": [[1.0], [0.0], [0.0]],
                    "certificate": integrator_cert,
                },
            },
            {"name": "s2", **node},
            {
                "name": "s3",
                "A": _A_INTEGRATOR.tolist(),
                "B": _B_INTEGRATOR.tolist(),
                "C": _C_INTEGRATOR.tolist(),
                "D": [[0.0, 0.0], [0.0, 0.0], ["d3", "d3"]],
                "inputs": [
                    {"from": "s2", "width": 1},
                    {"from": "s4", "width": 1},
                ],
                "outputs_to": {"s1": _C_INTEGRATOR.tolist()},
                "abstraction": {
                    "P": [[1.0], [0.0], [0.0]],
                    "certificate": integrator_cert,
                },
            },
            {"name": "s4", **node},
        ],
        "simulation": {
            "t_final": DEMO_T_FINAL,
            "dt": DEMO_DT,
            "xhat0": list(DEMO_XHAT0),
            "x0": "matched",
            "inputs": {
                "s1": {
                    "kind": "square",
                    "amplitude": [amp, amp, amp],
                    "period": DEMO_INPUT_PERIOD,
                },
                "s3": {
                    "kind": "square",
                    "amplitude": [-amp, -amp, -amp],
                    "period": DEMO_INPUT_PERIOD,
                },
            },
        },
    }


def demo_interconnection(d1: float = 0.5, d2: float = 0.5, d3: float = 0.5) -> Interconnection:
    """The example network with adjustable coupling strengths, parsed
    from :func:`demo_project`."""
    return parse_project(demo_project(d1, d2, d3)).interconnection


def demo_projections() -> dict[str, np.ndarray]:
    """Injections onto the one-dimensional abstractions."""
    directives = parse_project(demo_project()).directives
    return {name: directive.p for name, directive in directives.items()}


def demo_certificates() -> dict[str, tuple[np.ndarray, np.ndarray, float]]:
    """Published (M, K1, lambda) certificate per subsystem."""
    directives = parse_project(demo_project()).directives
    return {name: directive.certificate for name, directive in directives.items()}
