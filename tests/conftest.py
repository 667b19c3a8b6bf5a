import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shepwm
from shepwm import SwitchingPattern

# Directory holding the shepwm package this process imported, whether from
# src/ or from an install. Put first on the child's PYTHONPATH as an absolute
# path, it makes every CLI launch run the same code from any working
# directory; a relative entry such as `src` resolves against the child's cwd.
PACKAGE_ROOT = str(Path(shepwm.__file__).resolve().parent.parent)


def run_cli(args, cwd=None):
    """Run `python -m shepwm *args` in a fresh interpreter and capture it.

    A separate interpreter per launch is the point: the CLI tests check
    byte-identical output across independent starts and `--jobs` pools.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "shepwm", *args],
        capture_output=True,
        cwd=cwd,
        env=env,
    )


def random_valid_pattern(rng, k_choices=(1, 2, 4, 6)) -> SwitchingPattern:
    """Seeded random pattern: random K, compatible cell count, valid sign
    path (prefix level stays in [0, s]), ascending angles, random DC voltage."""
    k = int(k_choices[rng.integers(len(k_choices))])
    divisors = [s for s in range(1, k + 1) if k % s == 0]
    s = int(divisors[rng.integers(len(divisors))])
    signs = []
    level = 0
    for _ in range(k):
        options = [sg for sg in (1, -1) if 0 <= level + sg <= s]
        sg = options[rng.integers(len(options))]
        signs.append(sg)
        level += sg
    angles = np.sort(rng.random(k) * (np.pi / 2))
    vdc = float(50.0 + 450.0 * rng.random())
    return SwitchingPattern(tuple(angles), tuple(signs), s, vdc)


def closed_form_oracle(pattern: SwitchingPattern, n: int) -> float:
    """Signed n-th harmonic in volts as the closed form reads: one math.cos
    per angle and order, (4*V_dc)/(n*pi) * sum_i sign_i*cos(n*theta_i), and
    exactly 0.0 for even n. The library's recurrence is held to this."""
    if n % 2 == 0:
        return 0.0
    acc = 0.0
    for theta, sg in zip(pattern.angles, pattern.signs):
        acc += sg * math.cos(n * theta)
    return (4.0 * pattern.vdc_per_cell) / (n * math.pi) * acc


def reference_sums(signed_cos, max_order):
    """The recurrence in its plainest form: the whole (n_odd, K, B) stack,
    4c^2 - 2 taken whatever the order, K rows added in turn."""
    k, rows = signed_cos.shape
    stack = np.empty(((max_order + 1) // 2, k, rows))
    stack[0] = signed_cos
    two_cos2 = 4.0 * signed_cos * signed_cos - 2.0
    for j in range(1, len(stack)):
        stack[j] = two_cos2 * stack[j - 1] - stack[max(j - 2, 0)]
    sums = stack[:, 0].copy()
    for i in range(1, k):
        sums += stack[:, i]
    return sums


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
