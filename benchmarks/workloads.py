"""Seeded job generators and per-job output checks for the qpump benchmark.

A job is one CLI invocation: a subcommand, a generated JSON config and
extra flags.  `make_job(workload, seed, index)` is a pure function of its
arguments, so the same seed always yields the same job sequence.  Jobs
come in rounds (`ROUND[workload]` jobs) that cover every model kind and
mode of the workload once; the harness times whole rounds so that the
job-time median does not depend on where a run happened to stop.

Every check returns a list of problems (empty when the answer is right).
The tolerances are those of the acceptance gates in
`tests/test_acceptance.py` that cover the same invariant, never looser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

WORKLOADS = ("transport-warm", "charge-cold", "pulse-noise", "classical")
WARM_MODELS = ("battery", "snowplow", "optimal", "sink", "custom-two-channel")
# odd positions run --direct, even ones --zero-t: every kind meets both
PULSE_ORDER = ("random", "battery", "optimal", "sink", "battery", "random",
               "sink", "optimal", "random", "sink", "battery", "optimal")
ROUND = {"transport-warm": len(WARM_MODELS), "charge-cold": 4,
         "pulse-noise": len(PULSE_ORDER), "classical": 1}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its checker needs to know."""

    command: str
    config: dict
    flags: tuple = ()
    facts: dict = field(default_factory=dict)

    def argv(self, config_path: str, out_path: str) -> list:
        return [self.command, "--config", config_path, "--out", out_path,
                *self.flags]


def _rng(seed: int, index: int) -> np.random.Generator:
    # index -1 is the untimed warm-up job; it gets a stream of its own
    return np.random.default_rng([seed, index + 1])


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def make_job(workload: str, seed: int, index: int) -> Job:
    """Job number `index` (-1 for the warm-up) of `workload` under `seed`."""
    if workload == "transport-warm":
        return _transport_warm(seed, index)
    if workload == "charge-cold":
        return _charge_cold(seed, index)
    if workload == "pulse-noise":
        return _pulse_noise(seed, index)
    if workload == "classical":
        return _classical(seed, index)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# generators

def _two_channel_params(rng, kind: str) -> tuple[dict, float]:
    """Parameters of a seeded two-channel phase model and its period."""
    angles = {"theta": _u(rng, 0.2, 1.4), "alpha0": _u(rng, 0.0, TWO_PI),
              "phi0": _u(rng, 0.0, TWO_PI), "gamma0": _u(rng, 0.0, math.pi)}
    if kind in ("battery", "optimal"):
        rate = _u(rng, 0.5, 2.0) * TWO_PI
        return {**angles, "phi_rate": rate}, TWO_PI / rate
    if kind == "sink":
        rate = _u(rng, 0.5, 2.0) * TWO_PI
        return {**angles, "gamma_rate": rate}, TWO_PI / rate
    period = _u(rng, 0.5, 2.0)
    if kind == "snowplow":
        return {**angles, "k_f": _u(rng, 1.0, 4.0),
                "xi_amplitude": _u(rng, 0.01, 0.1), "period": period}, period
    # custom-two-channel: theta(t) must stay inside [0, pi/2]
    base = _u(rng, 0.3, 1.25)
    amp = _u(rng, 0.05, 0.9) * min(base, math.pi / 2 - base)
    params = {"theta_base": base, "theta_amp": amp, "period": period}
    for name in ("alpha", "phi", "gamma"):
        params[f"{name}_base"] = _u(rng, 0.0, TWO_PI)
        params[f"{name}_amp"] = _u(rng, 0.0, 1.0)
    return params, period


def _transport_warm(seed: int, index: int) -> Job:
    rng = _rng(seed, index)
    kind = WARM_MODELS[index % len(WARM_MODELS)]
    params, period = _two_channel_params(rng, kind)
    config = {"model": {"kind": kind, "params": params},
              "state": {"mu": 1.0, "temperature": _u(rng, 0.02, 0.3)}}
    return Job("transport", config, ("--grid", "64"),
               {"kind": kind, "period": period, "grid": 64,
                "finite_t": True})


def _charge_cold(seed: int, index: int) -> Job:
    # jobs 2g and 2g + 1 run transport and then geometry on geometry g;
    # every other geometry has an integer length, where c03 bounds |Q|
    g = index // 2
    rng = _rng(seed, g)
    if g % 2 == 0:
        length = 1.0 if (g // 2) % 2 == 0 else 2.0
    else:
        length = _u(rng, 1.0, 2.0)
    period = _u(rng, 0.5, 2.0)
    config = {"model": {"kind": "bicycle",
                        "params": {"length": length, "period": period}},
              "state": {"mu": 1.0, "temperature": 0.0}}
    facts = {"kind": "bicycle", "period": period, "length": length,
             "grid": 512, "finite_t": False}
    if index % 2 == 0:
        return Job("transport", config, (), facts)
    return Job("geometry", config, (), facts)


def _pulse_noise(seed: int, index: int) -> Job:
    rng = _rng(seed, index)
    kind = PULSE_ORDER[index % len(PULSE_ORDER)]
    zero_t = index % 2 == 0
    pulse = {"kind": kind, "window": [0.0, 10.0]}
    if kind == "random":
        # the channel count sets the cost of a job, so it follows the
        # position in the round: every round and seed runs the same mix
        pulse.update(n_channels=2 + (index % len(PULSE_ORDER)) // 4,
                     amplitude=_u(rng, 0.2, 0.8),
                     seed=int(rng.integers(0, 2 ** 31)))
    else:
        # one whole turn either way: the pulse settles back to S(t0), and
        # c09 covers one-turn pulses (with two turns at T ~ 9 the split
        # misses the direct cumulant by ~3e-6, outside its gradient regime)
        pulse["theta"] = _u(rng, 0.2, 1.4)
        turns = 1.0 if rng.random() < 0.5 else -1.0
        pulse["gamma_total" if kind == "sink" else "phi_total"] = turns * TWO_PI
    state = {"mu": 1.0}
    if not zero_t:
        state["temperature"] = _u(rng, 8.0, 16.0)
    flags = ("--grid", "64", "--zero-t" if zero_t else "--direct")
    return Job("noise", {"pulse": pulse, "state": state}, flags,
               {"kind": kind, "zero_t": zero_t})


def _classical(seed: int, index: int) -> Job:
    # c11 regime: a slow barrier (speed <= 0.01) and mu <= height / 2, so
    # the Fermi level reflects on both sides
    rng = _rng(seed, index)
    height = _u(rng, 0.5, 2.0)
    config = {"classical": {"height": height, "speed": _u(rng, 0.004, 0.01),
                            "travel_time": _u(rng, 5.0, 15.0)},
              "state": {"mu": _u(rng, 0.25, 0.5) * height}}
    return Job("classical", config,
               ("--points", "2000", "--seed", str(int(rng.integers(0, 2 ** 31)))),
               {"kind": "plow"})


# ---------------------------------------------------------------------------
# checks

def check(job: Job, output: dict) -> list:
    """Problems with the CLI output of `job`; empty when it is correct."""
    summary = output.get("summary")
    if not isinstance(summary, dict):
        return ["output has no summary object"]
    try:
        if job.command == "transport":
            return _check_transport(job, summary, output.get("series", {}))
        if job.command == "geometry":
            return _check_geometry(job, summary)
        if job.command == "noise":
            return _check_noise(job, summary)
        return _check_classical(summary)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def _check_transport(job: Job, s: dict, series: dict) -> list:
    facts = job.facts
    problems = []
    q = np.asarray(s["charges"], dtype=float)
    heat = np.asarray(s["heat"], dtype=float)
    period = facts["period"]
    if not np.all(np.isfinite(q)) or not np.all(np.isfinite(heat)):
        problems.append("non-finite charge or heat")
    # c04: spectral-flow sum rule
    if not s["bk_residual"] < 1e-8:
        problems.append(f"bk_residual {s['bk_residual']:.3e} >= 1e-8")
    # c06 integrated over the cycle with Cauchy-Schwarz in time
    margin = heat - math.pi * q ** 2 / period
    if not np.all(margin >= -1e-10):
        problems.append(f"heat below pi Q^2 / period by {-margin.min():.3e}")
    # det S of the sink winds twice and feeds both leads equally; for the
    # other models the phase of det S returns, so the charges cancel (c03)
    if facts["kind"] == "sink":
        if not abs(q[0] - q[1]) < 1e-6:
            problems.append(f"sink charges differ: {q[0]!r} vs {q[1]!r}")
    elif not abs(q[0] + q[1]) < 1e-6:
        problems.append(f"|Q0 + Q1| = {abs(q[0] + q[1]):.3e} >= 1e-6")
    problems += _c03(facts, q[0])
    # the summary totals are the midpoint sums of the printed series
    dt = period / facts["grid"]
    for j, total in enumerate(q):
        summed = float(np.sum(series[f"charge_rate_{j}"])) * dt
        if not abs(summed - total) <= 1e-9 * max(1.0, abs(total)):
            problems.append(f"charge {j} differs from its series sum")
    if facts["finite_t"] != ("entropy" in s):
        problems.append("entropy/noise totals present at the wrong temperature")
    return problems


def _check_geometry(job: Job, s: dict) -> list:
    problems = []
    bpt = float(s["bpt_charge"])
    angle = float(s["global_angle_charge"])
    winding = s["winding"]
    # the charge is minus the winding only where the pump is quantized:
    # near L = 1.96 it pumps -1.5 while S_00 still winds once
    if winding is not None and abs(bpt - round(bpt)) < 0.05 \
            and winding != -round(bpt):
        problems.append(f"winding {winding} != -round({bpt!r})")
    if "fractional_charge" in s:
        gap = (float(s["fractional_charge"]) - angle) % 1.0
        if not min(gap, 1.0 - gap) < 1e-6:
            problems.append("fractional charge != global-angle charge mod 1")
    return problems + _c03(job.facts, bpt)


def _c03(facts: dict, q0: float) -> list:
    """c03: near-integer charge at integer bicycle lengths."""
    length = facts.get("length")
    if length is None or not float(length).is_integer():
        return []
    n = int(length)
    if abs(abs(q0) - n) / n < 0.05:
        return []
    return [f"bicycle Q0 {q0!r} not within 5% of {n}"]


def _check_noise(job: Job, s: dict) -> list:
    problems = []
    total = float(s["total_noise"])
    if not abs(total - s["thermal_noise"] - s["shot_noise"]) \
            <= 1e-12 * max(1.0, abs(total)):
        problems.append("total noise != thermal + shot")
    if job.facts["zero_t"]:
        if s["thermal_noise"] != 0.0:
            problems.append("thermal noise at zero temperature")
        # c10: the optimal pump and the sink are noiseless
        if job.facts["kind"] in ("optimal", "sink") \
                and not abs(s["shot_noise"]) < 1e-8:
            problems.append(f"shot noise {s['shot_noise']:.3e} >= 1e-8")
        if not s["shot_noise"] >= -1e-12:
            problems.append("negative shot noise")
        return problems
    # c09: the thermal + shot split reproduces the direct second cumulant
    direct = float(s["direct_second_cumulant"])
    if not direct > 0.0:
        problems.append(f"direct second cumulant {direct!r} <= 0")
    elif not abs(s["split_vs_direct"]) / direct < 1e-6:
        problems.append(f"|split - direct| / direct = "
                        f"{abs(s['split_vs_direct']) / direct:.3e} >= 1e-6")
    if not abs(total - direct - s["split_vs_direct"]) \
            <= 1e-12 * max(1.0, abs(total)):
        problems.append("split_vs_direct != total - direct")
    return problems


def _check_classical(s: dict) -> list:
    problems = []
    # c11: partition, charge routes and the piston sign pattern
    if s["partition_disagreements"] != 0:
        problems.append(f"{s['partition_disagreements']} partition "
                        "disagreements")
    if not s["max_relative_gap"] < 0.05:
        problems.append(f"max_relative_gap {s['max_relative_gap']!r} >= 0.05")
    q = s["charge_direct"]
    if not q[0] < 0.0 < q[1]:
        problems.append(f"charge_direct {q!r} breaks Q0 < 0 < Q1")
    return problems


# ---------------------------------------------------------------------------
# answers digest

def answer(output: dict) -> dict:
    """The job's answers rounded to 1e-10, for the per-workload digest."""
    return {k: _round(v) for k, v in sorted(output["summary"].items())}


def _round(value):
    if isinstance(value, float):
        return round(value, 10) + 0.0      # folds -0.0 into 0.0
    if isinstance(value, list):
        return [_round(v) for v in value]
    return value
