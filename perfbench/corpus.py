"""Seeded config corpus and the command schedule of each workload.

Every generated config belongs to a family whose verdict is known by
construction, so a verdict check needs no reference run:

- ``even``: the even profile ``1 + s^2`` over a curved factor and an
  arbitrary form.  Even profiles are AbsolutelyHomogeneous.
- ``exact``: an even-plus-linear profile (Randers or one of the two
  even-plus-linear corpus profiles) with an exact form b = grad f over a
  curved factor.  E vanishes and curl(b) = 0 exactly, so ClassA.
- ``const_flat``: Matsumoto with a constant form over a constant (flat)
  factor.  M, curl and all variations vanish, so ClassB.
- ``xdep_matsumoto``: Matsumoto over a flat factor with b1 depending on
  x1.  The residual is frankly nonzero, so Irreversible.

Coefficients are drawn uniformly from the ranges below, which keep
sup b(x) well under each profile's b0.  Nothing here looks at the
program's output: a draw is never discarded after the fact.

A schedule is a list of cycles; a cycle is a fixed mix of operations, so
every cycle of a workload loads the layers in the same proportions and a
run that completes more cycles does not shift its percentiles.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# The five profiles of the test suite's corpus: (expression in s, b0).
CORPUS_PROFILES = {
    "randers": ("1 + s", 0.9),
    "matsumoto": ("1 / (1 - s)", 0.4),
    "even_quadratic": ("1 + s^2", 0.9),
    "quadratic_plus_linear": ("1 + s^2 + 0.3*s", 0.5),
    "exp_plus_linear": ("exp(s^2) - 0.5*s", 0.6),
}

FAMILIES = ("even", "exact", "const_flat", "xdep_matsumoto")
FAMILY_VERDICT = {
    "even": "AbsolutelyHomogeneous",
    "exact": "ClassA",
    "const_flat": "ClassB",
    "xdep_matsumoto": "Irreversible",
}
EXACT_PROFILES = ("randers", "quadratic_plus_linear", "exp_plus_linear")

# The four witness bundles of the test suite, as configs.
WITNESSES = {
    "class_a": ("-ln(1 + (x1^2 + x2^2)/4)", 1.5, "0.1*x2", "0.1*x1", "randers", "ClassA"),
    "class_b": ("0", 1.0, "0.2", "0.1", "matsumoto", "ClassB"),
    "irreversible": ("0", 1.0, "0.2 + 0.1*x1", "0", "matsumoto", "Irreversible"),
    "even": ("0.1*x1 + 0.05*x2^2", 1.0, "0.2 - 0.1*x2", "0.1*x1", "even_quadratic", "AbsolutelyHomogeneous"),
}

# Criterion 7's probe shape and bounds: an 8-direction fan at the origin,
# T = 1, h = 1e-3; every error <= 1e-6 on ClassA, the largest >= 1e-3 on
# Irreversible.  The Irreversible bound holds only at the full T.
FAN_X0 = (0.0, 0.0)
FAN_T = 1.0
FAN_H = 1e-3
FAN_DIRECTIONS = 8
CLASS_A_MAX_ERROR = 1e-6
IRREVERSIBLE_MIN_ERROR = 1e-3

DEFAULT_SAMPLING = (21, 21, 64, 201)
DOUBLED_SAMPLING = (42, 42, 128, 402)
PROBE_SAMPLING = (8, 8, 8, 16)   # smallest grid the config parser accepts

GEODESIC_T = 1.0
GEODESIC_H = 1e-3
LONG_PATH_H = 2.5e-4             # four times finer: ~4k samples per path
PROBE_T = 0.02                   # short geodesics and fans on workloads that load other layers
PROBE_REPEATS = 6

# Cycles per schedule; a run that outlasts them starts again at cycle 0.
CYCLES = {"criterion": 24, "oracle": 4, "long_path": 6}


@dataclass(frozen=True)
class Config:
    name: str
    text: str
    verdict: str
    witness: str = ""        # conftest witness name, "" for generated configs


@dataclass(frozen=True)
class Op:
    """One measured operation.

    kind is a CLI command (validate, classify, scan, geodesic) or "fan", a
    direct 8-direction reversibility_scan call.  args are the CLI arguments
    after the config path; the benchmark appends --out for scan and
    geodesic.  T and h are the duration and step of a geodesic or fan.
    """

    kind: str
    config: str
    args: tuple = ()
    T: float = 0.0
    h: float = 0.0


@dataclass
class Plan:
    workload: str
    seed: int
    configs: dict = field(default_factory=dict)
    cycles: list = field(default_factory=list)
    draws: dict = field(default_factory=dict)   # draws so far, by family

    def add(self, config: Config) -> str:
        self.configs[config.name] = config
        return config.name


def _num(r: random.Random, lo: float, hi: float) -> str:
    return f"{r.uniform(lo, hi):.6f}"


def _config_text(nu, half_width, b1, b2, profile, sampling) -> str:
    expr, b0 = CORPUS_PROFILES[profile]
    if profile in ("randers", "matsumoto"):
        phi = f'kind = "{profile}"\nb0 = {b0}\n'
    else:
        phi = f'kind = "expr"\nexpr = "{expr}"\nb0 = {b0}\n'
    n_x1, n_x2, n_t, n_s = sampling
    return (
        f'[metric]\nnu = "{nu}"\n'
        f"x1min = {-half_width}\nx1max = {half_width}\nx2min = {-half_width}\nx2max = {half_width}\n"
        f'[form]\nb1 = "{b1}"\nb2 = "{b2}"\n'
        f"[phi]\n{phi}"
        f"[sampling]\nn_x1 = {n_x1}\nn_x2 = {n_x2}\nn_t = {n_t}\nn_s = {n_s}\n"
    )


def draw_family(r: random.Random, family: str, index: int = 0) -> tuple:
    """(nu, b1, b2, profile) for the family's draw number index.

    The exact family takes its three profiles in turn, so that every run
    holds the same mix of profile costs.
    """
    if family == "even":
        nu = f"{_num(r, -0.1, 0.1)}*x1 + {_num(r, -0.1, 0.1)}*x2^2 + {_num(r, -0.1, 0.1)}*x1*x2"
        b1 = f"{_num(r, -0.2, 0.2)} + {_num(r, -0.15, 0.15)}*x2"
        b2 = f"{_num(r, -0.2, 0.2)} + {_num(r, -0.15, 0.15)}*x1"
        return nu, b1, b2, "even_quadratic"
    if family == "exact":
        nu = f"{_num(r, -0.05, 0.05)}*x1 + {_num(r, -0.05, 0.05)}*x2^2 + {_num(r, -0.05, 0.05)}*x1*x2"
        a1, a2 = _num(r, -0.12, 0.12), _num(r, -0.12, 0.12)
        c = _num(r, -0.04, 0.04)
        d = r.uniform(-0.03, 0.03)
        # b = grad(a1*x1 + a2*x2 + c*x1*x2 + d*(x1^2 - x2^2)), so curl(b) = c - c = 0
        b1 = f"{a1} + {c}*x2 + {2 * d:.6f}*x1"
        b2 = f"{a2} + {c}*x1 + {-2 * d:.6f}*x2"
        return nu, b1, b2, EXACT_PROFILES[index % len(EXACT_PROFILES)]
    if family == "const_flat":
        return _num(r, -0.1, 0.1), _num(r, -0.18, 0.18), _num(r, -0.18, 0.18), "matsumoto"
    if family == "xdep_matsumoto":
        sign = r.choice((1.0, -1.0))
        b1 = f"{_num(r, 0.1, 0.2)} + {sign * r.uniform(0.05, 0.12):.6f}*x1"
        return "0", b1, _num(r, -0.08, 0.08), "matsumoto"
    raise ValueError(f"unknown family {family!r}")


def _generated(plan: Plan, r: random.Random, family: str, tag: str, samplings: dict) -> dict:
    """Add one draw of the family under each named sampling; returns name by sampling."""
    index = plan.draws.get(family, 0)
    plan.draws[family] = index + 1
    nu, b1, b2, profile = draw_family(r, family, index)
    names = {}
    for label, sampling in samplings.items():
        name = f"{tag}-{family}-{label}"
        text = _config_text(nu, 1.0, b1, b2, profile, sampling)
        names[label] = plan.add(Config(name, text, FAMILY_VERDICT[family]))
    return names


def _witness(plan: Plan, name: str, sampling=DEFAULT_SAMPLING, label="default") -> str:
    nu, half, b1, b2, profile, verdict = WITNESSES[name]
    text = _config_text(nu, half, b1, b2, profile, sampling)
    return plan.add(Config(f"witness-{name}-{label}", text, verdict, witness=name))


def _start(r: random.Random) -> tuple:
    """Seeded (x0, y0): x0 near the centre, |y0| small enough to rarely leave the domain."""
    x0 = (r.uniform(-0.25, 0.25), r.uniform(-0.25, 0.25))
    angle = r.uniform(0.0, 2.0 * math.pi)
    speed = r.uniform(0.4, 0.6)
    y0 = (speed * math.cos(angle), speed * math.sin(angle))
    return f"--x0={x0[0]:.6f},{x0[1]:.6f}", f"--y0={y0[0]:.6f},{y0[1]:.6f}"


def _geodesic(config: str, start: tuple, T: float, h: float) -> Op:
    return Op("geodesic", config, (*start, f"--T={T!r}", f"--h={h!r}"), T, h)


def _fan(config: str, T: float) -> Op:
    return Op("fan", config, T=T, h=FAN_H)


def _probes(full: str, probe: str) -> list:
    """Classify and small residual scans, repeated so that their tails rest on enough samples."""
    return [Op("classify", full), Op("scan", probe, ("--what", "residual"))] * PROBE_REPEATS


def build_plan(workload: str, seed: int, tiny: bool = False) -> Plan:
    """The workload's configs and its schedule of cycles, from the seed alone."""
    r = random.Random(f"{workload}:{seed}")
    plan = Plan(workload, seed)
    cycles = 1 if tiny else CYCLES[workload]
    default = PROBE_SAMPLING if tiny else DEFAULT_SAMPLING
    doubled = tuple(2 * n for n in PROBE_SAMPLING) if tiny else DOUBLED_SAMPLING
    T = 0.02 if tiny else GEODESIC_T
    fan_T = 0.02 if tiny else FAN_T
    probe_T = 0.01 if tiny else PROBE_T
    class_a = _witness(plan, "class_a", default)

    if workload == "criterion":
        for c in range(cycles):
            names = [
                _generated(plan, r, fam, f"c{c}", {"default": default, "doubled": doubled})
                for fam in FAMILIES
            ]
            k = c % len(FAMILIES)
            ops = []
            for n in names:
                ops += [Op("validate", n["default"]), Op("classify", n["default"])]
            ops.append(Op("classify", names[k]["doubled"]))
            for i, n in enumerate(names):
                what = "crosscheck" if i == k else "residual"
                ops.append(Op("scan", n["default"], ("--what", what)))
            for j in (k, (k + 2) % len(FAMILIES)):
                probe = _geodesic(names[j]["default"], _start(r), probe_T, GEODESIC_H)
                ops += [probe, probe, _fan(class_a, probe_T)]
            plan.cycles.append(ops)
    elif workload == "oracle":
        witnesses = {
            w: (_witness(plan, w, default), _witness(plan, w, PROBE_SAMPLING, "probe"))
            for w in WITNESSES
        }
        for c in range(cycles):
            pairs = list(witnesses.values())
            for fam in (FAMILIES[(2 * c) % 4], FAMILIES[(2 * c + 1) % 4]):
                n = _generated(plan, r, fam, f"c{c}", {"default": default, "probe": PROBE_SAMPLING})
                pairs.append((n["default"], n["probe"]))
            ops = []
            for full, probe in pairs:
                ops.append(_geodesic(full, _start(r), T, GEODESIC_H))
                ops += _probes(full, probe)
            ops.append(_fan(witnesses["class_a"][0], fan_T))
            ops.append(_fan(witnesses["irreversible"][0], fan_T))
            plan.cycles.append(ops)
    elif workload == "long_path":
        witnesses = [_witness(plan, w, default) for w in WITNESSES]
        for c in range(cycles):
            ops = [_geodesic(witnesses[c % len(witnesses)], _start(r), T, LONG_PATH_H)]
            for i in range(3):
                fam = FAMILIES[(3 * c + i) % len(FAMILIES)]
                n = _generated(plan, r, fam, f"c{c}", {"default": default, "probe": PROBE_SAMPLING})
                ops += _probes(n["default"], n["probe"])
                ops += [_fan(class_a, probe_T)] * 2
            plan.cycles.append(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan
