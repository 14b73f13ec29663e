"""The three workloads: the CLI invocations of one pass and their checks.

Each workload is a closed loop with one client: the ops of a pass run
back to back, each one `markov_poisson.cli.main` call on the generated
spec files, and the next op starts only when the previous one returned.
Every workload runs each of the five commands every pass, so that every
per-command latency is defined on every workload; a command that is not
the workload's subject runs as a small probe op on the running example or
the queue, repeated and spread through the pass.

The checks are made from outside: they read the JSON report and compare
it with values the generator computed without the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

#: certificate of the queue example (normal increments, mu = -0.5,
#: sigma = 1) at each kappa the workloads use: (x0, lambda)
GIG1_REF = {2.0: (2.54, 0.20358443347695107), 1.1: (13.75, 6.197740398750353e-12)}
GIG1_LAM_RTOL = 1e-6

#: Monte Carlo seed of every simulate op. The finite-chain reports assert
#: that the estimate lies within 3 standard errors of the exact value, a
#: test a correct sampler fails with probability 0.3% per seed, so these
#: ops keep one seed whose outcome is known. time_to_se_s scales by the
#: reported error bar, which moves by 15-25% from one seed to the next at
#: these cycle counts; one seed keeps that draw out of the figure.
MC_SEED = 1

#: probe ops repeat within a pass so that each probed command is timed
#: over about a second per pass, not over one short op
PROBE_REPEAT = {"simulate": 4, "gig1": 6, "verify": 10, "solve": 10, "potential": 10}

WHY = {
    "dense-exact": (
        "n = 500 dense chains and a slowly mixing 200-state ring: split's LU "
        "systems, chain's Python BFS, report writing and potential blocks dominate"
    ),
    "small-chains": (
        "53 chains of 2-20 states plus finite-chain simulation: per-call overhead "
        "of the exact layers and the Monte Carlo step kernel dominate"
    ),
    "queue": (
        "the G/G/1 example: gig1 quadrature and the mc layer on a continuous-state "
        "sampler with a rejection residual"
    ),
}


def _spread_probes(ops: list) -> list:
    """The pass with each probe repeated and the repeats spread through it.

    The host's speed changes every few seconds; repeats run back to back
    would all land in one phase, while repeats spread over the pass sample
    as many phases as the workload's own ops do.
    """
    main = [op for op in ops if not op.probe]
    probes = [op for op in ops if op.probe]
    rounds = max((PROBE_REPEAT[op.command] for op in probes), default=0)
    repeats = [op for r in range(rounds) for op in probes if r < PROBE_REPEAT[op.command]]
    keyed = [((j + 0.5) / len(main), 0, op) for j, op in enumerate(main)]
    keyed += [((i + 0.5) / len(repeats), 1, op) for i, op in enumerate(repeats)]
    return [op for _, _, op in sorted(keyed, key=lambda k: k[:2])]


@dataclass
class Op:
    """One CLI invocation of a pass and what its report must show."""

    label: str
    argv: list
    chain: inputs.ChainInput | None = None
    #: a known program defect this op exhibits: ("assertion", name) when
    #: exactly that assertion fails, ("error", code) when the op fails with
    #: that ToolkitError code
    known_red: tuple | None = None
    #: fixed target standard error of g*(x0) for time_to_se_s
    target_se: float | None = None
    #: gig1 reference key (kappa) whose x0 and lambda the report must match
    gig1_kappa: float | None = None
    #: label of an op whose estimates this op's estimates must equal
    same_estimates_as: str | None = None
    probe: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    ops: list
    #: the cheapest op, run in a fresh interpreter to measure set-up time
    setup_op: Op


def _exact_ops(chains, spec) -> list:
    ops = []
    for c in chains:
        for cmd in ("verify", "solve", "potential"):
            ops.append(Op(f"{cmd}:{c.name}", [cmd, "--spec", spec(c)], chain=c))
    return ops


def _re_simulate(spec, re, cycles, target_se, label="simulate:running-example", **kw):
    argv = ["simulate", "--spec", spec(re), "--x0", "1", "--cycles", str(cycles),
            "--seed", str(MC_SEED)]
    if kw.get("workers"):
        argv += ["--workers", str(kw.pop("workers"))]
    return Op(label, argv, chain=re, target_se=target_se, **kw)


def _gig1(kappa, probe=False):
    return Op(f"gig1:kappa={kappa}", ["gig1", "--kappa", str(kappa)],
              gig1_kappa=kappa, probe=probe)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs from ``seed`` and write its spec files."""

    def spec(c):
        return str(workdir / f"{c.name}.json")

    def written(chains):
        return [c.write(workdir / f"{c.name}.json") for c in chains]

    workdir.mkdir(parents=True, exist_ok=True)
    re = inputs.running_example().write(workdir / "running-example.json")
    if name == "dense-exact":
        chains = written(inputs.dense_exact(seed))
        ops = _exact_ops(chains, spec)
        # the block-norm stopping rule stops 2e-7 short of a per-class
        # constant gap on this slowly mixing ring (the check allows 1e-8)
        ring = next(op for op in ops if op.label == "potential:ring-200-m2")
        ring.known_red = ("assertion", "gap_constant_per_class")
        ops += [
            _re_simulate(spec, re, 2000, 0.025, probe=True),
            _gig1(2.0, probe=True),
        ]
        setup = Op("verify:ring-200-m2", ["verify", "--spec", spec(chains[2])])
    elif name == "small-chains":
        chains = written(inputs.small_chains(seed))
        bridge = inputs.bridge_chain().write(workdir / "bridge-30-m3.json")
        ops = _exact_ops(chains, spec)
        ops += [
            _re_simulate(spec, re, 10000, 0.01),
            _re_simulate(spec, re, 10000, 0.01, label="simulate:running-example:workers=2",
                         workers=2, same_estimates_as="simulate:running-example"),
            Op("simulate:bridge-30-m3",
               ["simulate", "--spec", spec(bridge), "--x0", "5", "--cycles", "5000",
                "--seed", str(MC_SEED)],
               chain=bridge, target_se=0.03),
            _gig1(2.0, probe=True),
        ]
        setup = Op("verify:running-example", ["verify", "--spec", spec(re)])
    elif name == "queue":
        # the paper's queue example has no random input besides the Monte
        # Carlo stream: this workload is the same for every seed
        mc_seed = str(MC_SEED)
        ops = [_gig1(2.0), _gig1(1.1)]
        for x0, target in (("0", 0.04), ("5", 0.4)):
            ops.append(Op(
                f"simulate:gig1:kappa=2:x0={x0}",
                ["simulate", "--gig1", "--kappa", "2", "--x0", x0, "--cycles", "5000",
                 "--seed", mc_seed],
                target_se=target, gig1_kappa=2.0,
            ))
        # lambda ~ 6.2e-12 at kappa = 1.1 leaves ~1.6e11 steps per cycle,
        # so no step budget completes one: the op fails as acceptance A10 does
        ops.append(Op(
            "simulate:gig1:kappa=1.1",
            ["simulate", "--gig1", "--kappa", "1.1", "--x0", "0", "--cycles", "10",
             "--max-steps", "100000", "--seed", mc_seed],
            known_red=("error", "max-steps-exceeded"),
        ))
        ops += [Op(f"{cmd}:running-example", [cmd, "--spec", spec(re)], chain=re, probe=True)
                for cmd in ("verify", "solve", "potential")]
        # the cheapest queue op: it pays for the lazy scipy.stats import
        setup = Op("gig1:kappa=2.0", ["gig1", "--kappa", "2.0"])
    else:
        raise KeyError(name)
    ops = _spread_probes(ops)
    return Workload(name=name, ops=ops, setup_op=setup)


def warmup_ops(workdir: Path) -> list:
    """One small op per command, run before timing so lazy imports finish."""
    path = workdir / "warmup-running-example.json"
    inputs.running_example().write(path)
    spec = str(path)
    return [
        Op("warm:verify", ["verify", "--spec", spec]),
        Op("warm:solve", ["solve", "--spec", spec]),
        Op("warm:potential", ["potential", "--spec", spec]),
        Op("warm:simulate", ["simulate", "--spec", spec, "--x0", "1", "--cycles", "200",
                             "--workers", "2"]),
        Op("warm:gig1", ["simulate", "--gig1", "--kappa", "2", "--x0", "0", "--cycles", "10"]),
    ]


# ---------------------------------------------------------------- checks


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check(op: Op, code: int, text: str) -> tuple:
    """Judge one op's outcome from its exit code and report.

    Returns (passed, as_expected, detail, report). ``passed`` is the op's
    own verdict with the benchmark's checks added; ``as_expected`` is
    False for any outcome other than a pass or the op's documented
    known-red failure.
    """
    try:
        rep = json.loads(text)
    except json.JSONDecodeError:
        return False, False, f"exit {code}, report is not JSON", None
    if code != 0 or rep.get("passed") is not True:
        failed = sorted(a["name"] for a in rep.get("assertions", []) if not a["passed"])
        err = (rep.get("error") or {}).get("code")
        detail = f"exit {code}, failed assertions {failed}, error {err}"
        expected = code == 1 and op.known_red in (
            ("assertion", failed[0] if len(failed) == 1 else None),
            ("error", err),
        )
        return False, expected, detail, rep
    try:
        problems = _outside_in(op, rep)
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"report lacks a field the checks read: {exc!r}"]
    return not problems, not problems, "; ".join(problems) or "ok", rep


def _outside_in(op: Op, rep: dict) -> list:
    problems = []
    c = op.chain
    if op.command in ("verify", "solve") and c is not None:
        certs = rep["certificates"]
        for key, ref in (("b1", c.b1), ("b2", c.b2)):
            if not _close(certs[key], ref, 1e-9):
                problems.append(f"{key} {certs[key]!r} differs from minimal {ref!r}")
    if op.command == "solve" and c is not None:
        g = np.array(rep["tables"]["g_star"])
        pi = np.array(rep["pi"])
        f_c = c.f - float(pi @ c.f)
        residual = float(np.max(np.abs(c.kernel @ g - g + f_c)))
        if residual > 1e-9:
            problems.append(f"Poisson residual {residual:.3e} > 1e-9")
        l1 = float(np.abs(np.array(rep["tables"]["nu"]) - c.pi).sum())
        if l1 > 1e-10:
            problems.append(f"|nu - pi|_1 = {l1:.3e} > 1e-10")
    if op.gig1_kappa is not None:
        x0, lam = GIG1_REF[op.gig1_kappa]
        cert = rep["certificate"]
        if abs(cert["x0"] - x0) > 1e-9 or abs(cert["lambda"] - lam) > GIG1_LAM_RTOL * lam:
            problems.append(f"certificate x0={cert['x0']!r} lambda={cert['lambda']!r} "
                            f"differs from reference x0={x0} lambda={lam}")
    return problems


def gstar_se(rep: dict) -> float:
    """Reported standard error of g*(x0) in a simulate report."""
    est = rep["estimates"]
    if "g_star_x0" in est:
        return float(est["g_star_x0"]["std_error"])
    return float(est["points"][0]["std_error"])
