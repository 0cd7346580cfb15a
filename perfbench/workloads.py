"""The three benchmark workloads: set-up, timed body, and output checks.

Every call into phaseshape goes through a module attribute
(``experiments.synthetic_instances``, ``cli.main``) so the traced run's
wrappers see it. Bodies fill ``out`` op by op; an op missing from ``out``
after the body raised counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from phaseshape import cli, experiments, models

import checks


def _ladder(lo: int, hi: int, k: int = 5) -> tuple[int, ...]:
    """Midpoints of k equal strata of [lo, hi]: k lengths spread as a uniform draw."""
    return tuple(round(lo + (i + 0.5) * (hi - lo) / k) for i in range(k))


# synthetic-chaos lengths: five per system, spread over the range that
# synthetic_instances draws from (experiments.LENGTH_RANGES), but fixed so
# that cost and memory do not depend on the seed (chaos cost grows as P^2;
# with lengths drawn per seed, the sum of P^2 over ten instances spread
# 23-66% between quartiles, over three sets of ten seeds).
# The seed draws the initial conditions.
CHAOS_LENGTHS = {s: _ladder(*experiments.LENGTH_RANGES[s]) for s in experiments.SYSTEMS}

# Warm-up instances: one short trajectory per system, same size for every seed.
WARM_LENGTHS = {"lorenz": (600,), "rossler": (600,)}


def _derived(seed: int, *key) -> int:
    return int(np.random.SeedSequence([int(seed), *key]).generate_state(1)[0])


@dataclass
class Workload:
    name: str
    series: int  # channel series featurized per body: the stated input size
    ops: tuple[str, ...]
    setup: Callable  # (seed, workdir) -> state, including one warm-up call
    body: Callable  # (state, out) -> None
    observe: Callable  # (state, out, captured, findings) -> observation dict
    charge: dict  # observation key -> op charged when it differs from reference


def _instances(seed, lengths):
    return [
        experiments.Instance(
            id=f"{system}-{k:03d}",
            series=experiments.generate_system(
                system, models.GenConfig(n=n, seed=_derived(seed, ci, k))
            ),
        )
        for ci, system in enumerate(experiments.SYSTEMS)
        for k, n in enumerate(lengths[system])
    ]


def _neighbors(captured) -> list[str]:
    return list(captured.get("classify.nn_classify", []))


def _loocv_vectors(captured) -> dict:
    runs = captured.get("classify.loocv", [])
    return dict(runs[-1]) if runs else {}


def _observe_classification(f, op, report) -> dict:
    if report.metrics["total"] != sum(map(sum, report.artifacts["confusion"]["counts"])):
        f.fail(op, "confusion counts do not add up to the total")
    return {
        "confusion": report.artifacts["confusion"]["counts"],
        "instances": [[i["id"], i["n"], i["tau"]] for i in report.artifacts["instances"]],
    }


# ---------------------------------------------------------- synthetic-shape


def _shape_setup(seed, workdir):
    warm = _instances(seed, WARM_LENGTHS)
    experiments.classification_experiment(warm, features="shape")
    return {"seed": seed}


def _shape_body(state, out):
    inst = out["synthetic_instances"] = experiments.synthetic_instances(
        per_class=20, root_seed=state["seed"]
    )
    out["classification_experiment"] = experiments.classification_experiment(
        inst, features="shape"
    )
    out["stability_experiment"] = experiments.stability_experiment(seed=state["seed"])


def _shape_observe(state, out, captured, f):
    obs = {}
    if "classification_experiment" in out:
        report = out["classification_experiment"]
        obs.update(_observe_classification(f, "classification_experiment", report))
    if "stability_experiment" in out:
        rep = out["stability_experiment"]
        masses = [ch["mass"] for inst in rep.artifacts["instances"] for ch in inst["channels"]]
        for m in masses:
            checks.check_masses(f, "stability_experiment", m)
        obs["stability_masses"] = checks.digest(masses)
        obs["stability_distances"] = checks.digest(rep.artifacts["distance_matrix"])
    vectors = _loocv_vectors(captured)
    if vectors:
        for v in vectors.values():
            checks.check_masses(f, "classification_experiment", v)
        obs["shape_vectors"] = {k: checks.digest(v) for k, v in vectors.items()}
        obs["neighbors"] = _neighbors(captured)
    return obs


SYNTHETIC_SHAPE = Workload(
    name="synthetic-shape",
    series=150,
    ops=("synthetic_instances", "classification_experiment", "stability_experiment"),
    setup=_shape_setup,
    body=_shape_body,
    observe=_shape_observe,
    charge={
        "confusion": "classification_experiment",
        "instances": "synthetic_instances",
        "shape_vectors": "classification_experiment",
        "neighbors": "classification_experiment",
        "stability_masses": "stability_experiment",
        "stability_distances": "stability_experiment",
    },
)


# ---------------------------------------------------------- synthetic-chaos


def _chaos_setup(seed, workdir):
    warm = _instances(seed, WARM_LENGTHS)
    experiments.classification_experiment(warm, features="chaos", jobs=2)
    return {"seed": seed}


def _chaos_body(state, out):
    inst = out["generate"] = _instances(state["seed"], CHAOS_LENGTHS)
    out["classification_experiment"] = experiments.classification_experiment(
        inst, features="chaos", jobs=2
    )


def _chaos_observe(state, out, captured, f):
    obs = {}
    if "classification_experiment" in out:
        report = out["classification_experiment"]
        obs.update(_observe_classification(f, "classification_experiment", report))
    vectors = _loocv_vectors(captured)
    if vectors:
        for v in vectors.values():
            checks.check_chaos_vector(f, "classification_experiment", v)
        obs["chaos_vectors"] = {k: v.tolist() for k, v in vectors.items()}
        obs["neighbors"] = _neighbors(captured)
    return obs


SYNTHETIC_CHAOS = Workload(
    name="synthetic-chaos",
    series=10,
    ops=("generate", "classification_experiment"),
    setup=_chaos_setup,
    body=_chaos_body,
    observe=_chaos_observe,
    charge={
        "confusion": "classification_experiment",
        "instances": "generate",
        "chaos_vectors": "classification_experiment",
        "neighbors": "classification_experiment",
    },
)


# ------------------------------------------------------------------ cli-csv


def _cli(argv) -> tuple[int, str]:
    """phaseshape.cli.main with its stdout dropped and its stderr kept."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def _cli_setup(seed, workdir):
    workdir = Path(workdir)
    csv = workdir / "lorenz.csv"
    rc, err = _cli(["gen-model", "lorenz", "--n", "5000", "--seed", str(seed), "--out", str(csv)])
    if rc != 0:
        raise RuntimeError(f"gen-model exited {rc}: {err.strip()}")
    outputs = {op: workdir / f"{op}.json" for op in ("features", "chaos")}
    state = {
        "seed": seed,
        "outputs": outputs,
        "features": ["features", str(csv), "--tau", "auto", "--out", str(outputs["features"])],
        "chaos": ["chaos", str(csv), "--tau", "11", "--out", str(outputs["chaos"])],
    }
    rc, err = _cli(state["features"])
    if rc != 0:
        raise RuntimeError(f"features warm-up exited {rc}: {err.strip()}")
    state["outputs"]["features"].unlink()
    return state


def _cli_body(state, out):
    out["features"] = _cli(state["features"])
    out["chaos"] = _cli(state["chaos"])


def _read_output(f, op, rc_err, path) -> dict | None:
    """Exit code 0 and JSON that parses; the file is removed once read."""
    rc, err = rc_err
    if rc != 0:
        f.fail(op, f"exit code {rc}: {err.strip()}")
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        f.fail(op, f"output JSON unreadable: {e}")
        return None
    finally:
        path.unlink(missing_ok=True)


def _cli_observe(state, out, captured, f):
    obs = {}
    if "features" in out:
        data = _read_output(f, "features", out["features"], state["outputs"]["features"])
        if data is not None:
            checks.check_masses(f, "features", data["vector"])
            for ch in data["channels"]:
                checks.check_masses(f, "features", ch["distribution"]["mass"])
            obs["features_vector"] = checks.digest(data["vector"])
            obs["features_taus"] = [ch["tau"] for ch in data["channels"]]
    if "chaos" in out:
        data = _read_output(f, "chaos", out["chaos"], state["outputs"]["chaos"])
        if data is not None:
            vectors = {ch["name"]: data["vector"][10 * i : 10 * i + 10]
                       for i, ch in enumerate(data["channels"])}
            for v in vectors.values():
                checks.check_chaos_vector(f, "chaos", v)
            obs["chaos_vectors"] = vectors
    return obs


CLI_CSV = Workload(
    name="cli-csv",
    series=6,
    ops=("features", "chaos"),
    setup=_cli_setup,
    body=_cli_body,
    observe=_cli_observe,
    charge={
        "features_vector": "features",
        "features_taus": "features",
        "chaos_vectors": "chaos",
    },
)

WORKLOADS = {w.name: w for w in (SYNTHETIC_SHAPE, SYNTHETIC_CHAOS, CLI_CSV)}
