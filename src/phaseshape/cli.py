"""Command-line harness.

Subcommands: gen-model (write a model trajectory as CSV + metadata
sidecar), features (shape-distribution features of a CSV), chaos (the
10-number baseline vector), stability (length-stability experiment), and
classify (leave-one-out nearest neighbor over a dataset or the synthetic
two-system protocol).

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 numerical failure. The PHASESHAPE_SEED environment variable supplies a
default seed where one applies; whatever seed is used is echoed in the
output so runs stay replayable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .chaos import chaos_feature_vector
from .classify import ConfusionMatrix
from .embedding import EmbeddingParams, estimate_delay
from .errors import NumericalError, ValidationError, channel_errors
from .models import (
    GenConfig,
    LORENZ_DT,
    ROSSLER_DT,
    LorenzParams,
    RosslerParams,
    lorenz_generate,
    params_dict,
    rossler_generate,
)
from .experiments import (
    LORENZ_LENGTHS,
    ROSSLER_LENGTHS,
    classification_experiment,
    load_dataset,
    stability_experiment,
)
from .series import load_csv, sidecar_dt, write_csv, write_meta
from .shapes import KINDS, NORMALIZATIONS, ShapeConfig, channel_distributions

__all__ = ["main", "build_parser"]

ENV_SEED = "PHASESHAPE_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _env_seed() -> int | None:
    raw = os.environ.get(ENV_SEED)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def _seed_or_env(flag_value: int | None, fallback: int | None):
    """Flag beats environment beats fallback."""
    if flag_value is not None:
        return flag_value
    env = _env_seed()
    if env is not None:
        return env
    return fallback


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _tau_arg(text: str):
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or an integer, got {text!r}")
    return value


def _ic_arg(text: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected x,y,z floats, got {text!r}")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 3 components, got {len(parts)}")
    return parts


def _load_input(path: str, dt_flag: float | None):
    """Read an input CSV; dt comes from the flag, else the sidecar, else 1."""
    return load_csv(path, dt=dt_flag if dt_flag is not None else sidecar_dt(path))


def _channel_delays(series, tau_flag):
    """Resolve per-channel delays: explicit flag or per-channel estimate."""
    if tau_flag is not None:
        return [{"tau": int(tau_flag), "method": "flag"} for _ in series.channels]
    out = []
    for ci, ch in enumerate(series.channels):
        with channel_errors(ci):
            est = estimate_delay(ch)
        out.append({"tau": est.tau, "method": est.method})
    return out


def _emit(payload, out) -> None:
    """Write the payload as JSON to ``out``, or print it when no path is given."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if not out:
        print(text)
        return
    try:
        Path(out).write_text(text + "\n")
    except OSError as e:
        raise ValidationError(f"cannot write {out}: {e}") from e
    print(f"wrote {out}")


# ---------------------------------------------------------------- gen-model


def cmd_gen_model(args) -> int:
    seed = _seed_or_env(args.seed, None)
    dt = args.dt if args.dt is not None else (LORENZ_DT if args.system == "lorenz" else ROSSLER_DT)
    config = GenConfig(n=args.n, dt=dt, transient=args.transient, ic=args.ic, seed=seed)
    if args.system == "lorenz":
        params = LorenzParams(
            sigma=args.sigma if args.sigma is not None else LorenzParams().sigma,
            rho=args.rho if args.rho is not None else LorenzParams().rho,
            beta=args.beta if args.beta is not None else LorenzParams().beta,
        )
        if any(v is not None for v in (args.a, args.b, args.c)):
            raise ValidationError("--a/--b/--c apply to rossler, not lorenz")
        series = lorenz_generate(config, params)
    else:
        params = RosslerParams(
            a=args.a if args.a is not None else RosslerParams().a,
            b=args.b if args.b is not None else RosslerParams().b,
            c=args.c if args.c is not None else RosslerParams().c,
        )
        if any(v is not None for v in (args.sigma, args.rho, args.beta)):
            raise ValidationError("--sigma/--rho/--beta apply to lorenz, not rossler")
        series = rossler_generate(config, params)

    out = Path(args.out) if args.out else Path(f"{args.system}.csv")
    write_csv(series, out)
    write_meta(
        out,
        {
            "system": args.system,
            "n": config.n,
            "dt": series.dt,
            "transient": config.transient,
            "ic": list(config.ic),
            "seed": seed,
            "params": params_dict(params),
        },
    )
    print(f"wrote {out} ({series.n} rows, {len(series)} channels, dt={series.dt:g})")
    return 0


# ----------------------------------------------------------------- features


def cmd_features(args) -> int:
    series = _load_input(args.input, args.dt)
    seed = _seed_or_env(args.seed, 0)
    delays = _channel_delays(series, args.tau)
    embeds = [EmbeddingParams(m=args.m, tau=dl["tau"]) for dl in delays]
    cfg = ShapeConfig(
        kind=args.kind,
        n_samples=args.samples,
        bins=args.bins,
        delta=args.delta,
        gamma=args.gamma,
        seed=seed,
        normalization=args.normalization,
    )
    dists = channel_distributions(series, embeds, cfg)
    channels = [
        {"name": ch.name, "tau": dl["tau"], "tau_method": dl["method"],
         "m": args.m, "distribution": dist.to_dict()}
        for ch, dl, dist in zip(series.channels, delays, dists)
    ]
    payload = {
        "input": str(args.input),
        "kind": args.kind,
        "m": args.m,
        "bins": args.bins,
        "samples": args.samples,
        "seed": seed,
        "normalization": args.normalization,
        "dt": series.dt,
        "channels": channels,
        "vector": np.concatenate([d.mass for d in dists]).tolist(),
    }
    _emit(payload, args.out)
    return 0


# -------------------------------------------------------------------- chaos


def cmd_chaos(args) -> int:
    series = _load_input(args.input, args.dt)
    delays = _channel_delays(series, args.tau)
    channels = []
    vectors = []
    for ci, (ch, dl) in enumerate(zip(series.channels, delays)):
        params = EmbeddingParams(m=args.m, tau=dl["tau"])
        with channel_errors(ci):
            cv = chaos_feature_vector(ch, params)
        if cv.low_r2:
            print(
                f"warning: channel {ci} ({ch.name}): divergence fit R^2 "
                f"{cv.r2:.4f} is below 0.95; lambda1 may be unreliable",
                file=sys.stderr,
            )
        channels.append({"name": ch.name, "tau": dl["tau"], "tau_method": dl["method"],
                         "m": args.m, **cv.to_dict()})
        vectors.append(cv.vector)
    payload = {
        "input": str(args.input),
        "m": args.m,
        "dt": series.dt,
        "channels": channels,
        "vector": np.concatenate(vectors).tolist(),
    }
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------- stability


def cmd_stability(args) -> int:
    seed = _seed_or_env(args.seed, 0)
    report = stability_experiment(
        kind=args.kind,
        lorenz_lengths=args.lorenz_lengths,
        rossler_lengths=args.rossler_lengths,
        m=args.m,
        bins=args.bins,
        n_samples=args.samples,
        seed=seed,
        metric=args.metric,
        gen_seed=args.gen_seed,
        jobs=args.jobs,
    )
    metrics = report.metrics
    print(
        f"stability: max_within={_fmt(metrics['max_within'])} "
        f"min_cross={_fmt(metrics['min_cross'])} separated={metrics['separated']}"
    )
    if args.out_dir:
        out_dir = Path(args.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ValidationError(f"cannot create {out_dir}: {e}") from e
        paths = _write_stability_artifacts(report, out_dir)
        for p in paths:
            print(f"wrote {p}")
    return 0


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _write_stability_artifacts(report, out_dir: Path) -> list[Path]:
    """report.json, distances.csv, and one histogram CSV per instance."""
    paths = []
    rp = out_dir / "report.json"
    try:
        rp.write_text(report.to_json() + "\n")
    except OSError as e:
        raise ValidationError(f"cannot write {rp}: {e}") from e
    paths.append(rp)

    order = report.artifacts["order"]
    dmat = np.asarray(report.artifacts["distance_matrix"], dtype=float)
    lines = ["id," + ",".join(order)]
    for name, row in zip(order, dmat):
        lines.append(name + "," + ",".join(f"{v:.17g}" for v in row))
    dp = out_dir / "distances.csv"
    dp.write_text("\n".join(lines) + "\n")
    paths.append(dp)

    for inst, name in zip(report.artifacts["instances"], order):
        chans = inst["channels"]
        edges = chans[0]["edges"]
        header = "bin_lo,bin_hi," + ",".join(f"mass_{k}" for k in range(len(chans)))
        rows = [header]
        for b in range(len(edges) - 1):
            cells = [f"{edges[b]:.17g}", f"{edges[b + 1]:.17g}"]
            cells += [f"{ch['mass'][b]:.17g}" for ch in chans]
            rows.append(",".join(cells))
        hp = out_dir / f"hist_{name}.csv"
        hp.write_text("\n".join(rows) + "\n")
        paths.append(hp)
    return paths


# ----------------------------------------------------------------- classify


def cmd_classify(args) -> int:
    seed = _seed_or_env(args.seed, 2024)
    if args.dataset:
        instances = load_dataset(args.dataset)
    else:
        instances = None
    report = classification_experiment(
        instances=instances,
        per_class=args.per_class,
        root_seed=seed,
        features=args.features,
        kind=args.kind,
        metric=args.metric,
        m=args.m,
        bins=args.bins,
        n_samples=args.samples,
        delays=args.tau,
        jobs=args.jobs,
    )
    conf = report.artifacts["confusion"]
    print(ConfusionMatrix(conf["labels"], conf["counts"]).to_text())
    if args.out:
        _emit(report.to_dict(), args.out)
    return 0


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phaseshape", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen-model", help="write a model trajectory CSV + meta sidecar")
    g.add_argument("system", choices=["lorenz", "rossler"])
    g.add_argument("--n", type=int, default=5000, help="samples kept after the transient")
    g.add_argument("--dt", type=float, default=None, help="integration step (system default)")
    g.add_argument("--transient", type=int, default=1000)
    g.add_argument("--ic", type=_ic_arg, default=(1.0, 1.0, 1.0), metavar="X,Y,Z")
    g.add_argument("--seed", type=int, default=None,
                   help="draw the initial condition from the system's ic box")
    g.add_argument("--sigma", type=float, default=None, help="lorenz sigma")
    g.add_argument("--rho", type=float, default=None, help="lorenz rho")
    g.add_argument("--beta", type=float, default=None, help="lorenz beta")
    g.add_argument("--a", type=float, default=None, help="rossler a")
    g.add_argument("--b", type=float, default=None, help="rossler b")
    g.add_argument("--c", type=float, default=None, help="rossler c")
    g.add_argument("--out", default=None, help="output CSV path (default <system>.csv)")
    g.set_defaults(func=cmd_gen_model)

    f = sub.add_parser("features", help="shape-distribution features of a CSV")
    f.add_argument("input")
    f.add_argument("--kind", choices=list(KINDS), default="D2")
    f.add_argument("--m", type=int, default=3)
    f.add_argument("--tau", type=_tau_arg, default=None, metavar="auto|INT",
                   help="embedding delay; default estimates per channel")
    f.add_argument("--bins", type=int, default=50)
    f.add_argument("--delta", type=int, default=None, help="DT1 time window")
    f.add_argument("--gamma", type=float, default=None, help="DT2 decay per sample")
    f.add_argument("--samples", type=int, default=10000)
    f.add_argument("--seed", type=int, default=None)
    f.add_argument("--normalization", choices=list(NORMALIZATIONS), default="mean-normalized")
    f.add_argument("--dt", type=float, default=None, help="sample period (else sidecar, else 1)")
    f.add_argument("--out", default=None, help="output JSON path (default stdout)")
    f.set_defaults(func=cmd_features)

    c = sub.add_parser("chaos", help="10-number chaos feature vector of a CSV")
    c.add_argument("input")
    c.add_argument("--m", type=int, default=3)
    c.add_argument("--tau", type=_tau_arg, default=None, metavar="auto|INT")
    c.add_argument("--dt", type=float, default=None, help="sample period (else sidecar, else 1)")
    c.add_argument("--out", default=None, help="output JSON path (default stdout)")
    c.set_defaults(func=cmd_chaos)

    s = sub.add_parser("stability", help="shape stability across trajectory lengths")
    s.add_argument("--kind", choices=list(KINDS), default="D2")
    s.add_argument("--lorenz-lengths", type=_int_list, default=list(LORENZ_LENGTHS),
                   metavar="N1,N2,...")
    s.add_argument("--rossler-lengths", type=_int_list, default=list(ROSSLER_LENGTHS),
                   metavar="N1,N2,...")
    s.add_argument("--m", type=int, default=3)
    s.add_argument("--bins", type=int, default=50)
    s.add_argument("--samples", type=int, default=10000)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--gen-seed", type=int, default=None,
                   help="draw initial conditions instead of the defaults")
    s.add_argument("--metric", choices=["chi2", "l2"], default="chi2")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--out-dir", default=None,
                   help="write report.json, distances.csv, per-length histograms")
    s.set_defaults(func=cmd_stability)

    k = sub.add_parser("classify", help="leave-one-out 1-NN over labeled trajectories")
    src = k.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", default=None, help="directory of <label>/<instance>.csv")
    src.add_argument("--synthetic", choices=["lorenz-rossler"], default=None)
    k.add_argument("--per-class", type=int, default=20)
    k.add_argument("--features", choices=["shape", "chaos"], default="shape")
    k.add_argument("--kind", choices=list(KINDS), default="D2")
    k.add_argument("--metric", choices=["chi2", "l2"], default=None,
                   help="default: chi2 for shape, l2 for chaos")
    k.add_argument("--m", type=int, default=3)
    k.add_argument("--bins", type=int, default=50)
    k.add_argument("--samples", type=int, default=10000)
    k.add_argument("--tau", type=_tau_arg, default=None, metavar="auto|INT",
                   help="embedding delay; default: per-label table or estimate")
    k.add_argument("--seed", type=int, default=None, help="root seed (default 2024)")
    k.add_argument("--jobs", type=int, default=1)
    k.add_argument("--out", default=None, help="write the full report JSON here")
    k.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
