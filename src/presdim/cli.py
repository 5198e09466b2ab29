"""Command-line front end: config ingestion, computations, CSV/JSON artifacts.

Every run is driven by one INI config file; flags only select the config,
the output directory, and optional tolerance/truncation overrides.
`--threads` is accepted and has no effect: every command runs serially.
Reports embed the config hash, truncations, and tolerances.  Outputs are
deterministic: identical configs produce byte-identical files.

Exit codes: 0 success (including mathematically inconclusive verification),
1 failed verification assertion, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import json
import math
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .boxdim import (
    PointCloud,
    estimate_box_dimension,
    gap_exponent_bounds,
)
from .hyperbolic import ParabolicGroupSpec, boundary_plane_point, identity_suite, parabolic_orbit
from .interval_partition import build_partition, make_branch_map, max_cylinder_order
from .poincare import counting_exponent, critical_exponent, poincare_partial
from .pressure import (
    bowen_root_cylinder,
    bowen_root_linear,
    find_s_infinity,
    pressure_over_grid,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> tuple[configparser.ConfigParser, str]:
    blob = Path(path).read_bytes()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(blob.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parser, hashlib.sha256(blob).hexdigest()


def _get(cfg: configparser.ConfigParser, section: str, key: str, default=None):
    if cfg.has_option(section, key):
        return cfg.get(section, key).strip()
    return default


def _get_typed(cfg, section, key, cast, default=None, kind="value"):
    raw = _get(cfg, section, key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config error: [{section}] {key} must be a {kind} (got {raw!r})") from exc


def _get_int(cfg, section, key, default=None):
    return _get_typed(cfg, section, key, int, default, "integer")


def _get_float(cfg, section, key, default=None):
    return _get_typed(cfg, section, key, float, default, "number")


def _get_floats(cfg, section, key, default=None):
    raw = _get(cfg, section, key)
    if raw is None:
        return default
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"config error: [{section}] {key} must list numbers (got {raw!r})") from exc


def _require(value, section, key):
    if value is None:
        raise ConfigError(f"config error: missing [{section}] {key}")
    return value


def _partition_from(cfg, truncation_override: int | None):
    generator = _require(_get(cfg, "partition", "generator"), "partition", "generator")
    truncation = truncation_override
    if truncation is None:
        truncation = _get_int(cfg, "partition", "truncation", 100_000)
    kwargs = {}
    exponent = _get_float(cfg, "partition", "exponent")
    if exponent is not None:
        kwargs["exponent"] = exponent
    digits_raw = _get(cfg, "partition", "digits")
    if digits_raw is not None:
        try:
            kwargs["digits"] = tuple(int(tok) for tok in digits_raw.replace(",", " ").split())
        except ValueError as exc:
            raise ConfigError(f"config error: [partition] digits must list integers") from exc
    try:
        return build_partition(generator, truncation, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config error: [partition] {exc}") from exc


def _group_from(cfg) -> ParabolicGroupSpec:
    ambient = _require(_get_int(cfg, "group", "ambient"), "group", "ambient")
    rank = _require(_get_int(cfg, "group", "rank"), "group", "rank")
    alphas = []
    for i in range(1, rank + 1):
        vec = _get_floats(cfg, "group", f"alpha_{i}")
        alphas.append(_require(vec, "group", f"alpha_{i}"))
    try:
        return ParabolicGroupSpec(ambient, rank, np.array(alphas, dtype=float))
    except ValueError as exc:
        raise ConfigError(f"config error: [group] {exc}") from exc


def _delta_grid(cfg) -> np.ndarray:
    j_min = _get_int(cfg, "boxdim", "j_min", 6)
    j_max = _get_int(cfg, "boxdim", "j_max", 18)
    if j_min >= j_max:
        raise ConfigError("config error: [boxdim] j_min must be below j_max")
    return 2.0 ** -np.arange(j_min, j_max + 1)


# ---------------------------------------------------------------------------
# artifact emission


def _fmt(x) -> str:
    return repr(float(x))


def _write(out_dir: str, name: str, lines: Iterable[str]) -> Path:
    """Write the lines one at a time, each ended by a newline.

    Orbit CSVs hold up to a million rows; joining them first would make the
    joined text and its encoded copy the command's peak memory.
    """
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
    return path


def _report_json(command: str, cfg_hash: str, payload: dict) -> str:
    doc = {"command": command, "config_hash": cfg_hash}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=True)


def _sample_row(sample) -> str:
    return ",".join([
        _fmt(sample.t), _fmt(sample.lower), _fmt(sample.upper),
        sample.method, str(sample.truncation), _fmt(sample.tail_bound),
    ])


def _estimate_payload(est) -> dict:
    return {
        "lower_dim": est.lower_dim,
        "upper_dim": est.upper_dim,
        "deltas": [float(d) for d in est.deltas],
        "counts": [int(c) for c in est.counts],
        "secant_slopes": [float(s) for s in est.slopes],
        "used_in_window": [bool(u) for u in est.used],
        "saturated": [bool(s) for s in est.saturated],
        "note": est.note,
    }


def _gaps_payload(gb) -> dict:
    return {
        "L_lower": gb.L_lower,
        "L_upper": gb.L_upper,
        "window_min": gb.window_min,
        "window_max": gb.window_max,
        "n_window": list(gb.n_window),
        "fitted_limit": gb.fitted_limit,
        "fit_exponent": gb.fit_exponent,
        "fit_residual": gb.fit_residual,
        "edge_drift": gb.edge_drift,
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_pressure(args, cfg, cfg_hash) -> int:
    partition = _partition_from(cfg, args.truncation)
    grid_raw = _get(cfg, "pressure", "t_grid")
    if grid_raw is not None:
        try:
            start, stop, step = (float(tok) for tok in grid_raw.split(":"))
        except ValueError as exc:
            raise ConfigError("config error: [pressure] t_grid must be start:stop:step") from exc
        if not (step > 0 and stop >= start and math.isfinite(stop - start)):
            raise ConfigError("config error: [pressure] t_grid needs step > 0 and finite start <= stop")
        count = int(round((stop - start) / step)) + 1
        ts = [start + i * step for i in range(count)]
    else:
        ts = _get_floats(cfg, "pressure", "t_list")
        ts = _require(ts, "pressure", "t_list")
    samples = pressure_over_grid(partition, ts)
    lines = ["t,lower,upper,method,truncation,tail_bound"]
    lines.extend(_sample_row(s) for s in samples)
    path = _write(args.out, "pressure.csv", lines)
    print(f"wrote {path} ({len(samples)} rows)")
    return EXIT_OK


def _cmd_s_infinity(args, cfg, cfg_hash) -> int:
    partition = _partition_from(cfg, args.truncation)
    tol = args.tol if args.tol is not None else _get_float(cfg, "sinfinity", "tol", 1e-4)
    est = find_s_infinity(partition, tol=tol)
    payload = {
        "generator": partition.generator,
        "truncation": partition.count,
        "tol": tol,
        "s_low": est.s_low,
        "s_high": est.s_high,
        "status": est.status,
        "divergence_behavior": est.divergence_behavior,
        "evidence": est.evidence,
    }
    path = _write(args.out, "s_infinity.json", [_report_json("s-infinity", cfg_hash, payload)])
    print(f"s_infinity bracket [{_fmt(est.s_low)}, {_fmt(est.s_high)}] ({est.status})")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_bowen(args, cfg, cfg_hash) -> int:
    partition = _partition_from(cfg, args.truncation)
    tol = args.tol if args.tol is not None else _get_float(cfg, "bowen", "tol", 1e-9)
    method = _get(cfg, "bowen", "method", "linear")
    t_low = _get_float(cfg, "bowen", "t_low", 1e-6)
    t_high = _get_float(cfg, "bowen", "t_high", 8.0)
    if method == "linear":
        bracket = bowen_root_linear(partition, t_range=(t_low, t_high), tol=tol)
        extras = {}
    elif method == "cylinder":
        cap = _get_int(cfg, "bowen", "alphabet_cap", 64)
        if cap < 1:
            raise ConfigError(f"config error: [bowen] alphabet_cap must be >= 1 (got {cap})")
        order = _get_int(cfg, "bowen", "order")
        if order is None:
            order = max_cylinder_order(cap)
        bmap = make_branch_map(partition)
        bracket = bowen_root_cylinder(bmap, order, tol=tol, alphabet_cap=cap, t_range=(t_low, t_high))
        extras = {"order": order, "alphabet_cap": cap}
    else:
        raise ConfigError(f"config error: [bowen] method must be linear or cylinder (got {method!r})")
    payload = {
        "generator": partition.generator,
        "truncation": partition.count,
        "tol": tol,
        "method": method,
        "root_low": bracket.lower,
        "root_high": bracket.upper,
        "status": bracket.status,
        "evidence": bracket.evidence,
    }
    payload.update(extras)
    path = _write(args.out, "bowen.json", [_report_json("bowen", cfg_hash, payload)])
    print(f"bowen root in [{_fmt(bracket.lower)}, {_fmt(bracket.upper)}] ({bracket.status})")
    print(f"wrote {path}")
    return EXIT_OK


def _endpoint_cloud(partition) -> PointCloud:
    return PointCloud(partition.endpoints(), "line", f"endpoints({partition.generator})")


def _orbit_cloud(cfg) -> PointCloud:
    group = _group_from(cfg)
    xi = _get_floats(cfg, "orbit", "xi")
    xi = _require(xi, "orbit", "xi")
    radius = _require(_get_int(cfg, "orbit", "radius"), "orbit", "radius")
    try:
        return parabolic_orbit(group, boundary_plane_point(xi), radius)
    except ValueError as exc:
        raise ConfigError(f"config error: [orbit] {exc}") from exc


def _cmd_boxdim(args, cfg, cfg_hash) -> int:
    source = _get(cfg, "boxdim", "source", "endpoints")
    if source == "endpoints":
        cloud = _endpoint_cloud(_partition_from(cfg, args.truncation))
        algorithm = "sorted-sweep"
    elif source == "orbit":
        cloud = _orbit_cloud(cfg)
        algorithm = "grid-cells"
    else:
        raise ConfigError(f"config error: [boxdim] source must be endpoints or orbit (got {source!r})")
    deltas = _delta_grid(cfg)
    est = estimate_box_dimension(cloud, deltas)
    rows = ["delta,count,algorithm"]
    rows.extend(f"{_fmt(d)},{int(c)},{algorithm}" for d, c in zip(est.deltas, est.counts))
    payload = {"source": source, "cloud_size": cloud.count, "label": cloud.label}
    payload.update(_estimate_payload(est))
    path_csv = _write(args.out, "boxdim_counts.csv", rows)
    path_json = _write(args.out, "boxdim.json", [_report_json("boxdim", cfg_hash, payload)])
    print(f"box dimension window [{_fmt(est.lower_dim)}, {_fmt(est.upper_dim)}]")
    print(f"wrote {path_csv}")
    print(f"wrote {path_json}")
    return EXIT_OK


def _cmd_gaps(args, cfg, cfg_hash) -> int:
    partition = _partition_from(cfg, args.truncation)
    n_min = _get_int(cfg, "gaps", "n_min", 16)
    gb = gap_exponent_bounds(partition, n_min=n_min)
    payload = {"generator": partition.generator, "truncation": partition.count}
    payload.update(_gaps_payload(gb))
    path = _write(args.out, "gaps.json", [_report_json("gaps", cfg_hash, payload)])
    print(f"gap exponent bounds [{_fmt(gb.L_lower)}, {_fmt(gb.L_upper)}]")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_orbit(args, cfg, cfg_hash) -> int:
    cloud = _orbit_cloud(cfg)
    dim = cloud.points.shape[1]
    header = ",".join(f"x{i+1}" for i in range(dim))
    rows = (",".join(map(repr, row.tolist())) for row in cloud.points)
    path = _write(args.out, "orbit.csv", itertools.chain([header], rows))
    print(f"wrote {path} ({cloud.count} unit vectors)")
    return EXIT_OK


def _cmd_poincare(args, cfg, cfg_hash) -> int:
    group = _group_from(cfg)
    s = _require(_get_float(cfg, "poincare", "s"), "poincare", "s")
    radius = _require(_get_int(cfg, "poincare", "radius"), "poincare", "radius")
    try:
        sample = poincare_partial(group, s, radius)
    except ValueError as exc:
        raise ConfigError(f"config error: [poincare] {exc}") from exc
    payload = {
        "s": sample.s,
        "partial_sum": sample.partial_sum,
        "radius": sample.radius,
        "tail_classification": sample.tail_classification,
        "tail_bound": sample.tail_bound,
        "evidence": sample.evidence,
        "ambient": group.ambient,
        "rank": group.rank,
    }
    path = _write(args.out, "poincare.json", [_report_json("poincare", cfg_hash, payload)])
    print(f"partial sum {_fmt(sample.partial_sum)} ({sample.tail_classification})")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_counting(args, cfg, cfg_hash) -> int:
    group = _group_from(cfg)
    t_max = _get_float(cfg, "counting", "t_max", 25.0)
    levels = _get_int(cfg, "counting", "levels", 50)
    try:
        fn = counting_exponent(group, t_max=t_max, levels=levels)
    except ValueError as exc:
        raise ConfigError(f"config error: [counting] {exc}") from exc
    rows = ["t,count,slope"]
    rows.extend(
        f"{_fmt(t)},{int(c)},{_fmt(s)}"
        for t, c, s in zip(fn.thresholds, fn.counts, fn.slopes)
    )
    payload = {
        "ambient": group.ambient,
        "rank": group.rank,
        "t_max": t_max,
        "levels": levels,
        "final_slope": fn.final_slope,
    }
    path_csv = _write(args.out, "counting.csv", rows)
    path_json = _write(args.out, "counting.json", [_report_json("counting", cfg_hash, payload)])
    print(f"final slope {_fmt(fn.final_slope)}")
    print(f"wrote {path_csv}")
    print(f"wrote {path_json}")
    return EXIT_OK


def _assertion(name: str, status: str, detail: str) -> dict:
    print(f"{status}: {name} ({detail})")
    return {"name": name, "status": status, "detail": detail}


def _overall(assertions) -> tuple[str, int]:
    statuses = {a["status"] for a in assertions}
    if FAIL in statuses:
        return FAIL, EXIT_ASSERTION
    if INCONCLUSIVE in statuses:
        return INCONCLUSIVE, EXIT_OK
    return PASS, EXIT_OK


def _cmd_verify_main(args, cfg, cfg_hash) -> int:
    partition = _partition_from(cfg, args.truncation)
    tol = args.tol if args.tol is not None else _get_float(cfg, "sinfinity", "tol", 1e-4)
    pad = _get_float(cfg, "verify", "pad", 0.05)
    est = find_s_infinity(partition, tol=tol)
    gb = gap_exponent_bounds(partition, n_min=_get_int(cfg, "gaps", "n_min", 16))
    drift = gb.edge_drift
    eps = est.width + drift
    s_mid = est.midpoint
    assertions = []

    chain_ok = (gb.L_lower - eps <= s_mid) and (s_mid <= gb.L_upper + eps)
    assertions.append(_assertion(
        "gap-bounds sandwich s_infinity",
        PASS if chain_ok else FAIL,
        f"L=[{gb.L_lower:.6f}, {gb.L_upper:.6f}], s={s_mid:.6f}, eps={eps:.6f}",
    ))

    box_payload = None
    note = ""
    try:
        cloud = _endpoint_cloud(partition)
        box = estimate_box_dimension(cloud, _delta_grid(cfg))
        box_payload = _estimate_payload(box)
        sandwich_ok = (box.lower_dim >= gb.L_lower - eps - pad) and (
            box.upper_dim <= gb.L_upper + eps + pad)
        assertions.append(_assertion(
            "box-dimension window within gap bounds",
            PASS if sandwich_ok else FAIL,
            f"box=[{box.lower_dim:.6f}, {box.upper_dim:.6f}], pad={pad:.3f}",
        ))
        # the gap extrapolation distance measures how far the delta window
        # is from the asymptotic regime for this set; an inequality miss
        # inside that lag is a resolution limit, not a refutation
        lag = max(0.0, gb.L_upper - gb.window_max)
        if s_mid <= box.upper_dim + eps + pad:
            status = PASS
        elif s_mid <= box.upper_dim + eps + pad + lag:
            status = INCONCLUSIVE
        else:
            status = FAIL
        assertions.append(_assertion(
            "s_infinity at most the upper box dimension",
            status,
            f"s={s_mid:.6f} vs {box.upper_dim:.6f} + {eps + pad:.4f} "
            f"(finite-size lag {lag:.4f})",
        ))
        if gb.spread < 0.1:
            eq_ok = abs(s_mid - box.midpoint) <= eps + pad + 0.5 * (
                box.upper_dim - box.lower_dim)
            assertions.append(_assertion(
                "s_infinity equals the box dimension",
                PASS if eq_ok else FAIL,
                f"|{s_mid:.6f} - box midpoint {box.midpoint:.6f}| within combined tolerance",
            ))
        else:
            note = (f"gap window spread {gb.spread:.4f} >= 0.1: box dimension does not "
                    "exist at this resolution; inequality asserted only")
            print(f"note: {note}")
    except ValueError as exc:
        assertions.append(_assertion("box-dimension estimate", INCONCLUSIVE, str(exc)))

    overall, code = _overall(assertions)
    payload = {
        "generator": partition.generator,
        "truncation": partition.count,
        "tol": tol,
        "pad": pad,
        "s_infinity": {
            "s_low": est.s_low, "s_high": est.s_high,
            "status": est.status, "divergence_behavior": est.divergence_behavior,
        },
        "gap_bounds": _gaps_payload(gb),
        "box_dimension": box_payload,
        "assertions": assertions,
        "note": note,
        "overall": overall,
    }
    path = _write(args.out, "verify_main.json", [_report_json("verify-main", cfg_hash, payload)])
    print(f"overall: {overall}")
    print(f"wrote {path}")
    return code


def _cmd_verify_hdim(args, cfg, cfg_hash) -> int:
    group = _group_from(cfg)
    tol = args.tol if args.tol is not None else _get_float(cfg, "verify", "exponent_tol", 0.01)
    agreement = _get_float(cfg, "verify", "agreement", 0.1)
    est = critical_exponent(group, tol=tol)
    t_max = _get_float(cfg, "counting", "t_max", 25.0)
    levels = _get_int(cfg, "counting", "levels", 50)
    fn = counting_exponent(group, t_max=t_max, levels=levels)
    cloud = _orbit_cloud(cfg)
    box = estimate_box_dimension(cloud, _delta_grid(cfg))

    values = {
        "exponent_bracket_midpoint": est.midpoint,
        "counting_final_slope": fn.final_slope,
        "orbit_dimension_midpoint": box.midpoint,
    }
    spread = max(values.values()) - min(values.values())
    assertions = [_assertion(
        "three-way agreement of exponent, counting slope, orbit dimension",
        PASS if spread <= agreement else FAIL,
        ", ".join(f"{k}={v:.6f}" for k, v in sorted(values.items())) + f"; spread={spread:.6f}",
    )]
    overall, code = _overall(assertions)
    payload = {
        "ambient": group.ambient,
        "rank": group.rank,
        "tol": tol,
        "agreement": agreement,
        "exponent_bracket": [est.s_low, est.s_high],
        "counting_final_slope": fn.final_slope,
        "orbit_dimension": [box.lower_dim, box.upper_dim],
        "orbit_cloud_size": cloud.count,
        "three_way_spread": spread,
        "assertions": assertions,
        "overall": overall,
    }
    path = _write(args.out, "verify_hdim.json", [_report_json("verify-hdim", cfg_hash, payload)])
    print(f"overall: {overall}")
    print(f"wrote {path}")
    return code


# ---------------------------------------------------------------------------
# geometry selftest


def _cmd_selftest(args, cfg, cfg_hash) -> int:
    trials = 10_000 if cfg is None else _get_int(cfg, "selftest", "trials", 10_000)
    if trials < 1:
        raise ConfigError(f"config error: [selftest] trials must be >= 1 (got {trials})")
    results = identity_suite(trials, np.random.default_rng(20260813))
    all_ok = all(res["passed"] == res["total"] for res in results)
    for res in results:
        print(f"{res['name']}: {res['passed']}/{res['total']} within {res['tolerance']:g} "
              f"(max error {res['max_error']:.3e})")
    if args.out is not None:
        payload = {"trials": trials, "results": results, "overall": PASS if all_ok else FAIL}
        path = _write(args.out, "selftest.json", [_report_json("selftest", cfg_hash or "", payload)])
        print(f"wrote {path}")
    print(f"overall: {PASS if all_ok else FAIL}")
    return EXIT_OK if all_ok else EXIT_ASSERTION


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "pressure": (_cmd_pressure, True),
    "s-infinity": (_cmd_s_infinity, True),
    "bowen": (_cmd_bowen, True),
    "boxdim": (_cmd_boxdim, True),
    "gaps": (_cmd_gaps, True),
    "orbit": (_cmd_orbit, True),
    "poincare": (_cmd_poincare, True),
    "counting": (_cmd_counting, True),
    "verify-main": (_cmd_verify_main, True),
    "verify-hdim": (_cmd_verify_hdim, True),
    "selftest": (_cmd_selftest, False),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="presdim",
        description="Pressure, critical exponents, and box dimensions for interval "
                    "partitions and parabolic groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_config) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config, default=None,
                       help="INI config file driving the run")
        p.add_argument("--out", default=None if name == "selftest" else ".",
                       help="output directory for CSV/JSON artifacts")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect (every command "
                            "runs serially)")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance override for the relevant computation")
        p.add_argument("--truncation", type=int, default=None,
                       help="partition truncation override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if args.tol is not None and args.tol <= 0:
        print("error: --tol must be positive", file=sys.stderr)
        return EXIT_CONFIG
    handler, _ = _COMMANDS[args.command]
    cfg = None
    cfg_hash = None
    try:
        if args.config is not None:
            cfg, cfg_hash = _load_config(args.config)
        return handler(args, cfg, cfg_hash)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
