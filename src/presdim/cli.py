"""Command-line front end: config ingestion, computations, CSV/JSON artifacts.

Every run is driven by one INI config file; flags only select the config
and the output directory.  `--threads` is accepted and has no effect: every
command runs serially.  Reports embed the config hash, truncations, and
tolerances.  Outputs are deterministic: identical configs produce
byte-identical files.

Exit codes: 0 success (including mathematically inconclusive verification),
1 failed verification assertion, 2 usage or config error.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .boxdim import (
    PointCloud,
    estimate_box_dimension,
    gap_exponent_bounds,
)
from .hyperbolic import ParabolicGroupSpec, identity_suite, parabolic_orbit
from .interval_partition import build_partition, make_branch_map, max_cylinder_order
from .poincare import counting_exponent, critical_exponent, poincare_partial
from .pressure import (
    bowen_root_cylinder,
    bowen_root_linear,
    find_s_infinity,
    pressure_linear,
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


REQUIRED = object()


def _numbers(raw: str) -> list[float]:
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _integers(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


# how a value that `kind` cannot parse is reported
_MUST = {int: "be an integer", float: "be a number", _numbers: "list numbers", _integers: "list integers"}


def _get(cfg: configparser.ConfigParser, section: str, key: str, kind=str, default=None):
    """[section] key parsed by `kind`; `default` when absent, unless it is REQUIRED."""
    if not cfg.has_option(section, key):
        if default is REQUIRED:
            raise ConfigError(f"config error: missing [{section}] {key}")
        return default
    raw = cfg.get(section, key).strip()
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"config error: [{section}] {key} must {_MUST[kind]} (got {raw!r})") from exc


@contextlib.contextmanager
def _section(name: str):
    """Report a library ValueError raised inside as a config error of [name]."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"config error: [{name}] {exc}") from exc


def _margin(cfg, key: str, default: float) -> float:
    """[verify] key, a finite nonnegative margin of a verdict."""
    value = _get(cfg, "verify", key, float, default)
    if not 0 <= value < math.inf:
        raise ConfigError(f"config error: [verify] {key} must be finite and nonnegative (got {value!r})")
    return value


def _partition_from(cfg):
    generator = _get(cfg, "partition", "generator", default=REQUIRED)
    truncation = _get(cfg, "partition", "truncation", int, 100_000)
    exponent = _get(cfg, "partition", "exponent", float)
    digits = _get(cfg, "partition", "digits", _integers)
    with _section("partition"):
        return build_partition(generator, truncation, exponent=exponent, digits=digits)


def _group_from(cfg) -> ParabolicGroupSpec:
    ambient = _get(cfg, "group", "ambient", int, REQUIRED)
    rank = _get(cfg, "group", "rank", int, REQUIRED)
    alphas = [_get(cfg, "group", f"alpha_{i}", _numbers, REQUIRED) for i in range(1, rank + 1)]
    with _section("group"):
        return ParabolicGroupSpec(ambient, rank, np.array(alphas, dtype=float))


def _counting_from(cfg, group: ParabolicGroupSpec):
    """(t_max, levels, counting function) from the [counting] section."""
    t_max = _get(cfg, "counting", "t_max", float, 25.0)
    levels = _get(cfg, "counting", "levels", int, 50)
    with _section("counting"):
        return t_max, levels, counting_exponent(group, t_max=t_max, levels=levels)


def _box_estimate(cloud: PointCloud, cfg):
    """Box-dimension estimate of `cloud` on the [boxdim] grid delta = 2^-j."""
    j_min = _get(cfg, "boxdim", "j_min", int, 6)
    j_max = _get(cfg, "boxdim", "j_max", int, 18)
    if j_min >= j_max:
        raise ConfigError("config error: [boxdim] j_min must be below j_max")
    # a delta past the float range is inf, which covering_counts rejects by name
    with _section("boxdim"), np.errstate(over="ignore"):
        return estimate_box_dimension(cloud, 2.0 ** -np.arange(j_min, j_max + 1))


# ---------------------------------------------------------------------------
# artifact emission


def _fmt(x) -> str:
    return repr(float(x))


_POW5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)  # 5^27 < 2^63
_E8, _E16, _E17 = np.uint64(10 ** 8), np.uint64(10 ** 16), np.uint64(10 ** 17)
# bytes 4-7 of a cell's third word, 'e', the sign and two digits of p, for the decimal exponents p = -11..1
_EXPONENTS = np.array([ord("e") | ord("-+"[p >= 0]) << 8 | (48 + abs(p) // 10) << 16 | (48 + abs(p) % 10) << 24
                       for p in range(-11, 2)], dtype=np.uint64) << np.uint64(32)
# as fast as larger blocks; 2^12 and 2^14 rows fragment the heap, lifting a long run's peak memory
_ROW_BLOCK = 1 << 11


def _digits8(x: np.ndarray) -> np.ndarray:
    """format(x, '08d') for uint64 x < 10^8, as the 8 ASCII bytes of one uint64 each, first digit lowest.

    SWAR (SIMD within a register): x // 10^4 goes to the low 32-bit lane and x % 10^4 to the high
    one; each lane is split by 100 with (v * 10486) >> 20, exact below 10^4, into two 16-bit lanes,
    and each of those by 10 with (v * 103) >> 10, exact below 100, into two bytes.  No lane's
    product reaches the next lane, and the mask drops what the shift brings down from it.
    """
    high = x // np.uint64(10 ** 4)
    v = high | ((x - high * np.uint64(10 ** 4)) << np.uint64(32))
    q = ((v * np.uint64(10486)) >> np.uint64(20)) & np.uint64(0x0000007F0000007F)
    v = q | ((v - q * np.uint64(100)) << np.uint64(16))
    q = ((v * np.uint64(103)) >> np.uint64(10)) & np.uint64(0x000F000F000F000F)
    return (q | ((v - q * np.uint64(10)) << np.uint64(8))) + np.uint64(0x3030303030303030)


def _e16_rows(points: np.ndarray) -> Iterator[bytes]:
    """CSV rows of `points`, every cell exactly format(v, '.16e'), as ASCII blocks of _ROW_BLOCK rows.

    17 significant digits round-trip every double through float().  For 1e-11 <= |v| < 10 they come
    from integer arithmetic on whole arrays: |v| = m 2^(e - 53) with m the 53-bit mantissa, and the
    digits are D = |v| 10^k rounded half to even, k = 16 - p for the decimal exponent p; m 5^k < 2^116
    is formed exactly in two uint64 halves from 32-bit limbs (5^27 < 2^63), and D is that product
    over 2^s, s = 53 - e - k, 32 <= s <= 63.  log10 only guesses p: the exact floor of |v| 10^k lies in
    [10^16, 10^17) just when the guess is right, and a guess one off is redone.  Every other value
    (zeros, non-finite, out of that range) goes through format().  Each cell is built in 32 bytes,
    four little-endian uint64 words: a NUL, the sign (NUL if positive), the lead digit, '.', the
    two 8-digit halves of the rest (`_digits8`), 'e', the exponent's sign and two digits, the
    separator and 7 NULs; a format() cell is right-aligned in the first 24 bytes.  The block drops
    every NUL with one `bytes.translate`.
    """
    sep = np.full(points.shape[1], ord(","), dtype=np.uint64)
    sep[-1] = ord("\n")
    for start in range(0, len(points), _ROW_BLOCK):
        v = points[start:start + _ROW_BLOCK].ravel()
        a = np.abs(v)
        fast = (a >= 1e-11) & (a < 10.0)
        a = np.where(fast, a, 1.0)
        mant, e = np.frexp(a)
        m = np.ldexp(mant, 53).astype(np.uint64)
        m1, m0 = m >> 32, m & 0xFFFFFFFF
        k = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 16, 27)
        for _ in range(2):
            f = _POW5[k]
            f1, f0 = f >> 32, f & 0xFFFFFFFF
            low, mid = m0 * f0, m1 * f0 + m0 * f1  # mid < 2^53 + 2^63
            lo = low + (mid << 32)
            hi = m1 * f1 + (mid >> 32) + (lo < low)
            s = (53 - e - k).astype(np.uint64)
            floor = (hi << (64 - s)) | (lo >> s)
            below, above = floor < _E16, floor >= _E17
            if not (below | above).any():
                break
            k = np.clip(k + below - above, 16, 27)  # a k out of range leaves floor out of range
        fast &= ~(below | above)
        rest, half = lo & ((np.uint64(1) << s) - 1), np.uint64(1) << (s - 1)
        d = floor + ((rest > half) | ((rest == half) & ((floor & 1) == 1)))
        carry = d == _E17  # |v| 10^k >= 10^17 - 1/2 rounds to 1.0000000000000000 at the next exponent
        d[carry] = _E16
        p = 16 - k + carry
        lead, eights = d // _E16, d // _E8  # remainders by a multiply-subtract, cheaper than np.divmod
        first, second = _digits8(eights - lead * _E8), _digits8(d - eights * _E8)
        words = np.empty((v.size, 4), dtype="<u8")  # little-endian on any host
        words[:, 0] = np.signbit(v) * np.uint64(ord("-") << 8) | (lead + ord("0")) << 16 | ord(".") << 24 | first << 32
        words[:, 1] = first >> 32 | second << 32
        words[:, 2] = second >> 32 | _EXPONENTS[p + 11]
        words[:, 3] = np.tile(sep, len(v) // len(sep))
        cells = words.view(np.uint8)
        for i in np.flatnonzero(~fast).tolist():
            text = format(float(v[i]), ".16e").encode()
            cells[i, :24] = np.frombuffer(text.rjust(24, b"\0"), dtype=np.uint8)
        yield cells.tobytes().translate(None, b"\0")


def _emit(args, name: str, lines: Iterable[str | bytes], note: str = "") -> None:
    """Write `name` under --out, then print where.

    A str is one line and gets its newline; bytes are a block of whole lines, written as they
    are.  `orbit.csv` comes as blocks (`_e16_rows`), so its text, up to a million rows, is never
    held at once.
    """
    path = Path(args.out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        for line in lines:
            fh.write(line if isinstance(line, bytes) else (line + "\n").encode())
    print(f"wrote {path} ({note})" if note else f"wrote {path}")


def _emit_json(args, cfg_hash: str, name: str, payload: dict) -> None:
    doc = {"command": args.command, "config_hash": cfg_hash}
    doc.update(payload)
    _emit(args, name, [json.dumps(doc, sort_keys=True, indent=2, allow_nan=True)])


def _sample_row(sample) -> str:
    return ",".join([
        _fmt(sample.t), _fmt(sample.lower), _fmt(sample.upper),
        "linear-series", str(sample.truncation), _fmt(sample.tail_bound),
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
    partition = _partition_from(cfg)
    grid_raw = _get(cfg, "pressure", "t_grid")
    if grid_raw is not None:
        try:
            start, stop, step = (float(tok) for tok in grid_raw.split(":"))
        except ValueError as exc:
            raise ConfigError("config error: [pressure] t_grid must be start:stop:step") from exc
        if not (step > 0 and stop >= start and math.isfinite((stop - start) / step)):
            raise ConfigError("config error: [pressure] t_grid needs step > 0, finite start <= stop "
                              "and a finite number of steps")
        count = int(round((stop - start) / step)) + 1
        ts = [start + i * step for i in range(count)]
    else:
        ts = _get(cfg, "pressure", "t_list", _numbers, REQUIRED)
    with _section("pressure"):
        samples = [pressure_linear(partition, t) for t in ts]
    lines = ["t,lower,upper,method,truncation,tail_bound"]
    lines.extend(_sample_row(s) for s in samples)
    _emit(args, "pressure.csv", lines, f"{len(samples)} rows")
    return EXIT_OK


def _cmd_s_infinity(args, cfg, cfg_hash) -> int:
    partition = _partition_from(cfg)
    tol = _get(cfg, "sinfinity", "tol", float, 1e-4)
    with _section("sinfinity"):
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
    print(f"s_infinity bracket [{_fmt(est.s_low)}, {_fmt(est.s_high)}] ({est.status})")
    _emit_json(args, cfg_hash, "s_infinity.json", payload)
    return EXIT_OK


def _cmd_bowen(args, cfg, cfg_hash) -> int:
    partition = _partition_from(cfg)
    tol = _get(cfg, "bowen", "tol", float, 1e-9)
    method = _get(cfg, "bowen", "method", default="linear")
    t_low = _get(cfg, "bowen", "t_low", float, 1e-6)
    t_high = _get(cfg, "bowen", "t_high", float, 8.0)
    with _section("bowen"):
        if method == "linear":
            bracket = bowen_root_linear(partition, t_range=(t_low, t_high), tol=tol)
            extras = {}
        elif method == "cylinder":
            cap = _get(cfg, "bowen", "alphabet_cap", int, 64)
            if cap < 1:
                raise ConfigError(f"config error: [bowen] alphabet_cap must be >= 1 (got {cap})")
            order = _get(cfg, "bowen", "order", int)
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
    print(f"bowen root in [{_fmt(bracket.lower)}, {_fmt(bracket.upper)}] ({bracket.status})")
    _emit_json(args, cfg_hash, "bowen.json", payload)
    return EXIT_OK


def _endpoint_cloud(partition) -> PointCloud:
    return PointCloud(partition.endpoints(), "line", f"endpoints({partition.generator})")


def _orbit_cloud(cfg) -> PointCloud:
    group = _group_from(cfg)
    xi = _get(cfg, "orbit", "xi", _numbers, REQUIRED)
    radius = _get(cfg, "orbit", "radius", int, REQUIRED)
    with _section("orbit"):
        return parabolic_orbit(group, xi, radius)


def _cmd_boxdim(args, cfg, cfg_hash) -> int:
    source = _get(cfg, "boxdim", "source", default="endpoints")
    if source == "endpoints":
        cloud = _endpoint_cloud(_partition_from(cfg))
    elif source == "orbit":
        cloud = _orbit_cloud(cfg)
    else:
        raise ConfigError(f"config error: [boxdim] source must be endpoints or orbit (got {source!r})")
    est = _box_estimate(cloud, cfg)
    rows = ["delta,count,algorithm"]
    rows.extend(f"{_fmt(d)},{int(c)},grid-cells" for d, c in zip(est.deltas, est.counts))
    payload = {"source": source, "cloud_size": cloud.count, "label": cloud.label}
    payload.update(_estimate_payload(est))
    print(f"box dimension window [{_fmt(est.lower_dim)}, {_fmt(est.upper_dim)}]")
    _emit(args, "boxdim_counts.csv", rows)
    _emit_json(args, cfg_hash, "boxdim.json", payload)
    return EXIT_OK


def _cmd_gaps(args, cfg, cfg_hash) -> int:
    partition = _partition_from(cfg)
    with _section("gaps"):
        gb = gap_exponent_bounds(partition, n_min=_get(cfg, "gaps", "n_min", int, 16))
    payload = {"generator": partition.generator, "truncation": partition.count}
    payload.update(_gaps_payload(gb))
    print(f"gap exponent bounds [{_fmt(gb.L_lower)}, {_fmt(gb.L_upper)}]")
    _emit_json(args, cfg_hash, "gaps.json", payload)
    return EXIT_OK


def _row_order(pts: np.ndarray) -> np.ndarray:
    """np.lexsort(pts.T[::-1]), the rows' lexicographic order, ties by index, from one float sort.

    An argsort on x1 puts each row where lexsort does, except among rows whose x1 equals a
    neighbour's; those alone are lexsorted on every coordinate, then on the row index, which the
    unstable sort left in no order, and written back into the positions they held.
    """
    order = np.argsort(pts[:, 0])
    x1 = pts[order, 0]
    tied = np.zeros(len(order), dtype=bool)
    np.equal(x1[1:], x1[:-1], out=tied[1:])
    tied[:-1] |= tied[1:]
    rows = order[tied]
    order[tied] = rows[np.lexsort((rows, *pts[rows].T[::-1]))]
    return order


def _cmd_orbit(args, cfg, cfg_hash) -> int:
    pts = _orbit_cloud(cfg).points
    # rows in lexicographic order; rebinding frees the unsorted array
    pts = pts[_row_order(pts)]
    header = ",".join(f"x{i+1}" for i in range(pts.shape[1]))
    _emit(args, "orbit.csv", itertools.chain([header], _e16_rows(pts)), f"{pts.shape[0]} unit vectors")
    return EXIT_OK


def _cmd_poincare(args, cfg, cfg_hash) -> int:
    group = _group_from(cfg)
    s = _get(cfg, "poincare", "s", float, REQUIRED)
    radius = _get(cfg, "poincare", "radius", int, REQUIRED)
    with _section("poincare"):
        sample = poincare_partial(group, s, radius)
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
    print(f"partial sum {_fmt(sample.partial_sum)} ({sample.tail_classification})")
    _emit_json(args, cfg_hash, "poincare.json", payload)
    return EXIT_OK


def _cmd_counting(args, cfg, cfg_hash) -> int:
    group = _group_from(cfg)
    t_max, levels, fn = _counting_from(cfg, group)
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
    print(f"final slope {_fmt(fn.final_slope)}")
    _emit(args, "counting.csv", rows)
    _emit_json(args, cfg_hash, "counting.json", payload)
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
    partition = _partition_from(cfg)
    tol = _get(cfg, "sinfinity", "tol", float, 1e-4)
    pad = _margin(cfg, "pad", 0.05)
    with _section("sinfinity"):
        est = find_s_infinity(partition, tol=tol)
    with _section("gaps"):
        gb = gap_exponent_bounds(partition, n_min=_get(cfg, "gaps", "n_min", int, 16))
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

    note = ""
    box = _box_estimate(_endpoint_cloud(partition), cfg)
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
        "box_dimension": _estimate_payload(box),
        "assertions": assertions,
        "note": note,
        "overall": overall,
    }
    print(f"overall: {overall}")
    _emit_json(args, cfg_hash, "verify_main.json", payload)
    return code


def _cmd_verify_hdim(args, cfg, cfg_hash) -> int:
    group = _group_from(cfg)
    tol = _get(cfg, "verify", "exponent_tol", float, 0.01)
    agreement = _margin(cfg, "agreement", 0.1)
    with _section("verify"):
        est = critical_exponent(group, tol=tol)
    fn = _counting_from(cfg, group)[2]
    cloud = _orbit_cloud(cfg)
    box = _box_estimate(cloud, cfg)

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
    print(f"overall: {overall}")
    _emit_json(args, cfg_hash, "verify_hdim.json", payload)
    return code


# ---------------------------------------------------------------------------
# geometry selftest


def _cmd_selftest(args, cfg, cfg_hash) -> int:
    trials = _get(cfg, "selftest", "trials", int, 10_000)
    with _section("selftest"):
        results = identity_suite(trials, np.random.default_rng(20260813))
    all_ok = all(res["passed"] == res["total"] for res in results)
    for res in results:
        print(f"{res['name']}: {res['passed']}/{res['total']} within {res['tolerance']:g} "
              f"(max error {res['max_error']:.3e})")
    if args.out is not None:
        payload = {"trials": trials, "results": results, "overall": PASS if all_ok else FAIL}
        _emit_json(args, cfg_hash, "selftest.json", payload)
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
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="INI config file driving the run (optional for selftest)")
    parser.add_argument("--out", help="output directory for CSV/JSON artifacts (default '.'; none for selftest)")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect (every command runs serially)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, needs_config = _COMMANDS[args.command]
    if needs_config and args.out is None:
        args.out = "."
    try:
        if needs_config and args.config is None:
            raise ConfigError(f"--config is required for {args.command}")
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        cfg, cfg_hash = (configparser.ConfigParser(), "") if args.config is None else _load_config(args.config)
        return handler(args, cfg, cfg_hash)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
