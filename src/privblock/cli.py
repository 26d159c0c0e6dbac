"""Command-line entry points: run a party, micro-benchmark a protocol, or
emit approximation-accuracy tables.

Exit codes: 0 success, 2 configuration error, 3 protocol error, 4 I/O error
(including a malformed key or ciphertext from the peer).
"""

from __future__ import annotations

import argparse
import csv
import io
import resource
import sys
import time
from dataclasses import replace

import numpy as np

from . import approx
from . import fixedpoint as fp
from .channel import (PROFILES, HandshakeMismatch, IoError, NetworkProfile,
                      connect, run_pair)
from .hecore import MalformedBytes, NoiseExhausted
from .modarith import matmod
from .model import (BlockWeights, dump_weights, infer_block, load_weights,
                    oracle_block, oracle_layernorm, oracle_softmax, toy_block_config)
from .params import Config, ParamError
from .protocols import (DegenerateRow, LnParams, ShapeMismatch, make_party,
                        pi_gelu, pi_ln, pi_matmul, pi_matmul_shared,
                        pi_softmax)
from .sharing import RangeError, reconstruct, share

EXIT_CONFIG, EXIT_PROTOCOL, EXIT_IO = 2, 3, 4

PROTOCOLS = ("matmul", "mmshared", "softmax", "ln", "gelu", "block")


def _profile(args) -> NetworkProfile:
    """The named profile with the given --bandwidth/--latency in place."""
    given = {"bandwidth": args.bandwidth, "latency": args.latency}
    return replace(PROFILES[args.profile],
                   **{k: v for k, v in given.items() if v is not None})


def _config(args) -> Config:
    cfg = Config.load(args.config) if args.config else Config()
    if getattr(args, "backend", None):
        cfg.he_backend = args.backend
    return cfg


def _parse_shape(text: str, want: int) -> tuple:
    parts = tuple(int(x) for x in text.lower().split("x"))
    if len(parts) != want:
        raise ParamError(f"shape needs {want} dimensions, got {text!r}")
    return parts


def _gen_inputs(protocol: str, shape, cfg: Config, seed: int):
    """Deterministic per-seed protocol inputs (both parties derive the same
    split so --local runs can verify against the plaintext oracle)."""
    fpc = cfg.fixedpoint
    rng = np.random.default_rng(np.random.SeedSequence([seed, 71]))
    if protocol == "matmul":
        m, n, h = shape
        a = rng.integers(0, fpc.p, size=(m, n), dtype=np.uint64)
        b = rng.integers(0, fpc.p, size=(n, h), dtype=np.uint64)
        return {"A": a, "B": b}
    if protocol == "mmshared":
        m, n, h = shape
        q = rng.integers(0, 1 << 24, size=(m, n), dtype=np.uint64)
        k = rng.integers(0, 1 << 24, size=(h, n), dtype=np.uint64)
        qa, qb = share(q.ravel(), "field", fpc, rng)
        ka, kb = share(k.ravel(), "field", fpc, rng)
        return {"A": (qa, ka), "B": (qb, kb), "plain": (q, k)}
    if protocol == "softmax":
        m, d = shape
        x = rng.uniform(-5, 0, size=(m, d))
        xa, xb = share(fp.encode_int(x, fpc, "ring", fpc.s).ravel(), "ring", fpc, rng)
        return {"A": xa, "B": xb, "plain": x}
    if protocol == "ln":
        m, n = shape
        x = rng.normal(0.0, 1.0, size=(m, n))
        gamma = rng.uniform(0.5, 1.5, n)
        beta = rng.uniform(-1.0, 1.0, n)
        xa, xb = share(fp.encode_int(x, fpc, "ring", fpc.s).ravel(), "ring", fpc, rng)
        return {"A": xa, "B": xb, "plain": (x, gamma, beta),
                "params": LnParams(gamma, beta)}
    if protocol == "gelu":
        m, w = shape
        x = rng.uniform(-8, 8, size=(m, w))
        xa, xb = share(fp.encode_int(x, fpc, "field", fpc.s).ravel(), "field", fpc, rng)
        return {"A": xa, "B": xb, "plain": x}
    raise ParamError(f"unknown protocol {protocol!r}")


def _run_protocol(ctx, protocol, shape, inputs, block_weights=None,
                  block_cfg=None):
    role = ctx.role
    if protocol == "matmul":
        return pi_matmul(ctx, inputs[role], shape)
    if protocol == "mmshared":
        m, n, h = shape
        q, k = inputs[role]
        return pi_matmul_shared(ctx, q, k, (m, n), (h, n))
    if protocol == "softmax":
        return pi_softmax(ctx, inputs[role], shape)
    if protocol == "ln":
        return pi_ln(ctx, inputs[role], shape,
                     inputs["params"] if role == "B" else None)
    if protocol == "gelu":
        return pi_gelu(ctx, inputs[role], shape)
    if protocol == "block":
        x = inputs["plain"]
        return infer_block(ctx, x if role == "A" else None,
                           block_weights if role == "B" else None, block_cfg)
    raise ParamError(f"unknown protocol {protocol!r}")


def _block_setup(args, cfg, seed):
    bc = toy_block_config()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9]))
    weights = (load_weights(args.weights) if getattr(args, "weights", None)
               else BlockWeights.random(bc, rng))
    if getattr(args, "weights", None):
        bc = weights.config
    x = rng.normal(0.0, 1.0, size=(bc.d_s, bc.d_m))
    return bc, weights, {"plain": x}


def _verify(protocol, shape, inputs, out_a, out_b, cfg, block=None):
    """Plaintext-oracle check for --local runs; returns max abs error."""
    fpc = cfg.fixedpoint
    rec = reconstruct(out_a.share, out_b.share)
    val = fp.decode_int(rec, fpc, "field", out_a.scale).reshape(out_a.shape)
    if protocol in ("matmul", "mmshared"):
        if protocol == "matmul":
            a, b = inputs["A"], inputs["B"]
        else:
            a, b = inputs["plain"][0], inputs["plain"][1].T
        exact = np.array_equal(rec.reshape(out_a.shape), matmod(a, b, fpc.p))
        return 0.0 if exact else float("inf")
    if protocol == "softmax":
        return float(np.abs(val - oracle_softmax(inputs["plain"])).max())
    if protocol == "ln":
        return float(np.abs(val - oracle_layernorm(*inputs["plain"])).max())
    if protocol == "gelu":
        xe = np.round(inputs["plain"] * (1 << fpc.s)).astype(np.int64)
        ref = approx.eval_on_grid(approx.GELU_TABLE, xe, fpc.s)
        return float(np.abs(val - ref).max())
    if protocol == "block":
        bc, weights = block
        ref = oracle_block(inputs["plain"], weights, bc)
        return float(np.abs(val - ref).max())
    return float("nan")


def run_once(args, cfg: Config, profile: NetworkProfile, seed: int):
    """One full two-party execution; returns (report, max_err, wall, dims):
    dims is the --shape, or d_s,d_m,h,d_k,d_f for the block."""
    protocol = args.protocol
    block_cfg = weights = None
    if protocol == "block":
        block_cfg, weights, inputs = _block_setup(args, cfg, seed)
        shape = (block_cfg.d_s, block_cfg.d_m)
        dims = ",".join(map(str, block_cfg.to_tuple()))
    else:
        want = 3 if protocol in ("matmul", "mmshared") else 2
        dims = args.shape or ("8x8x8" if want == 3 else "8x8")
        shape = _parse_shape(dims, want)
        inputs = _gen_inputs(protocol, shape, cfg, seed)

    def party(role):
        def run(sess):
            ctx = make_party(role, sess, cfg, seed)
            return _run_protocol(ctx, protocol, shape, inputs, weights, block_cfg), sess
        return run

    t0 = time.perf_counter()
    if args.local:
        (out_a, sess_a), (out_b, _) = run_pair(party("A"), party("B"), profile)
        wall = time.perf_counter() - t0
        err = _verify(protocol, shape, inputs, out_a, out_b, cfg,
                      (block_cfg, weights) if protocol == "block" else None)
        return sess_a.report(), err, wall, dims
    role = args.role.upper()
    host, port = args.endpoint.split(":")
    sess = connect(role, (host, int(port)), profile, cfg.fingerprint())
    try:
        party(role)(sess)
        wall = time.perf_counter() - t0
        return sess.report(), float("nan"), wall, dims
    finally:
        sess.close()


def cmd_party(args) -> int:
    cfg = _config(args)
    profile = _profile(args)
    report, err, wall, dims = run_once(args, cfg, profile, args.seed)
    _print_report(report, err, wall, args.protocol, dims)
    return 0


def _peak_rss_mb() -> float:
    """This process's peak resident set so far (``ru_maxrss``, in KiB on
    Linux), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _print_report(report, err, wall, protocol, dims):
    out = sys.stdout
    out.write(f"protocol={protocol} shape={dims}\n")
    out.write(f"bytes_a={report.bytes_sent['A']} bytes_b={report.bytes_sent['B']} "
              f"sent={report.sent_bytes} charged={report.charged_bytes} "
              f"total={report.total_bytes}\n")
    out.write(f"messages={report.message_count} rounds={report.round_count} "
              f"simulated_time={report.simulated_time:.6f}s wall={wall:.3f}s "
              f"peak_rss_mb={_peak_rss_mb():.1f}\n")
    if err == err:  # not NaN
        out.write(f"max_abs_err={err:.3e}\n")
    for label, ph in sorted(report.phases.items()):
        out.write(f"  {label}: bytes={ph['bytes_a'] + ph['bytes_b']} "
                  f"rounds={ph['rounds']} sim={ph['sim_time']:.6f}\n")
    for w in report.warnings:
        out.write(f"  warning: {w}\n")


BENCH_COLUMNS = ["protocol", "shape", "rep", "bytes_a", "bytes_b", "sent_bytes",
                 "charged_bytes", "total_bytes",
                 "messages", "rounds", "simulated_time", "wall_time", "max_abs_err"]


def cmd_bench(args) -> int:
    cfg = _config(args)
    profile = _profile(args)
    if args.repetitions < 1:
        raise ParamError("repetitions must be >= 1")
    rows = []
    for rep in range(args.repetitions):
        report, err, wall, dims = run_once(args, cfg, profile, args.seed + rep)
        rows.append([args.protocol, dims, rep,
                     report.bytes_sent["A"], report.bytes_sent["B"],
                     report.sent_bytes, report.charged_bytes,
                     report.total_bytes, report.message_count,
                     report.round_count, report.simulated_time, wall, err])
    agg = ["aggregate", dims, args.repetitions]
    for col in range(3, len(BENCH_COLUMNS)):
        agg.append(float(np.mean([r[col] for r in rows])))
    rows.append(agg)
    _write_csv(args.out, BENCH_COLUMNS, rows)
    return 0


def _write_csv(path, header, rows):
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(header)
    wr.writerows(rows)
    if path:
        with open(path, "w", newline="") as f:
            f.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


MAE_COLUMNS = ["function", "variant", "lo", "hi", "points", "mae", "max_jump"]


def cmd_mae(args) -> int:
    lo, hi = (float(v) for v in args.range.split(":"))
    names = list(approx.TABLES) if args.function == "all" else [args.function]
    rows = []
    audits = []
    for name in names:
        table = approx.TABLES[name]
        if args.table:
            with open(args.table) as f:
                table = approx.load_table(f.read())
        target = approx.TARGETS[name]
        jumps = table.continuity_jumps()
        rows.append([name, "shipped", lo, hi, args.points,
                     approx.mae(table, target, lo, hi, args.points),
                     max(jumps.values())])
        for b, j in sorted(jumps.items()):
            audits.append([name, f"jump@{b:.6g}", lo, hi, args.points, "", j])
        if name == "tanh":
            # comparison rows: shipped degree-4 vs a degree-5 refit at the
            # conventional split points, mirrored
            spec = approx.FitSpec(target, degree=5, window=(-4.0, 4.0))
            refit = approx.fit_segments(
                spec, [-4.0, -3.0, -2.0, -0.5, 0.0, 0.5, 2.0, 3.0, 4.0],
                ("const", -1.0), ("const", 1.0), name="tanh-refit5")
            rows.append([name, "refit-deg5@{0.5,2,3,4}", lo, hi, args.points,
                         approx.mae(refit, target, lo, hi, args.points),
                         max(refit.continuity_jumps().values())])
        if name == "gelu":
            spec = approx.FitSpec(target, degree=4)
            refit = approx.fit_segments(
                spec, list(table.boundaries), ("const", approx.GELU_EPS),
                ("linear", approx.GELU_EPS), name="gelu-refit")
            rows.append([name, "refit-deg4@inflection", lo, hi, args.points,
                         approx.mae(refit, target, lo, hi, args.points),
                         max(refit.continuity_jumps().values())])
    _write_csv(args.out, MAE_COLUMNS, rows + audits)
    return 0


def cmd_weights(args) -> int:
    bc = toy_block_config()
    if args.dims:
        d_s, d_m, h, d_k, d_f = (int(v) for v in args.dims.split(","))
        from .model import BlockConfig
        bc = BlockConfig(d_s, d_m, h, d_k, d_f)
    rng = np.random.default_rng(args.seed)
    dump_weights(BlockWeights.random(bc, rng), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="privblock",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_proto=True):
        if with_proto:
            p.add_argument("--protocol", choices=PROTOCOLS, required=True)
            p.add_argument("--shape", default=None,
                           help="MxNxK for matmuls, MxN otherwise "
                                "(default 8x8x8 or 8x8)")
        p.add_argument("--profile", choices=sorted(PROFILES), default="lan")
        p.add_argument("--bandwidth", type=float, default=None,
                       help="bits/second (replaces the profile's bandwidth)")
        p.add_argument("--latency", type=float, default=None,
                       help="one-way seconds (replaces the profile's latency)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--backend", choices=("clear", "rlwe"), default=None)
        p.add_argument("--local", action="store_true",
                       help="run both parties in-process")
        p.add_argument("--role", choices=("a", "b"), default="a")
        p.add_argument("--endpoint", default="127.0.0.1:9731")
        p.add_argument("--weights", default=None,
                       help="weight container for --protocol block")

    p = sub.add_parser("party", help="run one protocol as one party")
    common(p)
    p.set_defaults(fn=cmd_party)

    p = sub.add_parser("bench", help="repeat a protocol and emit CSV")
    common(p)
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("mae", help="approximation-accuracy CSV")
    p.add_argument("--function", default="all",
                   choices=("all",) + tuple(approx.TABLES))
    p.add_argument("--range", default="-6:6")
    p.add_argument("--points", type=int, default=10000)
    p.add_argument("--table", default=None, help="JSON table file to evaluate")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_mae)

    p = sub.add_parser("weights", help="write a random weight container")
    p.add_argument("--out", required=True)
    p.add_argument("--dims", default=None, help="d_s,d_m,h,d_k,d_f")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_weights)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    # MalformedBytes is a ValueError, but in a run it means bad peer bytes
    except (HandshakeMismatch, IoError, OSError, MalformedBytes) as e:
        sys.stderr.write(f"io error: {e}\n")
        return EXIT_IO
    except (ShapeMismatch, DegenerateRow, RangeError, NoiseExhausted) as e:
        sys.stderr.write(f"protocol error: {e}\n")
        return EXIT_PROTOCOL
    except (ParamError, ValueError) as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
