import csv
import io
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from privblock.channel import PROFILES, connect
from privblock.cli import _profile, build_parser, main
from privblock.params import Config, toy_he_params

TOY_CFG_DICT = Config(he=toy_he_params(n=256, p=137438822401, limbs=6),
                      he_backend="clear").to_dict()


@pytest.fixture
def toy_cfg_file(tmp_path):
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as f:
        json.dump(TOY_CFG_DICT, f)
    return path


def _capture(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_party_local_smoke(toy_cfg_file):
    code, out = _capture(["party", "--protocol", "matmul", "--shape", "32x32x64",
                          "--local", "--seed", "1", "--config", toy_cfg_file])
    assert code == 0
    assert "max_abs_err=0.000e+00" in out
    assert "matmul/inputs" in out


def test_party_and_bench_report_sent_and_charged_bytes(toy_cfg_file, tmp_path):
    """Both commands print the bytes that crossed the session apart from
    the bytes charged from the gadget cost table; the total is their sum."""
    code, out = _capture(["party", "--protocol", "gelu", "--shape", "2x16", "--local",
                          "--config", toy_cfg_file])
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("bytes_a="))
    got = dict(field.split("=") for field in line.split())
    assert int(got["sent"]) > 0 and int(got["charged"]) > 0
    assert int(got["sent"]) + int(got["charged"]) == int(got["total"]) == \
        int(got["bytes_a"]) + int(got["bytes_b"])
    path = os.path.join(tmp_path, "bench.csv")
    assert main(["bench", "--protocol", "gelu", "--shape", "2x16", "--local",
                 "--config", toy_cfg_file, "--out", path]) == 0
    row = next(csv.DictReader(open(path)))
    assert (row["sent_bytes"], row["charged_bytes"], row["total_bytes"]) == \
        (got["sent"], got["charged"], got["total"])


def test_party_and_bench_name_the_cost_table_and_count_out_of_range(toy_cfg_file, tmp_path):
    """gelu and the block print party B's count of comparison inputs
    outside their exact range, 0 for the default inputs; party and bench
    name the cost table their charged bytes came from."""
    want = Config.from_dict(TOY_CFG_DICT).gadget_costs.fingerprint()
    for proto in ("gelu", "block"):
        code, out = _capture(["party", "--protocol", proto, "--local",
                              "--config", toy_cfg_file])
        assert code == 0
        assert "lt_out_of_range=0" in out.splitlines()
        assert f" cost_table={want} " in out
    code, out = _capture(["party", "--protocol", "softmax", "--local",
                          "--config", toy_cfg_file])
    assert code == 0 and "lt_out_of_range" not in out
    path = os.path.join(tmp_path, "bench.csv")
    assert main(["bench", "--protocol", "gelu", "--repetitions", "2", "--local",
                 "--config", toy_cfg_file, "--out", path]) == 0
    assert {r["cost_table"] for r in csv.DictReader(open(path))} == {want}


def test_party_every_protocol_local(toy_cfg_file):
    for proto, shape in (("mmshared", "4x3x5"), ("softmax", "4x8"),
                         ("ln", "4x16"), ("gelu", "2x16"), ("block", "-")):
        argv = ["party", "--protocol", proto, "--local", "--config", toy_cfg_file]
        if proto != "block":
            argv += ["--shape", shape]
        code, out = _capture(argv)
        assert code == 0, proto
        assert "max_abs_err" in out
        dims = "8,16,2,8,32" if proto == "block" else shape
        assert out.startswith(f"protocol={proto} shape={dims}\n")


def test_default_shape_fits_every_protocol(toy_cfg_file):
    for proto, dims in (("matmul", "8x8x8"), ("gelu", "8x8"), ("softmax", "8x8"),
                        ("ln", "8x8")):
        code, out = _capture(["party", "--protocol", proto, "--local",
                              "--config", toy_cfg_file])
        assert code == 0, proto
        assert out.startswith(f"protocol={proto} shape={dims}\n")


def test_block_reports_the_dimensions_of_its_weights(toy_cfg_file, tmp_path):
    """party and bench name the block's d_s,d_m,h,d_k,d_f, not --shape."""
    weights = os.path.join(tmp_path, "w.bin")
    assert main(["weights", "--out", weights, "--dims", "4,8,2,4,16"]) == 0
    argv = ["--protocol", "block", "--local", "--config", toy_cfg_file,
            "--weights", weights]
    code, out = _capture(["party", *argv])
    assert code == 0 and out.startswith("protocol=block shape=4,8,2,4,16\n")
    out_path = os.path.join(tmp_path, "bench.csv")
    assert main(["bench", *argv, "--out", out_path]) == 0
    assert {r["shape"] for r in csv.DictReader(open(out_path))} == {"4,8,2,4,16"}


def test_bench_csv_and_aggregate(toy_cfg_file, tmp_path):
    out_path = os.path.join(tmp_path, "bench.csv")
    code, _ = _capture(["bench", "--protocol", "softmax", "--shape", "8x8",
                        "--local", "--repetitions", "3", "--seed", "5",
                        "--config", toy_cfg_file, "--out", out_path])
    assert code == 0
    rows = list(csv.DictReader(open(out_path)))
    assert len(rows) == 4  # 3 reps + aggregate
    reps = rows[:3]
    agg = rows[3]
    assert agg["protocol"] == "aggregate"
    mean_bytes = np.mean([float(r["total_bytes"]) for r in reps])
    assert float(agg["total_bytes"]) == pytest.approx(mean_bytes)
    # repetitions with different seeds share the cost profile
    assert len({r["total_bytes"] for r in reps}) == 1


def test_bench_deterministic_for_fixed_seed(toy_cfg_file, tmp_path):
    p1 = os.path.join(tmp_path, "b1.csv")
    p2 = os.path.join(tmp_path, "b2.csv")
    for p in (p1, p2):
        code, _ = _capture(["bench", "--protocol", "gelu", "--shape", "2x16",
                            "--local", "--seed", "9", "--config", toy_cfg_file,
                            "--out", p])
        assert code == 0

    def strip_wall(path):
        rows = list(csv.reader(open(path)))
        wall_idx = rows[0].index("wall_time")
        return [[c for i, c in enumerate(r) if i != wall_idx] for r in rows]

    assert strip_wall(p1) == strip_wall(p2)


def test_mae_csv_pinned_row(tmp_path):
    out_path = os.path.join(tmp_path, "mae.csv")
    code, _ = _capture(["mae", "--function", "gelu", "--out", out_path])
    assert code == 0
    rows = list(csv.DictReader(open(out_path)))
    shipped = next(r for r in rows if r["variant"] == "shipped")
    assert abs(float(shipped["mae"]) - 7.159790578073239e-04) < 1e-9
    assert any(r["variant"].startswith("jump@") for r in rows)


def test_mae_all_functions():
    code, out = _capture(["mae", "--function", "all", "--points", "2000"])
    assert code == 0
    for name in ("gelu", "sigmoid", "tanh", "mish"):
        assert name in out
    assert "refit-deg5" in out  # tanh comparison rows


def test_config_error_exit_code():
    code = main(["party", "--protocol", "matmul", "--shape", "3x3", "--local"])
    assert code == 2


def test_zero_rows_are_a_protocol_error():
    """A zero-row softmax fails the entry check on both parties before any
    frame: a protocol error (exit 3), as a zero matmul dimension is."""
    for protocol, shape in (("softmax", "0x8"), ("matmul", "0x8x8")):
        assert main(["party", "--protocol", protocol, "--shape", shape, "--local"]) == 3


def test_network_overrides_replace_only_given_fields(toy_cfg_file):
    def profile(*flags):
        return _profile(build_parser().parse_args(
            ["party", "--protocol", "matmul", *flags]))

    wan1 = profile("--profile", "wan1", "--latency", "0")
    assert (wan1.bandwidth, wan1.latency) == (400_000_000, 0.0)
    lan = profile("--profile", "lan", "--latency", "0.001")
    assert (lan.bandwidth, lan.latency) == (1_000_000_000, 0.001)
    code = main(["party", "--protocol", "matmul", "--shape", "2x2x2", "--local",
                 "--config", toy_cfg_file, "--bandwidth", "0"])
    assert code == 2


def test_weights_subcommand(tmp_path):
    path = os.path.join(tmp_path, "w.bin")
    assert main(["weights", "--out", path, "--seed", "3"]) == 0
    from privblock.model import load_weights
    assert load_weights(path).config.d_m == 16


def _run_proc(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    return subprocess.run([sys.executable, "-m", "privblock.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=120)


def test_tcp_two_process_matmul(toy_cfg_file, tmp_path):
    """Loopback TCP run: both parties exit 0 and report identical totals."""
    out_b = {}

    def party_b():
        out_b["r"] = _run_proc(["party", "--protocol", "matmul", "--shape",
                                "8x8x8", "--role", "b", "--endpoint",
                                "127.0.0.1:19741", "--seed", "4",
                                "--config", toy_cfg_file])

    th = threading.Thread(target=party_b, daemon=True)
    th.start()
    ra = _run_proc(["party", "--protocol", "matmul", "--shape", "8x8x8",
                    "--role", "a", "--endpoint", "127.0.0.1:19741",
                    "--seed", "4", "--config", toy_cfg_file])
    th.join(timeout=120)
    rb = out_b["r"]
    assert ra.returncode == 0, ra.stderr
    assert rb.returncode == 0, rb.stderr
    line_a = [l for l in ra.stdout.splitlines() if l.startswith("bytes_a=")][0]
    line_b = [l for l in rb.stdout.splitlines() if l.startswith("bytes_a=")][0]
    assert line_a == line_b


def test_tcp_mismatched_configs_fail(toy_cfg_file, tmp_path):
    other = dict(TOY_CFG_DICT)
    other["he"] = dict(other["he"])
    other["he"]["n"] = 64
    other_path = os.path.join(tmp_path, "other.json")
    with open(other_path, "w") as f:
        json.dump(other, f)
    out_b = {}

    def party_b():
        out_b["r"] = _run_proc(["party", "--protocol", "matmul", "--shape",
                                "4x4x4", "--role", "b", "--endpoint",
                                "127.0.0.1:19742", "--config", other_path])

    th = threading.Thread(target=party_b, daemon=True)
    th.start()
    ra = _run_proc(["party", "--protocol", "matmul", "--shape", "4x4x4",
                    "--role", "a", "--endpoint", "127.0.0.1:19742",
                    "--config", toy_cfg_file])
    th.join(timeout=120)
    assert ra.returncode == 4
    assert out_b["r"].returncode == 4


def _phase_lines(stdout, prefix):
    return sorted(l.strip().split(" sim=")[0] for l in stdout.splitlines()
                  if l.strip().startswith(prefix))


def test_local_equals_tcp_costs(toy_cfg_file):
    """--local and TCP runs agree on every protocol phase line (bytes and
    rounds; wall/sim timing excluded)."""
    code, local_out = _capture(["party", "--protocol", "matmul", "--shape",
                                "8x8x8", "--local", "--seed", "4",
                                "--config", toy_cfg_file])
    assert code == 0
    out_b = {}

    def party_b():
        out_b["r"] = _run_proc(["party", "--protocol", "matmul", "--shape",
                                "8x8x8", "--role", "b", "--endpoint",
                                "127.0.0.1:19743", "--seed", "4",
                                "--config", toy_cfg_file])

    th = threading.Thread(target=party_b, daemon=True)
    th.start()
    ra = _run_proc(["party", "--protocol", "matmul", "--shape", "8x8x8",
                    "--role", "a", "--endpoint", "127.0.0.1:19743",
                    "--seed", "4", "--config", toy_cfg_file])
    th.join(timeout=120)
    assert ra.returncode == 0
    assert _phase_lines(local_out, "matmul/") == _phase_lines(ra.stdout, "matmul/")


def test_malformed_peer_key_exits_4(toy_cfg_file, capsys):
    """A peer that handshakes correctly and then sends a junk key blob is an
    I/O error (exit 4), not a configuration error."""
    cfg = Config.load(toy_cfg_file)
    errors = []

    def fake_b():
        try:
            sess = connect("B", ("127.0.0.1", 19744), PROFILES["lan"],
                           cfg.fingerprint())
            sess.recv("keyexchange")
            sess.send("keyexchange", b"junk")
            sess.close()
        except Exception as e:  # surfaced by the assertion below
            errors.append(e)

    th = threading.Thread(target=fake_b, daemon=True)
    th.start()
    code = main(["party", "--protocol", "matmul", "--shape", "2x2x2", "--role",
                 "a", "--endpoint", "127.0.0.1:19744", "--config", toy_cfg_file])
    th.join(timeout=60)
    assert not th.is_alive() and not errors
    assert code == 4
    err = capsys.readouterr().err
    assert "io error" in err and "public key blob" in err


def _write_json(tmp_path, name, obj):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as f:
        json.dump(obj, f)
    return path


def _malformed_config(change):
    cfg = json.loads(json.dumps(TOY_CFG_DICT))
    change(cfg)
    return cfg


def _malformed_table(change):
    from privblock import approx
    table = approx.GELU_TABLE.to_dict()
    change(table)
    return table


PARTY_MATMUL = ["party", "--protocol", "matmul", "--shape", "2x2x2", "--local", "--config"]
PARTY_GELU = ["party", "--protocol", "gelu", "--shape", "1x4", "--local", "--config"]


@pytest.mark.parametrize("argv,obj,named", [
    (PARTY_MATMUL, _malformed_config(lambda c: c["fixedpoint"].update(bits=37)), "bits"),
    (PARTY_MATMUL, _malformed_config(lambda c: c["he"].pop("q_primes")), "q_primes"),
    (["mae", "--function", "gelu", "--table"],
     _malformed_table(lambda t: t.pop("segments")), "segments"),
    (["mae", "--function", "gelu", "--table"],
     _malformed_table(lambda t: t.update(right=["quadratic", 0.0])), "quadratic"),
    (PARTY_MATMUL, _malformed_config(lambda c: c["he"].update(n="256")), "he.n"),
    (PARTY_MATMUL, _malformed_config(lambda c: c["fixedpoint"].update(s="12")),
     "fixedpoint.s"),
    (PARTY_MATMUL, _malformed_config(lambda c: c["he"].update(q_primes=5)), "he.q_primes"),
    (PARTY_GELU, _malformed_config(lambda c: c["gadget_costs"]["lt"].pop("rounds")),
     "gadget_costs.lt"),
    (PARTY_GELU, _malformed_config(
        lambda c: c["gadget_costs"]["b2a"].update(bytes_per_element=True)),
     "gadget_costs.b2a.bytes_per_element"),
    (PARTY_GELU, _malformed_config(
        lambda c: c["gadget_costs"]["lt"].update(bytes_per_element=-592)),
     "gadget_costs.lt.bytes_per_element"),
    (PARTY_GELU, _malformed_config(lambda c: c["gadget_costs"]["b2a"].update(rounds=-1)),
     "gadget_costs.b2a.rounds"),
    (PARTY_MATMUL, _malformed_config(lambda c: c["he"].update(p=137438840321)), "he.p"),
    (PARTY_MATMUL, _malformed_config(lambda c: c["fixedpoint"].update(truncation_mode="local")),
     "truncation_mode"),
    (PARTY_GELU, _malformed_config(lambda c: c["gadget_costs"].update(LT=c["gadget_costs"]["lt"])),
     "gadget_costs: unknown key(s) LT"),
    *[(PARTY_GELU, _malformed_config(
        lambda c, name=name: c["gadget_costs"].update({name: {"bytes_per_element": 613,
                                                              "rounds": 5}})),
       f"gadget_costs: unknown key(s) {name}") for name in ("convert", "trunc", "rowmax")],
], ids=["unknown_fixedpoint_key", "he_without_q_primes", "table_without_segments",
        "unknown_tail_kind", "he_n_string", "fixedpoint_s_string", "q_primes_not_a_list",
        "cost_without_rounds", "cost_bool_bytes", "cost_negative_bytes",
        "cost_negative_rounds", "he_p_differs", "truncation_mode_key",
        "cost_unknown_gadget", "cost_composite_convert", "cost_composite_trunc",
        "cost_composite_rowmax"])
def test_malformed_input_files_exit_2(tmp_path, capsys, argv, obj, named):
    code = main(argv + [_write_json(tmp_path, "in.json", obj)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err


def test_verify_gelu_on_the_boundary_grid(toy_cfg, pair_runner):
    """The --local gelu check decides segments on the quantized boundaries,
    as the protocol does, so grid points next to a boundary verify."""
    from privblock import fixedpoint as fp
    from privblock.cli import _verify
    from privblock.protocols import pi_gelu
    from privblock.sharing import share

    s = toy_cfg.fixedpoint.s
    x = np.array([[-20788, -5793, 5792, 20787]]) / 2 ** s
    xe = fp.encode_int(x, toy_cfg.fixedpoint, "field", s).ravel()
    xa, xb = share(xe, "field", toy_cfg.fixedpoint, np.random.default_rng(3))
    out_a, out_b = pair_runner(toy_cfg, lambda ctx: pi_gelu(ctx, xa, (1, 4)),
                               lambda ctx: pi_gelu(ctx, xb, (1, 4)))
    err = _verify("gelu", (1, 4), {"plain": x}, out_a, out_b, toy_cfg)
    assert err * 2 ** s <= 2.0
