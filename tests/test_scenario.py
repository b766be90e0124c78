import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (REPO_ROOT, SCENARIOS, SHIPPED, all_events, load_script, packet_log,
                      scenario_path)
from satwin.cli import build_parser, main
from satwin.errors import ConfigError
from satwin.kernel import fmt_time
from satwin.metrics import write_csv
from satwin.net import F_ACK, F_BU, F_BUACK, F_DATA, DirectedLink
from satwin.runner import Simulation
from satwin.scenario import MODE_NAMES, MODES, _SCHEMA, canonical_text, load_scenario, parse_scenario
from test_handover_sequences import _assert_registration_once

MINIMAL = """
[sim]
end = 1.0
attach = WLAN
w_default = 65536

[node.CN]
role = cn
[node.HA]
role = ha
[node.GW]
role = gateway
kind = WLAN
[node.MN]
role = mn

[link.wlan]
a = MN
b = GW
kind = WLAN
bandwidth = 10000000
delay = 0.010
queue = 65536

[link.gw_cn]
a = GW
b = CN
bandwidth = 100000000
delay = 0.005
queue = 65536

[link.gw_ha]
a = GW
b = HA
bandwidth = 100000000
delay = 0.005
queue = 65536

[flow.f1]
src = CN
dst = MN
start = 0.1
"""


def test_minimal_scenario_parses():
    s = parse_scenario(MINIMAL, "mini")
    assert s.end == 1_000_000
    assert s.mode == "BASELINE"
    assert len(s.links) == 3 and len(s.flows) == 1 and not s.handovers


def test_handover_beyond_end_rejected():
    text = MINIMAL + "\n[handover.1]\nat = 1.0\ndirection = terr_to_sat\nto = WLAN\n"
    with pytest.raises(ConfigError, match="outside"):
        parse_scenario(text, "x")


def test_unknown_mode_lists_valid_modes():
    text = MINIMAL.replace("w_default = 65536", "w_default = 65536\nmode = turbo")
    with pytest.raises(ConfigError) as err:
        parse_scenario(text, "x")
    for name in ("baseline", "proactive", "reset-cwnd"):
        assert name in str(err.value)


def test_unknown_key_names_line_and_key():
    text = MINIMAL.replace("start = 0.1", "start = 0.1\nfrobnicate = 1")
    with pytest.raises(ConfigError) as err:
        parse_scenario(text, "x")
    assert "frobnicate" in str(err.value) and "line" in str(err.value)


def test_dangling_link_endpoint_rejected():
    text = MINIMAL.replace("a = MN\nb = GW\nkind = WLAN", "a = MN\nb = NOWHERE\nkind = WLAN")
    with pytest.raises(ConfigError):
        parse_scenario(text, "x")


def test_sub_microsecond_time_rejected():
    text = MINIMAL.replace("delay = 0.010", "delay = 0.0000001")
    with pytest.raises(ConfigError, match="microsecond"):
        parse_scenario(text, "x")


def test_terr_to_sat_needs_fallback_window():
    # any move onto the satellite, whether `direction` is written or not
    text = scenario_path("s1_wlan_to_sat").read_text().replace("sat_default_window = 63750\n", "")
    for written in (text, text.replace("direction = terr_to_sat\n", "")):
        with pytest.raises(ConfigError, match="sat_default_window"):
            parse_scenario(written, "x")


def test_direction_must_agree_with_the_target():
    text = scenario_path("s4_three_networks").read_text()
    with pytest.raises(ConfigError, match="direction terr_to_sat contradicts to = WLAN"):
        parse_scenario(text.replace("to = SAT", "to = WLAN"), "x")
    # the key is optional: the runner derives the direction from the move
    [handover] = parse_scenario(text.replace("direction = terr_to_sat\n", ""), "x").handovers
    assert handover.direction is None


def test_queue_below_one_segment_rejected():
    text = MINIMAL.replace("queue = 65536\n\n[link.gw_cn]", "queue = 1000\n\n[link.gw_cn]")
    with pytest.raises(ConfigError, match="below one"):
        parse_scenario(text, "x")


def test_sat_default_window_below_one_segment_rejected():
    # accepted, it would cap W_REC below one segment and stall the flow
    text = scenario_path("s1_wlan_to_sat").read_text()
    with pytest.raises(ConfigError, match="below one segment"):
        parse_scenario(text.replace("sat_default_window = 63750", "sat_default_window = 1000"), "x")
    s = parse_scenario(text.replace("sat_default_window = 63750", "sat_default_window = 1460"), "x")
    assert s.sat_default_window == s.mss


def test_availability_windows_may_touch_but_not_overlap():
    def parse(windows):
        text = MINIMAL.replace("queue = 65536\n\n[link.gw_cn]",
                               f"queue = 65536\navailability = {windows}\n\n[link.gw_cn]")
        return parse_scenario(text, "x")

    assert parse("0.0:0.5,0.5:1.0").links[0].availability == ((0, 500_000), (500_000, 1_000_000))
    for windows in ("0.0:0.5,0.4:1.0", "0.5:1.0,0.0:0.4", "0.3:0.3"):
        with pytest.raises(ConfigError, match="sorted and disjoint"):
            parse(windows)


def test_proxy_gateway_must_name_a_gateway():
    def parse(proxy):
        return parse_scenario(MINIMAL.replace(
            "w_default = 65536",
            f"w_default = 65536\nregistration = PROXY\nproxy_gateway = {proxy}"), "x")

    assert parse("GW").proxy_gateway == "GW"
    for proxy in ("CN", "nowhere"):
        with pytest.raises(ConfigError, match="not a gateway node"):
            parse(proxy)


def test_duplicate_key_rejected():
    text = MINIMAL.replace("start = 0.1", "start = 0.1\nstart = 0.2")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_scenario(text, "x")


def test_round_trip_canonical_form():
    for name in SHIPPED:
        s = load_scenario(scenario_path(name))
        again = parse_scenario(canonical_text(s), s.name)
        assert again == s


def test_round_trip_covers_optional_keys():
    text = MINIMAL.replace(
        "w_default = 65536",
        "w_default = 65536\nsat_default_window = 30000\nmode = proactive\n"
        "registration = PROXY\nproxy_gateway = GW",
    ).replace(
        "delay = 0.010\nqueue = 65536",
        "delay = 0.010\nqueue = 65536\navailability = 0.0:0.4,0.5:1.0",
    ).replace(
        "start = 0.1",
        "start = 0.1\nvolume = 20000\nweight = 3/2\nmin_share = 2920\n"
        "buffer = 50000\nack_extra_delay = 0.02",
    ) + "\n[handover.1]\nat = 0.5\ndirection = sat_to_terr\nto = WLAN\n" \
        "exec_lead = 0.25\nack_pacing = 0.01\n"
    s = parse_scenario(text, "full")
    assert parse_scenario(canonical_text(s), "full") == s


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.scn"
    good.write_text(MINIMAL)
    assert main(["validate", "--scenario", str(good)]) == 0
    bad = tmp_path / "bad.scn"
    bad.write_text(MINIMAL.replace("role = mn", "role = spaceship"))
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert main(["validate", "--scenario", str(tmp_path / "missing.scn")]) == 2
    contradiction = tmp_path / "contradiction.scn"
    contradiction.write_text(scenario_path("s1_wlan_to_sat").read_text().replace(
        "direction = terr_to_sat", "direction = sat_to_terr"))
    assert main(["validate", "--scenario", str(contradiction)]) == 2
    capsys.readouterr()
    # a directory and a file that is not UTF-8: one line each, no traceback
    latin = tmp_path / "latin.scn"
    latin.write_bytes(MINIMAL.replace("[sim]", "# r\xe9seau\n[sim]").encode("latin-1"))
    for path, message in ((tmp_path, f"cannot read scenario file {tmp_path}: Is a directory"),
                          (latin, f"scenario file {latin} is not UTF-8 (byte ")):
        assert main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1


def test_cli_run_writes_metrics_and_trace(tmp_path, capsys):
    scn = tmp_path / "mini.scn"
    scn.write_text(MINIMAL)
    metrics_path = tmp_path / "m.csv"
    trace_path = tmp_path / "t.log"
    code = main([
        "run", "--scenario", str(scn), "--mode", "baseline", "--seed", "7",
        "--metrics", str(metrics_path), "--trace", str(trace_path),
    ])
    assert code == 0
    header = metrics_path.read_text().splitlines()[0]
    assert header.startswith("scenario,mode,seed,flow_id,goodput_bps")
    assert trace_path.read_text().splitlines()[0].endswith("network=WLAN")
    capsys.readouterr()
    # an output path that cannot be written exits 2 after the run, naming the path
    missing = tmp_path / "no_such_dir" / "m.csv"
    assert main(["run", "--scenario", str(scn), "--metrics", str(missing)]) == 2
    assert capsys.readouterr().err == \
        f"config error: cannot write {missing}: No such file or directory\n"
    # every output or none: a trace path in a missing directory, or a
    # directory, creates or replaces no metrics file, leaves no temporary
    # file behind and prints no CSV
    metrics_path.write_text("kept\n")
    for bad, reason in ((tmp_path / "no_such_dir" / "t.log", "No such file or directory"),
                        (tmp_path, "Is a directory")):
        for out in ([], ["--metrics", str(metrics_path)], ["--metrics", str(tmp_path / "n.csv")]):
            before = sorted(tmp_path.iterdir())
            assert main(["run", "--scenario", str(scn), *out, "--trace", str(bad)]) == 2
            assert sorted(tmp_path.iterdir()) == before and metrics_path.read_text() == "kept\n"
            assert capsys.readouterr() == ("", f"config error: cannot write {bad}: {reason}\n")


def test_cli_compare_three_modes(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code = main([
        "compare", "--scenario", str(scenario_path("s1_wlan_to_sat")),
        "--modes", "baseline,proactive,reset-cwnd", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 4  # header + one row per mode
    assert {r.split(",")[1] for r in rows[1:]} == {"BASELINE", "PROACTIVE", "RESET_CWND"}
    capsys.readouterr()
    missing = tmp_path / "no_such_dir" / "cmp.csv"
    assert main(["compare", "--scenario", str(scenario_path("s1_wlan_to_sat")),
                 "--modes", "baseline,proactive", "--out", str(missing)]) == 2
    assert capsys.readouterr().err == \
        f"config error: cannot write {missing}: No such file or directory\n"


def test_cli_compare_takes_the_scenario_seed_unless_given(tmp_path, capsys):
    # the file says seed = 1, as `satwin run` writes it; --seed overrides
    out = tmp_path / "cmp.csv"
    args = ["compare", "--scenario", str(scenario_path("s1_wlan_to_sat")),
            "--modes", "baseline,proactive", "--out", str(out)]
    for extra, seed in (([], "1"), (["--seed", "7"], "7")):
        assert main(args + extra) == 0
        assert [r.split(",")[2] for r in out.read_text().splitlines()[1:]] == [seed, seed]
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["baseline", "proactive", "reset-cwnd"])
def test_min_shares_above_the_satellite_window_run(mode, tmp_path, capsys):
    # 80,000 B of minimum shares fit W_REC (63,750 B) only once scaled down
    scn = tmp_path / "s3_min_share.scn"
    scn.write_text(scenario_path("s3_multiflow").read_text().replace(
        "buffer = 65536", "buffer = 65536\nmin_share = 40000"))
    assert main(["validate", "--scenario", str(scn)]) == 0
    trace = tmp_path / "t.log"
    assert main(["run", "--scenario", str(scn), "--mode", mode,
                 "--metrics", str(tmp_path / "m.csv"), "--trace", str(trace)]) == 0
    if mode == "proactive":
        caps = [line for line in trace.read_text().splitlines() if " wpolicy " in line]
        assert caps == ["2.500000 wpolicy MN flow=f1 cap=31875",
                        "2.500000 wpolicy MN flow=f2 cap=31875"]
    capsys.readouterr()


def test_cli_compare_rejects_unknown_mode_with_the_valid_list(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["compare", "--scenario", str(scenario_path("s1_wlan_to_sat")),
              "--modes", "baseline,bogus"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err and "baseline, proactive, reset-cwnd" in err


@pytest.mark.parametrize("src", ["HA", "MN"])
def test_flow_source_must_lie_beyond_the_home_agent(src, tmp_path, capsys):
    # an HA source has no route to the agent; an MN source loops through it
    text = scenario_path("s1_wlan_to_sat").read_text().replace("src = CN", f"src = {src}")
    with pytest.raises(ConfigError, match=f"flow f1: src {src} "):
        parse_scenario(text, "x")
    bad = tmp_path / "src.scn"
    bad.write_text(text)
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert main(["run", "--scenario", str(bad)]) == 2
    assert capsys.readouterr().err.count("flow f1: src") == 2


def _without_sections(text, *names):
    """`text` with the named `[link.<name>]` sections left out."""
    sections = re.split(r"(?m)^(?=\[)", text)
    return "".join(sec for sec in sections
                   if not any(sec.startswith(f"[link.{name}]") for name in names))


@pytest.mark.parametrize("edit, node", [
    # a flow source no link reaches
    (lambda t: t.replace("src = CN", "src = X") + "\n[node.X]\nrole = router\n", "X"),
    # the satellite gateway reaches the agent only through the MN
    (lambda t: _without_sections(t, "sgw_cn", "sgw_ha"), "SGW"),
], ids=["unlinked_src", "gateway_only_via_mn"])
def test_every_node_a_run_routes_from_is_wired_to_the_home_agent(edit, node, tmp_path, capsys):
    # validate used to print ok for both, and run then stopped with "no route"
    text = edit(scenario_path("s1_wlan_to_sat").read_text())
    with pytest.raises(ConfigError, match=f"no wired route from {node} to the home agent HA"):
        parse_scenario(text, "x")
    bad = tmp_path / "unwired.scn"
    bad.write_text(text)
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert main(["run", "--scenario", str(bad)]) == 2
    assert capsys.readouterr().err.count(f"no wired route from {node} ") == 2


def test_compare_requires_two_distinct_modes():
    from satwin.runner import compare

    s = parse_scenario(MINIMAL, "mini")
    with pytest.raises(ConfigError):
        compare(s, ["BASELINE"])
    with pytest.raises(ConfigError):
        compare(s, ["BASELINE", "BASELINE"])


# -- the format as declared by _SCHEMA ----------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def _edit(old: str, new: str) -> tuple[str, int]:
    """MINIMAL with the first `old` replaced by `new`, and the line of `new`'s last line."""
    assert old in MINIMAL
    text = MINIMAL.replace(old, new, 1)
    return text, text[: text.index(new) + len(new)].count("\n") + 1


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda p: p.stem)
def test_every_scenario_file_round_trips(path):
    s = load_scenario(path)
    assert parse_scenario(canonical_text(s), s.name) == s


BAD_VALUES = [
    ("end = 1.0", "end = soon"),  # time
    ("delay = 0.010", "delay = 0.0000001"),  # time off the microsecond grid
    ("start = 0.1", "start = -0.1"),  # negative time
    ("w_default = 65536", "w_default = 6.5"),  # integer
    ("w_default = 65536", "w_default = 65536\nmss = 0"),  # integer below minimum
    ("w_default = 65536", "w_default = 65536\nseed = 18446744073709551616"),  # above 64 bits
    ("bandwidth = 10000000", "bandwidth = 10000001"),  # bandwidth not divisible by 8
    ("queue = 65536", "queue = 65536\navailability = 0.1-0.5"),  # availability
    ("start = 0.1", "start = 0.1\nweight = 0"),  # weight
    ("start = 0.1", "start = 0.1\nvolume = -5"),  # volume
    ("role = mn", "role = spaceship"),  # choice
    ("attach = WLAN", "attach = LTE"),  # choice
    ("end = 1.0", "end = inf"),  # non-finite time
    ("queue = 65536", "queue = nan"),  # non-finite integer
    ("bandwidth = 10000000", "bandwidth = Infinity"),  # non-finite bandwidth
    ("w_default = 65536", "w_default = 65536\nseed = sNaN"),  # signalling NaN
    ("queue = 65536", "queue = 65536\navailability = 0:inf"),  # non-finite window
    ("start = 0.1", "start = 0.1\nweight = inf"),  # non-finite weight
    ("end = 1.0", "end = 1e999999"),  # too large to scale to microseconds
    ("queue = 65536", "queue = 1e400"),  # too large for an integer key
    ("delay = 0.010", "delay = 1e-9999999999"),  # underflows to 0 when scaled to microseconds
]


@pytest.mark.parametrize("old,new", BAD_VALUES, ids=[new.split("\n")[-1] for _, new in BAD_VALUES])
def test_bad_value_names_key_and_line(old, new):
    text, line = _edit(old, new)
    key = new.split("\n")[-1].split("=")[0].strip()
    with pytest.raises(ConfigError) as err:
        parse_scenario(text, "x")
    assert (err.value.line, err.value.key) == (line, key)
    assert f"line {line}" in str(err.value) and repr(key) in str(err.value)


def test_choice_error_names_bad_value_and_valid_values():
    text, _ = _edit("role = mn", "role = spaceship")
    with pytest.raises(ConfigError) as err:
        parse_scenario(text, "x")
    for word in ("spaceship", "cn", "ha", "mn", "gateway", "router"):
        assert word in str(err.value)


def _line(text: str, needle: str) -> int:
    """The number of the first line of `text` that is `needle`."""
    return text.splitlines().index(needle) + 1


_SIM = MINIMAL[:MINIMAL.index("[node.CN]")]
_WLAN2 = "\n[link.wlan2]\na = GW\nb = MN\nkind = WLAN\nbandwidth = 8000\ndelay = 0\nqueue = 65536\n"

# (text, message, the line it names or None): one per rejection of the file's
# structure, then one per check validate_scenario makes on a parsed file
REJECTIONS = {
    "malformed_header": (MINIMAL + "[node.X\n", "malformed section header", "[node.X"),
    "unknown_section": (MINIMAL + "[bogus.x]\n", r"unknown section \[bogus\]", "[bogus.x]"),
    "no_equals": (MINIMAL + "frobnicate\n", "expected key = value", "frobnicate"),
    "outside_section": ("seed = 1\n" + MINIMAL, "key outside any section", "seed = 1"),
    "missing_key": (MINIMAL.replace("role = cn\n", ""), r"\[node.CN\] missing key", "[node.CN]"),
    "missing_sim": (MINIMAL.replace(_SIM, ""), r"missing \[sim\] section", None),
    "two_cns": (MINIMAL.replace("role = ha", "role = cn"), "exactly one 'cn' node", None),
    "two_wlan_links": (MINIMAL + _WLAN2, "2 WLAN access links; expected one", None),
    "two_links_one_pair": (MINIMAL + _WLAN2.replace("kind = WLAN", "kind = SAT"),
                           "links wlan and wlan2 both join GW and MN", None),
    "attach": (MINIMAL.replace("attach = WLAN", "attach = SAT"),
               "initial attachment 'SAT' has no access link at the mobile node", None),
    "no_flows": (MINIMAL[:MINIMAL.index("[flow.f1]")], "scenario defines no flows", None),
    "flow_endpoint": (MINIMAL.replace("src = CN", "src = NOWHERE"),
                      "flow f1: endpoint does not exist", None),
    "flow_dst": (MINIMAL.replace("dst = MN", "dst = CN"),
                 "flow f1: destination must be the mobile node", None),
    "flow_start": (MINIMAL.replace("start = 0.1", "start = 1.0"),
                   "flow f1: starts at or after the end of the run", None),
    "flow_buffer": (MINIMAL.replace("start = 0.1", "start = 0.1\nbuffer = 1459"),
                    "flow f1: receive buffer below one segment", None),
    "handover_target": (MINIMAL + "\n[handover.h]\nat = 0.5\nto = GPRS\n",
                        "handover h: no GPRS access link at the mobile node", None),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejection_names_its_cause_and_line(case):
    text, message, needle = REJECTIONS[case]
    with pytest.raises(ConfigError, match=message) as err:
        parse_scenario(text, "x")
    assert err.value.line == (None if needle is None else _line(text, needle))


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_cli_seed_must_fit_in_64_bits(seed, tmp_path, capsys):
    scn = tmp_path / "mini.scn"
    scn.write_text(MINIMAL)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--scenario", str(scn), "--seed", seed])
    assert exit_info.value.code == 2
    assert "seed must fit in an unsigned 64-bit integer" in capsys.readouterr().err
    args = build_parser().parse_args(["run", "--scenario", str(scn), "--seed", str((1 << 64) - 1)])
    assert args.seed == (1 << 64) - 1


@pytest.mark.parametrize("text", [
    MINIMAL.replace("role = gateway\nkind = WLAN", "role = gateway\nkind = SAT"),
    MINIMAL + "\n[node.GW2]\nrole = gateway\nkind = WLAN\n",  # no access link at all
], ids=["other_kind", "no_access_link"])
def test_gateway_kind_must_be_its_access_links(text, tmp_path, capsys):
    # the key is checked only: it used to be accepted whatever it said
    with pytest.raises(ConfigError, match=r"gateway GW2?: kind = (SAT|WLAN), but it has no") as err:
        parse_scenario(text, "x")
    assert err.value.key == "kind"
    bad = tmp_path / "kind.scn"
    bad.write_text(text)
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert "gateway GW" in capsys.readouterr().err
    # a gateway without the key, or with its link's kind, is accepted
    parse_scenario(MINIMAL.replace("role = gateway\nkind = WLAN", "role = gateway"), "x")
    parse_scenario(MINIMAL, "x")


@pytest.mark.parametrize("text, node, role", [
    (MINIMAL.replace("role = cn", "role = cn\nkind = SAT"), "CN", "cn"),
    (MINIMAL.replace("role = ha", "role = ha\nkind = WLAN"), "HA", "ha"),
    (MINIMAL.replace("role = mn", "role = mn\nkind = WLAN"), "MN", "mn"),
    (MINIMAL + "\n[node.R]\nrole = router\nkind = SAT\n", "R", "router"),
], ids=["cn", "ha", "mn", "router"])
def test_kind_is_for_gateways_only(text, node, role, tmp_path, capsys):
    # nothing reads the key on another role: it used to be accepted silently
    with pytest.raises(ConfigError,
                       match=f"node {node}: kind is for gateways only, not role {role} ") as err:
        parse_scenario(text, "x")
    assert err.value.key == "kind"
    bad = tmp_path / "kind.scn"
    bad.write_text(text)
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert f"node {node}: kind" in capsys.readouterr().err


def test_cli_validate_rejects_non_finite_values(tmp_path, capsys):
    bad = tmp_path / "inf.scn"
    bad.write_text(MINIMAL.replace("end = 1.0", "end = inf"))
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("registration", ["", "registration = MN\n"])
def test_cli_validate_rejects_proxy_gateway_without_proxy_registration(
        registration, tmp_path, capsys):
    bad = tmp_path / "mn.scn"
    bad.write_text(MINIMAL.replace("w_default = 65536",
                                   f"w_default = 65536\n{registration}proxy_gateway = GW"))
    assert main(["validate", "--scenario", str(bad)]) == 2
    assert "'proxy_gateway'" in capsys.readouterr().err


DUPLICATES = {
    "sim": "\n[sim]\nend = 2.0\n",
    "node": "\n[node.GW]\nrole = gateway\nkind = SAT\n",
    "link": "\n[link.gw_cn]\na = GW\nb = CN\nbandwidth = 8000\ndelay = 0.001\nqueue = 65536\n",
    "flow": "\n[flow.f1]\nsrc = CN\ndst = MN\nstart = 0.2\n",
    "handover": "\n[handover.h]\nat = 0.5\ndirection = sat_to_terr\nto = WLAN\n",
}


@pytest.mark.parametrize("kind", sorted(DUPLICATES))
def test_duplicate_section_rejected_with_line(kind):
    first = DUPLICATES["handover"] if kind == "handover" else ""  # MINIMAL has none
    text = MINIMAL + first + DUPLICATES[kind]
    line = text.count("\n") - DUPLICATES[kind].count("\n") + 2
    with pytest.raises(ConfigError, match="duplicate section") as err:
        parse_scenario(text, "x")
    assert err.value.line == line


@pytest.mark.parametrize("header", ["[node]", "[flow.]", "[sim.main]"])
def test_section_names_required_except_sim(header):
    with pytest.raises(ConfigError, match="takes no name"):
        parse_scenario(MINIMAL + f"\n{header}\n", "x")


def test_readme_documents_every_key():
    text = README.read_text()
    block = text[text.index("## Scenario files"):]
    block = block[block.index("```") + 3:]
    block = block[:block.index("```")]
    documented: dict[str, set[str]] = {}
    for line in block.splitlines():
        header = re.match(r"\[(\w+)", line)
        if header:
            keys = documented.setdefault(header.group(1), set())
        elif re.match(r"#? ?(\w+) =", line):
            keys.add(re.match(r"#? ?(\w+) =", line).group(1))
    assert {kind: set(keys) for kind, keys in _SCHEMA.items()} == documented


def _times(lo: int = 0, hi: int = 2_000_000):
    return st.integers(lo, hi).map(fmt_time)


def _optional(draw, lines: list[str], key: str, values) -> None:
    value = draw(st.none() | values)
    if value is not None:
        lines.append(f"{key} = {value}")


def _section(header: str, lines: list[str]) -> str:
    return "\n".join([f"[{header}]", *lines]) + "\n\n"


@st.composite
def _up_windows(draw, end: int):
    """Availability windows around one or two outages over a run of `end`
    µs, each starting at a drawn twentieth of the run and lasting one to
    eight twentieths: drawn as fractions, an outage is neither microseconds
    long nor clustered at 0."""
    outages = sorted((end * draw(st.integers(0, 19)) // 20, end * draw(st.integers(1, 8)) // 20)
                     for _ in range(draw(st.integers(1, 2))))
    windows, up = [], 0
    for start, length in outages:
        if start > up:
            windows.append(f"{fmt_time(up)}:{fmt_time(start)}")
        up = max(up, start + length)
    if up < end:  # else the last outage lasts to the run's end
        windows.append(f"{fmt_time(up)}:{fmt_time(end)}")
    return ",".join(windows)


@st.composite
def scenario_texts(draw):
    """A valid scenario over the WLAN/SAT world with every optional key drawn."""
    end = draw(st.integers(1_000_000, 5_000_000))
    sim = [f"end = {fmt_time(end)}", f"attach = {draw(st.sampled_from(['WLAN', 'SAT']))}",
           f"w_default = {draw(st.integers(1460, 1 << 20))}"]
    _optional(draw, sim, "seed", st.integers(0, (1 << 64) - 1))
    _optional(draw, sim, "mode", st.sampled_from(sorted(MODE_NAMES)))
    windowed = draw(st.booleans())
    if windowed:
        sim.append(f"sat_default_window = {draw(st.integers(1460, 1 << 20))}")
    _optional(draw, sim, "mss", st.integers(536, 1460))
    _optional(draw, sim, "registration", st.sampled_from(["MN", "PROXY"]))
    if "registration = PROXY" in sim:  # proxy_gateway is rejected under MN
        _optional(draw, sim, "proxy_gateway", st.sampled_from(["WGW", "SGW"]))
    out = [_section("sim", sim)]
    outages = draw(st.booleans())  # in half the files, half the links go down
    # in one file in eight, SGW->HA and the satellite run at one speed with no delay and every
    # other link takes round values: segments meet in one microsecond over several hops
    lockstep = draw(st.integers(0, 7)) == 0
    # in one file in eight, one backhaul link takes the other network's kind
    crossed = draw(st.sampled_from(["wgw_ha", "sgw_ha"])) if draw(st.integers(0, 7)) == 0 else None
    for name, role, kind in [("CN", "cn", None), ("HA", "ha", None), ("MN", "mn", None),
                             ("WGW", "gateway", "WLAN"), ("SGW", "gateway", "SAT")]:
        lines = [f"role = {role}"]
        if kind:
            _optional(draw, lines, "kind", st.just(kind))
        out.append(_section(f"node.{name}", lines))
    for name, a, b, kind in [("wlan", "MN", "WGW", "WLAN"), ("sat", "MN", "SGW", "SAT"),
                             ("wgw_cn", "WGW", "CN", None), ("wgw_ha", "WGW", "HA", None),
                             ("sgw_cn", "SGW", "CN", None), ("sgw_ha", "SGW", "HA", None)]:
        if name == crossed:  # a BU that crosses it registers the network it was made for
            kind = "SAT" if name == "wgw_ha" else "WLAN"
        if lockstep and name in ("sat", "sgw_ha"):
            bandwidth, delay = 8_000_000, "0"
        elif lockstep or draw(st.booleans()):  # round values: arrivals meet finish times exactly
            bandwidth = draw(st.sampled_from([8_000, 32_000, 800_000, 8_000_000]))
            delay = draw(st.sampled_from(["0", "0.001", "0.01"]))
        else:
            bandwidth, delay = 8 * draw(st.integers(1, 10**6)), draw(_times(0, 300_000))
        lines = [f"a = {a}", f"b = {b}", f"kind = {kind}" if kind else "",
                 f"bandwidth = {bandwidth}", f"delay = {delay}",
                 f"queue = {draw(st.integers(1500, 1 << 20))}"]
        if outages and draw(st.booleans()):
            lines.append(f"availability = {draw(_up_windows(end))}")
        out.append(_section(f"link.{name}", [line for line in lines if line]))
    starts = []
    for i in range(draw(st.integers(1, 3))):
        starts.append(draw(st.integers(0, end - 1)))
        lines = [f"src = {draw(st.sampled_from(['CN', 'WGW', 'SGW']))}", "dst = MN",
                 f"start = {fmt_time(starts[-1])}"]
        _optional(draw, lines, "volume", st.integers(0, 10**7))
        _optional(draw, lines, "weight", st.fractions(min_value=Fraction(1, 100), max_value=100)
                  .filter(lambda w: w > 0))
        _optional(draw, lines, "min_share", st.integers(0, 1 << 16))
        _optional(draw, lines, "buffer", st.integers(1460, 1 << 20))
        if draw(st.integers(0, 3)) == 0:  # a quarter of flows: the others can reach the MN hand-off
            lines.append(f"ack_extra_delay = {draw(_times(0, 100_000))}")
        out.append(_section(f"flow.f{i}", lines))
    for i in range(draw(st.integers(0, 3))):
        # a move onto the satellite needs the fallback window
        to = draw(st.sampled_from(["WLAN", "SAT"] if windowed else ["WLAN"]))
        share = draw(st.integers(0, 7))
        if share > 1:  # three in four come late after the first flow starts
            at = end - 1 - draw(st.integers(0, max(end - 2 - min(starts), 0)))
        elif share:  # one in eight before every flow starts (at t=0 if one starts then)
            at = draw(st.integers(0, max(min(starts) - 1, 0)))
        else:
            at = draw(st.integers(0, end - 1))
        lines = [f"at = {fmt_time(at)}", f"to = {to}"]
        direction = "terr_to_sat" if to == "SAT" else "sat_to_terr"
        _optional(draw, lines, "direction", st.just(direction))
        _optional(draw, lines, "exec_lead", _times())
        _optional(draw, lines, "ack_pacing", _times(0, 100_000))
        out.append(_section(f"handover.h{i}", lines))
    return "".join(out)


@settings(max_examples=60, deadline=None)
@given(scenario_texts())
def test_canonical_text_round_trips_generated_scenarios(text):
    s = parse_scenario(text, "gen")
    canonical = canonical_text(s)
    assert parse_scenario(canonical, "gen") == s
    assert canonical_text(parse_scenario(canonical, "gen")) == canonical


# -- validation is the one gate: a file it accepts runs ----------------------


@settings(max_examples=60, deadline=None)
@given(scenario_texts())
def test_generated_scenarios_run_in_every_mode(text):
    """No run of an accepted file raises ConfigError or fails conservation,
    each handover registers at most once, the agent registers only networks
    a binding update was sent for, trace times never decrease, every
    window cap a run ends with is 0 (a drain) or at least one segment, each
    flow ends with the ACK route over the network attached last, and the
    all-events reference gives the same metrics and trace lines. The same
    file run untraced gives the same metrics, and the same packet log as the
    untraced all-events reference. No segment enters a single-fed
    link except from its feeder, and only two links admit anything ahead of
    time without a feeder: the forward link of the binding in force, for
    data the agent forwards inside a quiet interval, before the next
    detection, once no detection can still switch and no binding update is
    on its way, with no data arrival at the agent left pending before the
    next detection (the interval's start took them); and, untraced with no
    ACK delay, the MN's uplink, for the ACK of data handed to the MN inside
    an MN interval, before the next detection and the run's end (see
    `_assert_mn_interval`). Only data ends its route on a link inside a
    hand-off interval of its own. Nodes and links are kept by name,
    one link per pair of nodes, and routes break ties on node names, so the
    file with its [node.*] and [link.*] sections shuffled gives the same CSV
    and trace bytes (in one mode, chosen with the shuffle). No segment of a
    flow is sent or received before its start (no `send`, `rexmit`,
    `ack_tx` or `ack_rx` line before its `flow_start`), and no flow's
    goodput exceeds the sum of the MN's link bandwidths."""
    s = parse_scenario(text, "gen")
    mn_bits_per_s = 8 * sum(link.bandwidth for link in s.links if "MN" in (link.a, link.b))
    rnd = random.Random(text)
    shuffled_mode = rnd.choice(MODES)
    detections = sorted(h.at for h in s.handovers) + [s.end + 1]
    transmit = DirectedLink.transmit

    def fed_transmit(link, seg, at):
        handovers = sim.metrics.handovers
        if seg.hop == len(seg.route) - 1 and link.hand_off_before:  # only data is handed off
            assert seg.flags & F_DATA, link.label
        if link.feeder is not None:  # admitted ahead of time, so only from the feeder
            assert seg.hop > 0 and seg.route[seg.hop - 1] is link.feeder, link.label
            assert at > link.kernel.now, link.label
        elif at > link.kernel.now and seg.flags & F_ACK:  # the ACK of data handed to the MN
            assert not any(f.ack_extra_delay for f in s.flows) and not sim.trace.enabled
            assert link is sim.flows[seg.flow_id].receiver.route[0], link.label
            assert at < detections[len(handovers)] and at <= s.end, link.label
            if mn_checked[-1] != len(handovers):  # once per MN interval
                mn_checked.append(len(handovers))
                _assert_mn_interval(sim, detections[len(handovers)])
        elif at > link.kernel.now:  # handed off to the agent
            assert link is sim.topo.routes[(sim.ha_node, sim.mn, sim.ha.route_attachment())][0]
            assert seg.flags & F_DATA and at < detections[len(handovers)], link.label
            if quiet_checked[-1] != len(handovers):  # once per quiet interval
                quiet_checked.append(len(handovers))
                assert not handovers or handovers[-1].aborted or "t_r0" in handovers[-1].timeline
                for entry in sim.kernel.pending_entries("link-rx"):
                    pending = entry[5]
                    assert not pending.flags & F_BU, link.label
                    assert not (entry[0] < detections[len(handovers)] and pending.flags & F_DATA
                                and pending.hop == len(pending.route)
                                and pending.route[-1].dst == sim.ha_node), link.label
        return transmit(link, seg, at)

    for mode in MODES:
        quiet_checked, mn_checked = [None], [None]
        sim = Simulation(s, mode=mode, trace=True)
        with mock.patch.object(DirectedLink, "transmit", fed_transmit):
            metrics = sim.run()
        _assert_registration_once(metrics, sim.trace.lines)
        sent, received = (Counter(line.rsplit("=", 1)[1] for line in sim.trace.lines
                                  if f" {kind} " in line) for kind in ("bu_send", "bu_recv"))
        assert not received - sent, (mode, received, sent)
        traced_text = sim.trace.text()
        stamps = [tuple(map(int, line.split(" ", 1)[0].split("."))) for line in sim.trace.lines]
        assert stamps == sorted(stamps), mode
        started = set()
        for line in sim.trace.lines:
            kind, flow = re.match(r"\S+ (\S+) \S+ (flow=\S+)?", line).groups()
            if kind == "flow_start":
                started.add(flow)
            assert kind not in ("send", "rexmit", "ack_tx", "ack_rx") or flow in started, \
                (mode, line)
        for fm in metrics.flows.values():
            assert fm.goodput_bps() <= mn_bits_per_s, (mode, fm.flow_id)
        for rt in sim.flows.values():
            cap = rt.receiver.policy_cap
            assert cap in (None, 0) or cap >= s.mss, (mode, rt.spec.name, cap)
            assert rt.receiver.route is sim.topo.routes[(sim.mn, rt.spec.src, sim.attachment)], mode
        with all_events():
            reference = Simulation(s, mode=mode, trace=True)
            assert reference.run() == metrics, mode  # so the CSV is the same too
        assert reference.trace.lines == sim.trace.lines, mode
        csv = write_csv(metrics.csv_rows())
        quiet_checked, mn_checked = [None], [None]
        sim = Simulation(s, mode=mode)
        with mock.patch.object(DirectedLink, "transmit", fed_transmit), packet_log() as log:
            untraced = sim.run()
        assert untraced == metrics and write_csv(untraced.csv_rows()) == csv, mode
        with all_events(), packet_log() as reference_log:
            assert Simulation(s, mode=mode).run() == metrics, mode
        assert reference_log == log, mode
        if mode == shuffled_mode:
            shuffled = Simulation(parse_scenario(_shuffled_sections(text, rnd), "gen"), mode=mode,
                                  trace=True)
            assert write_csv(shuffled.run().csv_rows()) == csv, mode
            assert shuffled.trace.text() == traced_text, mode


def test_generated_runs_script_runs_the_body_on_each_seed():
    proc = subprocess.run([sys.executable, "scripts/generated_runs.py", "--seeds", "0",
                           "--examples", "2"], cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"seed 0: 2 files passed \(\d+\.\d s\)\n", proc.stdout)


def test_generated_runs_script_prints_the_failing_file(monkeypatch, capsys):
    # a body that fails on every file with a handover: the script stops at
    # the first seed and prints the shrunk file, which has one
    script = load_script("generated_runs")

    def body(text):
        assert "[handover." not in text

    monkeypatch.setattr(script, "BODY", body)
    assert script.main(["--seeds", "0", "1", "--examples", "50"]) == 1
    head, text = capsys.readouterr().out.split("\n", 1)
    assert re.fullmatch(r"seed 0: FAILED on this file \(\d+ runs of the body\)", head)
    assert len(parse_scenario(text, "gen").handovers) == 1


def _assert_mn_interval(sim: Simulation, until: int) -> None:
    """What holds while the MN's downlink hands data to the receiver, up to
    the detection at `until`: (i) no detection can still switch, and no
    binding update or marked window update is on its way; (ii) the latest
    handover drains no flow; (iii) a BUACK due at the MN keeps its pending
    arrival event (the interval took none: no tombstone carries one);
    (iv) no receiver delays its ACKs and no paced ACK waits; (v) no data is
    due at the MN before `until` but over the downlink of the binding in
    force, with no event (the interval took those), and no other link into
    the MN has anything left to deliver."""
    handovers, now = sim.metrics.handovers, sim.kernel.now
    down = sim.topo.routes[(sim.ha_node, sim.mn, sim.ha.route_attachment())][-1]
    if handovers:
        assert handovers[-1].aborted or "t_r0" in handovers[-1].timeline
        assert not sim._active.draining
    assert not any(entry[5].flags & F_BUACK for entry in sim.kernel._heap
                   if entry[3] == "link-rx" and entry[4] is not None)
    assert not any(rt.receiver.ack_delay for rt in sim.flows.values())
    assert not any(sim.kernel.pending_entries("ack-paced"))
    for entry in sim.kernel.pending_entries("link-rx"):
        seg = entry[5]
        assert not seg.flags & F_BU and not (seg.mark is not None and seg.flags & F_ACK)
        if seg.route[-1].dst == sim.mn:
            assert seg.route[-1] is down
            assert seg.hop < len(seg.route) or entry[0] >= until or seg.flags & F_BUACK
    for link in sim.topo.directed.values():
        if link.dst == sim.mn and link is not down:
            assert link.free_at == 0 or link.free_at + link.prop_delay < now, link.label


def _shuffled_sections(text: str, rnd: random.Random) -> str:
    """`text` with its [node.*] and [link.*] sections in a random order."""
    sections = re.split(r"(?m)^(?=\[)", text)
    slots = [i for i, section in enumerate(sections) if section.startswith(("[node.", "[link."))]
    moved = [sections[i] for i in slots]
    rnd.shuffle(moved)
    for i, section in zip(slots, moved):
        sections[i] = section
    return "".join(sections)


def _with_delays(name: str, delay: str, path: Path) -> str:
    text = scenario_path(name).read_text()
    path.write_text(re.sub(r"(?m)^delay = .*$", f"delay = {delay}", text))
    return str(path)


@pytest.mark.parametrize("mode", sorted(MODE_NAMES))
def test_zero_delays_run(mode, tmp_path):
    # every RTT is 0: each network's resting window is one segment
    scenario = _with_delays("s1_wlan_to_sat", "0", tmp_path / "s1_zero.scn")
    assert main(["run", "--scenario", scenario, "--mode", mode,
                 "--metrics", str(tmp_path / "m.csv")]) == 0


def test_microsecond_delays_run_proactive(tmp_path):
    # every BDP rounds to 0 B
    scenario = _with_delays("s5_roundtrip", "0.000001", tmp_path / "s5_us.scn")
    assert main(["run", "--scenario", scenario, "--mode", "proactive",
                 "--metrics", str(tmp_path / "m.csv")]) == 0
