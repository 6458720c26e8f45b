"""Command line behavior: subcommands, overrides, exit codes."""

import pytest

import anchorguard.harness as harness
from anchorguard.cli import main
from anchorguard.deployment import parse_network, serialize_network
from anchorguard.harness import CSV_HEADER, parse_scenario, run_trial, suspects_csv

SMALL_SCENARIO = """
n_nodes = 10
n_malicious = [2]
ranging = exact
trials = 2
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(SMALL_SCENARIO)
    return str(path)


def test_run_writes_csv(scenario_file, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code = main(["run", "--scenario", scenario_file, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # 2 trials x 2 methods + 2 summary rows
    assert len(lines) == 7
    assert "mean_error" in capsys.readouterr().out


def test_run_quiet_suppresses_summary(scenario_file, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    assert main(["run", "--scenario", scenario_file, "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_run_stdout_by_default(scenario_file, capsys):
    assert main(["run", "--scenario", scenario_file, "--quiet"]) == 0
    assert capsys.readouterr().out.startswith(CSV_HEADER)


def test_run_malicious_override(scenario_file, tmp_path):
    out = tmp_path / "metrics.csv"
    code = main(
        ["run", "--scenario", scenario_file, "--out", str(out), "--malicious", "0,3", "--quiet"]
    )
    assert code == 0
    # 2 points x 2 trials x 2 methods + 4 summary rows
    assert len(out.read_text().splitlines()) == 13


def test_run_rejects_bad_override(scenario_file, capsys):
    assert main(["run", "--scenario", scenario_file, "--malicious", "soon"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_unknown_key(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("warp = 9\n")
    assert main(["run", "--scenario", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_run_missing_scenario_file(capsys):
    assert main(["run", "--scenario", "/no/such/file"]) == 2


def test_run_undeployable_scenario_fails_cleanly(tmp_path, capsys):
    doc = tmp_path / "cramped.txt"
    doc.write_text("area_w = 20\narea_h = 20\nn_nodes = 6\nn_malicious = 0\ntrials = 2\n")
    assert main(["run", "--scenario", str(doc)]) == 3
    assert "skipped" in capsys.readouterr().err


def test_deploy_detect_pipeline_clean(tmp_path, capsys):
    fixture = tmp_path / "net.txt"
    clean = tmp_path / "clean.txt"
    clean.write_text(SMALL_SCENARIO.replace("[2]", "[0]"))
    assert main(["deploy", "--scenario", str(clean), "--out", str(fixture), "--quiet"]) == 0
    net = parse_network(fixture.read_text())
    assert len(net.nodes) == 10
    assert not any(n.compromised for n in net.nodes)

    out = tmp_path / "suspects.csv"
    code = main(
        ["detect", "--scenario", str(clean), "--network", str(fixture), "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("anchor_id,")
    assert len(lines) == 1  # honest fixture, nothing to report
    assert "0 failed" in capsys.readouterr().out


def test_deploy_detect_pipeline_attacked(tmp_path, capsys):
    # Compact area so every group has an in-radius verifier neighbor.
    scenario = tmp_path / "attacked.txt"
    scenario.write_text(SMALL_SCENARIO + "area_w = 300\narea_h = 300\n")
    fixture = tmp_path / "net.txt"
    assert main(["deploy", "--scenario", str(scenario), "--out", str(fixture), "--quiet"]) == 0
    net = parse_network(fixture.read_text())
    compromised = {n.id for n in net.nodes if n.compromised}
    assert len(compromised) == 2
    assert all(net.node(i).reported_pos != net.node(i).true_pos for i in compromised)

    out = tmp_path / "suspects.csv"
    code = main(
        ["detect", "--scenario", str(scenario), "--network", str(fixture), "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    flagged = {int(line.split(",", 1)[0]) for line in lines[1:]}
    assert flagged == compromised
    assert "2 failed" in capsys.readouterr().out


def test_deploy_is_deterministic_per_seed(scenario_file, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["deploy", "--scenario", scenario_file, "--out", str(a), "--seed", "9", "--quiet"]) == 0
    assert main(["deploy", "--scenario", scenario_file, "--out", str(b), "--seed", "9", "--quiet"]) == 0
    assert a.read_text() == b.read_text()


def test_deploy_detect_replays_run_trial_zero(tmp_path, monkeypatch):
    # `deploy --seed S` writes trial 0's attacked network of `run --seed S`,
    # and `detect` over it repeats that trial's detection.
    scenario = tmp_path / "noisy.txt"
    scenario.write_text(SMALL_SCENARIO.replace("exact", "gaussian\nsigma = 0.5"))
    fixture = tmp_path / "net.txt"
    suspects = tmp_path / "suspects.csv"
    args = ["--scenario", str(scenario), "--seed", "9", "--quiet"]
    assert main(["deploy", *args, "--out", str(fixture)]) == 0
    assert main(["detect", *args, "--network", str(fixture), "--out", str(suspects)]) == 0

    seen = []
    original = harness.run_detection

    def capture(net, *rest):
        report = original(net, *rest)
        seen.append((net, report))
        return report

    monkeypatch.setattr(harness, "run_detection", capture)
    cfg = parse_scenario(scenario.read_text() + "master_seed = 9\n")
    run_trial(cfg, 0)
    (net, report), = seen
    assert fixture.read_text() == serialize_network(net, seed=9)
    assert suspects.read_text() == suspects_csv(report)


@pytest.mark.parametrize(
    "flags, doc",
    [
        (["--epsilon", "nan"], ""),
        (["--sigma", "inf"], ""),
        ([], "comm_radius = nan\n"),
        ([], "area_w = inf\n"),
    ],
    ids=["epsilon-flag", "sigma-flag", "comm_radius-doc", "area_w-doc"],
)
def test_run_rejects_non_finite_values(tmp_path, capsys, flags, doc):
    path = tmp_path / "scenario.txt"
    path.write_text(SMALL_SCENARIO + doc)
    assert main(["run", "--scenario", str(path), "--quiet", *flags]) == 2
    assert "must be finite" in capsys.readouterr().err


def _with_last_group_members(lines, members):
    gid, _, rest = lines[-1].partition(",")
    return lines[:-1] + [f"{gid},{members};{rest.partition(';')[2]}"]


@pytest.mark.parametrize(
    "mangle, message",
    [
        # Header lines 0-5, then node 0 on line 6 and node 1 on line 7.
        (lambda lines: lines[:7] + [lines[6]] + lines[8:], "duplicate node id 0"),
        (lambda lines: _with_last_group_members(lines, "0 1 999"), "unknown node ids [999]"),
        (lambda lines: _with_last_group_members(lines, "0 1"), "fewer than three members"),
        # The last group line relabelled as group 0.
        (lambda lines: lines[:-1] + ["0," + lines[-1].partition(",")[2]], "duplicate group id 0"),
        (lambda lines: lines[:2] + ["comm_radius=0.0"] + lines[3:], "comm_radius must be > 0"),
        (lambda lines: lines[:2] + ["comm_radius=-5.0"] + lines[3:], "comm_radius must be > 0"),
        (lambda lines: ["area_w=-600.0"] + lines[1:], "area must be positive"),
        # Node 0 belongs to group 0; its column claims group 1.
        (
            lambda lines: lines[:6] + [_with_field(lines[6], ",", 5, "1")] + lines[7:],
            "node 0 has group_id 1 but is listed by group 0",
        ),
        (
            lambda lines: lines[:-1] + [lines[-1].replace(";", " 0;", 1)],
            "node 0 is listed by groups 0 and 2",
        ),
        # Group 0's line lists the founding nodes `0 1 2 3`; node 3 is dropped.
        (
            lambda lines: [ln.replace("0,0 1 2 3;", "0,0 1 2;") for ln in lines],
            "node 3 is listed by no group",
        ),
    ],
    ids=[
        "duplicate-id",
        "unknown-member",
        "short-group",
        "duplicate-group-id",
        "zero-radius",
        "negative-radius",
        "negative-area",
        "group-column",
        "two-groups",
        "no-group",
    ],
)
def test_detect_rejects_inconsistent_fixture(scenario_file, tmp_path, capsys, mangle, message):
    fixture = tmp_path / "net.txt"
    assert main(["deploy", "--scenario", scenario_file, "--out", str(fixture), "--quiet"]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(mangle(fixture.read_text().splitlines())) + "\n")
    assert main(["detect", "--scenario", scenario_file, "--network", str(bad)]) == 2
    assert message in capsys.readouterr().err


def _with_field(line, sep, index, value):
    fields = line.split(sep)
    fields[index] = value
    return sep.join(fields)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda lines: ["area_w=nan"] + lines[1:],
        lambda lines: lines[:1] + ["area_h=inf"] + lines[2:],
        lambda lines: lines[:2] + ["comm_radius=-inf"] + lines[3:],
        # Node 0 sits on line 6: id, true x, true y, reported x, reported y.
        lambda lines: lines[:6] + [_with_field(lines[6], ",", 1, "nan")] + lines[7:],
        lambda lines: lines[:6] + [_with_field(lines[6], ",", 4, "inf")] + lines[7:],
        lambda lines: lines[:-1] + [_with_field(lines[-1], ",", -1, "nan")],
    ],
    ids=["area_w", "area_h", "comm_radius", "node-true-x", "node-reported-y", "group-point-y"],
)
def test_detect_rejects_non_finite_fixture(scenario_file, tmp_path, capsys, mangle):
    fixture = tmp_path / "net.txt"
    assert main(["deploy", "--scenario", scenario_file, "--out", str(fixture), "--quiet"]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(mangle(fixture.read_text().splitlines())) + "\n")
    assert main(["detect", "--scenario", scenario_file, "--network", str(bad)]) == 2
    assert "is not finite" in capsys.readouterr().err


def test_detect_missing_network(scenario_file):
    assert main(["detect", "--scenario", scenario_file, "--network", "/no/net.txt"]) == 2


def test_detect_corrupt_fixture(scenario_file, tmp_path, capsys):
    broken = tmp_path / "broken.txt"
    broken.write_text("not a fixture\n")
    assert main(["detect", "--scenario", scenario_file, "--network", str(broken)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "{scenario}", "--out", "{dir}"],
        ["run", "--scenario", "{dir}"],
        ["deploy", "--scenario", "{scenario}", "--out", "{dir}"],
        ["detect", "--scenario", "{scenario}", "--network", "{dir}"],
    ],
    ids=["run-out", "run-scenario", "deploy-out", "detect-network"],
)
def test_directory_path_exits_2(scenario_file, tmp_path, capsys, argv):
    argv = [arg.format(scenario=scenario_file, dir=tmp_path) for arg in argv]
    assert main([*argv, "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["deploy", "--epsilon", "3"],
        ["deploy", "--sigma", "2"],
        ["deploy", "--alpha", "0.5"],
        ["detect", "--network", "net.txt", "--alpha", "0.5"],
    ],
    ids=["deploy-epsilon", "deploy-sigma", "deploy-alpha", "detect-alpha"],
)
def test_unread_flag_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])
