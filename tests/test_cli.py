"""CLI pipeline: gen/oracle/collect/train/eval/analyze on a miniature corpus."""

import json
import logging
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from cutplane import cli
from cutplane.cli import (
    SETTINGS,
    MissingModel,
    Settings,
    build_parser,
    load_oracle,
    main,
    oracle_path,
    parse_counts,
    parse_policies,
    parse_roles,
    read_config_file,
)
from cutplane.engine import load_trajectory
from cutplane.instances import load_instance
from cutplane.oracle import solve_ilp


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    base = ["--family", "packing", "--preset", "tiny", "--out", str(out)]
    main(["gen", "--count", "4,2,4", "--seed", "7"] + base)
    main(["oracle"] + base)
    main(["collect", "--max-iters", "6"] + base)
    main(["train"] + base)
    main(["collect", "--role", "test", "--policies", "random,lookahead",
          "--max-iters", "6"] + base)
    main(["eval", "--max-iters", "6", "--policies",
          "random,mv,lookahead,remove-lookahead,remove-random"] + base)
    main(["analyze", "--max-iters", "6"] + base)
    return out


@pytest.fixture
def run_copy(run_dir, tmp_path):
    """A copy of ``run_dir`` for a test that rewrites its outputs, so that the
    tests reading those outputs pass in any order."""
    return shutil.copytree(run_dir, tmp_path / "run")


def test_gen_layout_and_roles(run_dir):
    train = sorted((run_dir / "instances" / "packing-tiny" / "train").glob("*.json"))
    test = sorted((run_dir / "instances" / "packing-tiny" / "test").glob("*.json"))
    assert len(train) == 4 and len(test) == 4
    ids = {json.loads(p.read_text())["instance_id"] for p in train + test}
    assert len(ids) == 8  # role seed blocks are disjoint


def test_oracle_cache_matches_direct_solve(run_dir):
    cache = json.loads((run_dir / "oracle" / "packing-tiny-test.json").read_text())["entries"]
    path = sorted((run_dir / "instances" / "packing-tiny" / "test").glob("*.json"))[0]
    lp, doc = load_instance(path)
    res = solve_ilp(lp)
    assert cache[doc["instance_id"]]["value"] == res.value
    assert cache[doc["instance_id"]]["status"] == "optimal"


def test_collect_trajectories_monotone(run_dir):
    tdir = run_dir / "trajectories" / "packing-tiny" / "train" / "lookahead"
    paths = sorted(tdir.glob("*.json"))
    assert len(paths) == 4
    for p in paths:
        traj = load_trajectory(p)
        assert np.all(np.diff(traj.lp_values) >= -1e-7)
        for rec in traj.records:
            if rec.pool_ids:
                assert rec.pool_scores is not None  # collect always records scores


def test_model_and_report_written(run_dir):
    mdir = run_dir / "models"
    assert (mdir / "packing-tiny.json").exists()
    report = json.loads((mdir / "packing-tiny-report.json").read_text())
    assert report["n_train"] > 0
    assert len(report["val_losses"]) >= 1
    assert (mdir / "packing-tiny-train-dataset.csv").exists()


def test_igc_csv_shape_and_first_iteration(run_dir):
    """IGC_1 is 0 per instance unless the initial gap is already zero, in which
    case the whole curve is 1; the iteration-1 mean must equal that fraction."""
    from cutplane.lp import solve_lp

    cache = json.loads((run_dir / "oracle" / "packing-tiny-test.json").read_text())["entries"]
    zero_gap = 0
    paths = sorted((run_dir / "instances" / "packing-tiny" / "test").glob("*.json"))
    for p in paths:
        lp, doc = load_instance(p)
        v1 = solve_lp(lp).value
        if cache[doc["instance_id"]]["value"] - v1 <= 1e-9:
            zero_gap += 1
    expected_first = zero_gap / len(paths)

    lines = (run_dir / "igc_packing.csv").read_text().splitlines()
    assert lines[0].startswith("# cutplane=")
    assert lines[1] == "policy,iteration,mean_igc,var_igc,std_igc,n_instances"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 5 * 6  # policies x iterations
    for row in rows:
        mean = float(row[2])
        assert -1e-12 <= mean <= 1.0 + 1e-12
        # addition policies share the plain relaxation at k=1
        if row[1] == "1" and row[0] in ("random", "mv", "lookahead"):
            assert mean == pytest.approx(expected_first, abs=1e-12)


def test_analyze_m2_in_unit_interval(run_dir):
    for policy in ("random", "lookahead"):
        lines = (run_dir / f"dist_packing_M2_{policy}.csv").read_text().splitlines()
        for ln in lines[2:]:
            vals = [float(v) for v in ln.split(",")[1:]]
            assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in vals)


def test_analyze_refuses_removal_policies(run_dir):
    """Removal trajectories record no pool scores, so their distribution files
    would hold no values: analyze names the removal kinds and writes nothing."""
    base = ["--family", "packing", "--preset", "tiny", "--out", str(run_dir)]
    main(["collect", "--role", "test", "--policies", "remove-random", "--max-iters", "3"] + base)
    with pytest.raises(ValueError, match="remove-random"):
        main(["analyze", "--max-iters", "3", "--policies", "random,remove-random"] + base)
    assert not list(run_dir.glob("dist_*remove-random.csv"))


def test_eval_missing_model_errors(run_dir):
    with pytest.raises(MissingModel):
        main(["eval", "--family", "packing", "--preset", "tiny", "--out", str(run_dir),
              "--max-iters", "3", "--policies", "remove-neural"])


def test_neural_policies_run_with_model(run_copy):
    model = str(run_copy / "models" / "packing-tiny.json")
    main(["eval", "--family", "packing", "--preset", "tiny", "--out", str(run_copy),
          "--max-iters", "3", "--policies", "neural,remove-neural", "--model", model])
    text = (run_copy / "igc_packing.csv").read_text()
    assert "remove-neural" in text


@pytest.mark.parametrize("command", ["collect", "eval"])
def test_neural_policy_without_model_fails_before_any_run(run_copy, monkeypatch, command):
    calls = []
    monkeypatch.setattr(cli, "run_policy", lambda *args, **kw: calls.append(args))
    with pytest.raises(MissingModel, match="neural"):
        main([command, "--family", "packing", "--preset", "tiny", "--out", str(run_copy),
              "--role", "test", "--max-iters", "3", "--policies", "random,neural"])
    assert calls == []


def test_eval_warns_on_oracle_values_that_are_not_proven_optima(run_copy, caplog):
    """The IGC file is written as before; one WARNING names the unproven instance."""
    base = ["--family", "packing", "--preset", "tiny", "--out", str(run_copy)]
    argv = ["eval", "--max-iters", "3", "--policies", "random"] + base
    igc = run_copy / "igc_packing.csv"
    with caplog.at_level(logging.WARNING, logger="cutplane"):
        main(argv)
    assert not [r for r in caplog.records if "proven" in r.getMessage()]
    before = igc.read_bytes()

    path = oracle_path(run_copy, "packing", "tiny", "test")
    doc = json.loads(path.read_text())
    iid = sorted(doc["entries"])[1]
    doc["entries"][iid]["proven"] = False
    path.write_text(json.dumps(doc, sort_keys=True))
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="cutplane"):
        main(argv)
    warned = [r.getMessage() for r in caplog.records if "proven" in r.getMessage()]
    assert len(warned) == 1 and iid in warned[0]
    others = set(doc["entries"]) - {iid}
    assert not any(other in warned[0] for other in others)
    assert igc.read_bytes() == before


def test_parse_counts():
    assert parse_counts("2000,500,500") == {"train": 2000, "val": 500, "test": 500}
    assert parse_counts("5") == {"train": 5, "val": 5, "test": 5}
    with pytest.raises(ValueError):
        parse_counts("1,2")


def test_parse_policies_rejects_unknown():
    assert parse_policies("mv, random") == ["mv", "random"]
    with pytest.raises(ValueError):
        parse_policies("gurobi")


def test_config_file_flag_precedence(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("max_iters = 12  # comment\nfamily=set_cover\n")
    parsed = read_config_file(cfg_file)
    assert parsed == {"max_iters": "12", "family": "set_cover"}

    settings = Settings("collect", {"max_iters": 3, "family": None}, parsed)
    assert settings.get("max_iters") == 3          # flag wins
    assert settings.get("family") == "set_cover"   # file fills the gap
    assert settings.get("preset") == "small"       # default remains


@pytest.mark.parametrize("command,line,kind", [("collect", "max_iters = ten", "int"),
                                                ("train", "lr = fast", "float")])
def test_config_value_that_does_not_parse_names_its_key(tmp_path, command, line, kind):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(line + "\n")
    key, value = (part.strip() for part in line.split("="))
    settings = Settings(command, {}, read_config_file(cfg_file))
    with pytest.raises(ValueError, match=rf"{key}.*'{value}'.*{kind}"):
        settings.get(key)


@pytest.mark.parametrize("key", ["frobnicate", "pivot_tol", "feasibility_tol",
                                 "integrality_tol", "write_dataset"])
def test_unknown_config_key_rejected(tmp_path, key):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"{key}=1\n")
    for command in SETTINGS:
        with pytest.raises(ValueError):
            Settings(command, {}, read_config_file(cfg_file))


@pytest.mark.parametrize("text", [
    '{"format_version": 1, "entr',
    "[]",
    '{"format_version": 2, "entries": {}}',
    '{"format_version": 1}',
    '{"format_version": 1, "entries": {"p-7": {"status": "optimal"}}}',
    '{"format_version": 1, "entries": {"p-7": 3.5}}',
    '{"format_version": 1, "entries": {"p-7": {"value": "3.5"}}}',
], ids=["truncated", "list", "version-2", "no-entries", "entry-no-value", "entry-not-object",
        "entry-string-value"])
def test_malformed_oracle_file_raises_value_error_naming_path(tmp_path, text):
    path = oracle_path(tmp_path, "packing", "tiny", "test")
    path.parent.mkdir(parents=True)
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path))) as err:
        load_oracle(tmp_path, "packing", "tiny", "test")
    assert ("p-7" in str(err.value)) == ("p-7" in text)


def _config_of(path: Path) -> str:
    """The provenance hash in the metadata line of a CSV output."""
    return re.search(r"config=([0-9a-f]{12})", path.read_text().splitlines()[0]).group(1)


@pytest.mark.parametrize("argv", [
    ["gen", "--policies", "mv"],
    ["collect", "--seed", "5"],
    ["train", "--arith", "rational"],
    ["train", "--max-iters", "3"],
    ["analyze", "--model", "m.json"],
    ["eval", "--count", "1"],
], ids=" ".join)
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_each_command_has_only_its_own_flags():
    """family, preset, out, workers and config on every command, plus its own keys."""
    common = {"config", "family", "out", "preset", "workers"}
    run = {"arith", "max_iters", "model", "policies", "role"}
    own = {"gen": {"count", "seed"}, "oracle": {"role"}, "collect": run,
           "train": {"model", "seed"}, "eval": run,
           "analyze": {"max_iters", "policies", "role"}}
    parser = build_parser()
    slots = {name: set(vars(parser.parse_args([name]))) - {"command"} for name in own}
    assert slots == {name: common | keys for name, keys in own.items()}
    assert sum(map(len, slots.values())) == 48


def test_config_hash_names_the_settings_the_command_reads(run_copy, tmp_path):
    base = ["--family", "packing", "--preset", "tiny", "--out", str(run_copy)]
    dist = run_copy / "dist_packing_M2_lookahead.csv"

    def analyze(*argv):
        main(["analyze", *argv] + base)
        return _config_of(dist)

    assert analyze("--max-iters", "3") != analyze("--max-iters", "4")
    default = analyze("--max-iters", "6")
    assert analyze("--max-iters", "6", "--policies", "random,lookahead") == default
    other = tmp_path / "train.cfg"
    other.write_text("epochs = 5\n")  # a key only train reads: neither read nor hashed
    assert analyze("--max-iters", "6", "--config", str(other)) == default

    oracle = oracle_path(run_copy, "packing", "tiny", "test")
    main(["oracle"] + base)
    implicit = json.loads(oracle.read_text())["config"]
    main(["oracle", "--role", "test"] + base)
    assert json.loads(oracle.read_text())["config"] == implicit


def test_no_metadata_line_holds_a_seed(run_dir):
    outputs = sorted(run_dir.glob("igc_*.csv")) + sorted(run_dir.glob("dist_*.csv"))
    assert outputs
    for path in outputs:
        first = path.read_text().splitlines()[0]
        assert first.startswith("# cutplane=") and "seed=" not in first, path


def test_parse_roles_strips_and_checks_each_role():
    assert parse_roles(" train, val") == ["train", "val"]
    with pytest.raises(ValueError, match="bogus"):
        parse_roles("train,bogus")
    with pytest.raises(ValueError, match="--role"):
        parse_roles("val,test", single=True)


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_eval_and_analyze_refuse_a_role_list(run_dir, command):
    base = ["--family", "packing", "--preset", "tiny", "--out", str(run_dir)]
    with pytest.raises(ValueError, match="--role"):
        main([command, "--role", "val,test", "--max-iters", "3", "--policies", "random"] + base)


def test_unknown_role_is_named(run_dir):
    base = ["--family", "packing", "--preset", "tiny", "--out", str(run_dir)]
    with pytest.raises(ValueError, match="bogus"):
        main(["oracle", "--role", "test,bogus"] + base)


@pytest.mark.parametrize("command", ["eval", "analyze"])
def test_eval_and_analyze_strip_the_role(run_copy, command):
    base = ["--family", "packing", "--preset", "tiny", "--out", str(run_copy)]
    out = run_copy / ("igc_packing.csv" if command == "eval" else "dist_packing_M2_random.csv")
    main([command, "--max-iters", "6", "--policies", "random"] + base)
    default = _config_of(out)
    main([command, "--role", " test", "--max-iters", "6", "--policies", " random"] + base)
    assert "role=test" in out.read_text().splitlines()[0].split()
    assert _config_of(out) == default
