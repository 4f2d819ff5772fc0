import copy
import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from anisolab.construction import (
    LOG_GRID_STEP,
    MAX_CYCLES,
    CertificateError,
    ConstructionError,
    TripleBuild,
    build_triple,
    certificate_margin,
    envelope_report,
    incomparability_certificate,
    next_breakpoint,
    schedule_order_violation,
    _roles_for,
    tangent_point,
)
from anisolab.young1d import PowerFn, PowerLogFn, check_convex


def test_tangent_residuals():
    # tangency: line value and slope match the upper curve at h
    logtau = np.log(2.0)
    logh, line = tangent_point(logtau, 2.0, 1.0)
    hi = PowerLogFn(2, 1)
    assert line.log_value(logh) == pytest.approx(hi.log_value(logh), abs=1e-9)
    assert line.log_slope == pytest.approx(hi.log_derivative(logh), abs=1e-12)
    assert line.log_value(logtau) == pytest.approx(PowerFn(2).log_value(logtau), abs=1e-12)


def test_tangent_matches_dense_scan():
    # independent oracle: sign change of the tangency gap on a dense grid
    p, alpha, logtau = 1.0, 1.0, np.log(2.0)
    logh, _ = tangent_point(logtau, p, alpha)
    hi = PowerLogFn(p, alpha)
    lo = PowerFn(p)

    def resid(lh):
        h = np.exp(lh)
        tau = np.exp(logtau)
        return hi.value(h) - hi.derivative(h) * (h - tau) - lo.value(tau)

    grid = np.arange(logtau + 1e-6, logtau + 3.0, 1e-6)
    vals = resid(grid)
    sign_flips = np.where(np.diff(np.sign(vals)) != 0)[0]
    assert len(sign_flips) == 1
    bracket = grid[sign_flips[0]], grid[sign_flips[0] + 1]
    assert bracket[0] <= logh <= bracket[1]


def test_tangent_infeasible_at_one():
    # the upper curve runs below t^p on (0, e-1), so no tangent launches
    # from t = 1 for any parameters
    for p in (1.0, 2.0, 3.5):
        with pytest.raises(ConstructionError):
            tangent_point(0.0, p, 1.0)


def test_tangent_point_monotone_in_launch():
    hs = [tangent_point(lt, 2.0, 1.0)[0] for lt in np.linspace(np.log(2.0), 5.0, 12)]
    assert np.all(np.diff(hs) > 0.0)


def test_next_breakpoint_small_cycle():
    # k = 0 carries no growth condition beyond clearing s_k
    out = next_breakpoint(np.log(10.0), 0, 2.0, 1.0)
    assert out >= np.log(10.0)
    assert out - np.log(10.0) <= 2 * LOG_GRID_STEP


def test_next_breakpoint_growth_condition():
    for k in (1, 2, 4):
        out = next_breakpoint(np.log(10.0), k, 2.0, 1.0)
        log_tp1 = np.logaddexp(out, 0.0)  # log(t+1)
        assert log_tp1**1.0 >= k ** 3.0  # the minimal growth condition
        assert log_tp1 >= 2.0 * (k + 1) * k**3.0 - 1e-9  # the margin-bearing one
        assert out >= np.log(k + 1.0)


def test_build_k0_degenerate():
    b = build_triple(2.0, 1.0, 0)
    assert len(b.schedule) == 0
    logts = np.linspace(-2, 6, 50)
    assert np.allclose(b.phi[0].log_value(logts), PowerFn(2).log_value(logts))
    assert np.allclose(b.phi[1].log_value(logts), PowerFn(2).log_value(logts))
    assert np.allclose(b.phi[2].log_value(logts), PowerLogFn(2, 1).log_value(logts))


def test_build_k1_schedule_and_pieces():
    b = build_triple(2.0, 1.0, 1)
    assert len(b.schedule) == 1
    rec = b.schedule[0]
    assert rec.logt == 0.0  # t_0 = 1
    assert rec.logtau == np.log(2.0)  # feasibility launch
    assert rec.logtau < rec.logh < rec.logs < rec.logt_next
    # climber phi_2: power, line from tau, upper curve from h
    kinds = [type(p).__name__ for p in b.phi[1].pieces]
    assert kinds == ["PowerFn", "LinearPiece", "PowerLogFn"]
    # leader phi_3: upper curve, line from h, power from s
    kinds = [type(p).__name__ for p in b.phi[2].pieces]
    assert kinds == ["PowerLogFn", "LinearPiece", "PowerFn"]
    assert [type(p).__name__ for p in b.phi[0].pieces] == ["PowerFn"]


def test_build_p1_raises_at_descent():
    # for p = 1 the descent line (slope > 1) never re-meets t -> t, so the
    # parameter check names p before the first cycle
    with pytest.raises(ValueError, match=r"^p: 1\.0 .*never re-meets the lower curve"):
        build_triple(1.0, 1.0, 1)
    assert build_triple(1.0, 1.0, 0).schedule == []  # no cycle, no descent line


def test_schedule_strictly_increasing(build6):
    for rec in build6.schedule:
        assert rec.logt <= rec.logtau < rec.logh < rec.logs < rec.logt_next
    for a, b in zip(build6.schedule[:-1], build6.schedule[1:]):
        assert a.logt_next == b.logt
    assert schedule_order_violation(build6.schedule) is None


def test_heavy_rotation_covers_all_indices(build6):
    heavies = [r.heavy_index for r in build6.schedule]
    assert set(heavies) == {0, 1, 2}


def test_envelope_pointwise(build6):
    rep = envelope_report(build6)
    assert rep["min_matches_lower_envelope"]
    assert rep["max_matches_upper_envelope"]
    assert rep["all_between_envelopes"]


def test_convexity_of_each_function(build6):
    for f in build6.phi:
        assert check_convex(f).ok


def test_certificates_nonnegative_and_increasing(build6):
    certs = incomparability_certificate(build6)
    margins = [c.log_margin for c in certs]
    assert all(m >= 0.0 for m in margins)
    assert all(b > a for a, b in zip(margins[:-1], margins[1:]))
    assert {c.heavy_index for c in certs} == {0, 1, 2}


def test_certificate_requires_three_cycles():
    b = build_triple(2.0, 1.0, 2)
    with pytest.raises(ValueError):
        incomparability_certificate(b)


def test_certificate_negative_control_identical_triple():
    # three identical squares: margins sink, nothing diverges
    sq = PowerFn(2)
    margins = [
        certificate_margin(sq, sq, sq, k, np.log(10.0) * (k + 1)) for k in range(1, 6)
    ]
    assert all(m < 0.0 for m in margins)
    assert all(b < a for a, b in zip(margins[:-1], margins[1:]))


def test_certificate_violation_raises():
    b = build_triple(2.0, 1.0, 3)
    # tamper: pull one breakpoint far below the growth requirement
    b.schedule[2].logt_next = b.schedule[2].logs + 0.01
    with pytest.raises(CertificateError):
        incomparability_certificate(b)


def test_build_json_roundtrip(tmp_path, build6):
    path = tmp_path / "triple.json"
    build6.save(path)
    # the schedule is the whole record: the functions are glued from it
    assert set(json.loads(path.read_text())) == {"alpha", "cycles", "p", "schedule"}
    back = TripleBuild.load(path)
    assert back.cycles == build6.cycles
    logts = np.linspace(-2, 1500, 300)
    for f, g in zip(build6.phi, back.phi):
        assert np.array_equal(f.log_value(logts), g.log_value(logts))
    path2 = tmp_path / "triple2.json"
    back.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def _set(path, value):
    def tamper(data):
        *keys, last = path
        for key in keys:
            data = data[key]
        data[last] = value

    return tamper


# each case breaks one requirement of the triple reader: (tampering, the
# field the error must name)
MALFORMED_TRIPLES = {
    "logt_next_below_logs": (_set(("schedule", 2, "logt_next"), -5.0), "schedule[2].logt_next"),
    "logt_next_not_next_logt": (_set(("schedule", 2, "logt_next"), 1e3), "schedule[2].logt_next"),
    "logh_below_logtau": (_set(("schedule", 4, "logh"), 0.0), "schedule[4].logh"),
    "more_cycles_than_records": (_set(("cycles",), 9), "cycles"),
    "record_numbered_out_of_order": (_set(("schedule", 1, "k"), 5), "schedule[1].k"),
    "heavy_index_out_of_range": (_set(("schedule", 3, "heavy_index"), 7), "schedule[3].heavy_index"),
    "permutation_repeats_an_index": (
        _set(("schedule", 0, "permutation"), [0, 0, 2]),
        "schedule[0].permutation",
    ),
    "record_without_logs": (lambda data: data["schedule"][1].pop("logs"), "schedule[1].logs"),
    "no_cycles": (lambda data: data.pop("cycles"), "cycles"),
    "cycles_above_the_cap": (_set(("cycles",), 13), "cycles"),
    "cycles_a_fraction": (_set(("cycles",), 9.5), "cycles"),
    "cycles_a_string": (_set(("cycles",), "9"), "cycles"),
    "cycles_a_bool": (_set(("cycles",), True), "cycles"),
    "p_below_one": (_set(("p",), 0.5), "p"),
    "alpha_negative": (_set(("alpha",), -1), "alpha"),
    "p_a_string": (_set(("p",), "2"), "p"),
    "p_one": (_set(("p",), 1.0), "p"),
    "schedule_not_a_list": (_set(("schedule",), 5), "schedule"),
    "record_not_an_object": (_set(("schedule", 1), 5), "schedule[1]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TRIPLES))
def test_triple_json_rejects_malformed_input(case, build6):
    tamper, field = MALFORMED_TRIPLES[case]
    data = copy.deepcopy(build6.to_json_dict())
    TripleBuild.from_json_dict(copy.deepcopy(data))  # the untouched build loads
    tamper(data)
    with pytest.raises(ValueError) as err:
        TripleBuild.from_json_dict(data)
    assert str(err.value).startswith(field + ":")


def test_triple_json_names_a_top_level_that_is_not_an_object(build6):
    with pytest.raises(ValueError, match=r"^top level: expected a JSON object, found list$"):
        TripleBuild.from_json_dict([build6.to_json_dict()])


def test_every_record_carries_the_rotation():
    # the leader is the last cycle's heavy index and the climber becomes
    # the next one
    assert {h: _roles_for(h) for h in range(3)} == {2: (0, 1, 2), 1: (2, 0, 1), 0: (1, 2, 0)}
    heavy = 2
    for rec in build_triple(2.0, 1.0, MAX_CYCLES).schedule:
        assert rec.permutation == _roles_for(heavy)
        assert rec.heavy_index == rec.permutation[1]
        heavy = rec.heavy_index


# (record, change to it, the field the error must name): roles that are
# not the construction's rotation, so the functions would be glued wrongly
SCHEDULE_ROLE_TAMPERS = {
    "heavy_index_not_the_climber": (
        5, lambda r: {"heavy_index": r.permutation[0]}, "schedule[5].heavy_index"
    ),
    "permutation_not_the_rotation": (
        1, lambda r: {"permutation": r.permutation[1:] + r.permutation[:1]}, "schedule[1].permutation"
    ),
}


# the reader is the one path by which a stored schedule meets a build
@pytest.mark.parametrize("via", ["reader"])
@pytest.mark.parametrize("case", sorted(SCHEDULE_ROLE_TAMPERS))
def test_schedule_roles_are_checked_on_every_path(case, via, build6):
    i, change, field = SCHEDULE_ROLE_TAMPERS[case]
    schedule = list(build6.schedule)
    schedule[i] = replace(schedule[i], **change(schedule[i]))
    assert sorted(schedule[i].permutation) == [0, 1, 2]  # still a permutation
    data = dict(build6.to_json_dict(), schedule=[asdict(r) for r in schedule])
    with pytest.raises(ValueError) as err:
        TripleBuild.from_json_dict(json.loads(json.dumps(data)))
    assert str(err.value).startswith(field + ":")


def test_logs_off_the_re_meeting_point_rejected(build6):
    schedule = list(build6.schedule)
    schedule[2] = replace(schedule[2], logs=schedule[2].logs + 0.5)
    assert schedule_order_violation(schedule) is None  # the order still holds
    data = dict(build6.to_json_dict(), schedule=[asdict(r) for r in schedule])
    with pytest.raises(ValueError) as err:
        TripleBuild.from_json_dict(data)
    assert str(err.value).startswith("schedule[2].logs:")


def test_schedule_csv(tmp_path, build6):
    path = tmp_path / "schedule.csv"
    build6.schedule_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k,logt_k,logh_k,logs_k,logt_next,heavy_index,log_margin"
    assert len(lines) == 1 + len(build6.schedule)


def test_cycle_cap():
    for cycles in (13, -1, 9.5, "9", True):
        with pytest.raises(ValueError, match="^cycles: "):
            build_triple(2.0, 1.0, cycles)
