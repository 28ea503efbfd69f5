import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panosearch.detector import Detection
from panosearch.refinement import (VAR_FLOOR, SearchWindow, bounds_iou,
                                   box_bounds, iou, nms_merge, overlap_prob,
                                   variance_vote)


def box(th=0.0, tv=0.0, w=1.0, h=1.0, conf=0.9, var_h=1e-4, var_v=1e-4, oid=None):
    return Detection(theta_h=th, theta_v=tv, width_deg=w, height_deg=h,
                     confidence=conf, var_h=var_h, var_v=var_v, object_id=oid)


# --- iou ----------------------------------------------------------------------

def reference_iou(a, b):
    """The original scalar IoU: min/max over the rectangles' edges."""
    ax0, ax1 = a.theta_h - a.width_deg / 2.0, a.theta_h + a.width_deg / 2.0
    ay0, ay1 = a.theta_v - a.height_deg / 2.0, a.theta_v + a.height_deg / 2.0
    bx0, bx1 = b.theta_h - b.width_deg / 2.0, b.theta_h + b.width_deg / 2.0
    by0, by1 = b.theta_v - b.height_deg / 2.0, b.theta_v + b.height_deg / 2.0
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.width_deg * a.height_deg + b.width_deg * b.height_deg
                    - inter)


def test_identical_boxes_full_overlap():
    assert iou(box(), box()) == pytest.approx(1.0)


def test_disjoint_boxes_zero():
    assert iou(box(0, 0), box(5, 5)) == 0.0


def test_half_width_offset_hand_value():
    # unit boxes offset by half a width: 0.5 / 1.5
    assert iou(box(0, 0), box(0.5, 0)) == pytest.approx(1.0 / 3.0, rel=1e-12)


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 3), st.floats(0.1, 3),
       st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 3), st.floats(0.1, 3))
@settings(max_examples=300, deadline=None)
def test_iou_symmetric_and_bounded(ah, av, aw, ahh, bh, bv, bw, bhh):
    a = box(ah, av, aw, ahh)
    b = box(bh, bv, bw, bhh)
    v = iou(a, b)
    assert 0.0 <= v <= 1.0 + 1e-12
    assert v == pytest.approx(iou(b, a), rel=1e-12, abs=1e-15)


# --- overlap probability --------------------------------------------------------

def test_full_overlap_prob_one():
    assert overlap_prob(box(), box()) == pytest.approx(1.0)


def test_overlap_prob_hand_values():
    # IoU 0.9 -> exp(-0.4); IoU 0.5 -> exp(-10), both at temperature 0.025
    a = box(0, 0, 1, 1)
    # shift so the IoU is exactly 0.9: offset d gives IoU (1-d)/(1+d) -> d = 1/19
    d = 1.0 / 19.0
    assert iou(a, box(d, 0)) == pytest.approx(0.9, rel=1e-12)
    assert overlap_prob(a, box(d, 0)) == pytest.approx(math.exp(-0.4), rel=1e-9)
    d = 1.0 / 3.0  # IoU (1-d)/(1+d) = 0.5
    assert iou(a, box(d, 0)) == pytest.approx(0.5, rel=1e-12)
    assert overlap_prob(a, box(d, 0)) == pytest.approx(math.exp(-10.0), rel=1e-9)


# --- variance voting -------------------------------------------------------------

def test_vote_single_member_identity():
    b = box(3.2, -1.1)
    c_h, c_v, r_h, r_v = variance_vote([(b, 1.0)])
    assert (c_h, c_v) == (pytest.approx(3.2), pytest.approx(-1.1))
    assert r_h == pytest.approx(b.var_h)


def test_vote_hand_case():
    # centers 10 and 12, equal overlap, variances 1 and 4 -> 10.4, radius 0.8
    members = [(box(10.0, 0.0, var_h=1.0, var_v=1.0), 1.0),
               (box(12.0, 0.0, var_h=4.0, var_v=4.0), 1.0)]
    c_h, _, r_h, _ = variance_vote(members)
    assert c_h == pytest.approx(10.4, rel=1e-12)
    assert r_h == pytest.approx(0.8, rel=1e-12)


def test_vote_identical_centers_fixpoint():
    members = [(box(2.0, 2.0, var_h=v, var_v=v), p)
               for v, p in ((0.5, 1.0), (2.0, 0.3), (0.1, 0.8))]
    c_h, c_v, _, _ = variance_vote(members)
    assert c_h == pytest.approx(2.0)
    assert c_v == pytest.approx(2.0)


def test_vote_matches_direct_formula():
    # <= 5 members against an independently coded evaluation
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        members = [(box(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)),
                        var_h=float(rng.uniform(1e-4, 2.0)),
                        var_v=float(rng.uniform(1e-4, 2.0))),
                    float(rng.uniform(0.01, 1.0))) for _ in range(n)]
        c_h, c_v, r_h, r_v = variance_vote(members)
        num_h = sum(p * b.theta_h / b.var_h for b, p in members)
        den_h = sum(p / b.var_h for b, p in members)
        num_v = sum(p * b.theta_v / b.var_v for b, p in members)
        den_v = sum(p / b.var_v for b, p in members)
        assert c_h == pytest.approx(num_h / den_h, rel=1e-12, abs=1e-12)
        assert c_v == pytest.approx(num_v / den_v, rel=1e-12, abs=1e-12)
        assert r_h == pytest.approx(1.0 / den_h, rel=1e-12)
        assert r_v == pytest.approx(1.0 / den_v, rel=1e-12)


def test_vote_center_in_convex_hull():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        members = [(box(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)),
                        var_h=float(rng.uniform(1e-3, 1.0)),
                        var_v=float(rng.uniform(1e-3, 1.0))),
                    float(rng.uniform(0.01, 1.0))) for _ in range(n)]
        c_h, c_v, _, _ = variance_vote(members)
        hs = [b.theta_h for b, _ in members]
        vs = [b.theta_v for b, _ in members]
        assert min(hs) - 1e-12 <= c_h <= max(hs) + 1e-12
        assert min(vs) - 1e-12 <= c_v <= max(vs) + 1e-12


def test_downweighting_by_variance_and_overlap():
    # inflating a neighbour's variance pulls the vote back toward the others;
    # shrinking its overlap does the same
    anchor = (box(0.0, 0.0, var_h=1.0, var_v=1.0), 1.0)
    neighbour = box(2.0, 0.0, var_h=1.0, var_v=1.0)
    base = variance_vote([anchor, (neighbour, 0.8)])[0]
    inflated = variance_vote(
        [anchor, (box(2.0, 0.0, var_h=4.0, var_v=4.0), 0.8)])[0]
    lowered = variance_vote([anchor, (neighbour, 0.3)])[0]
    assert inflated < base
    assert lowered < base


def test_vote_floors_zero_variance():
    c_h, _, r_h, _ = variance_vote([(box(1.0, 0.0, var_h=0.0, var_v=0.0), 1.0)])
    assert c_h == pytest.approx(1.0)
    assert r_h > 0


def test_variances_between_1e6_and_1e5_are_not_floored():
    # 2e-6 and 5e-6 lie above the 1e-6 floor: a floor raised to 1e-5 would
    # clamp both, giving centre (1/30, ...) and radii 1e-5 / 1.5
    a = box(0.0, 1.0, conf=0.9, var_h=2e-6, var_v=5e-6)
    b = box(0.1, 1.2, conf=0.7, var_h=5e-6, var_v=2e-6)
    c_h, c_v, r_h, r_v = variance_vote([(a, 1.0), (b, 0.5)])
    wa_h, wa_v, wb_h, wb_v = 1.0 / 2e-6, 1.0 / 5e-6, 0.5 / 5e-6, 0.5 / 2e-6
    assert (c_h, r_h) == ((wa_h * 0.0 + wb_h * 0.1) / (wa_h + wb_h),
                          1.0 / (wa_h + wb_h))
    assert (c_v, r_v) == ((wa_v * 1.0 + wb_v * 1.2) / (wa_v + wb_v),
                          1.0 / (wa_v + wb_v))
    assert c_h == pytest.approx(1.0 / 60.0, rel=1e-12)
    assert r_h == pytest.approx(1.0 / 6e5, rel=1e-12)
    (window,) = nms_merge([a, b], vote=False)
    assert (window.radius_h, window.radius_v) == (2e-6, 5e-6)


# --- nms_merge --------------------------------------------------------------------

def test_single_detection_single_window():
    (window,) = nms_merge([box(1.0, 1.0, conf=0.7)])
    assert window.center_h == pytest.approx(1.0)
    assert window.members == (box(1.0, 1.0, conf=0.7),)


def test_two_overlapping_merge_into_voted_window():
    a = box(0.0, 0.0, conf=0.9, var_h=1e-4, var_v=1e-4)
    b = box(0.1, 0.0, conf=0.7, var_h=4e-4, var_v=4e-4)
    (window,) = nms_merge([a, b])
    assert len(window.members) == 2
    p_b = overlap_prob(b, a)
    expected = (1.0 * 0.0 / 1e-4 + p_b * 0.1 / 4e-4) / (1.0 / 1e-4 + p_b / 4e-4)
    assert window.center_h == pytest.approx(expected, rel=1e-12)
    assert window.confidence == pytest.approx(0.9)


def test_two_disjoint_detections_stay_separate():
    windows = nms_merge([box(0.0, 0.0, conf=0.9), box(5.0, 5.0, conf=0.8)])
    assert len(windows) == 2


def test_empty_input_empty_output():
    assert nms_merge([]) == []


def test_windows_pairwise_below_keep_threshold():
    rng = np.random.default_rng(5)
    dets = [box(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
                w=1.0, h=1.0, conf=float(rng.uniform(0.1, 1.0)))
            for _ in range(40)]
    windows = nms_merge(dets, iou_keep=0.5)
    for i in range(len(windows)):
        for j in range(i + 1, len(windows)):
            a, b = windows[i], windows[j]
            da = box(a.center_h, a.center_v, a.width_deg, a.height_deg)
            db = box(b.center_h, b.center_v, b.width_deg, b.height_deg)
            assert iou(da, db) <= 0.5 + 0.35  # voting may drift centers slightly


def test_no_vote_keeps_best_member_center():
    a = box(0.0, 0.0, conf=0.9)
    b = box(0.2, 0.0, conf=0.7)
    (window,) = nms_merge([a, b], vote=False)
    assert window.center_h == 0.0
    assert len(window.members) == 2


# --- array suppression against the scalar loop -------------------------------------

def reference_nms_merge(dets, iou_keep=0.5, sigma_t=0.025, vote=True,
                        limit=20.0):
    """The original suppression: a pairwise iou() scan over the rank order."""
    if not dets:
        return []
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].confidence, i))
    taken = [False] * len(dets)
    windows = []
    for i in order:
        if taken[i]:
            continue
        taken[i] = True
        best = dets[i]
        members = [best]
        for j in order:
            if taken[j]:
                continue
            if reference_iou(best, dets[j]) > iou_keep:
                taken[j] = True
                members.append(dets[j])
        if vote:
            pairs = [(m, overlap_prob(m, best, sigma_t)) for m in members]
            c_h, c_v, r_h, r_v = variance_vote(pairs)
        else:
            c_h, c_v = best.theta_h, best.theta_v
            r_h, r_v = max(best.var_h, VAR_FLOOR), max(best.var_v, VAR_FLOOR)
        windows.append(SearchWindow(
            center_h=min(max(c_h, -limit), limit),
            center_v=min(max(c_v, -limit), limit),
            radius_h=r_h, radius_v=r_v, confidence=best.confidence,
            width_deg=best.width_deg, height_deg=best.height_deg,
            members=tuple(members)))
    return windows


# coarse grids: equal confidences, touching edges and IoUs landing exactly on
# the keep threshold all occur often
coarse_dets = st.lists(
    st.builds(box,
              th=st.integers(-8, 8).map(lambda k: k * 0.25),
              tv=st.integers(-4, 4).map(lambda k: k * 0.25),
              w=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
              h=st.sampled_from([0.5, 1.0, 2.0]),
              conf=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
              var_h=st.floats(0.0, 1e-3), var_v=st.floats(0.0, 1e-3),
              oid=st.sampled_from([None, 0, 1])),
    max_size=40)


@given(dets=coarse_dets,
       iou_keep=st.sampled_from([0.0, 0.2, 1.0 / 3.0, 0.5, 0.6, 0.75]),
       vote=st.booleans(), limit=st.sampled_from([1.0, 20.0]))
@settings(max_examples=300, deadline=None)
def test_nms_matches_reference(dets, iou_keep, vote, limit):
    kw = dict(iou_keep=iou_keep, vote=vote, limit=limit)
    assert nms_merge(dets, **kw) == reference_nms_merge(dets, **kw)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300))
@settings(max_examples=40, deadline=None)
def test_nms_matches_reference_on_random_clusters(seed, n):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-15.0, 15.0, size=(max(1, n // 10), 2))
    pick = rng.integers(0, len(centers), size=n)
    pts = centers[pick] + rng.normal(0.0, 0.05, size=(n, 2))
    dets = [box(float(h), float(v), w=float(w), h=0.1, conf=float(c),
                var_h=float(vh), var_v=float(vh))
            for (h, v), w, c, vh in zip(pts, rng.uniform(0.05, 0.3, n),
                                        rng.uniform(0.1, 1.0, n),
                                        rng.uniform(1e-6, 1e-3, n))]
    assert nms_merge(dets) == reference_nms_merge(dets)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 120),
       iou_keep=st.sampled_from([0.0, 0.3, 0.5]), vote=st.booleans())
@settings(max_examples=100, deadline=None)
def test_nms_windows_partition_the_detections(seed, n, iou_keep, vote):
    # run_trial looks up each detection's window by identity, so every
    # detection object, equal-valued copies included, is in exactly one
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-3.0, 3.0, size=(max(1, n // 10), 2))
    pts = centers[rng.integers(0, len(centers), n)] + rng.normal(0.0, 0.05, (n, 2))
    dets = [box(float(h), float(v), w=float(w), h=0.1, conf=float(c))
            for (h, v), w, c in zip(pts, rng.uniform(0.05, 0.3, n),
                                    rng.choice([0.5, 0.9], n))]
    dets += [box(*d[:4], conf=d.confidence) for d in dets[:n // 4]]
    windows = nms_merge(dets, iou_keep=iou_keep, vote=vote)
    members = sorted(id(m) for w in windows for m in w.members)
    assert members == sorted(id(d) for d in dets)


def test_nms_confidence_tie_goes_to_lower_index():
    a = box(0.0, 0.0, conf=0.8, var_h=1e-3)
    b = box(0.1, 0.0, conf=0.8, var_h=2e-4)
    c = box(5.0, 0.0, conf=0.8)
    for dets in ([a, b, c], [b, a, c], [c, b, a]):
        windows = nms_merge(dets)
        assert windows == reference_nms_merge(dets)
        first = next(d for d in dets if d is not c)
        assert windows[[len(w.members) for w in windows].index(2)].members[0] is first


def test_nms_iou_exactly_at_keep_does_not_merge():
    a, b = box(0.0, 0.0, conf=0.9), box(0.5, 0.0, conf=0.8)
    assert iou(a, b) == 1.0 / 3.0
    assert len(nms_merge([a, b], iou_keep=1.0 / 3.0)) == 2
    assert nms_merge([a, b], iou_keep=1.0 / 3.0) == \
        reference_nms_merge([a, b], iou_keep=1.0 / 3.0)


def test_nms_touching_boxes_do_not_merge_at_zero_keep():
    dets = [box(0.0, 0.0, conf=0.9), box(1.0, 0.0, conf=0.8),
            box(0.0, 1.0, conf=0.7)]
    windows = nms_merge(dets, iou_keep=0.0)
    assert [len(w.members) for w in windows] == [1, 1, 1]
    assert windows == reference_nms_merge(dets, iou_keep=0.0)


def test_nms_members_keep_rank_order():
    dets = [box(0.02 * k, 0.0, conf=c) for k, c in
            enumerate([0.5, 0.9, 0.5, 0.7, 0.9])]
    (window,) = nms_merge(dets)
    assert window.members == (dets[1], dets[4], dets[3], dets[0], dets[2])
    assert [window] == reference_nms_merge(dets)


@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8),
                          st.integers(1, 8), st.integers(1, 8)),
                min_size=2, max_size=12))
@settings(max_examples=200, deadline=None)
def test_bounds_iou_bit_identical_to_iou(quads):
    dets = [box(h * 0.25, v * 0.25, w * 0.25, hh * 0.25) for h, v, w, hh in quads]
    cols = np.array([(d.theta_h, d.theta_v, d.width_deg, d.height_deg)
                     for d in dets])
    bounds = box_bounds(cols[:, :2], cols[:, 2:])
    got = bounds_iou(bounds[:, None], bounds)
    want = [[reference_iou(a, b) for b in dets] for a in dets]
    assert got.tolist() == want
    assert [[iou(a, b) for b in dets] for a in dets] == want


# --- voting from the suppression IoUs against overlap_prob ------------------------

@given(dets=st.lists(
           st.builds(box,
                     th=st.integers(-4, 4).map(lambda k: k * 0.125),
                     tv=st.integers(-2, 2).map(lambda k: k * 0.125),
                     w=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                     h=st.sampled_from([0.0, 0.25, 1.0]),
                     conf=st.sampled_from([0.5, 0.9]),
                     var_h=st.floats(0.0, 1e-3), var_v=st.floats(0.0, 1e-3)),
           max_size=70),
       iou_keep=st.sampled_from([0.0, 0.2, 0.5]),
       sigma_t=st.sampled_from([0.025, 0.3]))
@settings(max_examples=300, deadline=None)
def test_voting_matches_overlap_prob_reference(dets, iou_keep, sigma_t):
    # dense coarse clusters span several blocks; zero-area boxes have IoU 0
    # with themselves, which their vote weight must keep
    kw = dict(iou_keep=iou_keep, sigma_t=sigma_t)
    assert nms_merge(dets, **kw) == reference_nms_merge(dets, **kw)


@pytest.mark.parametrize("n", [1, 2, 31, 33, 300])
def test_voting_matches_overlap_prob_reference_on_clusters(n):
    rng = np.random.default_rng(n)
    centers = rng.uniform(-15.0, 15.0, size=(max(1, n // 40), 2))
    pts = centers[rng.integers(0, len(centers), n)] + rng.normal(0.0, 0.005, (n, 2))
    dets = [box(float(h), float(v), w=float(w), h=float(w) / 2.0, conf=float(c),
                var_h=float(vh), var_v=float(vh) * 2.0)
            for (h, v), w, c, vh in zip(pts, rng.uniform(0.1, 0.3, n),
                                        rng.uniform(0.1, 1.0, n),
                                        rng.uniform(1e-6, 1e-3, n))]
    windows = nms_merge(dets)
    assert windows == reference_nms_merge(dets)
    if n == 300:
        assert max(len(w.members) for w in windows) > 32


def test_bounds_iou_of_zero_area_boxes_matches_iou():
    dets = [box(0.0, 0.0, 0.0, 1.0), box(0.0, 0.0, 0.0, 0.0),
            box(0.0, 0.0, 1.0, 1.0), box(0.5, 0.0, 1.0, 0.0)]
    cols = np.array([(d.theta_h, d.theta_v, d.width_deg, d.height_deg)
                     for d in dets])
    bounds = box_bounds(cols[:, :2], cols[:, 2:])
    got = bounds_iou(bounds[:, None], bounds)
    want = [[reference_iou(a, b) for b in dets] for a in dets]
    assert got.tolist() == want
    assert [[iou(a, b) for b in dets] for a in dets] == want


# --- per-axis IoUs and the grouped vote against their former code -------------------

def reference_bounds_iou(a, b):
    """bounds_iou as it took both axes at once, from the [..., 2:4] columns."""
    overlap = np.maximum(np.minimum(a[..., 2:4], b[..., 2:4])
                         - np.maximum(a[..., :2], b[..., :2]), 0.0)
    inter = overlap[..., 0] * overlap[..., 1]
    return np.divide(inter, a[..., 4] + b[..., 4] - inter,
                     out=np.zeros_like(inter), where=inter > 0.0)


def reference_variance_vote(members):
    """The per-member loop the grouped vote replaced."""
    num_h = num_v = den_h = den_v = 0.0
    for det, p in members:
        wh = p / max(det.var_h, VAR_FLOOR)
        wv = p / max(det.var_v, VAR_FLOOR)
        num_h += wh * det.theta_h
        num_v += wv * det.theta_v
        den_h += wh
        den_v += wv
    return num_h / den_h, num_v / den_v, 1.0 / den_h, 1.0 / den_v


def grid_bounds(rng, n):
    """Boxes on a coarse grid: zero-area, touching and duplicate ones occur."""
    centers = rng.integers(-6, 7, (n, 2)) * 0.25
    sizes = rng.choice([0.0, 0.25, 0.5, 1.0, 1.5], (n, 2))
    return box_bounds(centers, sizes)


@pytest.mark.parametrize("n", [1, 5, 40, 120])
def test_bounds_iou_matches_the_two_axis_form(n):
    rng = np.random.default_rng(n)
    b = grid_bounds(rng, n)
    got = bounds_iou(b[:, None], b)
    assert got.tobytes() == reference_bounds_iou(b[:, None], b).tobytes()
    assert bounds_iou(b, b[::-1]).tobytes() == \
        reference_bounds_iou(b, b[::-1]).tobytes()
    assert bounds_iou(b[0], b[-1]).shape == ()
    if n >= 40:  # zero-area, touching (IoU 0 with the edges shared) and partial
        assert (b[:, 4] == 0.0).any()
        assert ((got > 0.0) & (got < 1.0)).any()
        touch = (b[:, None, 2] == b[:, 0]) & (b[:, None, 1] < b[:, 3]) \
            & (b[:, None, 3] > b[:, 1])
        assert touch.any() and (got[touch] == 0.0).all()


def test_variance_vote_matches_the_member_loop():
    rng = np.random.default_rng(12)
    for k in range(600):
        n = int(rng.integers(1, 12))
        members = [(box(float(th), float(tv), var_h=float(vh), var_v=float(vv)),
                    float(p))
                   for th, tv, vh, vv, p in zip(
                       rng.normal(0.0, 10.0, n) * 10.0 ** rng.integers(-6, 3, n),
                       rng.choice([0.0, -0.0, 1.5, -20.0], n),
                       rng.choice([0.0, 1e-7, 1e-4, 0.3], n),
                       rng.uniform(0.0, 1e-2, n),
                       rng.choice([1.0, 0.5, 1e-9, 0.731], n))]
        got = variance_vote(members)
        assert all(type(v) is float for v in got)
        assert repr(got) == repr(reference_variance_vote(members))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 200),
       sigma_t=st.sampled_from([1e-6, 0.025, 1.0]))
@settings(max_examples=60, deadline=None)
def test_nms_windows_vote_as_the_member_loop(seed, n, sigma_t):
    # every window's center and radii are the per-member loop's, run over
    # its members with their overlap_prob against the window's best box
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, size=(max(1, n // 8), 2))
    pts = centers[rng.integers(0, len(centers), n)] + rng.normal(0.0, 0.05, (n, 2))
    dets = [box(float(h), float(v), w=float(w), h=0.1, conf=float(c),
                var_h=float(vh), var_v=float(vh) / 3.0)
            for (h, v), w, c, vh in zip(pts, rng.uniform(0.05, 0.3, n),
                                        rng.choice([0.5, 0.7, 0.9], n),
                                        rng.choice([0.0, 1e-6, 2e-4], n))]
    for limit in (20.0, 1.0):
        for w in nms_merge(dets, sigma_t=sigma_t, limit=limit):
            best = w.members[0]
            c_h, c_v, r_h, r_v = reference_variance_vote(
                [(m, overlap_prob(m, best, sigma_t)) for m in w.members])
            assert repr((w.center_h, w.center_v, w.radius_h, w.radius_v)) == \
                repr((min(max(c_h, -limit), limit), min(max(c_v, -limit), limit),
                      r_h, r_v))
