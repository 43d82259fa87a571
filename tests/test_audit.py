import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsense import audit
from subsense import datasets as ds
from subsense import identity as idn
from subsense import subjectivity as sj
from subsense.errors import ContractError

import oracles

T, N = ds.Label.TOXIC, ds.Label.NONTOXIC

SCORING = sj.SubjectivityLexicon(
    [sj.LexiconEntry("awful", 0.9), sj.LexiconEntry("flat", 0.2)]
)
TERMS = idn.default_terms()


class TestConfusion:
    def test_all_correct_toxic(self):
        counts = audit.confusion([T, T, T], [T, T, T])
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (3, 0, 0, 0)

    def test_enumerated_triple(self):
        counts = audit.confusion([T, T, N], [T, N, N])
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 1, 1, 0)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            audit.confusion([], [])

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            audit.confusion([T], [T, N])

    def test_total(self):
        counts = audit.confusion([T, N, N, T], [N, N, T, T])
        assert counts.total == 4

    def test_negative_count_refused(self):
        with pytest.raises(ContractError, match="^confusion counts must be non-negative$"):
            audit.ConfusionCounts(1, -1, 0, 0)


class TestF1:
    def test_perfect(self):
        assert audit.f1(audit.ConfusionCounts(5, 0, 0, 0)) == 1.0

    def test_zero_tp(self):
        assert audit.f1(audit.ConfusionCounts(0, 3, 2, 1)) == 0.0

    def test_all_zero_defined(self):
        assert audit.f1(audit.ConfusionCounts(0, 0, 7, 0)) == 0.0

    def test_hand_value(self):
        assert audit.f1(audit.ConfusionCounts(3, 1, 0, 2)) == pytest.approx(6 / 9)

    @given(st.lists(st.tuples(st.sampled_from([T, N]), st.sampled_from([T, N])),
                    min_size=1, max_size=30),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, pairs, rnd):
        preds = [p for p, _ in pairs]
        golds = [g for _, g in pairs]
        before = audit.f1(audit.confusion(preds, golds))
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        after = audit.f1(audit.confusion([p for p, _ in shuffled], [g for _, g in shuffled]))
        assert before == after


class TestQuartiles:
    def test_hand_example(self):
        q = audit.quartiles([0.1, 0.2, 0.3, 0.4, 0.5])
        assert (q.q1, q.median, q.q3) == (pytest.approx(0.2), pytest.approx(0.3), pytest.approx(0.4))
        assert (q.low, q.high) == (0.1, 0.5)

    def test_single_value(self):
        q = audit.quartiles([0.4])
        assert q.low == q.q1 == q.median == q.q3 == q.high == 0.4

    def test_interpolation(self):
        q = audit.quartiles([0.0, 1.0])
        assert q.q1 == pytest.approx(0.25)
        assert q.median == pytest.approx(0.5)
        assert q.q3 == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            audit.quartiles([])

    def test_out_of_order_refused(self):
        with pytest.raises(ContractError, match="^quartiles out of order$"):
            audit.Quartiles(0.1, 0.3, 0.2, 0.4, 0.5)


def brute_force_cells(comments, preds, golds):
    """Independent regrouping plus quartiles from the declared rule."""
    groups = {}
    for comment, pred, gold in zip(comments, preds, golds):
        if pred == T:
            outcome = "TP" if gold == T else "FP"
        else:
            outcome = "FN" if gold == T else "TN"
        with_identity = idn.detect(comment.text, TERMS).present
        groups.setdefault((outcome, with_identity), []).append(
            sj.score(comment.text, SCORING).value
        )

    def quantile(values, q):
        values = sorted(values)
        if len(values) == 1:
            return values[0]
        h = (len(values) - 1) * q
        lo = math.floor(h)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (h - lo) * (values[hi] - values[lo])

    out = {}
    for key, values in groups.items():
        out[key] = (
            sorted(values),
            (min(values), quantile(values, 0.25), quantile(values, 0.5),
             quantile(values, 0.75), max(values)),
        )
    return out


def sample_comments(rng_seed=0, n=40):
    import random

    rng = random.Random(rng_seed)
    words = ["awful", "flat", "plain", "muslim", "women", "gay", "table", "river"]
    comments, preds, golds = [], [], []
    for i in range(n):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
        comments.append(ds.Comment(f"c{i}", text, rng.choice([T, N])))
        preds.append(rng.choice([T, N]))
        golds.append(comments[-1].label)
    return comments, preds, golds


class TestBiasGroups:
    def test_single_tp_with_identity(self):
        comments = [ds.Comment("a", "the women spoke", T)]
        cells = audit.bias_groups([T], [T], oracles.features(comments, TERMS, SCORING))
        assert cells[("TP", True)].size == 1
        assert sum(c.size for c in cells.values()) == 1

    def test_partition_law(self):
        comments, preds, golds = sample_comments(3)
        cells = audit.bias_groups(preds, golds, oracles.features(comments, TERMS, SCORING))
        assert len(cells) == 8
        assert sum(c.size for c in cells.values()) == len(comments)

    def test_matches_brute_force(self):
        comments, preds, golds = sample_comments(4, n=60)
        cells = audit.bias_groups(preds, golds, oracles.features(comments, TERMS, SCORING))
        expected = brute_force_cells(comments, preds, golds)
        for key, cell in cells.items():
            if cell.size == 0:
                assert key not in expected
                assert cell.stats is None
                continue
            exp_scores, exp_q = expected[key]
            assert sorted(cell.scores) == exp_scores
            got = (cell.stats.low, cell.stats.q1, cell.stats.median,
                   cell.stats.q3, cell.stats.high)
            assert got == exp_q

    def test_named_groups_view(self):
        comments, preds, golds = sample_comments(5)
        features = oracles.features(comments, TERMS, SCORING)
        payload = audit.audit_report([c.id for c in comments], preds, golds,
                                     features).to_json_dict()
        named, cells = payload["named_groups"], payload["cells"]
        assert set(named) == {"TPwIT", "FPwIT", "TNwoIT", "FNwoIT"}
        # A named group holds only its cell's size: the cell itself holds the rest.
        assert named["TPwIT"] == {"size": cells["TP_with_identity"]["size"]}
        assert named["FPwIT"] == {"size": cells["FP_with_identity"]["size"]}
        assert named["TNwoIT"] == {"size": cells["TN_without_identity"]["size"]}
        assert named["FNwoIT"] == {"size": cells["FN_without_identity"]["size"]}

    def test_alignment_checked(self):
        comments, preds, golds = sample_comments(6)
        with pytest.raises(ContractError):
            audit.bias_groups(preds[:-1], golds, oracles.features(comments, TERMS, SCORING))


class TestAggregate:
    def test_constant_runs(self):
        agg = audit.aggregate([(0.7, 3, 4), (0.7, 5, 6)])
        assert agg.mean_f1 == pytest.approx(0.7)
        assert agg.std_f1 == 0.0
        assert agg.mean_fp == 4.0
        assert agg.mean_fn == 5.0

    def test_population_std_of_two(self):
        agg = audit.aggregate([(0.6, 0, 0), (0.8, 0, 0)])
        assert agg.mean_f1 == pytest.approx(0.7)
        assert agg.std_f1 == pytest.approx(0.1)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            audit.aggregate([])

    @pytest.mark.parametrize("mean_f1,std_f1,message", [
        (0.9, 0.1, "mean outside the observed range"),
        (0.7, -0.1, "standard deviation cannot be negative"),
    ])
    def test_inconsistent_fields_refused(self, mean_f1, std_f1, message):
        with pytest.raises(ContractError, match=f"^{message}$"):
            audit.RunAggregate((0.6, 0.8), mean_f1, std_f1, 0.0, 0.0)

    def test_render_row_format(self):
        agg = audit.aggregate([(0.5952, 34, 55)] * 3)
        table = audit.render_f1_table([("gated", agg)])
        assert "F1" in table.splitlines()[0] and "std" in table.splitlines()[0]
        assert "0.5952" in table
        assert "0.0000" in table

    def test_fp_fn_table(self):
        table = audit.render_fp_fn_table(
            [("plain", audit.aggregate([(0.5, 227, 78)])),
             ("gated", audit.aggregate([(0.6, 214, 81)]))]
        )
        header = table.splitlines()[0]
        assert "FP" in header and "FN" in header
        assert "214.0" in table and "227.0" in table

    def test_tables_are_deterministic(self):
        rows = [("a", audit.aggregate([(0.61, 10, 3), (0.63, 11, 2)]))]
        assert audit.render_f1_table(rows) == audit.render_f1_table(rows)
        assert audit.render_fp_fn_table(rows) == audit.render_fp_fn_table(rows)


class TestReport:
    def test_error_listing_sorted(self):
        comments = [
            ds.Comment("a", "awful women stuff", N),
            ds.Comment("b", "flat river text", N),
            ds.Comment("c", "the muslim community", T),
        ]
        preds = [T, T, N]
        rows = audit.error_listing([c.id for c in comments], preds,
                                   [c.label for c in comments],
                                   oracles.features(comments, TERMS, SCORING))
        assert [r.error for r in rows] == ["FN", "FP", "FP"]
        fps = [r for r in rows if r.error == "FP"]
        assert fps[0].subjectivity >= fps[1].subjectivity
        assert fps[0].terms == ("women",)

    def test_report_round_trip_and_determinism(self):
        comments, preds, golds = sample_comments(9, n=30)
        ids = [c.id for c in comments]
        report = audit.audit_report(ids, preds, golds,
                                    oracles.features(comments, TERMS, SCORING))
        again = audit.audit_report(ids, preds, golds,
                                   oracles.features(comments, TERMS, SCORING))
        assert report.to_json_dict() == again.to_json_dict()
        assert report.to_text() == again.to_text()
        assert report.counts.total == 30
        payload = report.to_json_dict()
        assert set(payload["named_groups"]) == {"TPwIT", "FPwIT", "TNwoIT", "FNwoIT"}
        sizes = [cell["size"] for cell in payload["cells"].values()]
        assert sum(sizes) == 30


class TestOneDerivationPerComment:
    """The outcome is a table lookup, and the report equals the frozen
    three-pass audit in ``oracles`` exactly."""

    def test_outcome_of_each_pair(self):
        for pred, gold, want in ((T, T, "TP"), (T, N, "FP"), (N, N, "TN"), (N, T, "FN")):
            assert audit._outcome(pred, gold) == want == oracles.outcome(pred, gold)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c,d"]), st.sampled_from([T, N]),
                              st.sampled_from([T, N]),
                              st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                              st.sampled_from([(), ("women",), ("gay", "muslim")])),
                    min_size=1, max_size=25))
    def test_report_matches_three_pass_oracle(self, rows):
        # Few ids, labels and scores, so that cells stay empty and ids and
        # subjectivities tie in the error order.
        comments = [ds.Comment(cid, "text", gold) for cid, _, gold, _, _ in rows]
        preds = [pred for _, pred, _, _, _ in rows]
        golds = [gold for _, _, gold, _, _ in rows]
        features = [audit.CommentFeatures(s, terms) for _, _, _, s, terms in rows]
        got = audit.audit_report([c.id for c in comments], preds, golds, features)
        want = oracles.feature_audit_report(comments, preds, golds, features)
        assert (got.counts, got.f1) == (want.counts, want.f1)
        assert list(got.cells.items()) == list(want.cells.items())
        assert got.errors == want.errors
