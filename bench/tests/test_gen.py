"""The realistic-comment generator: same seed, same inputs."""

import gen
from subsense import identity, textprep


def test_same_seed_gives_same_comments_and_bytes(tmp_path):
    first, second = gen.generate(300, 7, "test"), gen.generate(300, 7, "test")
    assert first == second
    gen.write_csv(first, tmp_path / "a.csv")
    gen.write_csv(second, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_seeds_and_parts_differ():
    base = gen.generate(50, 7, "test")
    assert base != gen.generate(50, 8, "test")
    assert base != gen.generate(50, 7, "train")


def test_comment_shape_and_planted_rule():
    comments = gen.generate(2000, 3, "test")
    assert all(5 <= c.n_words <= 60 for c in comments)
    assert {c.label for c in comments} == {"toxic", "nontoxic"}
    texts = " ".join(c.text for c in comments)
    for attached in ("'s ", "-only", ","):
        assert attached in texts
    assert "fed up" in texts
    terms = identity.default_terms()
    for c in comments:
        # The generator's identity flag is the program's notion of presence.
        assert identity.detect(c.text, terms).present == c.has_identity
        assert c.label == "nontoxic" or any(
            tok in gen.HOSTILE_FORMS for tok in textprep.word_split(c.text))
