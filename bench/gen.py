"""Seeded generator of realistic comments for the eval-side workloads.

Each comment mixes filler words with forms from the packaged subjectivity
lexicon (single and two-word forms, optionally behind an intensity modifier
or a negation) and, for a share of comments, stock identity terms, either
bare or with punctuation attached ("muslim's", "women-only", "islam,jews").
Lengths run from 5 to 60 words. The label follows a planted rule over the
hostile forms the comment contains, so both classes occur.

The word lists are fixed here rather than read from the package, so one seed
gives the same CSV bytes whichever version of the program is measured.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass

# Forms of the packaged lexicon at the time the benchmark was written. The
# intensity modifiers and "black" (also an identity term) are kept apart.
LEXICON_FORMS = (
    "absurd", "amazing", "angry", "annoying", "awful", "bad", "beautiful",
    "best", "boring", "brilliant", "crazy", "cruel", "despicable", "dirty",
    "disgusting", "dreadful", "dull", "dumb", "evil", "excellent", "exciting",
    "extreme", "fake", "fantastic", "fed up", "filthy", "foolish", "furious",
    "good", "great", "gross", "happy", "hate", "hateful", "honest", "horrible",
    "insane", "interesting", "love", "lovely", "mad", "most", "nasty", "nice",
    "normal", "odd", "outrageous", "pathetic", "perfect", "poor", "pretty",
    "proud", "ridiculous", "sad", "silly", "strange", "stupid", "sure",
    "terrible", "ugly", "vicious", "vile", "weak", "weird", "wonderful",
    "worst", "wrong",
)
MODIFIERS = (
    "absolutely", "completely", "deeply", "extremely", "highly", "incredibly",
    "quite", "really", "totally", "utterly", "very",
)
NEGATIONS = ("not", "never", "no", "don't", "isn't", "hardly")
HOSTILE_FORMS = frozenset((
    "awful", "cruel", "despicable", "disgusting", "dreadful", "dumb", "evil",
    "filthy", "gross", "hate", "hateful", "horrible", "nasty", "pathetic",
    "stupid", "ugly", "vicious", "vile", "worst",
))
# The stock identity list, verbatim.
IDENTITY_TERMS = (
    "muslim", "jew", "jews", "white", "islam", "blacks", "muslims", "women",
    "whites", "gay", "black", "democat", "islamic", "allah", "jewish",
    "lesbian", "transgender", "race", "brown", "woman", "mexican", "religion",
    "homosexual", "homosexuality", "africans",
)
FILLER = tuple("""
the a an and or but of to in on at for with from by about as into over after
before during under again then once here there when where why how all any
both each few more other some such only own same so than too can will just
should now this that these those i you he she it we they me him her us them
my your his its our their what which who whom is are was were be been being
have has had do does did doing would could people thread article comment post
reply news story week year day time town city council school road park team
game match season budget plan report policy vote court law rule tax price
market job work company bank store food water weather rain traffic bus train
car bridge river street house home family friend neighbour kid parent doctor
nurse teacher police officer mayor senator minister leader member group crowd
meeting event festival church mosque temple club library museum garden field
farm village country state nation world history future idea reason question
answer point issue problem change result number part place side case fact
think say said know see look want give use find tell ask seem feel try leave
call keep let begin show hear play run move live believe bring happen write
provide sit stand lose pay meet include continue set learn lead understand
watch follow stop create speak read allow add spend grow open walk win offer
remember consider appear buy wait serve die send expect build stay fall cut
reach kill remain suggest raise pass sell require decide
""".split())
_ATTACHED = ("{}'s", "{}-only", "{},", "{}.", "({})", "{}!", "{}?")


@dataclass(frozen=True)
class GeneratedComment:
    id: str
    text: str
    label: str  # "toxic" or "nontoxic"
    has_identity: bool
    n_words: int


def _identity_word(rng: random.Random) -> str:
    term = rng.choice(IDENTITY_TERMS)
    roll = rng.random()
    if roll < 0.5:
        return term
    if roll < 0.65:
        return f"{term},{rng.choice(IDENTITY_TERMS)}"
    return rng.choice(_ATTACHED).format(term)


def _opinion_phrase(rng: random.Random) -> tuple[list[str], bool]:
    """Words of one lexicon hit and whether it counts as hostile."""
    form = rng.choice(LEXICON_FORMS)
    words = form.split()
    negated = rng.random() < 0.2
    if rng.random() < 0.3:
        words = [rng.choice(MODIFIERS)] + words
    if negated:
        words = [rng.choice(NEGATIONS)] + words
    return words, form in HOSTILE_FORMS and not negated


def generate(n: int, seed: int, part: str) -> list[GeneratedComment]:
    """``n`` comments for one split; ``part`` keeps splits of a seed apart."""
    rng = random.Random(f"subsense-bench-{part}-{seed}")
    out = []
    for i in range(n):
        length = rng.randint(5, 60)
        phrases: list[list[str]] = []
        hostile = 0
        has_identity = rng.random() < 0.45
        if has_identity:
            phrases.extend([_identity_word(rng)] for _ in range(rng.randint(1, 2)))
        for _ in range(rng.randint(0, 1 + length // 12)):
            words, is_hostile = _opinion_phrase(rng)
            phrases.append(words)
            hostile += is_hostile
        n_fixed = sum(len(p) for p in phrases)
        fillers = [[rng.choice(FILLER)] for _ in range(max(0, length - n_fixed))]
        # Interleave phrases among fillers without splitting a phrase.
        slots = fillers + phrases
        order = list(range(len(slots)))
        rng.shuffle(order)
        words = [w for j in order for w in slots[j]]
        toxic = hostile >= 2 or (hostile >= 1 and has_identity)
        out.append(GeneratedComment(
            f"{part}-{i:06d}", " ".join(words), "toxic" if toxic else "nontoxic",
            has_identity, len(words),
        ))
    return out


def write_csv(comments, path) -> None:
    """Canonical ``id,text,label`` CSV, as the program's readers expect."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "label"])
        for c in comments:
            writer.writerow([c.id, c.text, c.label])
