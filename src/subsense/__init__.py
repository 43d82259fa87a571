"""Subjectivity-gated input augmentation for toxic comment classification.

The toolkit scores how opinionated a comment is against a word-sense
lexicon, detects identity terms, and feeds both signals to a small
trainable transformer through an extra input slot whose attention mask is
gated on identity-term presence. A bias-audit harness decomposes errors by
identity presence and subjectivity.

The API is the submodules, for example ``from subsense import trainer``.
"""
