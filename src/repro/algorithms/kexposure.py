"""The k-exposure metric from Kineograph (section 6.3, Figure 7c).

k-exposure identifies controversial topics on Twitter by counting, per
hashtag, how many distinct users have been *exposed* to it — a user is
exposed when someone they follow tweets the tag.  The paper implements
it "in 26 lines of code using standard data parallel operators of
Distinct, Join, and Count", which is exactly the pipeline here:

1. join tweets ``(tweeter, hashtag)`` with follower edges
   ``(follower, followee)`` on the tweeting user;
2. distinct ``(follower, hashtag)`` exposure pairs;
3. count exposures per hashtag.

:func:`k_exposure_incremental` also puts a distinct in front of the
join, so a repeated ``(user, hashtag)`` tweet is joined once, not once
per repetition, and places each distinct by the next operator's key, so
the exposures are counted on the worker that deduplicated them (see its
docstring).

Per-epoch semantics give Kineograph-style consistent snapshots: each
epoch's output reflects exactly the tweets ingested in that epoch.
"""

from __future__ import annotations


from ..lib.incremental import Collection
from ..lib.stream import Stream


def k_exposure(
    tweets: Stream,
    followers: Stream,
    name: str = "kexposure",
) -> Stream:
    """``(hashtag, exposed_user_count)`` per epoch.

    ``tweets`` carries ``(user, hashtag)`` pairs; ``followers`` carries
    ``(follower, followee)`` pairs (an edge per follow relationship,
    re-suppliable each epoch or joined against a static snapshot).
    """
    exposures = tweets.join(
        followers,
        left_key=lambda tweet: tweet[0],       # tweeting user
        right_key=lambda edge: edge[1],        # followee
        result=lambda tweet, edge: (edge[0], tweet[1]),  # (follower, tag)
        name="%s.join" % name,
    )
    return (
        exposures.distinct(name="%s.distinct" % name)
        .count_by(lambda pair: pair[1], name="%s.count" % name)
    )


def _tweeter(tweet):
    return tweet[0]


def _hashtag(exposure):
    return exposure[1]


def k_exposure_incremental(
    tweets: Collection,
    followers: Collection,
    name: str = "kexposure_inc",
) -> Collection:
    """Streaming k-exposure over incremental collections (section 6.3).

    The follower graph accumulates (fed once, or grown over time) and
    each epoch of tweets produces *diffs* to the per-hashtag exposure
    counts — Naiad's consistent-epoch answer to Kineograph's periodic
    snapshots.

    The tweets pass through a distinct before the join.  Distinct
    commutes into a join's input: when both inputs' accumulated
    multiplicities are non-negative,
    ``distinct(A join B) = distinct(distinct(A) join B)`` at every time,
    because an output record is in the join's support exactly when some
    pair of records it comes from is in the inputs' supports, and
    ``distinct(A)`` has ``A``'s support.  A multiplicity is negative only
    when a retraction outruns its insertion, which valid tweet and follow
    streams never do, so the output is unchanged; but a repeated
    ``(user, hashtag)`` tweet no longer joins again with each of the
    user's followers, only for the exposure distinct to drop the result.

    Each distinct is placed by the key of the keyed operator after it,
    passed as the same function object: the tweet distinct by the
    tweeting user, the join's own left key, and the exposure distinct
    by the hashtag, the count's own key.  Equal records have equal
    keys, so they still meet at one worker and the output does not
    change.  A distinct preserves its placement, so exchange elision
    drops the exchange after each one: every tweet stays on the worker
    that joins it, and every exposure on the worker that counts it,
    which fusion then runs with the count in one stage.  Placed by the
    whole record, as a plain ``distinct()`` is, each would send its
    records once more.
    """
    exposures = tweets.distinct(name="%s.tweets" % name, key=_tweeter).join(
        followers,
        left_key=_tweeter,
        right_key=lambda edge: edge[1],
        result=lambda tweet, edge: (edge[0], tweet[1]),
        name="%s.join" % name,
    )
    return exposures.distinct(name="%s.distinct" % name, key=_hashtag).count_by(
        _hashtag, name="%s.count" % name
    )
